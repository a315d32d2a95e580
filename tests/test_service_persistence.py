"""Service durability and preemption (``--state-dir`` + the journal).

Anchors:

* ``DELETE /jobs/<id>?preempt=true`` checkpoints a running job out of
  its worker, requeues it as ``preempted``, and the job later finishes
  with a result digest identical to an unpreempted run;
* the job journal replays at boot: terminal jobs come back queryable,
  queued/preempted jobs re-enter the queue, and jobs a dead process
  left running are requeued (checkpointing on) or stamped
  ``interrupted`` (checkpointing off);
* the journal itself is a pure event fold that tolerates torn lines
  and unreplayable envelopes.
"""

from __future__ import annotations

import threading

import pytest

from repro.harness import run_spec
from repro.harness.cache import ResultCache, result_to_dict, stable_digest
from repro.harness.parallel import SerialExecutor
from repro.service import (DONE, INTERRUPTED, PREEMPTED, QUEUED, RUNNING,
                           ExperimentService, JobJournal, JobStore,
                           ServiceClient, ServiceError)
from repro.spec import ExperimentSpec, JobEnvelope

pytestmark = pytest.mark.service

#: long enough to guarantee checkpoint boundaries while running
SLOWCELL = {"mechanism": "rflov", "pattern": "uniform", "rate": 0.05,
            "gated_fraction": 0.4, "warmup": 100, "measure": 1400,
            "seed": 9, "overrides": {"width": 4, "height": 4}}


class GatedSerial(SerialExecutor):
    """Serial executor that waits on an event before each cell."""

    def __init__(self, gate: threading.Event) -> None:
        super().__init__()
        self.gate = gate

    def execute(self, tasks, emit) -> None:
        self.mode = "serial"
        for i, task in enumerate(tasks):
            if not self.gate.wait(30.0):
                raise TimeoutError("test gate never released")
            emit(i, task.run())


@pytest.fixture
def service(tmp_path):
    started, clients = [], []

    def boot(**kw) -> tuple[ExperimentService, ServiceClient]:
        kw.setdefault("executor", "serial")
        kw.setdefault("workers", 1)
        kw.setdefault("cache", ResultCache(tmp_path / "cache"))
        kw.setdefault("state_dir", str(tmp_path / "state"))
        svc = ExperimentService(**kw)
        port = svc.start()
        started.append(svc)
        clients.append(ServiceClient(port=port))
        return svc, clients[-1]

    yield boot
    for client in clients:
        client.close()
    for svc in started:
        svc.stop()


def local_digest() -> str:
    r = run_spec(ExperimentSpec(**SLOWCELL).resolved())
    return stable_digest(result_to_dict(r))


def test_preempted_job_digest_equals_unpreempted_run(service):
    gate = threading.Event()
    _, client = service(executor=lambda: GatedSerial(gate),
                        checkpoint_every=200)
    snap = client.submit(SLOWCELL)

    deadline = 30.0
    import time
    t0 = time.monotonic()
    while client.job(snap["id"])["status"] != RUNNING:
        assert time.monotonic() - t0 < deadline
        time.sleep(0.01)
    # preempt while the worker holds the job but before any cell ran
    out = client.preempt(snap["id"])
    assert out["preempting"] and out["status"] == RUNNING
    gate.set()

    final = client.wait(snap["id"])
    assert final["status"] == DONE
    assert final["preemptions"] >= 1
    assert final["digest"] == local_digest()


def test_preempt_requires_a_running_job(service):
    _, client = service(checkpoint_every=200)
    snap = client.wait(client.submit(SLOWCELL)["id"])
    assert snap["status"] == DONE
    with pytest.raises(ServiceError) as exc:
        client.preempt(snap["id"])
    assert exc.value.status == 409


def test_restart_replays_terminal_job_with_result(service, tmp_path):
    _, client = service()
    first = client.wait(client.submit(SLOWCELL)["id"])
    assert first["status"] == DONE

    # same state dir and cache: full result payload is rebuilt
    _, client2 = service(cache=ResultCache(tmp_path / "cache"))
    snap = client2.job(first["id"])
    assert snap["status"] == DONE
    assert snap["digest"] == first["digest"]
    result = client2.result(first["id"])
    assert result["digest"] == first["digest"]
    assert client2.metric("service.jobs.recovered") == 1


def test_restart_without_cache_keeps_digest_but_409s_result(service,
                                                            tmp_path):
    _, client = service()
    first = client.wait(client.submit(SLOWCELL)["id"])

    # cells evicted (fresh empty cache): digest survives via the
    # journal, the payload honestly reports itself gone
    _, client2 = service(cache=ResultCache(tmp_path / "cache2"))
    snap = client2.job(first["id"])
    assert snap["digest"] == first["digest"]
    with pytest.raises(ServiceError) as exc:
        client2.result(first["id"])
    assert exc.value.status == 409
    assert "no longer available" in exc.value.message


def test_boot_requeues_journaled_queued_job(service, tmp_path):
    state = tmp_path / "state"
    journal = JobJournal(state)
    store = JobStore()
    job = store.new_job(JobEnvelope(spec=ExperimentSpec(**SLOWCELL)))
    journal.submit(job)

    _, client = service()
    snap = client.wait(job.id)
    assert snap["status"] == DONE
    assert snap["digest"] == local_digest()


def test_boot_marks_running_job_interrupted_when_not_resumable(service,
                                                               tmp_path):
    state = tmp_path / "state"
    journal = JobJournal(state)
    store = JobStore()
    job = store.new_job(JobEnvelope(spec=ExperimentSpec(**SLOWCELL)))
    journal.submit(job)
    journal.start(job)

    _, client = service(checkpoint_every=0)  # resumption disabled
    snap = client.job(job.id)
    assert snap["status"] == INTERRUPTED
    assert "restarted mid-run" in snap["error"]


def test_boot_requeues_running_job_when_checkpointing_on(service, tmp_path):
    state = tmp_path / "state"
    journal = JobJournal(state)
    store = JobStore()
    job = store.new_job(JobEnvelope(spec=ExperimentSpec(**SLOWCELL)))
    journal.submit(job)
    journal.start(job)

    _, client = service(checkpoint_every=200)
    snap = client.wait(job.id)
    assert snap["status"] == DONE
    assert snap["digest"] == local_digest()


def test_new_submissions_never_collide_with_replayed_ids(service):
    _, client = service()
    first = client.wait(client.submit(SLOWCELL)["id"])

    _, client2 = service()
    again = client2.submit(dict(SLOWCELL, seed=77))
    assert again["id"] != first["id"]
    assert client2.wait(again["id"])["status"] == DONE


# -- journal unit behavior ---------------------------------------------------


def envelope() -> JobEnvelope:
    return JobEnvelope(spec=ExperimentSpec(**SLOWCELL))


def test_journal_replay_folds_lifecycle_events(tmp_path):
    journal = JobJournal(tmp_path)
    store = JobStore()
    a = store.new_job(envelope())
    b = store.new_job(JobEnvelope(spec=ExperimentSpec(
        **dict(SLOWCELL, seed=2))))
    journal.submit(a)
    journal.submit(b)
    journal.start(a)
    a.done_cells = 1
    journal.preempt(a)
    b_result = {"digest": "beef"}
    b.status, b.result = DONE, b_result
    journal.finish(b)

    fresh = JobStore()
    jobs = JobJournal(tmp_path).replay(fresh)
    assert [j.id for j in jobs] == [a.id, b.id]
    ra, rb = jobs
    assert ra.status == PREEMPTED and ra.preemptions == 1
    assert ra.done_cells == 1
    assert rb.status == DONE and rb.result == {"digest": "beef"}
    assert fresh.get(a.id) is ra


def test_journal_skips_unreplayable_envelopes(tmp_path):
    journal = JobJournal(tmp_path)
    store = JobStore()
    good = store.new_job(envelope())
    journal.submit(good)
    journal._record("submit", good, envelope={"spec": {"mechanism": "nope"}})
    with pytest.warns(RuntimeWarning, match="unreplayable"):
        jobs = JobJournal(tmp_path).replay(JobStore())
    assert [j.id for j in jobs] == [good.id]


def test_journal_replay_tolerates_torn_final_line(tmp_path):
    journal = JobJournal(tmp_path)
    store = JobStore()
    job = store.new_job(envelope())
    journal.submit(job)
    journal.start(job)
    with open(journal.path, "a") as fh:
        fh.write('{"event": "finish", "job": "')  # writer killed here
    with pytest.warns(RuntimeWarning, match="skipping corrupt"):
        jobs = JobJournal(tmp_path).replay(JobStore())
    # the torn finish is lost; the job replays in its previous state
    assert jobs[0].status == RUNNING


def test_journal_events_reference_only_known_jobs(tmp_path):
    journal = JobJournal(tmp_path)
    store = JobStore()
    job = store.new_job(envelope())
    journal._record("start", job)  # start without submit: orphaned
    assert JobJournal(tmp_path).replay(JobStore()) == []


def test_store_restore_job_advances_sequence(tmp_path):
    store = JobStore()
    restored = store.restore_job("j000007", envelope())
    assert restored.id == "j000007" and restored.seq == 7
    fresh = store.new_job(envelope())
    assert fresh.seq == 8
