"""Adversarial and concurrency tests for the experiment service.

Three attack surfaces:

* **dedupe race** — N clients racing identical submissions must cost
  exactly one execution (``service.cells.executed`` counts real work);
* **priority scheduling** — under a seeded random submit/cancel soak
  the queue must never start a job while a strictly-higher-priority
  live job waits (no priority inversion), verified against a reference
  model of the sync core and end-to-end via ``started_seq``;
* **worker death** — a pool worker killed mid-cell (``os._exit``) must
  be retried without corrupting ``.repro_cache/`` (every file parses,
  results are digest-identical to an undisturbed serial run).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import warnings

import pytest

from repro.harness import parallel
from repro.harness.cache import ResultCache, result_to_dict, stable_digest
from repro.harness.parallel import (ParallelSweep, PoolExecutor,
                                    SerialExecutor, SweepTask)
from repro.service import (CACHE_HIT, CANCELLED, DONE, ExperimentService,
                           JobQueue, ServiceClient)
from repro.spec import ExperimentSpec

pytestmark = pytest.mark.service

FAST = {"mechanism": "baseline", "pattern": "uniform", "rate": 0.05,
        "warmup": 50, "measure": 200, "seed": 11,
        "overrides": {"width": 4, "height": 4}}

SWEEP = {"mechanisms": ["baseline", "rflov"], "pattern": "uniform",
         "rates": [0.05], "gated_fractions": [0.0, 0.5],
         "warmup": 50, "measure": 200, "seed": 4,
         "overrides": {"width": 4, "height": 4}}


def cell(**kw) -> dict:
    return dict(FAST, **kw)


class SlowSerial(SerialExecutor):
    def __init__(self, delay: float = 0.0,
                 gate: threading.Event | None = None) -> None:
        super().__init__()
        self.delay = delay
        self.gate = gate

    def execute(self, tasks, emit) -> None:
        self.mode = "serial"
        for i, task in enumerate(tasks):
            if self.gate is not None and not self.gate.wait(30.0):
                raise TimeoutError("test gate never released")
            if self.delay:
                time.sleep(self.delay)
            emit(i, task.run())


@pytest.fixture
def service(tmp_path):
    started, clients = [], []

    def boot(**kw) -> tuple[ExperimentService, ServiceClient]:
        kw.setdefault("executor", "serial")
        kw.setdefault("workers", 2)
        kw.setdefault("cache", ResultCache(tmp_path / "cache"))
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


# -- dedupe race --------------------------------------------------------------

def test_concurrent_identical_submits_execute_once(service):
    _, client = service(executor=lambda: SlowSerial(delay=0.1), workers=4)
    n = 8
    snaps: list[dict] = [None] * n
    barrier = threading.Barrier(n)

    def submit(i: int) -> None:
        barrier.wait()
        snaps[i] = client.submit(SWEEP)

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert all(s is not None for s in snaps)

    finals = [client.wait(s["id"]) for s in snaps]
    statuses = sorted(f["status"] for f in finals)
    assert statuses.count(DONE) == 1
    assert statuses.count(CACHE_HIT) == n - 1
    digests = {client.result(f["id"])["digest"] for f in finals}
    assert len(digests) == 1

    # the race cost exactly one execution of the 4-cell sweep
    assert client.metric("service.cells.executed") == 4
    # every non-primary submission was parked in-flight, not re-queued
    assert client.metric("service.dedupe.inflight_hits") == n - 1


def test_cancelled_primary_promotes_a_follower(service):
    gate = threading.Event()
    _, client = service(executor=lambda: SlowSerial(gate=gate), workers=1)
    blocker = client.submit(cell(seed=500))
    primary = client.submit(SWEEP)
    follower_a = client.submit(SWEEP)
    follower_b = client.submit(SWEEP)
    assert client.job(follower_a["id"])["dedup_of"] == primary["id"]

    out = client.cancel(primary["id"])
    assert out["status"] == CANCELLED
    gate.set()

    fa = client.wait(follower_a["id"])
    fb = client.wait(follower_b["id"])
    # exactly one follower was promoted and did the work; the other was
    # served from the store it filled
    assert sorted((fa["status"], fb["status"])) == [CACHE_HIT, DONE]
    promoted = fa if fa["status"] == DONE else fb
    assert client.job(promoted["id"])["dedup_of"] is None
    assert client.metric("service.cells.executed") == 1 + 4  # blocker + sweep


# -- priority scheduling ------------------------------------------------------

def test_priority_order_is_respected_end_to_end(service):
    gate = threading.Event()
    _, client = service(executor=lambda: SlowSerial(gate=gate), workers=1)
    blocker = client.submit(cell(seed=600))
    low = client.submit({"spec": cell(seed=601), "priority": 0})
    high = client.submit({"spec": cell(seed=602), "priority": 5})
    mid = client.submit({"spec": cell(seed=603), "priority": 1})
    gate.set()
    seqs = {name: client.wait(s["id"])["started_seq"]
            for name, s in (("blocker", blocker), ("low", low),
                            ("high", high), ("mid", mid))}
    assert seqs["blocker"] < seqs["high"] < seqs["mid"] < seqs["low"]


def test_job_queue_soak_never_inverts_priority():
    """Seeded random submit/cancel soak against a reference model.

    Invariant: every pop returns the highest-priority live entry,
    FIFO within a priority level, and never a cancelled id — so a
    strictly-higher-priority live job can never be overtaken.
    """
    rng = random.Random(0xF10)
    queue = JobQueue()
    model: dict[str, tuple[int, int]] = {}  # id -> (priority, seq)
    seq = 0
    next_id = 0
    for _ in range(5000):
        op = rng.random()
        if op < 0.5:
            job_id = f"j{next_id}"
            next_id += 1
            priority = rng.randint(-100, 100)
            queue.put(job_id, priority)
            model[job_id] = (priority, seq)
            seq += 1
        elif op < 0.7 and model:
            job_id = rng.choice(sorted(model))
            assert queue.cancel(job_id)
            del model[job_id]
        elif op < 0.75 and model:
            # cancelling an unknown/already-popped id is a no-op
            assert not queue.cancel(f"ghost{next_id}")
        else:
            got = queue.try_get()
            if not model:
                assert got is None
            else:
                expect = min(model, key=lambda j: (-model[j][0],
                                                   model[j][1]))
                assert got == expect
                del model[got]
        assert len(queue) == len(model)
    # drain: strictly non-increasing priority on the way out
    drained = []
    while (got := queue.try_get()) is not None:
        drained.append(model.pop(got)[0])
    assert not model
    assert drained == sorted(drained, reverse=True)


# -- worker death -------------------------------------------------------------

def _lethal_execute_task(task):
    """Kills the first pool worker that runs it, then behaves normally.

    The marker file (path via environment, inherited across fork) makes
    the kill a one-shot: the parent's in-process retry and all later
    cells run the real task.
    """
    marker = os.environ["REPRO_TEST_KILL_MARKER"]
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return parallel._real_execute_task_for_test(task)
    os.close(fd)
    os._exit(1)


def test_worker_killed_mid_cell_is_retried_without_cache_corruption(
        tmp_path, monkeypatch):
    cells = [ExperimentSpec(**cell(seed=700 + i)) for i in range(4)]
    tasks = [SweepTask.from_spec(s) for s in cells]

    # undisturbed serial reference run, isolated cache
    ref_cache = ResultCache(tmp_path / "ref")
    ref = ParallelSweep(executor=SerialExecutor(), cache=ref_cache).run(tasks)
    ref_digests = [stable_digest(result_to_dict(r)) for r in ref]

    marker = tmp_path / "killed"
    monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
    # stash the real task runner where the killer can find it, then
    # swap in the killer; fork-started pool children inherit both
    monkeypatch.setattr(parallel, "_real_execute_task_for_test",
                        parallel._execute_task, raising=False)
    monkeypatch.setattr(parallel, "_execute_task", _lethal_execute_task)

    cache = ResultCache(tmp_path / "cache")
    engine = ParallelSweep(executor=PoolExecutor(2), cache=cache)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = engine.run(tasks)
    assert marker.exists(), "the lethal task never ran in a worker"
    assert any("process pool broke" in str(w.message) or
               "retrying" in str(w.message) for w in caught)

    # same results as the undisturbed run...
    assert [stable_digest(result_to_dict(r)) for r in results] \
        == ref_digests
    # ...and the cache the interrupted engine wrote is fully intact:
    # every file parses and every cell replays to the same digest
    files = list((tmp_path / "cache").rglob("*.json"))
    assert len(files) == len(tasks)
    for f in files:
        json.loads(f.read_text())
    replayed = ParallelSweep(executor=SerialExecutor(), cache=cache)
    again = replayed.run(tasks)
    assert replayed.last_cache_hits == len(tasks)
    assert [stable_digest(result_to_dict(r)) for r in again] == ref_digests
