"""service_jobs: submit-to-result round trips over loopback.

An in-process ``ExperimentService`` (one serial worker) is driven through
``ServiceClient``, one connection at a time.  HTTP parse, ``JobEnvelope``,
queue, thread hand-off, dedupe, SSE and result serialisation are all of a
store hit and most of a cold job's overhead; the cells are tiny, so the
kernel does little.

A job is ``submit`` -> SSE ``events`` until ``end`` -> ``result`` (never
polling).  A pass boots a fresh service on an empty store (untimed), runs
the cold gFLOV cells, resubmits each several times (store hits), then
submits each fresh Baseline cell twice back to back (in-flight dedupe)
and awaits them all.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from statistics import fmean
from time import perf_counter_ns as clock

from repro.harness import ResultCache, result_to_dict, run_spec, stable_digest
from repro.obs import KernelProfiler
from repro.service import ExperimentService, ServiceClient
from repro.spec import ExperimentSpec, JobEnvelope

from measure import Op, Pass, median

COLD_CELLS, HITS_PER_CELL, DEDUPE_PAIRS = 6, 9, 3
WARMUP, MEASURE = 100, 200
#: measured cycles of the first dedupe cell.  While it runs (~100 ms on
#: the one worker) the other submissions of the batch arrive (~10 ms) and
#: queue behind it, so every second submission finds its twin in flight.
#: With only tiny cells, 1 pair in ~1700 lost that race to a host stall.
PLUG_MEASURE = 2400
DEADLINE_S = 30.0

LAYERS = (
    "service.boot_ms", "service.submit_ms", "service.sse_ms",
    "service.result_ms", "service.queue_wait_ms", "spec.envelope_us",
    "service.dedupe_batch_ms", "service.cold_over_run_spec",
    "service.hit_over_cache_get", "service.jobs_submitted",
    "service.cells_executed", "service.jobs_cache_hits",
    "service.dedupe_inflight_hits", "service.result_bytes")

#: /metrics counters a pass reads, by per-layer metric name
COUNTERS = {
    "service.jobs_submitted": "service.jobs.submitted",
    "service.cells_executed": "service.cells.executed",
    "service.jobs_cache_hits": "service.jobs.cache_hits",
    "service.dedupe_inflight_hits": "service.dedupe.inflight_hits",
}


@dataclass
class Target:
    """One cell the pass submits: its spec, request body and reference."""

    cell: ExperimentSpec
    payload: str
    result: object = None
    digest: str = ""


class ServiceWorkload:
    deadline_s = DEADLINE_S
    layer_names = LAYERS

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        rng = random.Random(seed)

        def target(mechanism, measure=MEASURE):
            cell = ExperimentSpec(mechanism=mechanism, rate=0.02,
                                  gated_fraction=0.6, warmup=WARMUP,
                                  measure=measure, kernel="active",
                                  seed=rng.randrange(2 ** 31))
            return Target(cell, json.dumps({
                "spec": cell.to_dict(), "priority": 0,
                "tags": {"bench": name}}))
        self.cold = [target("gflov")
                     for _ in range(2 if quick else COLD_CELLS)]
        self.pairs = [target("baseline", PLUG_MEASURE)] + [
            target("baseline") for _ in range(0 if quick else DEDUPE_PAIRS - 1)]
        self.hits = 3 if quick else HITS_PER_CELL
        self.service = self.client = self.cache = None
        self.boot_s = 0.0
        self.cycles = 0
        self.result_bytes = 0

    def boot(self, out_dir) -> None:
        self.cache = ResultCache(out_dir / "store")

    def close(self) -> None:
        self._stop()
        if self.cache is not None:
            self.cache.clear()

    def _start(self) -> None:
        self.service = ExperimentService(workers=1, executor="serial",
                                         cache=self.cache)
        t0 = clock()
        port = self.service.start()
        self.boot_s = (clock() - t0) / 1e9
        self.client = ServiceClient("127.0.0.1", port, timeout=DEADLINE_S)

    def _stop(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- one job ----------------------------------------------------------

    def _submit(self, target, trace, parent) -> tuple[dict, int]:
        t0 = clock()
        snap = self.client.submit_text(target.payload)
        if trace is not None:
            trace.add("service.submit", parent, t0, clock() - t0)
        return snap, t0

    def _await(self, snap, trace, parent) -> dict:
        """SSE to ``end``, then the result body."""
        t0 = clock()
        end = wait = None
        for event in self.client.events(snap["id"]):
            if event["event"] == "end":
                end = event["data"]
            elif event["event"] == "metrics":
                wait = event["data"].get("queue_wait_s")
        t1 = clock()
        result = self.client.result(snap["id"])
        self.result_bytes += len(json.dumps(result["cells"],
                                            separators=(",", ":")))
        if trace is not None:
            trace.add("service.sse", parent, t0, t1 - t0, queue_wait_s=wait)
            trace.add("service.result", parent, t1, clock() - t1)
        return {"status": (end or {}).get("status"),
                "digest": result["digest"]}

    def _job(self, kind, target, want_status, trace, root) -> Op:
        span = None if trace is None else trace.open(f"job.{kind}", root)
        snap, t0 = self._submit(target, trace, span)
        got = self._await(snap, trace, span)
        seconds = (clock() - t0) / 1e9
        if trace is not None:
            trace.close(span)
        why = ("" if got["status"] == want_status else
               f"{kind} job ended {got['status']}, expected {want_status}")
        return Op(kind, seconds, got["digest"], why)

    def _dedupe_batch(self, trace, root) -> Op:
        """Every fresh Baseline cell submitted twice back to back, then
        all awaited: each second submission must park behind its twin."""
        span = None if trace is None else trace.open("job.dedupe", root)
        t0 = clock()
        snaps = [(self._submit(t, trace, span)[0],
                  self._submit(t, trace, span)[0]) for t in self.pairs]
        digests, why = [], ""
        for first, second in snaps:
            a = self._await(first, trace, span)
            b = self._await(second, trace, span)
            digests.append(a["digest"])
            if (a["status"], b["status"]) != ("done", "cache_hit"):
                why = f"dedupe pair ended {a['status']}/{b['status']}"
            elif second.get("dedup_of") != first["id"]:
                why = "second submission was not parked behind the first"
            elif a["digest"] != b["digest"]:
                why = "dedupe pair digests differ"
        seconds = (clock() - t0) / 1e9
        if trace is not None:
            trace.close(span)
        return Op("dedupe", seconds, digests, why)

    def run_pass(self, trace=None) -> Pass:
        # The service never forgets a job, so one kept across passes grows
        # (and its full garbage collections with it): per-job time rose
        # ~40 % over 3 000 stored jobs.  A pass is fixed work only on a
        # fresh service and an empty store; booting takes ~0.5 ms.
        self._stop()
        self.cache.clear()
        self._start()
        root = None if trace is None else trace.open("pass", None)
        t0 = clock()
        self.result_bytes = 0
        ops = [self._job("cold", t, "done", trace, root) for t in self.cold]
        ops += [self._job("hit", t, "cache_hit", trace, root)
                for t in self.cold for _ in range(self.hits)]
        ops.append(self._dedupe_batch(trace, root))
        seconds = (clock() - t0) / 1e9
        if trace is not None:
            trace.close(root)
        counts = self._counters()
        want = self._expected_counts()
        ops.append(Op("metrics", 0.0, dict(counts), "" if counts == want else
                      f"/metrics reads {counts}, expected {want}"))
        counts["service.result_bytes"] = self.result_bytes
        return Pass(ops, seconds, self.cycles, [], counts)

    def _counters(self) -> dict[str, int]:
        text = self.client.metrics_text()
        values = dict(line.split(" ", 1) for line in text.splitlines())
        return {k: int(float(values[name])) for k, name in COUNTERS.items()}

    def _expected_counts(self) -> dict[str, int]:
        cold, pairs = len(self.cold), len(self.pairs)
        hits = cold * self.hits
        return {"service.jobs_submitted": cold + hits + 2 * pairs,
                "service.cells_executed": cold + pairs,
                "service.jobs_cache_hits": hits + pairs,
                "service.dedupe_inflight_hits": pairs}

    # -- once per run -----------------------------------------------------

    def reference(self, warm: Pass) -> list[Op]:
        """Every job digest must equal ``stable_digest(result_to_dict(
        run_spec(cell)))``, and /metrics must count what was sent."""
        t0 = clock()
        cycles = 0
        for target in self.cold + self.pairs:
            prof = KernelProfiler()
            target.result = run_spec(target.cell, profiler=prof)
            target.digest = stable_digest(result_to_dict(target.result))
            cycles += prof.cycles
        self.cycles = cycles
        want = ([t.digest for t in self.cold]
                + [t.digest for t in self.cold for _ in range(self.hits)]
                + [[t.digest for t in self.pairs]])
        bad = sorted({op.kind for op, d in zip(warm.ops, want)
                      if op.outcome != d})
        return [Op("reference", (clock() - t0) / 1e9, want,
                   f"job digest != run_spec digest on {bad}" if bad else "")]

    def simulated(self, warm: Pass) -> tuple[float, float]:
        """gFLOV (cold cells) over Baseline (dedupe cells), 60 % gated."""
        def mean(targets, attr):
            return fmean(getattr(t.result, attr) for t in targets)
        return (mean(self.cold, "static_w") / mean(self.pairs, "static_w"),
                mean(self.cold, "avg_latency") / mean(self.pairs,
                                                      "avg_latency"))

    # -- per-layer metrics (traced run) -----------------------------------

    def layers(self, trace, warm: Pass, rounds: int) -> dict[str, float]:
        out: dict[str, float] = dict(warm.counts)
        out["service.boot_ms"] = self.boot_s * 1e3
        for part in ("submit", "sse", "result"):
            out[f"service.{part}_ms"] = trace.median_ns(
                f"service.{part}", under="job.hit") / 1e6
        out["service.queue_wait_ms"] = median(
            a["queue_wait_s"] for _, a in trace.spans("service.sse")
            if a["queue_wait_s"] is not None) * 1e3
        out["service.dedupe_batch_ms"] = trace.median_ns("job.dedupe") / 1e6

        probe = trace.open("probe", None)
        key = self.cold[0].cell.cache_key()
        scratch = ResultCache(self.cache.root.parent / "store-layers")
        scratch.put(key, self.cold[0].result)

        def envelope(text):
            JobEnvelope.from_payload(text).dedupe_key()
        try:
            for _ in range(rounds):
                for target in self.cold + self.pairs:
                    trace.call("spec.envelope", probe, envelope,
                               target.payload)
                for target in self.cold:
                    trace.call("rung.run_spec", probe, run_spec, target.cell)
                    trace.call("rung.cache_get", probe, scratch.get, key)
        finally:
            scratch.clear()
        trace.close(probe)
        out["spec.envelope_us"] = trace.median_ns("spec.envelope") / 1e3
        out["service.cold_over_run_spec"] = (
            trace.median_ns("job.cold") / trace.median_ns("rung.run_spec"))
        out["service.hit_over_cache_get"] = (
            trace.median_ns("job.hit") / trace.median_ns("rung.cache_get"))
        return out
