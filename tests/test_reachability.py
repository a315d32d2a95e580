"""Reachability gate: every ``src/repro`` function runs on a product path.

The gate runs the paths a user (and CI) drives — the CLI commands of
the ``smoke-sweep``, ``spec-smoke``, ``figures``, ``trace-smoke``,
``checkpoint-smoke`` and ``fault-verify`` jobs, scaled down, plus
experiment-service round trips — under ``sys.setprofile`` /
``threading.setprofile`` and records every Python function they enter.
It then enumerates every function and method under ``src/repro/`` by
AST and fails, naming each offender, when

* a function is reached by none of the paths and is not covered by an
  :data:`ALLOWLIST` key;
* an allowlist key names nothing that exists;
* a *function-level* allowlist entry is reached (the entry is stale).

A nested function (closure, local class) counts with the top-level
function or method that encloses it: reaching either reaches both.

The paths run in one child process (this file run as a script), with
the hook installed *before* ``repro`` is imported: the registries and
self-registering modules call functions at import time, which an
in-process run would miss because test collection imported ``repro``
long before.  Inside the child everything is serial (``-j 1``,
``REPRO_JOBS=1``, the service's ``executor="serial"``) except one small
pooled sweep: a pool worker's calls never report back, so pooled runs
alone would read worker-side kernel code as unreached.  The cache and
every output file live under the test's ``tmp_path``.

Allowlist keys are ``"<module path>"``, ``"<module path>::<Class>"`` or
``"<module path>::<qualified.function>"``, with the module path
relative to ``src/repro``.  Each value is a one-line reason that starts
with one of :data:`REASON_KINDS`.

Limitation: reach is function-level.  A knob whose only effect is an
early return (a function that runs on every start, finds its setting
unset and returns) reads as reached although the behaviour behind it is
never exercised.  Deleting such a knob is still done by reading the
code.

Run the paths alone, printing the unreached functions, with
``PYTHONPATH=src python tests/test_reachability.py <scratch dir>``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
EXAMPLE_SPECS = SRC.parents[1] / "examples" / "specs"

#: the reasons an unreached function may be allowlisted for:
#: *test oracle* — an independent re-implementation the tests compare
#: the product against; *opt-in entry point* — a command, flag, spec
#: field or library call no CI path drives;
#: *queued for deletion* — a ROADMAP item removes it; *timing-only* /
#: *scale-only* / *failure path* — product code that runs only when an
#: event lands at a particular moment, at a scale the gate cannot
#: afford, or when something fails; *interface stub* — a protocol or
#: base-class hook body no concrete path calls; *debugging aid*.
REASON_KINDS = ("test oracle", "opt-in entry point",
                "queued for deletion", "timing-only", "scale-only",
                "failure path", "interface stub", "debugging aid")

ALLOWLIST: dict[str, str] = {
    # test oracles
    "noc/network.py::Network.network_drained_slow":
        "test oracle: full-scan twin of the O(1) network_drained",
    "noc/validation.py::check_all":
        "test oracle: every structural invariant of a live mesh at once",
    "core/routing.py::escape_turn_legal":
        "test oracle: the escape network's turn model, checked per hop",
    # opt-in entry points
    "obs/profile.py": "opt-in entry point: `repro profile` and bench/",
    "harness/cache.py::ResultCache.clear":
        "opt-in entry point: bench/ empties a scratch cache",
    "cli.py::cmd_profile": "opt-in entry point: `repro profile`",
    "obs/logging.py": "opt-in entry point: `repro serve --log-json`",
    "obs/spans.py::current_span_context":
        "opt-in entry point: read by the --log-json formatter",
    "cli.py::cmd_serve":
        "opt-in entry point: `repro serve` blocks until a signal; the "
        "gate drives the same service through start()",
    "service/app.py::ExperimentService.run_async":
        "opt-in entry point: the `repro serve` loop",
    "service/app.py::ExperimentService.request_stop":
        "opt-in entry point: the `repro serve` signal handler",
    "service/client.py::ServiceClient.cancel":
        "opt-in entry point: DELETE /jobs/<id>",
    "service/app.py::ExperimentService._cancel":
        "opt-in entry point: DELETE /jobs/<id>",
    "service/queue.py::JobQueue.cancel":
        "opt-in entry point: DELETE /jobs/<id>",
    "service/client.py::ServiceClient.preempt":
        "opt-in entry point: DELETE /jobs/<id>?preempt=true",
    "service/app.py::ExperimentService._preempt_job":
        "opt-in entry point: DELETE /jobs/<id>?preempt=true",
    "service/journal.py::JobJournal.preempt":
        "opt-in entry point: DELETE /jobs/<id>?preempt=true",
    "service/client.py::ServiceClient.metrics":
        "opt-in entry point: JSON /metrics, read by bench/",
    "service/client.py::ServiceClient.metric":
        "opt-in entry point: JSON /metrics, read by bench/",
    "obs/export.py::spans_to_chrome_trace":
        "opt-in entry point: GET /jobs/<id>/trace?format=chrome",
    "obs/export.py::write_span_chrome_trace":
        "opt-in entry point: library export of a span list",
    "obs/export.py::write_metrics_json":
        "opt-in entry point: `repro run --metrics <file>.json`",
    "obs/metrics.py::MetricsRegistry.as_dict":
        "opt-in entry point: --metrics *.json and serve --telemetry-dir",
    "obs/metrics.py::Counter.as_dict":
        "opt-in entry point: --metrics *.json and serve --telemetry-dir",
    "obs/metrics.py::Gauge.as_dict":
        "opt-in entry point: --metrics *.json and serve --telemetry-dir",
    "obs/metrics.py::Histogram.as_dict":
        "opt-in entry point: --metrics *.json and serve --telemetry-dir",
    "obs/export.py::_Passthrough":
        "opt-in entry point: exporters handed an open file object",
    "traffic/patterns.py::make_transpose":
        "opt-in entry point: `--pattern transpose`",
    "traffic/patterns.py::make_bitcomplement":
        "opt-in entry point: `--pattern bitcomplement`",
    "traffic/patterns.py::make_neighbor":
        "opt-in entry point: `--pattern neighbor`",
    "gating/schedule.py::_build_none":
        "opt-in entry point: spec `schedule = {kind = \"none\"}`",
    "gating/schedule.py::GatingSchedule.gated_at":
        "opt-in entry point: spec `schedule = {kind = \"none\"}`",
    "gating/schedule.py::_build_static":
        "opt-in entry point: spec `schedule = {kind = \"static\"}`",
    "gating/schedule.py::_build_epoch":
        "opt-in entry point: spec `schedule = {kind = \"epoch\"}`",
    "baselines/updown.py::average_distance":
        "opt-in entry point: `rp_policy = \"adaptive\"`",
    "harness/parallel.py::SweepTask.from_spec":
        "opt-in entry point: bench/wl_sweep.py builds its tasks with it",
    "fullsystem/system.py::FullSystemResult.ipc":
        "opt-in entry point: read by examples/parsec_fullsystem.py",
    # queued for deletion
    "noc/batched.py": "queued for deletion: ROADMAP 1b deletes `batched`",
    "harness/parallel.py::BatchedExecutor":
        "queued for deletion: ROADMAP 1b deletes `batched`",
    "harness/parallel.py::batch_group_key":
        "queued for deletion: ROADMAP 1b deletes `batched`",
    "harness/checkpoint.py::batch_checkpoint_path":
        "queued for deletion: ROADMAP 1b deletes `batched`",
    "faults/soak.py::run_fault_soak_batch":
        "queued for deletion: ROADMAP 1b deletes `batched`",
    "obs/spans.py::finished_span":
        "queued for deletion: ROADMAP 1b deletes `batched`",
    "noc/stats.py::StatsCollector.latency_windows":
        "opt-in entry point: per-window latency of a keep_samples run",
    # timing-, scale- and failure-only product code
    "core/handshake.py::HandshakeController._decode_msg":
        "timing-only: a checkpoint lands while handshake messages fly",
    "noc/snapshot.py::decode_value":
        "timing-only: a checkpoint lands while handshake messages fly",
    "noc/router.py::Router._clear_active":
        "timing-only: a granted route is dropped (escape escalation)",
    "noc/buffer.py::InputVC.release_route":
        "timing-only: a granted route is dropped (escape escalation)",
    "noc/mechanism.py::Mechanism.on_local_inject_blocked":
        "timing-only: a sleeping router's node sends (RP/baseline PARSEC)",
    "baselines/nord.py::NordMechanism.on_local_inject_blocked":
        "timing-only: a gated node's L2/directory sends (PARSEC on NoRD)",
    "cli.py::_interrupted": "timing-only: Ctrl-C lands mid-run",
    "core/handshake.py::HandshakeController._abort_wakeup":
        "failure path: the wake watchdog fires on a lost wake-up",
    "core/handshake.py::HandshakeController._on_wake_abort":
        "failure path: the wake watchdog fires on a lost wake-up",
    "faults/soak.py::diagnose_liveness":
        "failure path: explains a soak that did not quiesce",
    "faults/injector.py::FaultInjector.dead_links":
        "failure path: read by diagnose_liveness",
    "harness/parallel.py::PoolExecutor._retry":
        "failure path: a pooled task failed or timed out",
    "harness/runner.py::default_cycles":
        "scale-only: the default cycle counts are too long to run hooked",
    "faults/modelcheck.py::_Model._nearer":
        "scale-only: the 3x3 and all-gated instances of `-m modelcheck`",
    "faults/modelcheck.py::_Model._on_wake_req":
        "scale-only: the 3x3 and all-gated instances of `-m modelcheck`",
    "faults/modelcheck.py::_Model._on_wake_abort":
        "scale-only: the 3x3 and all-gated instances of `-m modelcheck`",
    "fullsystem/cache.py::SetAssocCache.evict":
        "scale-only: PARSEC runs longer than the gate's 5 instructions",
    "fullsystem/cpu.py::L1Controller._evict":
        "scale-only: PARSEC runs longer than the gate's 5 instructions",
    "fullsystem/cpu.py::L1Controller._ack_inv":
        "scale-only: PARSEC runs longer than the gate's 5 instructions",
    "fullsystem/cpu.py::L1Controller._on_ack":
        "scale-only: PARSEC runs longer than the gate's 5 instructions",
    "fullsystem/directory.py::DirectoryController._on_putm":
        "scale-only: PARSEC runs longer than the gate's 5 instructions",
    "fullsystem/directory.py::DirectoryController._on_transfer_ack":
        "scale-only: PARSEC runs longer than the gate's 5 instructions",
    # interface stubs and debugging aids
    "harness/parallel.py::Executor": "interface stub: typing Protocol",
    "core/routing.py::RouterView": "interface stub: typing Protocol",
    "noc/mechanism.py::Mechanism.request_wakeup":
        "interface stub: only FLOV routing asks for a wake-up",
    "noc/router.py::Router.__repr__": "debugging aid",
    "noc/types.py::Flit.__repr__": "debugging aid",
    "obs/tracer.py::Tracer.__repr__": "debugging aid",
    "obs/spans.py::Span.__repr__": "debugging aid",
    "faults/injector.py::FaultInjector.__repr__": "debugging aid",
    "fullsystem/mesi.py::CoherenceMsg.__repr__": "debugging aid",
    "registry.py::Registry.__repr__": "debugging aid",
}


# -- enumeration --------------------------------------------------------------

def _units(path: Path) -> dict[str, set[int]]:
    """Classes, top-level functions and methods of one module: qualified
    name -> the first-line numbers of its own code object and of every
    function nested in it (``co_firstlineno`` is the first decorator's
    line).  A class maps to the empty set; a property's getter and
    setter share one name and count as one function."""
    units: dict[str, set[int]] = {}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def first_line(node) -> int:
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, funcs):
                units.setdefault(prefix + node.name, set()).update(
                    first_line(n) for n in ast.walk(node)
                    if isinstance(n, funcs))
            elif isinstance(node, ast.ClassDef):
                units[prefix + node.name] = set()
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                for block in (node.body, node.orelse,
                              getattr(node, "finalbody", []),
                              *(h.body for h in getattr(node, "handlers",
                                                        []))):
                    visit(block, prefix)

    visit(ast.parse(path.read_text(), str(path)).body, "")
    return units


def enumerate_functions() -> tuple[dict[str, set[int]], set[str]]:
    """``{"<module>::<qualname>": first lines}`` over ``src/repro``, and
    the module and class keys (the other valid allowlist targets)."""
    funcs: dict[str, set[int]] = {}
    containers: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        mod = path.relative_to(SRC).as_posix()
        containers.add(mod)
        for name, lines in _units(path).items():
            key = f"{mod}::{name}"
            if lines:
                funcs[key] = lines
            else:
                containers.add(key)
    return funcs, containers


def unreached(funcs: dict[str, set[int]],
              reached: set[tuple[str, int]]) -> set[str]:
    """Keys of ``funcs`` none of whose first lines is in ``reached``."""
    return {key for key, lines in funcs.items()
            if not any((key.split("::")[0], line) in reached
                       for line in lines)}


# -- recording (child process) ------------------------------------------------

@contextlib.contextmanager
def recording():
    """Collect ``(module path, co_firstlineno)`` of every ``src/repro``
    function entered in this process, threads started inside the block
    included; the previous hooks are restored on exit."""
    codes: dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    prev, prev_threads = sys.getprofile(), threading.getprofile()
    reached: set[tuple[str, int]] = set()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield reached
    finally:
        sys.setprofile(prev)
        threading.setprofile(prev_threads)
        root = f"{SRC}{os.sep}"
        reached.update(
            (Path(c.co_filename).relative_to(SRC).as_posix(),
             c.co_firstlineno)
            for c in codes.values() if c.co_filename.startswith(root))


def cli(*argv: str, rc: int = 0) -> str:
    """Run ``python -m repro <argv>`` in this process; return its stdout."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == rc, f"repro {' '.join(argv)} exited {got}:\n{out.getvalue()}"
    return out.getvalue()


def shrunk_spec_copy(src: Path, dst_dir: Path) -> Path:
    """A copy of a checked-in spec file with warmup/measure cut short
    and a sweep's gated fractions cut to two."""
    text = src.read_text()
    for key, value in (("warmup", "20"), ("measure", "100"),
                       ("gated_fractions", "[0.0, 0.4]")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        text = re.sub(rf'"{key}": \d+', f'"{key}": {value}', text)
    dst = dst_dir / src.name
    dst.write_text(text)
    return dst


def product_paths(tmp: Path) -> None:
    """CI's product commands, scaled down, plus service round trips."""
    from repro.config import MECHANISMS
    from repro.harness import run_spec
    from repro.harness.checkpoint import CheckpointInterrupt, checkpoint_path
    from repro.obs import validate_chrome_trace, validate_report
    from repro.obs.metrics import parse_prometheus_text
    from repro.obs.spans import validate_span_tree
    from repro.service import ExperimentService, ServiceClient, ServiceError
    from repro.spec import ExperimentSpec

    cli("info")

    # smoke-sweep + spec-smoke: cold, warm, the other kernel, a pool
    grid = ("--mechanisms", ",".join(MECHANISMS), "--rate", "0.2",
            "--fractions", "0,0.4", "--warmup", "20", "--measure", "100")
    assert "0 cache hits" in cli("sweep", *grid, "-j", "1")
    assert "10 cache hits" in cli("sweep", *grid, "-j", "1")
    cli("sweep", *grid, "-j", "1", "--kernel", "dense", "--no-cache",
        "--width", "4", "--height", "4")
    cli("sweep", "--mechanisms", "baseline,gflov", "--fractions", "0.4",
        "--warmup", "20", "--measure", "100", "--no-cache", "-j", "2")

    # spec-smoke + figures: every checked-in spec file
    specs = tmp / "specs"
    specs.mkdir()
    for f in sorted(EXAMPLE_SPECS.iterdir()):
        cli("spec", "validate", str(f))
        cli("spec", "hash", str(f))
        cli("spec", "run", str(shrunk_spec_copy(f, specs)), "-j", "1")
    cli("parsec", "--benchmarks", "dedup",
        "--mechanisms", "baseline,rp,rflov,gflov", "--instructions", "5",
        "--max-cycles", "20000")

    # trace-smoke
    trace, metrics = tmp / "t.jsonl", tmp / "m.csv"
    cli("run", "-m", "gflov", "--gated", "0.4", "--rate", "0.03",
        "--warmup", "100", "--measure", "400", "--trace", str(trace),
        "--chrome-trace", str(tmp / "t.json"), "--metrics", str(metrics),
        "--metrics-every", "100")
    cli("analyze", str(trace), "--metrics", str(metrics), "--warmup", "100")
    cli("analyze", str(trace), "--metrics", str(metrics), "--warmup", "100",
        "--json", "--out", str(tmp / "report.json"))
    assert not validate_chrome_trace(json.loads((tmp / "t.json").read_text()))
    assert not validate_report(json.loads((tmp / "report.json").read_text()))

    # checkpoint-smoke: an interrupted run per mechanism, inspected, then
    # resumed by re-running the same command
    ckdir = tmp / "ckpts"
    for mech in MECHANISMS:
        spec = ExperimentSpec(mech, rate=0.05, gated_fraction=0.4,
                              warmup=50, measure=150, seed=7,
                              overrides={"width": 4, "height": 4})
        try:
            run_spec(spec, checkpoint_every=50, checkpoint_dir=ckdir,
                     interrupt=lambda: True)
        except CheckpointInterrupt:
            pass
        else:
            raise AssertionError("the run was not interrupted")
        cli("checkpoint", "inspect", str(checkpoint_path(ckdir, spec)))
        cell = tmp / f"{mech}.json"
        cell.write_text(spec.canonical_json())
        assert "result digest" in cli(
            "spec", "run", str(cell), "--checkpoint-every", "50",
            "--checkpoint-dir", str(ckdir))
        assert not checkpoint_path(ckdir, spec).exists(), "not resumed"

    # fault-verify
    cli("verify", "modelcheck", "--mechanism", "gflov", "--gated", "0",
        "--regated", "3")
    cli("verify", "modelcheck", "--mechanism", "gflov", "--gated", "0,3",
        "--regated", "3", "--mutant", "lost_wake_abort", rc=1)
    cli("verify", "soak", "--mechanisms", "gflov,rflov,rp,nord", "--runs",
        "1", "--cycles", "300", "--epochs", "2", "-j", "1")

    # service-smoke + the restart round trip of checkpoint-smoke
    state = str(tmp / "svc")
    payload = {"mechanism": "rflov", "rate": 0.03, "gated_fraction": 0.4,
               "warmup": 100, "measure": 400, "seed": 3}
    svc = ExperimentService(executor="serial", workers=1, state_dir=state,
                            checkpoint_every=100)
    port = svc.start()
    with ServiceClient(port=port) as client:
        first = client.wait(client.submit(payload)["id"])
        assert first["status"] == "done", first
        client.result(first["id"])
        again = client.wait(client.submit(payload)["id"])
        assert again["status"] == "cache_hit", again
        assert [e["event"] for e in client.events(first["id"])][-1] == "end"
        client.health()
        client.jobs()
        client.metrics_text()
        assert parse_prometheus_text(client.metrics_prometheus())
        assert not validate_span_tree(client.trace(first["id"])["spans"])
        try:
            client.submit({"mechanism": "nope"})
        except ServiceError as exc:
            assert exc.status == 422, exc
        else:
            raise AssertionError("an invalid spec was accepted")
        cell = tmp / "submit.json"
        cell.write_text(json.dumps(payload))
        assert "result digest" in cli("submit", str(cell), "--port",
                                      str(port))
        # a declarative gating schedule through JobEnvelope, the cache
        # key and a worker gives what `repro spec run` gives
        cell = tmp / "epochs.json"
        cell.write_text(json.dumps({
            "mechanism": "gflov", "rate": 0.02, "warmup": 100,
            "measure": 400, "seed": 3,
            "schedule": {"kind": "random_epochs",
                         "fractions": [0.2, 0.6, 0.4],
                         "boundaries": [150, 300], "seed": 3}}))
        digest = re.search(r"result digest\s+(\S+)", cli(
            "submit", str(cell), "--port", str(port))).group(1)
        assert digest in cli("spec", "run", str(cell), "-j", "1")
    svc.stop()
    svc = ExperimentService(executor="serial", workers=1, state_dir=state)
    with ServiceClient(port=svc.start()) as client:
        assert client.job(first["id"])["digest"] == first["digest"]
        assert client.result(first["id"])["digest"] == first["digest"]
    svc.stop()


# -- the gate -----------------------------------------------------------------

def test_every_src_function_is_reached_or_allowlisted(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = tmp_path / "reached.json"
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path), str(out)], env=env,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    reached = {tuple(r) for r in json.loads(out.read_text())}

    funcs, containers = enumerate_functions()
    missed = unreached(funcs, reached)

    def allowed(key: str) -> bool:
        mod, name = key.split("::")
        parts = name.split(".")
        return mod in ALLOWLIST or any(
            f"{mod}::{'.'.join(parts[:cut])}" in ALLOWLIST
            for cut in range(1, len(parts) + 1))

    problems = []
    for key, reason in ALLOWLIST.items():
        if key not in funcs and key not in containers:
            problems.append(f"allowlist key names nothing: {key}")
        elif key in funcs and key not in missed:
            problems.append(f"stale allowlist entry (reached): {key}")
        if not reason.startswith(REASON_KINDS):
            problems.append(f"allowlist reason does not start with one of "
                            f"{REASON_KINDS}: {key}: {reason!r}")
    problems += [f"unreached: {key}" for key in sorted(missed)
                 if not allowed(key)]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    scratch = Path(sys.argv[1]).resolve()
    os.chdir(scratch)
    for var in ("REPRO_NO_CACHE", "REPRO_KERNEL"):
        os.environ.pop(var, None)
    os.environ.update(REPRO_CACHE_DIR=str(scratch / "cache"), REPRO_JOBS="1")
    with recording() as reached:
        product_paths(scratch)
    if len(sys.argv) > 2:
        Path(sys.argv[2]).write_text(json.dumps(sorted(reached)))
    else:
        print("\n".join(sorted(unreached(enumerate_functions()[0],
                                         reached))))
