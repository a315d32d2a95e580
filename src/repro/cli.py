"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Print the Table-I configuration and the power model calibration.
``sweep``
    Latency/power vs. gated fraction for chosen mechanisms (Fig 6/9
    style).
``parsec``
    Run PARSEC profiles on the full-system CMP (Fig 8c/d style).
``run``
    Run one synthetic-traffic experiment and print its metrics,
    optionally with the observability layer attached: structured event
    traces (JSONL and/or Chrome-trace for Perfetto) and sampled metrics
    (CSV/JSON).  See ``docs/observability.md``.
``analyze``
    Turn a recorded JSONL trace (plus optional metrics CSV) into an
    attribution report: per-packet journeys, latency decomposition,
    congestion heat, handshake digest.  See ``docs/analysis.md``.
``profile``
    Run one experiment with the kernel phase profiler attached and
    report where the wall time went (handshake / delivery / evaluate /
    sampler).
``spec``
    Validate, hash, or execute a declarative experiment/sweep spec file
    (``*.toml`` / ``*.json``; see ``docs/specs.md``).
``checkpoint``
    Inspect or resume a run checkpoint left behind by an interrupted
    ``repro sweep`` / ``repro spec run --checkpoint-every`` invocation
    (see ``docs/checkpoint.md``).

Every ``choices=``/default in this module is derived from the component
registries (:mod:`repro.registry`).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import TECH, table1_config
from .registry import KERNELS, MECHANISMS, PATTERNS


def _add_common(p: argparse.ArgumentParser) -> None:
    """Flags describing one experiment cell."""
    p.add_argument("--mechanism", "-m", default="gflov",
                   choices=MECHANISMS.names())
    p.add_argument("--gated", type=float, default=0.0,
                   help="fraction of cores power-gated")
    _add_workload(p)


def _add_workload(p: argparse.ArgumentParser) -> None:
    """The cell flags a sweep shares (it grids mechanism and gating)."""
    p.add_argument("--rate", type=float, default=0.02,
                   help="injection rate, flits/cycle/node")
    p.add_argument("--pattern", default="uniform", choices=PATTERNS.names())
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--measure", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--height", type=int, default=8)


def _add_pattern_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern-arg", action="append", default=[],
                   dest="pattern_args", metavar="KEY=VALUE",
                   help="extra pattern-factory argument, e.g. "
                        "--pattern-arg hotspots=[27] --pattern-arg "
                        "weight=0.4 (repeatable; the value is parsed as "
                        "JSON, falling back to a plain string)")


def _parse_pattern_args(pairs: list[str]) -> dict:
    """``["k=v", ...]`` -> ``{"k": parsed_v}`` (JSON value, else string)."""
    import json

    out: dict = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--pattern-arg expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _cell_spec(args: argparse.Namespace,
               pattern_args: list[str] | None = None):
    """Compile the :func:`_add_common` flags into an ExperimentSpec."""
    from .spec import ExperimentSpec

    return ExperimentSpec(
        mechanism=args.mechanism, pattern=args.pattern,
        pattern_kwargs=_parse_pattern_args(pattern_args),
        rate=args.rate, gated_fraction=args.gated, warmup=args.warmup,
        measure=args.measure, seed=args.seed, kernel=args.kernel or None,
        overrides={"width": args.width, "height": args.height})


def _checkpoint_kwargs(args: argparse.Namespace) -> dict:
    if not args.checkpoint_every:
        return {}
    return {"checkpoint_every": args.checkpoint_every,
            "checkpoint_dir": args.checkpoint_dir}


def _interrupted(command: str, args: argparse.Namespace) -> int:
    """Shared Ctrl-C epilogue for checkpointable run commands.

    The periodic checkpoints are written atomically *during* the run,
    so by the time the interrupt lands the latest one is already on
    disk; this only records a resume manifest next to them and tells
    the user how to continue.  Exit code 130 = terminated by SIGINT.
    """
    import shlex

    print(file=sys.stderr)
    every = getattr(args, "checkpoint_every", 0)
    words = sys.argv[1:] if sys.argv[1:] else [command]
    resume = "repro " + shlex.join(words)
    if every:
        from pathlib import Path

        from .atomicio import atomic_write_json

        ckdir = Path(args.checkpoint_dir)
        atomic_write_json(ckdir / "resume.json", {
            "command": resume,
            "checkpoint_dir": str(ckdir),
            "checkpoint_every": every,
        })
        print(f"repro {command}: interrupted — latest periodic "
              f"checkpoints kept under {ckdir}", file=sys.stderr)
        print(f"resume with: {resume}", file=sys.stderr)
    else:
        print(f"repro {command}: interrupted (run with --checkpoint-every "
              f"to make runs resumable)", file=sys.stderr)
    return 130


def cmd_info(args: argparse.Namespace) -> int:
    from .power.dsent import router_breakdown
    from .power.overhead import flov_overhead_report

    cfg = table1_config()
    print("Table I testbed configuration:")
    print(f"  mesh                {cfg.width}x{cfg.height}")
    print(f"  buffers             {cfg.buffer_depth} flits/VC")
    print(f"  VCs                 {cfg.num_vcs} regular + "
          f"{cfg.escape_vcs} escape per vnet")
    print(f"  router pipeline     {cfg.router_latency} cycles")
    print(f"  link                {cfg.link_latency} cycle, "
          f"{cfg.flit_width_bytes} B")
    print(f"  wakeup latency      {cfg.wakeup_latency} cycles")
    print(f"  gating overhead     {TECH.gating_overhead_j * 1e12:.1f} pJ")
    bd = router_breakdown(cfg)
    print("\nDSENT-like power calibration (32 nm, 2 GHz):")
    print(f"  router static       {bd.baseline_total * 1e3:.2f} mW "
          f"(buffers {bd.buffers * 1e3:.2f}, xbar {bd.crossbar * 1e3:.2f}, "
          f"alloc {bd.allocators * 1e3:.2f}, clock {bd.clock_other * 1e3:.2f})")
    print(f"  FLOV sleep residual {bd.flov_overhead * 1e3:.3f} mW")
    print("\nFLOV overhead analysis (paper SS V-A):")
    print(flov_overhead_report(cfg).render())
    return 0


def _print_result(r) -> None:
    """Human-readable summary of an ExperimentResult."""
    print(f"mechanism          {r.mechanism}")
    print(f"pattern/rate       {r.pattern} @ {r.rate}")
    print(f"gated fraction     {r.gated_fraction:.0%} "
          f"({r.sleeping_routers} routers asleep)")
    print(f"packets measured   {r.packets} ({r.escaped} via escape)")
    print(f"avg latency        {r.avg_latency:.2f} cycles")
    b = r.breakdown
    print(f"  breakdown        router {b.router:.1f} | link {b.link:.1f} | "
          f"serialization {b.serialization:.1f} | flov {b.flov:.1f} | "
          f"contention {b.contention:.1f}")
    print(f"throughput         {r.throughput:.4f} flits/cycle/node")
    print(f"power              static {r.static_w * 1e3:.1f} mW | "
          f"dynamic {r.dynamic_w * 1e3:.1f} mW | "
          f"total {r.total_w * 1e3:.1f} mW")


def cmd_sweep(args: argparse.Namespace) -> int:
    from .spec import SweepSpec

    try:
        spec = SweepSpec(
            mechanisms=tuple(args.mechanisms.split(",")),
            pattern=args.pattern, rates=(args.rate,),
            gated_fractions=tuple(float(f)
                                  for f in args.fractions.split(",")),
            warmup=args.warmup, measure=args.measure, seed=args.seed,
            kernel=args.kernel or None,
            overrides={"width": args.width, "height": args.height})
    except ValueError as exc:  # SpecError included
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        return 2
    return _run_sweep("sweep", spec, args, verbose=args.verbose)


def _run_sweep(command: str, spec, args: argparse.Namespace, *,
               verbose: bool = False) -> int:
    """Execute a SweepSpec and print its tables ('sweep' / 'spec run')."""
    from .harness import (BatchedExecutor, ParallelSweep, breakdown_table,
                          run_sweep_spec, series_table)
    from .harness.cache import result_to_dict, stable_digest

    def progress(done: int, total: int, task, result,
                 from_cache: bool) -> None:
        tag = "cache" if from_cache else "run"
        print(f"\r[{done}/{total}] {tag:>5} {task.spec.mechanism:>8} "
              f"gated={task.spec.gated_fraction:.1f}", end="",
              file=sys.stderr)
        if done == total:
            print(file=sys.stderr)

    batched = spec.kernel == "batched"
    engine = ParallelSweep(
        args.jobs, use_cache=not args.no_cache,
        executor=BatchedExecutor(args.batch_size) if batched else None,
        progress=progress if verbose else None,
        **_checkpoint_kwargs(args))
    workers = (f"batch size {args.batch_size}" if batched
               else f"{engine.max_workers} workers")
    try:
        series = run_sweep_spec(spec, engine=engine)
    except KeyboardInterrupt:
        return _interrupted(command, args)
    cells = sum(len(rs) for rs in series.values())
    print(f"sweep: {cells} cells, {engine.last_cache_hits} cache hits, "
          f"executed {engine.last_mode} ({workers})")
    for title, metric, scale, prec in (
            ("avg latency (cycles)", "avg_latency", 1.0, 2),
            ("dynamic power (mW)", "dynamic_w", 1e3, 2),
            ("static power (mW)", "static_w", 1e3, 2),
            ("total power (mW)", "total_w", 1e3, 2),
            ("sleeping routers", "sleeping_routers", 1.0, 0)):
        print()
        print(series_table(title, series, metric, scale=scale, prec=prec))
    print()
    print(breakdown_table("latency breakdown (cycles)", series))
    # one digest over every cell, in cell order: lets CI assert
    # cross-kernel equality of a whole sweep with a single grep
    digest = stable_digest(
        {m: [result_to_dict(r) for r in rs] for m, rs in series.items()})
    print()
    print(f"results digest     {digest}")
    return 0


def cmd_parsec(args: argparse.Namespace) -> int:
    from .fullsystem import PARSEC
    from .harness import PoolExecutor, normalized_table, run_spec
    from .spec import ExperimentSpec

    benches = args.benchmarks.split(",") if args.benchmarks else list(PARSEC)
    mechs = args.mechanisms.split(",")
    wargs = {"instructions": args.instructions, "max_cycles": args.max_cycles}
    try:  # every cell validates before any of them simulates
        specs = [ExperimentSpec(mech, workload=bench, workload_args=wargs,
                                seed=args.seed)
                 for bench in benches for mech in mechs]
    except ValueError as exc:  # SpecError included
        print(f"repro parsec: error: {exc}", file=sys.stderr)
        return 2
    # full-system results are not cacheable; the pool still fans out
    results = PoolExecutor().map(run_spec, specs)
    print(f"{'benchmark':>14} {'mech':>9} {'runtime':>9} {'static uJ':>10} "
          f"{'total uJ':>9} {'sleep':>6}")
    base = {}
    for spec, r in zip(specs, results):
        flag = "" if r.finished else "  (cycle cap!)"
        print(f"{spec.workload:>14} {spec.mechanism:>9} "
              f"{r.runtime_cycles:9d} {r.static_j * 1e6:10.2f} "
              f"{r.total_j * 1e6:9.2f} {r.sleeping_routers:6d}{flag}")
        if spec.mechanism == "baseline":
            base[spec.workload] = r
    if not base or len(mechs) < 2:
        return 0
    # Fig. 8(c,d): per-benchmark ratios to Baseline, averaged
    ratios: dict[str, dict[str, list[float]]] = {}
    for spec, r in zip(specs, results):
        b = base[spec.workload]
        d = ratios.setdefault(spec.mechanism,
                              {"static": [], "total": [], "runtime": []})
        d["static"].append(r.static_j / b.static_j)
        d["total"].append(r.total_j / b.total_j)
        d["runtime"].append(r.runtime_cycles / b.runtime_cycles)
    rows = {m: {k: sum(v) / len(v) for k, v in d.items()}
            for m, d in ratios.items()}
    print()
    print(normalized_table("averages normalized to baseline", rows,
                           "baseline"))
    g, rp = rows.get("gflov"), rows.get("rp")
    if g and rp:
        print(f"\ngFLOV vs RP: static {g['static'] / rp['static'] - 1:+.1%}, "
              f"total {g['total'] / rp['total'] - 1:+.1%}; "
              f"gFLOV vs Baseline: static {g['static'] - 1:+.1%}, "
              f"runtime {g['runtime'] - 1:+.1%}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .harness import run_spec
    from .obs import (DEFAULT_CAPACITY, EVENT_KINDS, Tracer,
                      write_chrome_trace, write_jsonl)

    tracer = None
    if args.trace or args.chrome_trace:
        kinds = (args.trace_kinds.split(",") if args.trace_kinds else None)
        if kinds:
            unknown = sorted(set(kinds) - set(EVENT_KINDS))
            if unknown:
                print(f"repro run: error: unknown event kind(s) "
                      f"{', '.join(unknown)} for --trace-kinds "
                      f"(choose from {', '.join(EVENT_KINDS)})",
                      file=sys.stderr)
                return 2
        tracer = Tracer(args.trace_capacity or DEFAULT_CAPACITY, kinds=kinds)
    try:
        r = run_spec(_cell_spec(args, args.pattern_args), tracer=tracer,
                     metrics_path=args.metrics or None,
                     metrics_every=args.metrics_every)
    except ValueError as exc:  # SpecError included
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    _print_result(r)
    if tracer is not None:
        if tracer.dropped > 0:
            print(f"repro run: WARNING: tracer ring overflowed — "
                  f"{tracer.dropped} oldest events were dropped; the "
                  f"exported trace is truncated at the start.\n"
                  f"  remedies: raise --trace-capacity (currently "
                  f"{tracer.capacity}) or restrict --trace-kinds to the "
                  f"events you need", file=sys.stderr)
        print(f"trace              {tracer.recorded} events recorded "
              f"({tracer.dropped} dropped by the ring)")
        if args.trace:
            write_jsonl(tracer.events(), args.trace)
            print(f"  jsonl            {args.trace}")
        if args.chrome_trace:
            n = write_chrome_trace(tracer.events(), args.chrome_trace)
            print(f"  chrome trace     {args.chrome_trace} ({n} entries; "
                  f"load in Perfetto / chrome://tracing)")
    if args.metrics:
        print(f"metrics            {args.metrics} "
              f"(sampled every {args.metrics_every or 'default'} cycles)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .obs import analyze_trace, load_jsonl, load_metrics_csv

    try:
        events = load_jsonl(args.trace)
    except OSError as exc:
        print(f"repro analyze: error: cannot read trace: {exc}",
              file=sys.stderr)
        return 2
    metrics_rows = None
    if args.metrics:
        try:
            metrics_rows = load_metrics_csv(args.metrics)
        except OSError as exc:
            print(f"repro analyze: error: cannot read metrics: {exc}",
                  file=sys.stderr)
            return 2
    report = analyze_trace(events, metrics_rows,
                           router_latency=args.router_latency,
                           warmup=args.warmup,
                           width=args.width or 0, height=args.height or 0)
    if args.json:
        text = json.dumps(report.as_dict(args.top_k), indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
    else:
        text = report.render(markdown=args.md, top_k=args.top_k)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
    if report.journeys.orphan_pids:
        print(f"repro analyze: WARNING: {len(report.journeys.orphan_pids)} "
              f"ejected packets had no inject record (trace truncated by "
              f"ring wraparound?)", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .obs import profile_run

    try:
        spec = _cell_spec(args)
    except ValueError as exc:  # SpecError included
        print(f"repro profile: error: {exc}", file=sys.stderr)
        return 2
    r = profile_run(spec, metrics_every=args.metrics_every)
    print(r.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(r.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if r.coverage < args.min_coverage:
        print(f"repro profile: WARNING: phase timers cover only "
              f"{r.coverage:.1%} of kernel wall time "
              f"(expected >= {args.min_coverage:.0%})", file=sys.stderr)
        return 1
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    from .spec import SpecError, SweepSpec, load_spec_file

    try:
        spec = load_spec_file(args.file)
    except SpecError as exc:
        print(f"repro spec {args.spec_command}: error: {exc}",
              file=sys.stderr)
        return 2
    kind = type(spec).__name__

    if args.spec_command == "validate":
        cells = len(spec.expand()) if isinstance(spec, SweepSpec) else 1
        print(f"{args.file}: OK ({kind}, {cells} experiment "
              f"cell{'s' if cells != 1 else ''}, "
              f"hash {spec.stable_hash()[:16]})")
        return 0

    if args.spec_command == "hash":
        print(spec.stable_hash())
        return 0

    # run
    if args.kernel:
        spec = dataclasses.replace(spec, kernel=args.kernel)
    if isinstance(spec, SweepSpec):
        return _run_sweep("spec run", spec, args)

    from .harness import run_spec
    from .harness.cache import result_to_dict, stable_digest

    ck = _checkpoint_kwargs(args)
    if ck and spec.workload is None:
        from .harness.checkpoint import checkpoint_path
        path = checkpoint_path(args.checkpoint_dir, spec)
        if path.exists():
            print(f"repro spec run: resuming from checkpoint {path}",
                  file=sys.stderr)
            ck["resume_from"] = path
    try:
        r = run_spec(spec, **ck)
    except KeyboardInterrupt:
        return _interrupted("spec run", args)
    except ValueError as exc:
        print(f"repro spec run: error: {exc}", file=sys.stderr)
        return 2
    if spec.workload is not None:
        flag = "" if r.finished else "  (cycle cap!)"
        print(f"workload           {spec.workload} ({spec.mechanism})")
        print(f"runtime            {r.runtime_cycles} cycles{flag}")
        print(f"energy             static {r.static_j * 1e6:.2f} uJ | "
              f"total {r.total_j * 1e6:.2f} uJ")
        print(f"sleeping routers   {r.sleeping_routers}")
        return 0
    _print_result(r)
    print(f"result digest      {stable_digest(result_to_dict(r))}")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from .atomicio import read_json_checked
    from .noc.snapshot import SnapshotError, check_schema

    # never unlink on inspect/resume: a hand-named file is the user's
    payload = read_json_checked(Path(args.file), label="checkpoint",
                                check=check_schema, discard=False)
    if payload is None:
        print(f"repro checkpoint {args.checkpoint_command}: error: "
              f"{args.file} is not a readable checkpoint", file=sys.stderr)
        return 2
    kind = payload.get("kind")

    if args.checkpoint_command == "inspect":
        print(f"file               {args.file}")
        print(f"kind               {kind} (schema v{payload['schema']})")
        if kind == "run_spec":
            s = payload["spec"]
            net = payload["net"]
            print(f"spec               {s.get('mechanism')} "
                  f"{s.get('pattern')} @ {s.get('rate')} "
                  f"gated={s.get('gated_fraction')} seed={s.get('seed')}")
            print(f"phase              {payload['phase']} "
                  f"(done {payload['done']} cycles)")
            print(f"sim cycle          {net['cycle']}")
            print(f"in-flight packets  {len(net.get('packets', []))}")
        elif kind == "run_spec_batch":
            batch = payload["batch"]
            nets = batch["nets"]
            live = sum(1 for n in nets if n is not None)
            finished = sum(1 for r in payload["results"] if r is not None)
            print(f"replicas           {len(nets)} "
                  f"({live} live, {finished} finished)")
            print(f"sim cycle          {batch['cycle']}")
            for i, s in enumerate(payload.get("specs", [])):
                state = ("finished" if payload["results"][i] is not None
                         else "draining" if payload["draining"][i]
                         else "running")
                print(f"  [{i}] {s.get('mechanism'):>8} "
                      f"gated={s.get('gated_fraction')} "
                      f"seed={s.get('seed')}  {state}")
        return 0

    # resume: finish the frozen run and print the usual result summary
    from .harness.cache import result_to_dict, stable_digest
    from .spec import ExperimentSpec, SpecError

    ck = {}
    if args.checkpoint_every:
        ck = {"checkpoint_every": args.checkpoint_every,
              "checkpoint_dir": Path(args.file).parent}
    try:
        if kind == "run_spec":
            from .harness import run_spec
            spec = ExperimentSpec.from_dict(payload["spec"])
            r = run_spec(spec, resume_from=payload, **ck)
            _print_result(r)
            print(f"result digest      {stable_digest(result_to_dict(r))}")
        elif kind == "run_spec_batch":
            if "specs" not in payload:
                print("repro checkpoint resume: error: batch checkpoint "
                      "carries no spec definitions; resume by re-running "
                      "the original sweep command", file=sys.stderr)
                return 2
            from .noc.batched import run_spec_batch
            specs = [ExperimentSpec.from_dict(d) for d in payload["specs"]]
            results = run_spec_batch(specs, resume_from=payload, **ck)
            for s, r in zip(specs, results):
                print(f"{s.mechanism:>9} gated={s.gated_fraction:.1f} "
                      f"seed={s.seed}  "
                      f"digest {stable_digest(result_to_dict(r))}")
        else:
            print(f"repro checkpoint resume: error: cannot resume a "
                  f"{kind!r} checkpoint", file=sys.stderr)
            return 2
    except KeyboardInterrupt:
        print("\nrepro checkpoint resume: interrupted; the checkpoint "
              "file is kept — resume again with the same command",
              file=sys.stderr)
        return 130
    except (SnapshotError, SpecError, ValueError) as exc:
        print(f"repro checkpoint resume: error: {exc}", file=sys.stderr)
        return 2
    # consumed: the run completed, so the frozen state is spent
    try:
        os.unlink(args.file)
    except OSError:
        pass
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.verify_command == "modelcheck":
        from .faults.modelcheck import ModelConfig, check_model

        cfg = ModelConfig(
            width=args.width, height=args.height,
            generalized=args.mechanism == "gflov",
            gated=tuple(int(n) for n in args.gated.split(",") if n != ""),
            regated=(tuple(int(n) for n in args.regated.split(",")
                           if n != "")
                     if args.regated is not None else None),
            mutant=args.mutant or None,
            max_states=args.max_states)
        result = check_model(cfg)
        print(result.summary())
        for v in result.violations:
            print(f"\n[{v.kind}] {v.detail}")
            print("counterexample:")
            for i, line in enumerate(v.trace):
                print(f"  {i:3d}  {line}")
        return 0 if result.ok else 1

    # soak
    from .faults.injector import FaultPlan
    from .faults.soak import FaultSoakSpec, run_fault_soak
    from .harness import PoolExecutor

    specs = [FaultSoakSpec(
                 mechanism=m, seed=args.seed + i,
                 burst_cycles=args.cycles, epochs=args.epochs,
                 plan=FaultPlan(seed=args.seed + i, hs_drop=args.hs_drop,
                                hs_dup=args.hs_dup, hs_delay=args.hs_delay,
                                link_kill=args.link_kill,
                                power_reset=args.power_reset))
             for m in args.mechanisms.split(",")
             for i in range(args.runs)]
    reports = PoolExecutor(args.jobs).map(run_fault_soak, specs)
    failures = 0
    for rep in reports:
        spec = rep.spec
        tag = f"{spec.mechanism} seed={spec.seed}"
        faults = sum(rep.faults.values())
        if rep.ok:
            print(f"  ok   {tag}: {faults} faults injected, quiescent "
                  f"at cycle {rep.cycles}, invariants hold")
            continue
        failures += 1
        print(f"  FAIL {tag}: {faults} faults injected")
        for v in rep.violations:
            print(f"       invariant: {v}")
        for line in rep.diagnosis:
            print(f"       liveness: {line}")
        print(f"       replay: {spec}")
    print(f"{len(reports) - failures}/{len(reports)} soaks passed")
    return 0 if failures == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service import ExperimentService

    if args.log_json:
        from .obs.logging import configure_json_logging
        configure_json_logging()

    svc = ExperimentService(
        args.host, args.port, workers=args.workers,
        executor=args.executor, batch_size=args.batch_size,
        use_cache=not args.no_cache,
        telemetry_dir=args.telemetry_dir or None,
        state_dir=args.state_dir or None,
        checkpoint_every=args.checkpoint_every)

    async def main() -> None:
        # graceful shutdown: SIGTERM/SIGINT stop the serve loop, which
        # flushes span buffers + the metrics snapshot (--telemetry-dir)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, svc.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform without loop signal support
        await svc.run_async(announce=lambda url: print(
            f"repro service listening on {url}", flush=True))

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        # fallback when the signal handler could not be installed
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 2
    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        return _submit_and_wait(client, args, text)


def _submit_and_wait(client, args: argparse.Namespace, text: str) -> int:
    from .service import ServiceError

    try:
        snap = client.submit_text(text, toml=args.file.endswith(".toml"),
                                  priority=args.priority)
    except ServiceError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro submit: cannot reach service at "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    job_id = snap["id"]
    print(f"job                {job_id} (priority {snap['priority']}, "
          f"{snap['total_cells']} cell"
          f"{'s' if snap['total_cells'] != 1 else ''})")
    if args.no_wait:
        print(f"status             {snap['status']}")
        return 0
    snap = client.wait(job_id, timeout=args.timeout)
    print(f"status             {snap['status']} "
          f"({snap['cache_hit_cells']}/{snap['total_cells']} cells from "
          f"cache)")
    if snap.get("trace_id"):
        print(f"trace              {snap['trace_id']} "
              f"(GET /jobs/{job_id}/trace)")
    if snap["status"] not in ("done", "cache_hit"):
        if snap.get("error"):
            print(f"repro submit: job {job_id} failed: {snap['error']}",
                  file=sys.stderr)
        return 1
    result = client.result(job_id)
    # same label + digest the local 'repro spec run' prints, so the two
    # paths are directly comparable with a grep
    label = ("results digest" if result.get("kind") == "sweep"
             else "result digest")
    print(f"{label:<19}{result['digest']}")
    return 0


def _add_checkpoint_args(p: argparse.ArgumentParser) -> None:
    from .harness.checkpoint import DEFAULT_CHECKPOINT_DIR

    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="write a resumable checkpoint of each in-flight "
                        "cell every N cycles (0 = off); an interrupted "
                        "run resumes automatically when the same command "
                        "is re-run (see docs/checkpoint.md)")
    p.add_argument("--checkpoint-dir", default=DEFAULT_CHECKPOINT_DIR,
                   help=f"where checkpoint files live "
                        f"(default {DEFAULT_CHECKPOINT_DIR})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Fly-Over (FLOV) NoC power-gating reproduction")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print configuration & power calibration")

    from .harness.sweep import FIGURE_MECHANISMS

    p = sub.add_parser("sweep", help="sweep gated fractions (Fig 6/9)")
    _add_workload(p)
    p.add_argument("--mechanisms", default=",".join(FIGURE_MECHANISMS))
    p.add_argument("--fractions", default="0.0,0.2,0.4,0.6,0.8")
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker processes (default: auto / $REPRO_JOBS)")
    p.add_argument("--kernel", default="",
                   choices=[""] + list(KERNELS.names()),
                   help="simulation kernel; 'batched' steps cells as "
                        "in-process replica batches instead of pooling")
    p.add_argument("--batch-size", type=int, default=8,
                   help="replicas per batched-kernel invocation "
                        "(default 8; only with --kernel batched)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk result cache")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print per-task progress to stderr")
    _add_checkpoint_args(p)

    p = sub.add_parser("parsec", help="full-system PARSEC runs (Fig 8c/d)")
    p.add_argument("--benchmarks", default="")
    p.add_argument("--mechanisms",
                   default=f"{FIGURE_MECHANISMS[0]},{FIGURE_MECHANISMS[-1]}")
    p.add_argument("--instructions", type=int, default=600)
    p.add_argument("--max-cycles", type=int, default=300_000)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser(
        "run", help="run one synthetic experiment (tracing/metrics "
                    "optional)")
    _add_common(p)
    _add_pattern_arg(p)
    p.add_argument("--kernel", default="",
                   choices=[""] + list(KERNELS.names()),
                   help="simulation kernel (default: $REPRO_KERNEL)")
    p.add_argument("--trace", default="",
                   help="write structured events as JSONL to this path")
    p.add_argument("--chrome-trace", default="",
                   help="write a Perfetto/chrome://tracing JSON trace")
    p.add_argument("--trace-kinds", default="",
                   help="comma-separated event kinds to record (default all)")
    p.add_argument("--trace-capacity", type=int, default=0,
                   help="tracer ring capacity in events (default 2^20)")
    p.add_argument("--metrics", default="",
                   help="write sampled metrics (CSV, or JSON for *.json)")
    p.add_argument("--metrics-every", type=int, default=None,
                   help="sampling cadence in cycles (default 200)")

    p = sub.add_parser(
        "analyze", help="attribution report from a recorded JSONL trace")
    p.add_argument("trace", help="JSONL trace from 'repro run --trace'")
    p.add_argument("--metrics", default="",
                   help="sampled metrics CSV from the same run")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the machine-readable JSON report")
    fmt.add_argument("--md", action="store_true",
                     help="render the report as Markdown")
    p.add_argument("--out", default="",
                   help="write the report to a file instead of stdout")
    p.add_argument("--warmup", type=int, default=0,
                   help="warmup cycles of the traced run (default 0; must "
                        "match for the attribution to reconcile)")
    p.add_argument("--router-latency", type=int, default=3,
                   help="router pipeline depth of the traced run (default 3)")
    p.add_argument("--width", type=int, default=0,
                   help="mesh width (default: inferred from node ids)")
    p.add_argument("--height", type=int, default=0,
                   help="mesh height (default: inferred from node ids)")
    p.add_argument("--top-k", type=int, default=8,
                   help="hotspot table depth (default 8)")

    p = sub.add_parser(
        "profile", help="kernel phase profile of one experiment")
    _add_common(p)
    p.add_argument("--kernel", default="",
                   choices=[""] + list(KERNELS.names()),
                   help="simulation kernel (default: $REPRO_KERNEL)")
    p.add_argument("--metrics-every", type=int, default=None,
                   help="also attach a sampler so its phase cost shows up")
    p.add_argument("--json", default="",
                   help="write the profile as JSON to this path")
    p.add_argument("--min-coverage", type=float, default=0.9,
                   help="fail (exit 1) when the phase timers cover less "
                        "than this fraction of kernel wall time")

    p = sub.add_parser(
        "verify", help="fault-injection verification of the FLOV handshake")
    vsub = p.add_subparsers(dest="verify_command", required=True)
    vp = vsub.add_parser(
        "modelcheck",
        help="exhaustive handshake model check on a small mesh")
    vp.add_argument("--mechanism", default="gflov",
                    choices=("rflov", "gflov"))
    vp.add_argument("--width", type=int, default=2)
    vp.add_argument("--height", type=int, default=2)
    vp.add_argument("--gated", default="0,3",
                    help="comma-separated gated node ids (default 0,3)")
    vp.add_argument("--regated", default=None,
                    help="gated set after an adversarial schedule change "
                         "(default: no schedule change)")
    vp.add_argument("--mutant", default="",
                    help="check a deliberately broken FSM variant "
                         "(drop_grant, dup_drain_done, lost_wake_abort); "
                         "expected to FAIL")
    vp.add_argument("--max-states", type=int, default=2_000_000)
    vp = vsub.add_parser(
        "soak", help="randomized fault soaks with quiescence checking")
    vp.add_argument("--mechanisms", default="gflov,rflov,rp,nord")
    vp.add_argument("--runs", type=int, default=2,
                    help="soaks per mechanism (default 2)")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--cycles", type=int, default=2500,
                    help="faulty burst length before the heal+drain phase")
    vp.add_argument("--epochs", type=int, default=0,
                    help="random gating epochs (0 = static schedule)")
    vp.add_argument("--hs-drop", type=float, default=0.1)
    vp.add_argument("--hs-dup", type=float, default=0.05)
    vp.add_argument("--hs-delay", type=float, default=0.15)
    vp.add_argument("--link-kill", type=float, default=0.002)
    vp.add_argument("--power-reset", type=float, default=0.003)
    vp.add_argument("--jobs", "-j", type=int, default=None,
                    help="worker processes (default: auto / $REPRO_JOBS)")

    p = sub.add_parser(
        "serve", help="run the experiment service (HTTP submit + SSE)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port (0 = ephemeral; default 8765)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrently running jobs (default 2)")
    p.add_argument("--executor", default="pool",
                   choices=("pool", "serial", "batched"),
                   help="how each job's cells are executed (default pool)")
    p.add_argument("--batch-size", type=int, default=8,
                   help="replicas per batched-kernel invocation "
                        "(default 8; only with --executor batched)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the shared on-disk result cache")
    p.add_argument("--log-json", action="store_true",
                   help="structured JSON logging; every service line "
                        "carries the job's trace/span ids")
    p.add_argument("--telemetry-dir", default="",
                   help="flush span buffers + a metrics snapshot here on "
                        "shutdown (SIGTERM/SIGINT included)")
    p.add_argument("--state-dir", default="",
                   help="durable service state: the job journal (replayed "
                        "at boot) and job checkpoints live here; without "
                        "it the job table is in-memory only")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="cycles between job checkpoints under --state-dir "
                        "(default 1000; 0 disables checkpointing, so a "
                        "restart marks running jobs interrupted and "
                        "DELETE ?preempt=true falls back to cell-boundary "
                        "preemption)")

    p = sub.add_parser(
        "submit", help="submit a spec file to a running service")
    p.add_argument("file", help="*.toml or *.json spec file "
                                "(see docs/specs.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--priority", type=int, default=None,
                   help="queue priority, -100..100 (higher runs first)")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return immediately")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for the job (default 600)")

    p = sub.add_parser(
        "spec", help="validate / hash / run declarative spec files")
    ssub = p.add_subparsers(dest="spec_command", required=True)
    for name, text in (
            ("validate", "parse a spec file and registry-check every field"),
            ("hash", "print the spec's canonical SHA-256 stable hash"),
            ("run", "execute the spec (experiment, sweep, or workload)")):
        sp = ssub.add_parser(name, help=text)
        sp.add_argument("file", help="*.toml or *.json spec file "
                                     "(see docs/specs.md)")
        if name == "run":
            sp.add_argument("--jobs", "-j", type=int, default=None,
                            help="worker processes for sweep specs "
                                 "(default: auto / $REPRO_JOBS)")
            sp.add_argument("--kernel", default="",
                            choices=[""] + list(KERNELS.names()),
                            help="override the spec's simulation kernel; "
                                 "'batched' runs sweep cells as in-process "
                                 "replica batches")
            sp.add_argument("--batch-size", type=int, default=8,
                            help="replicas per batched-kernel invocation "
                                 "(default 8; only with --kernel batched)")
            sp.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk result cache")
            _add_checkpoint_args(sp)

    p = sub.add_parser(
        "checkpoint", help="inspect or resume run checkpoints")
    csub = p.add_subparsers(dest="checkpoint_command", required=True)
    cp = csub.add_parser(
        "inspect", help="summarize a checkpoint file without running it")
    cp.add_argument("file", help="ckpt-*.json left by an interrupted run")
    cp = csub.add_parser(
        "resume", help="finish the run a checkpoint froze and print its "
                       "result (digest-identical to an uninterrupted run)")
    cp.add_argument("file", help="ckpt-*.json left by an interrupted run")
    cp.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                    help="keep writing checkpoints every N cycles while "
                         "finishing (default: off — run to completion)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "sweep": cmd_sweep,
        "parsec": cmd_parsec,
        "run": cmd_run,
        "analyze": cmd_analyze,
        "profile": cmd_profile,
        "spec": cmd_spec,
        "checkpoint": cmd_checkpoint,
        "verify": cmd_verify,
        "serve": cmd_serve,
        "submit": cmd_submit,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
