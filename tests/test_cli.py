"""CLI smoke tests (also serve as end-to-end examples)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_info(capsys):
    rc, out = run_cli(capsys, "info")
    assert rc == 0
    assert "8x8" in out
    assert "17.7 pJ" in out
    assert "HSC" in out


def test_synthetic(capsys):
    rc, out = run_cli(capsys, "run", "-m", "gflov", "--gated", "0.4",
                      "--warmup", "300", "--measure", "1200")
    assert rc == 0
    assert "avg latency" in out
    assert "routers asleep" in out


def test_sweep(capsys):
    rc, out = run_cli(capsys, "sweep", "--mechanisms", "baseline,gflov",
                      "--fractions", "0.0,0.4", "--warmup", "200",
                      "--measure", "800")
    assert rc == 0
    assert "static power" in out and "gflov" in out


def _results_digest(out: str) -> str:
    (line,) = [ln for ln in out.splitlines()
               if ln.startswith("results digest")]
    return line.split()[-1]


def test_sweep_forwards_mesh_size_and_kernel(capsys, monkeypatch):
    """Regression: ``sweep`` parsed --width/--height/--kernel and dropped
    them, silently simulating the default 8x8 mesh."""
    from repro.harness import result_to_dict, run_sweep_spec, stable_digest
    from repro.spec import SweepSpec

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    grid = ("sweep", "--mechanisms", "baseline", "--fractions", "0.0,0.5",
            "--warmup", "50", "--measure", "200", "-j", "1")
    rc, small = run_cli(capsys, *grid, "--width", "4", "--height", "4",
                        "--kernel", "dense")
    assert rc == 0
    series = run_sweep_spec(SweepSpec(
        mechanisms=["baseline"], gated_fractions=[0.0, 0.5], warmup=50,
        measure=200, overrides={"width": 4, "height": 4}))
    assert _results_digest(small) == stable_digest(
        {m: [result_to_dict(r) for r in rs] for m, rs in series.items()})
    rc, default = run_cli(capsys, *grid)
    assert rc == 0 and _results_digest(default) != _results_digest(small)
    # kernels are digest-identical, so look at the compiled spec instead
    seen = []
    monkeypatch.setattr("repro.cli._run_sweep",
                        lambda command, spec, args, **kw:
                        seen.append(spec) or 0)
    assert main(["sweep", "--kernel", "dense"]) == 0
    assert seen[0].kernel == "dense"


@pytest.mark.parametrize("flag,value", [("--mechanisms", "nope"),
                                        ("--fractions", "1.5"),
                                        ("--fractions", "abc")])
def test_sweep_reports_bad_grid_as_error(capsys, flag, value):
    assert main(["sweep", flag, value]) == 2
    assert "repro sweep: error:" in capsys.readouterr().err


def test_sweep_rejects_single_cell_flags():
    for flag in (["--gated", "0.4"], ["-m", "gflov"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", *flag])


def test_parsec(capsys):
    """``repro parsec`` rows are ``run_spec`` of the workload spec its
    flags compile to — one full-system path."""
    from repro.harness import run_spec
    from repro.spec import ExperimentSpec

    rc, out = run_cli(capsys, "parsec", "--benchmarks", "swaptions",
                      "--mechanisms", "baseline", "--instructions", "60",
                      "--max-cycles", "40000")
    assert rc == 0
    r = run_spec(ExperimentSpec(
        "baseline", workload="swaptions", seed=1,
        workload_args={"instructions": 60, "max_cycles": 40000}))
    (row,) = [ln for ln in out.splitlines() if "swaptions" in ln]
    assert row.split() == ["swaptions", "baseline", str(r.runtime_cycles),
                           f"{r.static_j * 1e6:.2f}",
                           f"{r.total_j * 1e6:.2f}",
                           str(r.sleeping_routers)]


@pytest.mark.parametrize("flag,value", [("--benchmarks", "nope"),
                                        ("--mechanisms", "gfolv"),
                                        ("--mechanisms", "baseline,gfolv")])
def test_parsec_reports_bad_names_as_error(capsys, monkeypatch, flag,
                                           value):
    """Every cell validates before any simulates: the good baseline cells
    of ``baseline,gfolv`` must not run ahead of the bad name."""
    def boom(*args, **kwargs):
        raise AssertionError("simulated before validating every cell")

    monkeypatch.setattr("repro.fullsystem.CmpSystem.run", boom)
    assert main(["parsec", flag, value]) == 2
    assert "repro parsec: error:" in capsys.readouterr().err


def test_trace_roundtrip(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    rc, out = run_cli(capsys, "trace", "--record", str(trace),
                      "--measure", "1500", "--rate", "0.02")
    assert rc == 0 and "recorded" in out
    rc, out = run_cli(capsys, "trace", "--replay", str(trace))
    assert rc == 0 and "replayed" in out


def test_parser_rejects_unknown_mechanism():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "-m", "nope"])


def test_parser_choices_derived_from_registries():
    """No hard-coded component-name lists: the CLI's choices come from
    the registries."""
    from repro.config import MECHANISMS
    from repro.registry import KERNELS, PATTERNS

    ap = build_parser()
    ns = ap.parse_args(["run", "-m", MECHANISMS[-1],
                        "--pattern", PATTERNS.names()[-1]])
    assert ns.mechanism == MECHANISMS[-1]
    ns = ap.parse_args(["run", "--kernel", KERNELS.names()[-1]])
    assert ns.kernel == KERNELS.names()[-1]
    with pytest.raises(SystemExit):
        ap.parse_args(["run", "--kernel", "hyperspeed"])
    with pytest.raises(SystemExit):
        ap.parse_args(["run", "--pattern", "zigzag"])


def test_synthetic_pattern_arg(capsys):
    rc, out = run_cli(capsys, "run", "--pattern", "hotspot",
                      "--pattern-arg", "hotspots=[27]",
                      "--pattern-arg", "weight=0.4",
                      "--warmup", "200", "--measure", "800")
    assert rc == 0
    assert "hotspot @" in out


def test_synthetic_pattern_arg_errors(capsys):
    rc, _ = run_cli(capsys, "run", "--pattern-arg", "noequals",
                    "--warmup", "10", "--measure", "10")
    assert rc == 2
    rc, _ = run_cli(capsys, "run", "--pattern-arg", "bogus=1",
                    "--warmup", "10", "--measure", "10")
    assert rc == 2


def test_spec_validate_hash_run(tmp_path, capsys):
    spec = tmp_path / "cell.toml"
    spec.write_text('mechanism = "gflov"\nrate = 0.02\n'
                    'gated_fraction = 0.4\nwarmup = 200\nmeasure = 800\n')
    rc, out = run_cli(capsys, "spec", "validate", str(spec))
    assert rc == 0 and "OK (ExperimentSpec" in out
    rc, out = run_cli(capsys, "spec", "hash", str(spec))
    assert rc == 0 and len(out.strip()) == 64
    rc, out = run_cli(capsys, "spec", "run", str(spec))
    assert rc == 0
    assert "avg latency" in out and "result digest" in out


def test_spec_run_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = tmp_path / "sweep.toml"
    spec.write_text('mechanisms = ["baseline", "gflov"]\n'
                    'gated_fractions = [0.0, 0.4]\n'
                    'warmup = 100\nmeasure = 400\n')
    rc, out = run_cli(capsys, "spec", "run", str(spec), "-j", "1")
    assert rc == 0
    assert "avg latency" in out and "gflov" in out
    rc, out = run_cli(capsys, "spec", "run", str(spec), "-j", "1")
    assert rc == 0 and "4 cache hits" in out


def test_spec_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('mechanism = "warp-drive"\n')
    rc, _ = run_cli(capsys, "spec", "validate", str(bad))
    assert rc == 2
    rc, _ = run_cli(capsys, "spec", "run", str(tmp_path / "missing.toml"))
    assert rc == 2


def test_checkpoint_inspect_and_resume(tmp_path, capsys):
    """Interrupt a checkpointing run (via the library hook), then drive
    the frozen state through ``repro checkpoint inspect`` and
    ``resume`` — the resumed digest matches an uninterrupted run."""
    import json

    from repro.harness import run_spec
    from repro.harness.cache import result_to_dict, stable_digest
    from repro.harness.checkpoint import (CheckpointInterrupt,
                                          checkpoint_path)
    from repro.spec import ExperimentSpec

    cell = dict(mechanism="gflov", rate=0.05, gated_fraction=0.4,
                warmup=100, measure=500, seed=4,
                overrides={"width": 4, "height": 4})
    spec = ExperimentSpec(**cell)
    golden = stable_digest(result_to_dict(run_spec(spec)))
    with pytest.raises(CheckpointInterrupt):
        run_spec(spec, checkpoint_every=150, checkpoint_dir=tmp_path,
                 interrupt=lambda: True)
    ckpt = checkpoint_path(tmp_path, spec)

    rc, out = run_cli(capsys, "checkpoint", "inspect", str(ckpt))
    assert rc == 0
    assert "run_spec" in out and "gflov" in out and "sim cycle" in out
    assert ckpt.exists(), "inspect must not consume the checkpoint"

    rc, out = run_cli(capsys, "checkpoint", "resume", str(ckpt))
    assert rc == 0
    assert golden in out
    assert not ckpt.exists(), "a finished resume consumes the checkpoint"

    spec_file = tmp_path / "cell.json"
    spec_file.write_text(json.dumps(cell))
    rc, out = run_cli(capsys, "spec", "run", str(spec_file),
                      "--checkpoint-every", "150",
                      "--checkpoint-dir", str(tmp_path))
    assert rc == 0 and golden in out


def test_checkpoint_inspect_batch(tmp_path, capsys):
    from repro.harness.checkpoint import (CheckpointInterrupt,
                                          batch_checkpoint_path)
    from repro.noc.batched import run_spec_batch
    from repro.spec import ExperimentSpec

    specs = [ExperimentSpec(mechanism=m, rate=0.05, gated_fraction=0.2,
                            warmup=100, measure=400, seed=6,
                            overrides={"width": 4, "height": 4})
             for m in ("rflov", "gflov")]
    with pytest.raises(CheckpointInterrupt):
        run_spec_batch(specs, checkpoint_every=150, checkpoint_dir=tmp_path,
                       interrupt=lambda: True)
    ckpt = batch_checkpoint_path(tmp_path, [s.resolved() for s in specs])

    rc, out = run_cli(capsys, "checkpoint", "inspect", str(ckpt))
    assert rc == 0
    assert "run_spec_batch" in out and "2 live" in out

    rc, out = run_cli(capsys, "checkpoint", "resume", str(ckpt))
    assert rc == 0 and out.count("digest") == 2
    assert not ckpt.exists()


def test_checkpoint_command_error_paths(tmp_path, capsys):
    rc, _ = run_cli(capsys, "checkpoint", "inspect",
                    str(tmp_path / "missing.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1, "kind": "mystery"}')
    rc, _ = run_cli(capsys, "checkpoint", "resume", str(bad))
    assert rc == 2
    assert bad.exists(), "the CLI never unlinks what it could not use"
