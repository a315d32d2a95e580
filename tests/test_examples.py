"""Out-of-tree callers must keep working: examples run as subprocesses,
and ``bench/`` (outside tier-1 ``testpaths``) still finds its imports."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, *args: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "baseline" in out and "gflov" in out
    assert "static" in out.lower()


def test_routing_explorer_example():
    out = run_example("routing_explorer.py")
    assert "fly-over" in out
    assert "eject" in out
    assert "power-gated routers" in out


@pytest.mark.slow
def test_consolidation_day_example():
    out = run_example("consolidation_day.py")
    assert "gflov" in out and "worst win" in out


@pytest.mark.slow
def test_parsec_fullsystem_example():
    out = run_example("parsec_fullsystem.py", "swaptions")
    assert "swaptions" in out and "baseline" in out


def test_bench_imports_resolve():
    """The benchmark ladder is frozen between benchmark PRs and runs only
    after tier-1; a deleted name must fail here, not there.  Checks every
    ``from repro... import name`` in ``bench/*.py`` and every attribute
    read off such a name (``SweepTask.from_spec``)."""
    missing = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        imported[alias.asname or alias.name] = getattr(
                            module, alias.name)
                    else:
                        missing.append(f"{path.name}: from {node.module} "
                                       f"import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in imported
                    and not hasattr(imported[node.value.id], node.attr)):
                missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert not missing, missing
