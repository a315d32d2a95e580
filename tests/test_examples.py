"""Out-of-tree callers must keep working: examples run as subprocesses,
``bench/`` (outside tier-1 ``testpaths``) still finds its imports,
every command EXPERIMENTS.md regenerates a table with still parses, and
DESIGN.md's module map matches the tree."""

import ast
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.spec import load_spec_file

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


def test_experiments_regenerate_markers_resolve():
    """Each pinned table in EXPERIMENTS.md names the command that prints
    it; CI reruns those commands and diffs.  Here, without simulating:
    the command must parse and any spec file it names must load."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    commands = re.findall(r"<!-- regenerate: python -m repro (.+?) -->",
                          text)
    assert commands
    for command in commands:
        argv = shlex.split(command)
        build_parser().parse_args(argv)
        for word in argv:
            if word.endswith((".toml", ".json")):
                load_spec_file(str(ROOT / word))


def test_example_specs_load():
    paths = sorted((EXAMPLES / "specs").iterdir())
    assert paths
    for path in paths:
        load_spec_file(str(path))


def test_design_module_map_matches_tree():
    """DESIGN.md section 5 names every ``src/repro`` module (package
    ``__init__`` files aside), and every module it names exists."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 5. Module map", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    named = set()
    for line in block.splitlines():
        entry = re.match(r"  (\S+\.py)\b", line)  # continuations indent more
        if entry is None:
            continue
        head, _, tail = entry.group(1).rpartition("/")
        stems = re.fullmatch(r"\{(.+)\}\.py", tail)
        for stem in (stems.group(1).split(",") if stems
                     else [tail.removesuffix(".py")]):
            named.add(f"{head}/{stem}.py" if head else f"{stem}.py")
    src = ROOT / "src" / "repro"
    tree = {path.relative_to(src).as_posix() for path in src.rglob("*.py")
            if path.name != "__init__.py"}
    assert sorted(named - tree) == [], "the map names missing modules"
    assert sorted(tree - named) == [], "modules missing from the map"
