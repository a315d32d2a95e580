"""Write the schema-v1 checkpoint fixtures beside this file.

Run it with ``PYTHONPATH`` pointing at the commit whose on-disk format
is to be pinned (the committed files were written by the parent of the
PR that introduced the VC bitmasks)::

    PYTHONPATH=<old checkout>/src python tests/fixtures/make_checkpoint_v1.py

Each fixture is a ``run_spec`` checkpoint taken mid-measurement (cycle
150 of 100 + 300, flits buffered, VCs ACTIVE, NoRD's ring occupied)
plus ``golden_digest``: the result digest of the same spec run to the
horizon, uninterrupted, by that same commit.
"""

import json
from pathlib import Path

from repro.harness import run_spec
from repro.harness.cache import result_to_dict, stable_digest
from repro.harness.checkpoint import CheckpointInterrupt
from repro.spec import ExperimentSpec

HERE = Path(__file__).resolve().parent

for mechanism in ("gflov", "nord"):
    spec = ExperimentSpec(mechanism=mechanism, pattern="uniform", rate=0.3,
                          gated_fraction=0.5, warmup=100, measure=300,
                          seed=11, overrides={"width": 4, "height": 4})
    golden = stable_digest(result_to_dict(run_spec(spec)))
    try:
        run_spec(spec, checkpoint_every=150, checkpoint_dir=HERE,
                 interrupt=lambda: True)
    except CheckpointInterrupt as stop:
        written = Path(stop.path)
    payload = json.loads(written.read_text())
    written.unlink()
    payload["golden_digest"] = golden
    (HERE / f"ckpt_v1_{mechanism}.json").write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
