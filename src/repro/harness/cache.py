"""Content-addressed on-disk cache for experiment results.

Every synthetic-traffic experiment is fully determined by its
:class:`~repro.spec.ExperimentSpec` — the simulator is deterministic
for a fixed seed — so a result computed once never needs to be
recomputed.  The cache keys each run by a SHA-256 digest of the spec's
:meth:`~repro.spec.ExperimentSpec.cache_key` canonical-JSON encoding
and stores one small JSON file per result under
``.repro_cache/<aa>/<digest>.json`` (``aa`` = first two hex digits, to
keep directories small).

Compatibility: the spec's key layout is byte-identical to the pre-spec
``(NoCConfig, pattern, rate, gated_fraction, seed, warmup, measure,
drain, keep_samples)`` dict whenever the newer spec fields (pattern
kwargs, declarative schedule, workload) are unused, so cache entries
written before the spec layer keep hitting; runs that do use the new
fields append them to the key and therefore version themselves into
fresh digests automatically.

Environment knobs
-----------------

``REPRO_NO_CACHE=1``
    Bypass the cache entirely (no reads, no writes).
``REPRO_CACHE_DIR=<path>``
    Root directory for cache files (default ``.repro_cache`` in the
    current working directory).

A missing entry is a silent miss.  Corrupted or schema-incompatible
cache files are discarded with a warning and recomputed — never a
crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any

from ..atomicio import atomic_write_json, read_json_checked
from ..noc.stats import LatencyBreakdown
from .runner import ExperimentResult

__all__ = ["CACHE_SCHEMA_VERSION", "ResultCache", "atomic_write_json",
           "cache_enabled", "default_cache_dir", "result_from_dict",
           "result_to_dict", "spec_digest", "stable_digest"]

#: bump when the ExperimentResult schema or simulator semantics change
#: incompatibly; old cache entries are then ignored.
CACHE_SCHEMA_VERSION = 1

DEFAULT_CACHE_DIR = ".repro_cache"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set (cache fully bypassed)."""
    return not os.environ.get("REPRO_NO_CACHE")


def default_cache_dir() -> str:
    """Cache root: ``REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def stable_digest(key: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of ``key``.

    Stable across processes and Python invocations (keys sorted, no
    whitespace, no hash randomization involvement).
    """
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_digest(spec) -> str:
    """Cache digest of an :class:`~repro.spec.ExperimentSpec`.

    This is the digest the engine stores the spec's result under —
    ``stable_digest(spec.cache_key())``.  Note it deliberately differs
    from :meth:`~repro.spec.ExperimentSpec.stable_hash` (a hash of the
    *complete* spec): the cache key excludes ``kernel`` (kernels are
    bit-identical) and omits unused new fields for backward
    compatibility with pre-spec cache entries.
    """
    return stable_digest(spec.cache_key())


# -- ExperimentResult <-> JSON ------------------------------------------------

def result_to_dict(r: ExperimentResult) -> dict[str, Any]:
    """Lossless JSON-serializable encoding of an :class:`ExperimentResult`."""
    return {
        "mechanism": r.mechanism,
        "pattern": r.pattern,
        "rate": r.rate,
        "gated_fraction": r.gated_fraction,
        "warmup": r.warmup,
        "measured_cycles": r.measured_cycles,
        "avg_latency": r.avg_latency,
        "avg_network_latency": r.avg_network_latency,
        "breakdown": {
            "router": r.breakdown.router,
            "link": r.breakdown.link,
            "serialization": r.breakdown.serialization,
            "flov": r.breakdown.flov,
            "contention": r.breakdown.contention,
        },
        "throughput": r.throughput,
        "packets": r.packets,
        "escaped": r.escaped,
        "static_w": r.static_w,
        "dynamic_w": r.dynamic_w,
        "total_w": r.total_w,
        "static_j": r.static_j,
        "dynamic_j": r.dynamic_j,
        "total_j": r.total_j,
        "sleeping_routers": r.sleeping_routers,
        "gating_events": r.gating_events,
        "power_states": dict(r.power_states),
        "samples": [list(s) for s in r.samples],
        "trace_path": r.trace_path,
        "metrics": dict(r.metrics),
    }


def result_from_dict(data: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict` (bit-identical round-trip).

    Entries written before the observability fields existed simply fall
    back to the dataclass defaults (``trace_path=None``, ``metrics={}``)
    — no schema bump needed, since absence and default agree."""
    d = dict(data)
    d["breakdown"] = LatencyBreakdown(**d["breakdown"])
    d["power_states"] = dict(d["power_states"])
    d["samples"] = [tuple(s) for s in d["samples"]]
    if "metrics" in d:
        d["metrics"] = dict(d["metrics"])
    return ExperimentResult(**d)


class ResultCache:
    """Content-addressed store of experiment results on disk.

    ``get``/``put`` take the *key dict* (see
    :meth:`repro.spec.ExperimentSpec.cache_key`); the digest and
    file layout are internal.  Hit/miss counters are kept for progress
    reporting.
    """

    def __init__(self, root: str | os.PathLike[str] | None = None) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.hits = 0
        self.misses = 0

    # -- layout --------------------------------------------------------------

    def _entry(self, key: dict[str, Any]) -> str:
        """Entry path of ``key`` as one string (no ``pathlib`` per probe)."""
        digest = stable_digest(key)
        return f"{self.root}{os.sep}{digest[:2]}{os.sep}{digest}.json"

    def path_for(self, key: dict[str, Any]) -> Path:
        return Path(self._entry(key))

    # -- operations ----------------------------------------------------------

    def get(self, key: dict[str, Any], *, tracer: Any | None = None,
            parent: Any | None = None) -> ExperimentResult | None:
        """Cached result for ``key``, or None.

        A file that cannot be parsed or fails basic shape checks is
        removed with a warning and treated as a miss.  With a
        :class:`~repro.obs.spans.SpanTracer` (and optional parent
        context) the lookup is recorded as a ``cache.probe`` span with
        a ``cache.hit`` attribute; untraced probes pay only the keyword
        default.
        """
        if tracer is not None:
            with tracer.span("cache.probe", parent=parent) as sp:
                result = self._get(key)
                sp.set_attribute("cache.hit", result is not None)
            return result
        return self._get(key)

    def _get(self, key: dict[str, Any]) -> ExperimentResult | None:
        decoded: list[ExperimentResult] = []

        def check(payload: Any) -> None:
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"schema {payload.get('schema')!r} != "
                                 f"{CACHE_SCHEMA_VERSION}")
            decoded.append(result_from_dict(payload["result"]))

        payload = read_json_checked(self._entry(key), label="cache entry",
                                    check=check)
        if payload is None or not decoded:
            self.misses += 1
            return None
        self.hits += 1
        return decoded[0]

    def put(self, key: dict[str, Any], result: ExperimentResult) -> Path:
        """Atomically persist ``result`` under ``key``; returns the path."""
        path = self.path_for(key)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "result": result_to_dict(result),
        }
        atomic_write_json(path, payload)
        return path

    def clear(self) -> None:
        """Remove every cache entry (and the root directory)."""
        shutil.rmtree(self.root, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
