"""Synthetic PARSEC 2.1 workload profiles.

The paper runs nine PARSEC benchmarks on gem5. Real traces are not
available offline, so each benchmark is encoded by the characteristics
that drive NoC traffic and gating opportunity, taken from the PARSEC
characterization literature (Bienia et al., PACT 2008):

* ``active_fraction`` — fraction of the 64 cores that host threads after
  OS consolidation (pipeline-parallel benchmarks leave stages idle;
  fluidanimate requires power-of-two threads; x264's parallelism is
  bounded by the frame structure).
* ``mem_ratio`` — memory instructions per instruction.
* ``write_ratio`` — stores among memory accesses.
* ``sharing`` — probability an access touches the shared region
  (canneal's fine-grained sharing vs. swaptions' independence).
* working-set sizes, expressed in cache lines (canneal/dedup stream
  far beyond the L2; blackscholes/swaptions fit caches).

The substitution rationale is in DESIGN.md: these profiles exercise the
same code paths (coherence message classes, idle cores, consolidation
regions) that the real traces would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..registry import WORKLOADS as WORKLOAD_REGISTRY


@dataclass(frozen=True)
class WorkloadProfile:
    name: str
    active_fraction: float
    mem_ratio: float
    write_ratio: float
    sharing: float
    private_lines: int
    shared_lines: int
    #: line id where the shared region starts
    shared_base: int = 1 << 24
    #: execution phases as (active_fraction, share_of_instructions);
    #: PARSEC programs ramp parallelism down toward serial sections, and
    #: the OS consolidates + gates the idled cores mid-run. Empty means
    #: a single phase at ``active_fraction``.
    phases: tuple[tuple[float, float], ...] = ()

    def private_base(self, node: int) -> int:
        """Start of a core's private region (disjoint per node)."""
        return node << 16

    def effective_phases(self) -> tuple[tuple[float, float], ...]:
        """Phases with the single-phase default filled in."""
        return self.phases or ((self.active_fraction, 1.0),)

    def active_nodes(self, num_nodes: int,
                     fraction: float | None = None) -> list[int]:
        """Consolidated thread placement: fill nodes row-major from 0."""
        if fraction is None:
            fraction = max(f for f, _ in self.effective_phases())
        count = max(2, round(fraction * num_nodes))
        return list(range(min(count, num_nodes)))


#: The nine PARSEC 2.1 benchmarks evaluated in the paper (SS VI-A).
PARSEC: dict[str, WorkloadProfile] = {
    "blackscholes": WorkloadProfile(
        "blackscholes", active_fraction=1.00, mem_ratio=0.24,
        write_ratio=0.14, sharing=0.04, private_lines=600,
        shared_lines=400, phases=((1.00, 0.8), (0.25, 0.2))),
    "bodytrack": WorkloadProfile(
        "bodytrack", active_fraction=0.78, mem_ratio=0.30,
        write_ratio=0.20, sharing=0.28, private_lines=1600,
        shared_lines=1600),
    "canneal": WorkloadProfile(
        "canneal", active_fraction=0.94, mem_ratio=0.36,
        write_ratio=0.11, sharing=0.48, private_lines=8000,
        shared_lines=20000),
    "dedup": WorkloadProfile(
        "dedup", active_fraction=0.56, mem_ratio=0.35,
        write_ratio=0.29, sharing=0.33, private_lines=5000,
        shared_lines=8000, phases=((0.56, 0.7), (0.25, 0.3))),
    "ferret": WorkloadProfile(
        "ferret", active_fraction=0.63, mem_ratio=0.31,
        write_ratio=0.24, sharing=0.36, private_lines=3000,
        shared_lines=5000),
    "fluidanimate": WorkloadProfile(
        "fluidanimate", active_fraction=1.00, mem_ratio=0.30,
        write_ratio=0.23, sharing=0.20, private_lines=2400,
        shared_lines=2400, phases=((1.00, 0.9), (0.50, 0.1))),
    "streamcluster": WorkloadProfile(
        "streamcluster", active_fraction=0.75, mem_ratio=0.39,
        write_ratio=0.13, sharing=0.30, private_lines=3200,
        shared_lines=4000),
    "swaptions": WorkloadProfile(
        "swaptions", active_fraction=1.00, mem_ratio=0.22,
        write_ratio=0.17, sharing=0.03, private_lines=700,
        shared_lines=300, phases=((1.00, 0.85), (0.30, 0.15))),
    "x264": WorkloadProfile(
        "x264", active_fraction=0.50, mem_ratio=0.29,
        write_ratio=0.28, sharing=0.31, private_lines=2600,
        shared_lines=4000, phases=((0.50, 0.75), (0.20, 0.25))),
}


# every profile registers itself; the registry is the lookup authority
for _profile in PARSEC.values():
    WORKLOAD_REGISTRY.register(_profile.name, _profile)
del _profile


def get_workload(name: str) -> WorkloadProfile:
    """Registry lookup; unknown names raise a ``ValueError`` subclass
    listing the valid choices."""
    return WORKLOAD_REGISTRY.get(name)
