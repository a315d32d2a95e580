"""Full-system substrate tests: caches, MESI protocol, address mapping,
workloads, and end-to-end benchmark runs."""

import pytest

from repro.config import NoCConfig, SystemConfig
from repro.fullsystem import CmpSystem, PARSEC, get_workload
from repro.fullsystem.address import AddressMap, corner_nodes
from repro.fullsystem.cache import SetAssocCache
from repro.fullsystem.mesi import DATA_KINDS, VNET, DirState, Kind, L1State


# ------------------------------------------------------------------- cache

def test_cache_hit_miss():
    c = SetAssocCache(1024, 2, 64)  # 16 lines, 8 sets
    assert c.get(5) is None
    assert c.put(5, "S") is None
    assert c.get(5) == "S"
    assert 5 in c


def test_cache_lru_eviction():
    c = SetAssocCache(2 * 64, 2, 64)  # 2 lines, 1 set
    c.put(0, "a")
    c.put(1, "b")
    c.get(0)                    # 0 becomes MRU
    victim = c.put(2, "c")
    assert victim == (1, "b")   # LRU evicted
    assert 0 in c and 2 in c


def test_cache_update_requires_presence():
    c = SetAssocCache(1024, 2, 64)
    with pytest.raises(KeyError):
        c.update(7, "M")


def test_cache_too_small():
    with pytest.raises(ValueError):
        SetAssocCache(64, 4, 64)


def test_cache_set_mapping_disjoint():
    c = SetAssocCache(4096, 4, 64)  # 64 lines, 16 sets
    for line in range(16):
        c.put(line, line)
    # one line per set, no evictions
    assert all(line in c for line in range(16))


# ------------------------------------------------------------- address map

def test_corner_nodes():
    assert corner_nodes(NoCConfig()) == (0, 7, 56, 63)


def test_active_only_mapping_targets_active_banks():
    cfg = NoCConfig()
    amap = AddressMap(cfg, SystemConfig(home_mapping="active_only"),
                      active_nodes=list(range(16)))
    allowed = set(range(16)) | {0, 7, 56, 63}
    for line in range(500):
        assert amap.home_of(line) in allowed
        assert amap.mc_of(line) in (0, 7, 56, 63)


def test_interleave_all_mapping_spreads():
    cfg = NoCConfig()
    amap = AddressMap(cfg, SystemConfig(home_mapping="interleave_all"),
                      active_nodes=list(range(4)))
    homes = {amap.home_of(line) for line in range(3000)}
    assert len(homes) > 48  # spreads over nearly all banks


# ----------------------------------------------------------------- workloads

def test_all_nine_parsec_profiles():
    assert len(PARSEC) == 9
    for name, p in PARSEC.items():
        assert p.name == name
        assert 0 < p.active_fraction <= 1
        assert 0 < p.mem_ratio < 1
        assert 0 <= p.sharing < 1


def test_workload_lookup():
    assert get_workload("canneal").sharing > get_workload("swaptions").sharing
    with pytest.raises(ValueError):
        get_workload("doom")


def test_active_nodes_consolidated():
    nodes = get_workload("x264").active_nodes(64)
    assert nodes == list(range(32))


def test_private_regions_disjoint():
    p = get_workload("dedup")
    r1 = set(range(p.private_base(1), p.private_base(1) + p.private_lines))
    r2 = set(range(p.private_base(2), p.private_base(2) + p.private_lines))
    assert not (r1 & r2)
    shared = set(range(p.shared_base, p.shared_base + p.shared_lines))
    assert not (shared & r1)


# ---------------------------------------------------------------- protocol

def test_vnet_assignment_covers_all_kinds():
    for kind in Kind:
        assert kind in VNET
    assert VNET[Kind.GETS] == 0
    assert VNET[Kind.INV] == 1
    assert VNET[Kind.DATA] == 2


def test_data_kinds_are_data_sized():
    assert Kind.MEM_DATA in DATA_KINDS
    assert Kind.PUTM in DATA_KINDS
    assert Kind.GETS not in DATA_KINDS
    assert Kind.ACK not in DATA_KINDS


def _tiny_system(mech="baseline", bench="swaptions", instr=120, seed=4):
    return CmpSystem(bench, mech, instructions_per_core=instr, seed=seed,
                     noc_overrides={"width": 4, "height": 4})


def test_small_system_completes():
    sys_ = _tiny_system()
    res = sys_.run(max_cycles=60_000)
    assert res.finished
    # every worker retired exactly its personal finish line (the barrier
    # of the last phase that includes it)
    expected = sum(sys_.cores[n].target for n in sys_.phase_actives[0])
    assert res.instructions == expected


def test_protocol_state_consistency_at_end():
    """After completion: every M/E line has exactly one owner; S lines'
    sharers really hold the line in S."""
    sys_ = _tiny_system(instr=200)
    res = sys_.run(max_cycles=100_000)
    assert res.finished
    # drain all in-flight protocol traffic
    for _ in range(3_000):
        sys_.step()
    for home, d in enumerate(sys_.dirs):
        for line, e in d.entries.items():
            if e.state == DirState.M:
                st = sys_.cores[e.owner].l1.cache.get(line, touch=False)
                assert st in (L1State.M, L1State.E), (hex(line), e, st)
            elif e.state == DirState.S:
                for s in e.sharers:
                    st = sys_.cores[s].l1.cache.get(line, touch=False)
                    # silent S-eviction is legal; if present, must be S
                    assert st in (None, L1State.S), (hex(line), e, st)
            assert e.state != DirState.BUSY, f"stuck transaction {e}"


def test_sharing_generates_coherence_traffic():
    sys_ = _tiny_system(bench="canneal", instr=150)
    res = sys_.run(max_cycles=100_000)
    assert res.finished
    invs = sum(c.l1.stats["invs"] for c in sys_.cores)
    fwds = sum(c.l1.stats["fwds"] for c in sys_.cores)
    assert invs + fwds > 0, "no coherence activity despite sharing"


def test_mc_traffic():
    sys_ = _tiny_system(instr=150)
    sys_.run(max_cycles=100_000)
    assert sum(mc.reads for mc in sys_.mcs_ctl.values()) > 0


def test_gflov_fullsystem_gates_idle_region():
    sys_ = CmpSystem("x264", "gflov", instructions_per_core=150, seed=4)
    res = sys_.run(max_cycles=100_000)
    assert res.finished
    assert res.sleeping_routers > 10
    # MC corners stay powered
    from repro.core.power_fsm import PowerState
    for mc in sys_.mcs:
        assert sys_.net.routers[mc].state == PowerState.ACTIVE


def test_rp_fullsystem_completes():
    sys_ = CmpSystem("x264", "rp", instructions_per_core=150, seed=4)
    res = sys_.run(max_cycles=150_000)
    assert res.finished
    assert res.sleeping_routers > 0
    for mc in sys_.mcs:
        assert mc not in sys_.net.mech.parked


def test_fullsystem_deterministic():
    r1 = _tiny_system(seed=9).run(max_cycles=60_000)
    r2 = _tiny_system(seed=9).run(max_cycles=60_000)
    assert r1.runtime_cycles == r2.runtime_cycles
    assert r1.total_j == r2.total_j


def test_interleave_all_defeats_gating():
    """With Ruby-default interleaving, L2 traffic hits gated nodes' banks
    and keeps waking their routers — the documented motivation for the
    active_only mapping."""
    kw = dict(instructions_per_core=150, seed=4)
    active = CmpSystem("x264", "gflov",
                       sys_cfg=SystemConfig(home_mapping="active_only"),
                       **kw).run(max_cycles=150_000)
    spread = CmpSystem("x264", "gflov",
                       sys_cfg=SystemConfig(home_mapping="interleave_all"),
                       **kw).run(max_cycles=150_000)
    assert active.sleeping_routers > spread.sleeping_routers


@pytest.mark.xfail(strict=True, raises=RuntimeError, reason=(
    "CHANGES.md FOUND line on Router._adopt_midstream: a router that "
    "wakes can allocate an output VC a fly-over wormhole still holds "
    "(mid-packet adoption conflict at router 25)"))
def test_gflov_parsec_dedup_completes():
    """``repro parsec --benchmarks dedup --mechanisms gflov
    --instructions 60 --max-cycles 20000 --seed 1`` runs to the end."""
    from repro.harness import run_spec
    from repro.spec import ExperimentSpec

    run_spec(ExperimentSpec("gflov", workload="dedup", seed=1,
                            workload_args={"instructions": 60,
                                           "max_cycles": 20000}))
