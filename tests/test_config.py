"""Configuration object tests."""

import pytest

from repro.config import (MECHANISMS, TECH, NoCConfig, PowerConfig,
                          SystemConfig, table1_config)


def test_table1_defaults():
    cfg = table1_config()
    assert cfg.width == 8 and cfg.height == 8
    assert cfg.buffer_depth == 6
    assert cfg.router_latency == 3
    assert cfg.num_vcs == 3 and cfg.escape_vcs == 1
    assert cfg.packet_size == 4
    assert cfg.flit_width_bytes == 16
    assert cfg.wakeup_latency == 10
    assert cfg.mechanism == "gflov"


def test_table1_vnets_override():
    cfg = table1_config("rflov", vnets=3)
    assert cfg.num_vnets == 3
    assert cfg.total_vcs == 12


def test_mechanism_validation():
    with pytest.raises(ValueError, match="unknown mechanism"):
        NoCConfig(mechanism="bogus")
    for m in MECHANISMS:
        assert NoCConfig(mechanism=m).mechanism == m


def test_mesh_size_validation():
    with pytest.raises(ValueError):
        NoCConfig(width=1)
    with pytest.raises(ValueError):
        NoCConfig(height=0)


def test_buffer_depth_validation():
    with pytest.raises(ValueError):
        NoCConfig(buffer_depth=0)


def test_aon_column_resolution():
    """The escape network assumes the east edge: -1 and width - 1 name it;
    any other column, in the mesh or not, is refused."""
    assert NoCConfig().resolved_aon_column == 7
    assert NoCConfig(aon_column=7).resolved_aon_column == 7
    assert NoCConfig(width=5, aon_column=4).resolved_aon_column == 4
    for column in (3, 0, -8, -2, 8, 9):
        with pytest.raises(ValueError):
            NoCConfig(aon_column=column)


def test_node_coordinate_roundtrip():
    cfg = NoCConfig(width=5, height=3)
    for node in range(cfg.num_routers):
        x, y = cfg.node_xy(node)
        assert cfg.node_id(x, y) == node
        assert 0 <= x < 5 and 0 <= y < 3


def test_vc_indexing():
    cfg = NoCConfig(num_vnets=3)
    assert cfg.vcs_per_vnet == 4
    assert cfg.total_vcs == 12
    assert cfg.vc_index(0, 0) == 0
    assert cfg.vc_index(2, 3) == 11
    assert cfg.escape_vc_of(1) == 7
    assert cfg.is_escape_vc(3) and cfg.is_escape_vc(7) and cfg.is_escape_vc(11)
    assert not cfg.is_escape_vc(0) and not cfg.is_escape_vc(6)
    assert cfg.vnet_of(0) == 0 and cfg.vnet_of(7) == 1 and cfg.vnet_of(11) == 2


def test_with_replacement():
    cfg = NoCConfig()
    cfg2 = cfg.with_(width=4, height=4)
    assert cfg2.width == 4 and cfg.width == 8


def test_power_config_cycle_time():
    assert TECH == PowerConfig()
    assert TECH.cycle_time_s == pytest.approx(0.5e-9)


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(home_mapping="nope")
    with pytest.raises(ValueError):
        SystemConfig(line_bytes=48)
    assert SystemConfig().data_flits == 5
