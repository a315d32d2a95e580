"""Harness constants must match the paper's figure axes."""

from repro.harness import FIGURE_MECHANISMS


def test_figure_mechanisms():
    assert FIGURE_MECHANISMS == ("baseline", "rp", "rflov", "gflov")
