"""ASCII chart renderer tests."""

import pytest

from repro.harness.ascii_plot import bar_chart, sparkline


def test_bar_chart_scales_to_peak():
    out = bar_chart("B", {"big": 100.0, "half": 50.0}, width=10)
    lines = out.splitlines()
    assert lines[1].count("#") == 10
    assert lines[2].count("#") == 5


def test_bar_chart_validation():
    with pytest.raises(ValueError):
        bar_chart("B", {})


def test_sparkline_monotone():
    s = sparkline([0, 1, 2, 3])
    assert len(s) == 4
    assert s[0] == " " and s[-1] == "@"
    assert sparkline([]) == ""
