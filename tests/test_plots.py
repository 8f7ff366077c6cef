"""SVG charts: polyline points, and finite charts of extreme values."""

import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import ctpalm as c
from ctpalm import plots


def loop_points(ts, vs, t_range, v_range):
    """The per-point loop `plots._chart` replaces: its byte-for-byte reference."""
    t0, t1 = t_range
    v0, v1 = plots._scale(*v_range)
    return " ".join(f"{plots._xpix(t, t0, t1):.2f},"
                    f"{plots._ypix(min(max(v, v0), v1), v0, v1):.2f}"
                    for t, v in zip(ts, vs))


def chart_points(ts, vs, t_range, v_range):
    svg = plots._chart("title", "x", "y", t_range, v_range,
                       [(ts, vs, "#000", "")], [])
    return re.findall(r'points="([^"]*)"', svg)


@pytest.mark.parametrize("ts,vs,v_range", [
    # A NaN residual's log10, and values below the axis (log10 of the floor).
    ([0.0, 1.0, 2.0, 3.0], [math.log10(math.nan), -300.0, -2.5, -0.0], (-2.5, 0.0)),
    ([0.0, 1.0, 2.0], [-0.0, 0.0, -0.0], (0.0, 0.0)),
    ([0.0, 1.0], [0.0, 1.0], (-0.0, 1.0)),
    (np.linspace(0.0, 2.0, 9), np.array([-0.0, 1e-300, -1e-300, 5.0, -5.0, 1e300,
                                         -1e300, 0.25, np.nan]), (-5.0, 5.0)),
    # Infinite values, drawn at the ends of the axis.
    ([0.0, 1.0, 2.0], [math.inf, 1.0, -math.inf], (-1.0, 0.5)),
])
def test_polyline_points_equal_the_point_loop(ts, vs, v_range):
    t_range = (float(ts[0]), float(ts[-1]))
    assert chart_points(ts, vs, t_range, v_range) == [loop_points(ts, vs, t_range,
                                                                  v_range)]


def residual_records(stationarity):
    return [SimpleNamespace(k=k, infeas_measure=1e-320,
                            residuals=SimpleNamespace(stationarity_l1=value,
                                                      complementarity_sup=1e-3))
            for k, value in enumerate(stationarity)]


def test_nan_residual_is_drawn_at_nan():
    svg = plots.residuals_svg(residual_records([1.0, math.nan, 1e-4]))
    stationarity = re.findall(r'points="([^"]*)"', svg)[0].split()
    assert stationarity[1].endswith(",nan")
    assert "nan" not in stationarity[0] + stationarity[2]


def test_infinite_residual_is_drawn_at_the_top_of_a_finite_axis():
    """The y axis spans the finite residuals only, so they keep distinct
    heights, and the infinite one is drawn at the top of the frame."""
    svg = plots.residuals_svg(residual_records([1.0, math.inf, 1e-4]))
    labels = re.findall(r'font-size="10">([^<]*)<', svg)
    # Five labels on the x axis and five on the log-scale y axis, "1e<x>".
    assert len(labels) == 10 and all(label.startswith("1e") for label in labels[1::2])
    assert all(math.isfinite(float(label)) for label in labels[::2] + [
        label[2:] for label in labels[1::2]])
    ys = [float(point.split(",")[1])
          for point in re.findall(r'points="([^"]*)"', svg)[0].split()]
    assert all(map(math.isfinite, ys))
    assert ys[1] == plots._MT < ys[0] < ys[2] <= plots._H - plots._MB


@pytest.mark.parametrize("values", [
    [[1e308], [-1e308], [0.0]],        # hi - lo overflows
    [[sys.float_info.max], [-sys.float_info.max], [0.0]],  # so does the padding
    [[1e306], [0.0], [0.0]],           # so would the pixel arithmetic
    [[sys.float_info.max]] * 3,        # constant, 1 below the precision
    [[-1e17]] * 3,
])
def test_trajectory_chart_of_extreme_values_stays_finite(values):
    """No nan or inf reaches the SVG, and every point lies in the frame."""
    grid = c.make_uniform_grid(1.0, len(values))
    svg = plots.trajectory_svg(c.Trajectory(grid, np.array(values)))
    assert "nan" not in svg and "inf" not in svg
    for point in re.findall(r'points="([^"]*)"', svg)[0].split():
        assert plots._MT <= float(point.split(",")[1]) <= plots._H - plots._MB


def test_axis_over_more_than_the_float_range_keeps_its_padding():
    """The axis over [-1e308, 1e308] is padded by 5 % of its width, which is
    itself beyond the float range, and stops at the largest float."""
    assert plots._scale(-1e308, 1e308) == (pytest.approx(-1.1e308, rel=1e-15),
                                           pytest.approx(1.1e308, rel=1e-15))
    assert plots._scale(-sys.float_info.max, 1.0) == (
        -sys.float_info.max, pytest.approx(0.05 * sys.float_info.max, rel=1e-15))
