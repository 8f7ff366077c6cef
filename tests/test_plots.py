"""SVG charts: polyline points."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from ctpalm import plots


def loop_points(ts, vs, t_range, v_range):
    """The per-point loop `plots._chart` replaces: its byte-for-byte reference."""
    t0, t1 = t_range
    v0, v1 = plots._scale(*v_range)
    return " ".join(f"{plots._xpix(t, t0, t1):.2f},{plots._ypix(max(v, v0), v0, v1):.2f}"
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
])
def test_polyline_points_equal_the_point_loop(ts, vs, v_range):
    t_range = (float(ts[0]), float(ts[-1]))
    assert chart_points(ts, vs, t_range, v_range) == [loop_points(ts, vs, t_range,
                                                                  v_range)]


def test_nan_residual_is_drawn_at_nan():
    records = [SimpleNamespace(k=k, infeas_measure=1e-320,
                               residuals=SimpleNamespace(stationarity_l1=value,
                                                         complementarity_sup=1e-3))
               for k, value in enumerate([1.0, math.nan, 1e-4])]
    svg = plots.residuals_svg(records)
    stationarity = re.findall(r'points="([^"]*)"', svg)[0].split()
    assert stationarity[1].endswith(",nan")
    assert "nan" not in stationarity[0] + stationarity[2]
