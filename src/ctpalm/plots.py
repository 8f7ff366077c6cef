"""Minimal self-contained SVG line plots (no plotting dependency).

Two emitters: state components against time, and residual histories against
the outer iteration counter on a log scale.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Trajectory

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _scale(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _xpix(t, t0, t1):
    return _ML + (_W - _ML - _MR) * (t - t0) / (t1 - t0)


def _ypix(v, v0, v1):
    return _H - _MB - (_H - _MT - _MB) * (v - v0) / (v1 - v0)


def _dash(dash: str) -> str:
    return f' stroke-dasharray="{dash}"' if dash else ""


def _frame(title: str, xlabel: str, ylabel: str):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_H / 2:.0f})">{ylabel}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#999"/>',
    ]


def _axis_ticks(parts, t0, t1, v0, v1, ylog=False):
    for i in range(5):
        tv = t0 + (t1 - t0) * i / 4
        xp = _xpix(tv, t0, t1)
        parts.append(f'<line x1="{xp:.1f}" y1="{_H - _MB}" x2="{xp:.1f}" '
                     f'y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{xp:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tv:.4g}</text>')
        vv = v0 + (v1 - v0) * i / 4
        yp = _ypix(vv, v0, v1)
        label = f"1e{vv:.1f}" if ylog else f"{vv:.4g}"
        parts.append(f'<line x1="{_ML - 4}" y1="{yp:.1f}" x2="{_ML}" '
                     f'y2="{yp:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 7}" y="{yp + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{label}</text>')


def _chart(title, xlabel, ylabel, t_range, v_range, curves, legend, ylog=False) -> str:
    """SVG text of one chart: x axis over t_range, y axis over v_range padded
    by `_scale`.  `curves` are (ts, vs, color, dash) polylines in data units,
    values below the y axis drawn on it; `legend` lists (label, color, dash)."""
    t0, t1 = t_range
    v0, v1 = _scale(*v_range)
    parts = _frame(title, xlabel, ylabel)
    _axis_ticks(parts, t0, t1, v0, v1, ylog)
    for ts, vs, color, dash in curves:
        # Silent inf and NaN, as in float arithmetic: an infinite residual
        # makes the axis infinite.
        with np.errstate(over="ignore", invalid="ignore"):
            xs = _xpix(np.asarray(ts, dtype=float), t0, t1)
            ys = _ypix(np.maximum(np.asarray(vs, dtype=float), v0), v0, v1)
        pts = " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                     f'{_dash(dash)} points="{pts}"/>')
    for i, (label, color, dash) in enumerate(legend):
        y = _MT + 14 + 15 * i
        parts.append(f'<line x1="{_ML + 8}" y1="{y - 4}" x2="{_ML + 32}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="1.5"{_dash(dash)}/>')
        parts.append(f'<text x="{_ML + 38}" y="{y}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def trajectory_svg(x: Trajectory, reference: Trajectory = None,
                   title: str = "state trajectory") -> str:
    """One polyline per state component over time; dashed reference overlay."""
    t = x.grid.nodes
    trajs = [(x, "")] + ([(reference, "5,4")] if reference is not None else [])
    curves = [(t, traj.values[:, d], _COLORS[d % len(_COLORS)], dash)
              for traj, dash in trajs for d in range(traj.dim)]
    all_vals = np.concatenate([vs for _, vs, _, _ in curves])
    legend = [(f"x{d + 1}", _COLORS[d % len(_COLORS)], "") for d in range(x.dim)]
    if reference is not None:
        legend.append(("reference (dashed)", "#555", "5,4"))
    return _chart(title, "t", "x(t)", (float(t[0]), float(t[-1])),
                  (float(all_vals.min()), float(all_vals.max())), curves, legend)


def residuals_svg(records, title: str = "residual history") -> str:
    """Log-scale stationarity / complementarity / infeasibility curves over k."""
    ks = [float(r.k) for r in records]
    floor = 1e-300
    curves = [
        ("stationarity", [math.log10(max(r.residuals.stationarity_l1, floor))
                          for r in records]),
        ("complementarity", [math.log10(max(r.residuals.complementarity_sup, floor))
                             for r in records]),
        ("infeasibility", [math.log10(max(r.infeas_measure, floor))
                           for r in records]),
    ]
    vals = [v for _, ys in curves for v in ys if v > -250]
    if not vals:
        vals = [0.0]
    t_range = ks[0], ks[-1] if ks[-1] > ks[0] else ks[0] + 1.0
    return _chart(title, "outer iteration k", "log10 residual", t_range,
                  (min(vals), max(vals)),
                  [(ks, ys, color, "") for (_, ys), color in zip(curves, _COLORS)],
                  [(label, color, "") for (label, _), color in zip(curves, _COLORS)],
                  ylog=True)
