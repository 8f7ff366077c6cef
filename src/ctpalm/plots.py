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


def _polyline(xs, ys, color, dash=""):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{extra} points="{pts}"/>')


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


def _legend(parts, labels_colors_dash):
    y = _MT + 14
    for label, color, dash in labels_colors_dash:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{_ML + 8}" y1="{y - 4}" x2="{_ML + 32}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="1.5"{extra}/>')
        parts.append(f'<text x="{_ML + 38}" y="{y}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
        y += 15


def trajectory_svg(x: Trajectory, reference: Trajectory = None,
                   title: str = "state trajectory") -> str:
    """One polyline per state component over time; dashed reference overlay."""
    t = x.grid.nodes
    curves = [(x, "")] + ([(reference, "5,4")] if reference is not None else [])
    all_vals = np.concatenate([traj.values[:, d] for traj, _ in curves
                               for d in range(traj.dim)])
    v0, v1 = _scale(float(all_vals.min()), float(all_vals.max()))
    t0, t1 = float(t[0]), float(t[-1])
    parts = _frame(title, "t", "x(t)")
    _axis_ticks(parts, t0, t1, v0, v1)
    xs = [_xpix(tv, t0, t1) for tv in t]
    for traj, dash in curves:
        for d in range(traj.dim):
            ys = [_ypix(v, v0, v1) for v in traj.values[:, d]]
            parts.append(_polyline(xs, ys, _COLORS[d % len(_COLORS)], dash))
    legend = [(f"x{d + 1}", _COLORS[d % len(_COLORS)], "") for d in range(x.dim)]
    if reference is not None:
        legend.append(("reference (dashed)", "#555", "5,4"))
    _legend(parts, legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    v0, v1 = _scale(min(vals), max(vals))
    t0, t1 = ks[0], ks[-1] if ks[-1] > ks[0] else ks[0] + 1.0
    parts = _frame(title, "outer iteration k", "log10 residual")
    _axis_ticks(parts, t0, t1, v0, v1, ylog=True)
    legend = []
    for (label, ys), color in zip(curves, _COLORS):
        xs = [_xpix(k, t0, t1) for k in ks]
        yp = [_ypix(max(v, v0), v0, v1) for v in ys]
        parts.append(_polyline(xs, yp, color))
        legend.append((label, color, ""))
    _legend(parts, legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
