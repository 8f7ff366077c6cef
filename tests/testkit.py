"""Independent oracles for the test suite: finite differences, brute force,
and the closed-form asymptotic KKT sequence of `akkt_example`.

These are deliberately naive so they cannot share a failure mode with the
analytic gradients and the node optimizer they are used to validate.
The Lagrangian helpers at the end are one-node adapters over the package's
stacked functions, kept beside the independent oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ctpalm.grid import TimeGrid, Trajectory
from ctpalm.lagrangian import (MultiplierSet, _aug_gradient, _penalty_value,
                               _weighted_gradient)
from ctpalm.problems import ProblemDefinition, _evaluate_fields


@dataclass(frozen=True)
class FdConfig:
    step: float = 1e-6

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


def fd_gradient(f, x: np.ndarray, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / (2 h)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = cfg.step
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"function non-finite near x={x!r} (component {i})")
        out[i] = (fp - fm) / (2.0 * cfg.step)
    return out


def dense_grid_min(f, box_center: np.ndarray, radius: float, points_per_axis: int):
    """Exhaustive minimum of f over a cubic lattice; ties keep the first hit.

    Iteration runs in row-major index order, so the tie-break is the
    lexicographically smallest index tuple.  Only meant for n <= 3.
    """
    center = np.atleast_1d(np.asarray(box_center, dtype=float))
    n = center.size
    if n > 3:
        raise ValueError("dense_grid_min is an oracle for n <= 3 only")
    if points_per_axis < 3:
        raise ValueError("points_per_axis must be >= 3")
    if radius <= 0:
        raise ValueError("radius must be positive")
    axes = [
        np.array([center[d] - radius + 2.0 * radius * k / (points_per_axis - 1)
                  for k in range(points_per_axis)])
        for d in range(n)
    ]
    best_x = None
    best_f = np.inf
    for idx in itertools.product(range(points_per_axis), repeat=n):
        x = np.array([axes[d][idx[d]] for d in range(n)])
        val = float(f(x))
        if val < best_f:
            best_f = val
            best_x = x
    return best_x, best_f


def akkt_example_sequence(grid: TimeGrid, k: int):
    """Closed-form primal/dual pair for `akkt_example` at sequence index k.

    Returns (x, v) trajectories with x1 = (t - 1/2)/k, x2 = 0 and both
    inequality multipliers equal to k^2 / (3 (t - 1/2)^2).  The multiplier
    blows up at t = 1/2, so grids with a node inside |t - 1/2| < 1e-3 are
    rejected.
    """
    if k < 1:
        raise ValueError("sequence index k must be >= 1")
    s = grid.nodes - 0.5
    if np.any(np.abs(s) < 1e-3):
        raise ValueError(
            "grid has a node too close to t = 1/2 where the multiplier is unbounded; "
            "use an even node count"
        )
    x = np.column_stack([s / k, np.zeros(grid.num_nodes)])
    v1 = k * k / (3.0 * s * s)
    v = np.column_stack([v1, v1])
    return Trajectory(grid, x), Trajectory(grid, v)


def _one_row(problem, x, t, *names):
    """Evaluators `names` at one state and time, as a one-row stack,
    unchecked for finiteness as the solver's trial points are."""
    xs, ts = np.asarray(x, dtype=float)[None], np.array([t], dtype=float)
    return SimpleNamespace(**_evaluate_fields(problem, names, xs, ts))


def lagrangian_gradient(problem: ProblemDefinition, x: np.ndarray,
                        mult: MultiplierSet, t: float) -> np.ndarray:
    """grad phi + sum_i u_i grad h_i + sum_j v_j grad g_j at one node."""
    ev = _one_row(problem, x, t, "grad_phi", "jac_h", "jac_g")
    return _weighted_gradient(ev, mult.u[None], mult.v[None])[0]


def aug_lagrangian_value(problem: ProblemDefinition, x: np.ndarray,
                         safeguarded: MultiplierSet, rho: float, t: float) -> float:
    """phi + (rho/2) sum [h_i + u_i/rho]^2 + (rho/2) sum [max(0, g_j + v_j/rho)]^2."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    ev = _one_row(problem, x, t, "phi", "h", "g")
    pen = _penalty_value(ev, safeguarded.u[None] / rho, safeguarded.v[None] / rho, rho)
    return float(ev.phi[0] + pen[0])


def aug_lagrangian_gradient(problem: ProblemDefinition, x: np.ndarray,
                            safeguarded: MultiplierSet, rho: float, t: float) -> np.ndarray:
    """grad phi + sum (u_i + rho h_i) grad h_i + sum max(0, v_j + rho g_j) grad g_j.

    Identical (bitwise) to the Lagrangian gradient at first-order-updated
    multipliers, which is what makes the update formulas consistent with the
    stationarity residual.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    ev = _one_row(problem, x, t, "grad_phi", "h", "jac_h", "g", "jac_g")
    return _aug_gradient(ev, safeguarded.u[None], safeguarded.v[None], rho)[0]
