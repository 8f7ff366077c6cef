"""Lagrangian and augmented Lagrangian evaluation, plus the residual engine.

The augmented Lagrangian gradient is the Lagrangian gradient at the
first-order update u = u~ + rho h, v = max(v~ + rho g, 0) (`multiplier_update`),
so the inner stop test and the stationarity residual measure the same thing.

The stationarity residual integrates the l1 norm of the Lagrangian gradient
over time; that is the exact supremum of |int grad.L . gamma dt| over test
directions bounded by 1 in the sup norm, so a single number upper-bounds every
normalized test direction.  Complementarity is measured pointwise through
v_j * max(-g_j, 0) and reduced with a max over nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid, Trajectory, _l1_quadrature, _trapezoid_sum
from .problems import EvalBundle, _row_dots


@dataclass(frozen=True)
class MultiplierSet:
    """Equality and inequality multipliers of one node, or of a stack of nodes
    (one row each); v must be nonnegative.

    Raw pre-projection values (which may be negative) travel as plain arrays;
    only validated multiplier iterates are wrapped in this type.
    """

    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        _check_multipliers(self.u, self.v)


def _check_multipliers(u: np.ndarray, v: np.ndarray) -> None:
    """Raise ValueError unless v >= 0 and u, v are finite, tested in that order."""
    if v.size and v.min() < 0.0:
        raise ValueError("inequality multipliers must be nonnegative")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("multipliers must be finite")


@dataclass(frozen=True)
class Residuals:
    """Residuals of the asymptotic optimality test evaluated on a grid."""

    stationarity_l1: float
    complementarity_sup: float
    multiplier_min: float
    primal_infeasibility: float


def _weighted_gradient(ev, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """grad phi + J_h^T u + J_g^T v at every row of a stack, from the
    evaluator outputs `ev` there (an EvalBundle, or any object with its
    grad_phi, jac_h and jac_g); terms of absent constraints are skipped."""
    out = ev.grad_phi
    if u.shape[1]:
        out = out + _transposed_product(ev.jac_h, u)
    if v.shape[1]:
        out = out + _transposed_product(ev.jac_g, v)
    return out


def _penalty_value(ev, shift_u: np.ndarray, shift_v: np.ndarray, rho: float) -> np.ndarray:
    """Quadratic penalty part of the augmented Lagrangian (shifted violations)
    at every row of a stack, from the values `ev.h` and `ev.g` there and that
    row's multiplier shifts `us / rho` and `vs / rho`, which a subproblem
    computes once.  Each term is >= +0 or NaN, so starting from the first
    present one gives the bits of a sum started at zero."""
    pen = None
    if shift_u.shape[1]:
        r = ev.h + shift_u
        pen = 0.5 * rho * _row_dots(r, r)
    if shift_v.shape[1]:
        s = np.maximum(ev.g + shift_v, 0.0)
        term = 0.5 * rho * _row_dots(s, s)
        pen = term if pen is None else pen + term
    return np.zeros(len(shift_u)) if pen is None else pen


def multiplier_update(bundle, u_tilde: np.ndarray, v_tilde: np.ndarray, rho: float):
    """First-order update at every node: u = u~ + rho h, v = max(v~ + rho g, 0),
    from the values `bundle.h` and `bundle.g` there; the multipliers of absent
    constraints (p or m = 0) are returned as they are."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    u = u_tilde + rho * bundle.h if u_tilde.size else u_tilde
    v = np.maximum(v_tilde + rho * bundle.g, 0.0) if v_tilde.size else v_tilde
    return u, v


def _aug_gradient(ev, us: np.ndarray, vs: np.ndarray, rho: float) -> np.ndarray:
    """Augmented Lagrangian gradient at every row of a stack, from the
    evaluator outputs `ev` there (all but phi) and that row's multipliers."""
    return _weighted_gradient(ev, *multiplier_update(ev, us, vs, rho))


def _sup(a: np.ndarray) -> float:
    """Largest entry of a nonnegative array; 0.0 when it is empty."""
    return max(0.0, float(a.max())) if a.size else 0.0


def _transposed_product(jac: np.ndarray, w: np.ndarray) -> np.ndarray:
    """J_i^T w_i at every node i, in one `np.vecmat` call and no transposed
    view: (N, k, n) and (N, k) to (N, n), with the bits of a per-node
    `J.T @ w`; k = 0 gives zeros."""
    return np.vecmat(w, jac)


def violations(bundle: EvalBundle) -> tuple:
    """Largest |h_i| and largest max(g_j, 0) over all nodes (0.0 when absent)."""
    return _sup(np.abs(bundle.h)), _sup(np.maximum(bundle.g, 0.0))


def akkt_residuals(grid: TimeGrid, bundle: EvalBundle, u_traj: Trajectory,
                   v_traj: Trajectory) -> Residuals:
    """Residuals of the asymptotic optimality test at the evaluated nodes."""
    if not grid == u_traj.grid == v_traj.grid:
        raise ValueError("trajectories must share the grid")
    if (bundle.phi.shape[0] != grid.num_nodes or u_traj.dim != bundle.h.shape[1]
            or v_traj.dim != bundle.g.shape[1]):
        raise ValueError("trajectory dimensions do not match the problem")
    _check_multipliers(u_traj.values, v_traj.values)
    return _residuals(grid.spacing, bundle, u_traj.values, v_traj.values,
                      max(violations(bundle)))


def _residuals(spacing: float, bundle: EvalBundle, u: np.ndarray, v: np.ndarray,
               primal_infeasibility: float) -> Residuals:
    """Residuals of node-row multipliers u, v >= 0 given max(violations(bundle))."""
    return Residuals(
        stationarity_l1=_l1_quadrature(_weighted_gradient(bundle, u, v), spacing),
        complementarity_sup=_sup(v * np.maximum(-bundle.g, 0.0)),
        multiplier_min=float(v.min()) if v.size else 0.0,
        primal_infeasibility=primal_infeasibility)


def akkt_holds(residuals: Residuals, eps_stop: float) -> bool:
    """The stopping test: stationarity, complementarity and primal violation
    each within eps_stop."""
    return (residuals.stationarity_l1 <= eps_stop
            and residuals.complementarity_sup <= eps_stop
            and residuals.primal_infeasibility <= eps_stop)


def feasibility_factor(grid: TimeGrid, bundle: EvalBundle) -> float:
    """Integral of sum h_i^2 + sum max(g_j, 0)^2 along the trajectory."""
    gp = np.maximum(bundle.g, 0.0)
    vals = _row_dots(bundle.h, bundle.h) + _row_dots(gp, gp)
    return _trapezoid_sum(vals, grid.spacing)


def feasibility_stationarity_residual(grid: TimeGrid, bundle: EvalBundle) -> float:
    """l1-in-time norm of the gradient of the squared-violation integrand.

    The integrand gradient is 2 sum h_i grad h_i + 2 sum max(g_j, 0) grad g_j;
    a zero residual certifies stationarity for the violation-minimization
    problem (the scale factor is immaterial for that test).
    """
    rows = (_transposed_product(bundle.jac_h, 2.0 * bundle.h)
            + _transposed_product(bundle.jac_g, 2.0 * np.maximum(bundle.g, 0.0)))
    return _l1_quadrature(rows, grid.spacing)
