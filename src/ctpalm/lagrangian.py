"""Lagrangian and augmented Lagrangian evaluation, plus the residual engine.

The stationarity residual integrates the l1 norm of the Lagrangian gradient
over time; that is the exact supremum of |int grad.L . gamma dt| over test
directions bounded by 1 in the sup norm, so a single number upper-bounds every
normalized test direction.  Complementarity is measured pointwise through
v_j * max(-g_j, 0) and reduced with a max over nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid, Trajectory, _trapezoid_sum, l1_time_norm
from .problems import EvalBundle, ProblemDefinition


@dataclass(frozen=True)
class MultiplierSet:
    """One node's equality and inequality multipliers; v must be nonnegative.

    Raw pre-projection values (which may be negative) travel as plain arrays;
    only validated multiplier iterates are wrapped in this type.
    """

    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        if self.v.size and self.v.min() < 0.0:
            raise ValueError("inequality multipliers must be nonnegative")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("multipliers must be finite")


@dataclass(frozen=True)
class Residuals:
    """Residuals of the asymptotic optimality test evaluated on a grid."""

    stationarity_l1: float
    complementarity_sup: float
    multiplier_min: float
    primal_infeasibility: float


def lagrangian_gradient(problem: ProblemDefinition, x: np.ndarray,
                        mult: MultiplierSet, t: float) -> np.ndarray:
    """grad phi + sum_i u_i grad h_i + sum_j v_j grad g_j at one node."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(problem.eval_grad_phi(x, t), dtype=float).copy()
    if problem.p:
        out += np.asarray(problem.eval_jac_h(x, t), dtype=float).T @ mult.u
    if problem.m:
        out += np.asarray(problem.eval_jac_g(x, t), dtype=float).T @ mult.v
    return out


def _penalty_value(problem: ProblemDefinition, x: np.ndarray,
                   u: np.ndarray, v: np.ndarray, rho: float, t: float) -> float:
    """Quadratic penalty part of the augmented Lagrangian (shifted violations)."""
    pen = 0.0
    if problem.p:
        r = np.asarray(problem.eval_h(x, t), dtype=float) + u / rho
        pen += 0.5 * rho * float(r @ r)
    if problem.m:
        s = np.maximum(np.asarray(problem.eval_g(x, t), dtype=float) + v / rho, 0.0)
        pen += 0.5 * rho * float(s @ s)
    return pen


def aug_lagrangian_value(problem: ProblemDefinition, x: np.ndarray,
                         safeguarded: MultiplierSet, rho: float, t: float) -> float:
    """phi + (rho/2) sum [h_i + u_i/rho]^2 + (rho/2) sum [max(0, g_j + v_j/rho)]^2."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    x = np.asarray(x, dtype=float)
    return float(problem.eval_phi(x, t)) + _penalty_value(
        problem, x, safeguarded.u, safeguarded.v, rho, t
    )


def _aug_gradient(problem: ProblemDefinition, x: np.ndarray,
                  u: np.ndarray, v: np.ndarray, rho: float, t: float) -> np.ndarray:
    out = np.asarray(problem.eval_grad_phi(x, t), dtype=float).copy()
    if problem.p:
        coeff = u + rho * np.asarray(problem.eval_h(x, t), dtype=float)
        out += np.asarray(problem.eval_jac_h(x, t), dtype=float).T @ coeff
    if problem.m:
        coeff = np.maximum(v + rho * np.asarray(problem.eval_g(x, t), dtype=float), 0.0)
        out += np.asarray(problem.eval_jac_g(x, t), dtype=float).T @ coeff
    return out


def aug_lagrangian_gradient(problem: ProblemDefinition, x: np.ndarray,
                            safeguarded: MultiplierSet, rho: float, t: float) -> np.ndarray:
    """grad phi + sum (u_i + rho h_i) grad h_i + sum max(0, v_j + rho g_j) grad g_j.

    Identical (bitwise) to the Lagrangian gradient at first-order-updated
    multipliers, which is what makes the update formulas consistent with the
    stationarity residual.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return _aug_gradient(problem, np.asarray(x, dtype=float),
                         safeguarded.u, safeguarded.v, rho, t)


def _require_shared_grid(grid: TimeGrid, *trajs: Trajectory) -> None:
    for tr in trajs:
        if not grid.same_as(tr.grid):
            raise ValueError("trajectories must share the grid")


def _sup(a: np.ndarray) -> float:
    """Largest entry of a nonnegative array; 0.0 when it is empty."""
    return max(0.0, float(a.max())) if a.size else 0.0


def _transposed_product(jac: np.ndarray, w: np.ndarray) -> np.ndarray:
    """J_i^T w_i at every node i: (N, k, n) and (N, k) to (N, n)."""
    return np.matmul(jac.transpose(0, 2, 1), w[:, :, None])[:, :, 0]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i at every node i: (N, k) and (N, k) to (N,)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def violations(bundle: EvalBundle) -> tuple:
    """Largest |h_i| and largest max(g_j, 0) over all nodes (0.0 when absent)."""
    return _sup(np.abs(bundle.h)), _sup(np.maximum(bundle.g, 0.0))


def akkt_residuals(grid: TimeGrid, bundle: EvalBundle, u_traj: Trajectory,
                   v_traj: Trajectory) -> Residuals:
    """Residuals of the asymptotic optimality test at the evaluated nodes."""
    _require_shared_grid(grid, u_traj, v_traj)
    if (bundle.phi.shape[0] != grid.num_nodes or u_traj.dim != bundle.h.shape[1]
            or v_traj.dim != bundle.g.shape[1]):
        raise ValueError("trajectory dimensions do not match the problem")
    v = v_traj.values
    if v.size and v.min() < 0.0:
        raise ValueError("negative inequality multiplier entry")
    grad = (bundle.grad_phi + _transposed_product(bundle.jac_h, u_traj.values)
            + _transposed_product(bundle.jac_g, v))
    return Residuals(
        stationarity_l1=_trapezoid_sum(np.abs(grad).sum(axis=1), grid.spacing),
        complementarity_sup=_sup(v * np.maximum(-bundle.g, 0.0)),
        multiplier_min=float(v.min()) if v.size else 0.0,
        primal_infeasibility=max(violations(bundle)))


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
    return l1_time_norm(Trajectory(grid, rows))
