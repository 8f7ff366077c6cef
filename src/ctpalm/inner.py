"""Node-wise solver for the penalized subproblems.

The discretized subproblem separates across grid nodes because every function
depends only on the state at the same time, so each node is an independent
small unconstrained problem.  A node solve runs in up to two phases:

1. Spectral (Barzilai-Borwein) gradient descent with a monotone Armijo
   backtracking safeguard on the augmented objective.
2. If descent stops short (budget exhausted or iterates escaping the guard
   box), a stationary-point polish minimizes half the squared gradient norm
   from the best point seen.  Penalized subproblems can be unbounded below
   while still owning the stationary point the outer iteration needs, and a
   pure descent method cannot terminate at a stationary point that is not a
   local minimum; the polish can.

When both phases fail, the returned iterate is the one with the smallest
penalty (shifted-violation) value seen during descent rather than the one
with the smallest gradient.  On an unbounded subproblem, descent progress is
meaningless, and the most nearly shifted-feasible point is the one that keeps
the outer multiplier update stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import TimeGrid, Trajectory
from .lagrangian import MultiplierSet, _aug_gradient, _penalty_value
from .problems import ProblemDefinition

# Relative step for the directional curvature difference used by the polish.
_POLISH_FD_STEP = 1e-7


class InnerStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    DIVERGED = "Diverged"


_STATUS_SEVERITY = {InnerStatus.CONVERGED: 0, InnerStatus.MAX_ITERS: 1,
                    InnerStatus.DIVERGED: 2}


def worst_of(a: InnerStatus, b: InnerStatus) -> InnerStatus:
    return a if _STATUS_SEVERITY[a] >= _STATUS_SEVERITY[b] else b


@dataclass(frozen=True)
class InnerConfig:
    grad_tol: float = 1e-6
    max_iters: int = 500
    armijo_c: float = 1e-4
    step_init: float = 1.0
    step_min: float = 1e-14
    iterate_box: float = 1e6
    polish_iters: int = 200

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iters <= 0 or self.step_init <= 0:
            raise ValueError("grad_tol, max_iters and step_init must be positive")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if self.step_min <= 0 or self.iterate_box <= 0 or self.polish_iters < 0:
            raise ValueError("step_min, iterate_box must be positive, polish_iters >= 0")


@dataclass(frozen=True)
class InnerResult:
    x_star: np.ndarray
    grad_inf_norm: float
    iterations: int
    status: InnerStatus


def _value_and_penalty(problem, x, u, v, rho, t):
    pen = _penalty_value(problem, x, u, v, rho, t)
    return float(problem.eval_phi(x, t)) + pen, pen


def _descend(problem, t, x_init, u, v, rho, cfg, trace):
    """Phase 1: BB descent.

    Returns (best_x, best_gn, minpen_x, initial_gn, iters, status) where
    best_* track the smallest gradient norm seen and minpen_x the first
    iterate with strictly smallest penalty value.
    """
    x = np.array(x_init, dtype=float)
    f, pen = _value_and_penalty(problem, x, u, v, rho, t)
    gr = _aug_gradient(problem, x, u, v, rho, t)
    if not (np.isfinite(f) and np.all(np.isfinite(gr))):
        return x, float("inf"), x.copy(), float("inf"), 0, InnerStatus.MAX_ITERS
    gn = float(np.abs(gr).max())
    gn0 = gn
    best_x, best_gn = x.copy(), gn
    minpen_x, minpen = x.copy(), pen
    prev_x = prev_g = None
    for it in range(1, cfg.max_iters + 1):
        if gn <= cfg.grad_tol:
            return best_x, best_gn, minpen_x, gn0, it - 1, InnerStatus.CONVERGED
        if float(np.abs(x).max()) > cfg.iterate_box:
            return best_x, best_gn, minpen_x, gn0, it - 1, InnerStatus.DIVERGED
        d = -gr
        gd = float(gr @ d)
        if prev_x is not None:
            s = x - prev_x
            y = gr - prev_g
            sy = float(s @ y)
            alpha = float(s @ s) / sy if sy > 0.0 and np.isfinite(sy) else cfg.step_init
            if not np.isfinite(alpha) or alpha <= 0.0:
                alpha = cfg.step_init
        else:
            alpha = cfg.step_init
        accepted = False
        while alpha >= cfg.step_min:
            xn = x + alpha * d
            fn, pn = _value_and_penalty(problem, xn, u, v, rho, t)
            if np.isfinite(fn) and fn <= f + cfg.armijo_c * alpha * gd:
                gn_new_vec = _aug_gradient(problem, xn, u, v, rho, t)
                if np.all(np.isfinite(gn_new_vec)):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            return best_x, best_gn, minpen_x, gn0, it, InnerStatus.MAX_ITERS
        if trace is not None:
            trace(dict(phase="descent", f_old=f, f_new=fn, alpha=alpha,
                       slope=gd, armijo_c=cfg.armijo_c))
        prev_x, prev_g = x, gr
        x, f, pen, gr = xn, fn, pn, gn_new_vec
        gn = float(np.abs(gr).max())
        if gn <= best_gn:
            best_x, best_gn = x.copy(), gn
        if pen < minpen:
            minpen_x, minpen = x.copy(), pen
    return best_x, best_gn, minpen_x, gn0, cfg.max_iters, InnerStatus.MAX_ITERS


def _polish(problem, t, x_init, u, v, rho, cfg, trace):
    """Phase 2: minimize psi = 0.5 ||grad||^2 to land on a stationary point.

    The psi gradient is the directional derivative of the gradient field along
    itself (central difference), which needs no second derivatives from the
    problem.  Returns (best_x, best_grad_inf_norm, iterations).
    """
    x = np.array(x_init, dtype=float)
    F = _aug_gradient(problem, x, u, v, rho, t)
    if not np.all(np.isfinite(F)):
        return x, float("inf"), 0

    def psi_gradient(xx, FF):
        norm = float(np.linalg.norm(FF))
        if norm == 0.0:
            return np.zeros_like(xx)
        p = FF / norm
        plus = _aug_gradient(problem, xx + _POLISH_FD_STEP * p, u, v, rho, t)
        minus = _aug_gradient(problem, xx - _POLISH_FD_STEP * p, u, v, rho, t)
        return (plus - minus) / (2.0 * _POLISH_FD_STEP) * norm

    psi = 0.5 * float(F @ F)
    gn_F = float(np.abs(F).max())
    best_x, best_gn = x.copy(), gn_F
    g = psi_gradient(x, F)
    prev_x = prev_g = None
    since_best = 0
    it = 0
    for it in range(1, cfg.polish_iters + 1):
        if gn_F <= cfg.grad_tol or not np.all(np.isfinite(g)):
            return best_x, best_gn, it - 1
        if since_best > 30:
            # Gradient norm stopped improving: no stationary point nearby.
            break
        d = -g
        gd = float(g @ d)
        if gd >= 0.0:
            break
        if prev_x is not None:
            s = x - prev_x
            y = g - prev_g
            sy = float(s @ y)
            alpha = float(s @ s) / sy if sy > 0.0 and np.isfinite(sy) else 1.0
            if not np.isfinite(alpha) or alpha <= 0.0:
                alpha = 1.0
        else:
            alpha = min(1.0, 1.0 / max(1.0, float(np.abs(g).max())))
        accepted = False
        while alpha >= cfg.step_min:
            xn = x + alpha * d
            Fn = _aug_gradient(problem, xn, u, v, rho, t)
            psin = 0.5 * float(Fn @ Fn) if np.all(np.isfinite(Fn)) else float("inf")
            if np.isfinite(psin) and psin <= psi + cfg.armijo_c * alpha * gd:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        if trace is not None:
            trace(dict(phase="polish", f_old=psi, f_new=psin, alpha=alpha,
                       slope=gd, armijo_c=cfg.armijo_c))
        prev_x, prev_g = x, g
        x, F, psi = xn, Fn, psin
        gn_F = float(np.abs(F).max())
        if gn_F <= 0.99 * best_gn:
            best_x, best_gn, since_best = x.copy(), gn_F, 0
        elif gn_F <= best_gn:
            best_x, best_gn = x.copy(), gn_F
            since_best += 1
        else:
            since_best += 1
        if float(np.abs(x).max()) > cfg.iterate_box:
            break
        g = psi_gradient(x, F)
    return best_x, best_gn, it


def solve_node(problem: ProblemDefinition, t: float, x_init: np.ndarray,
               safeguarded: MultiplierSet, rho: float, cfg: InnerConfig,
               trace: Optional[Callable[[dict], None]] = None) -> InnerResult:
    """Find a stationary point of x -> augmented objective at one node."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    x_init = np.asarray(x_init, dtype=float)
    if not np.all(np.isfinite(x_init)):
        raise ValueError("x_init must be finite")
    u, v = safeguarded.u, safeguarded.v
    best_x, best_gn, minpen_x, initial_gn, iters, status = _descend(
        problem, t, x_init, u, v, rho, cfg, trace)
    if status is InnerStatus.CONVERGED:
        return InnerResult(best_x, best_gn, iters, status)
    # The polish targets stationary points of penalized subproblems, whose
    # one-sided curvature can make pure descent escape.  Without constraints
    # the augmented objective is the plain objective: there a diverging
    # descent is definitive unless the path itself passed a better
    # stationarity candidate.
    if cfg.polish_iters and (problem.p + problem.m > 0 or best_gn < initial_gn):
        px, pgn, extra = _polish(problem, t, best_x, u, v, rho, cfg, trace)
        iters += extra
        if pgn <= cfg.grad_tol:
            return InnerResult(px, pgn, iters, InnerStatus.CONVERGED)
    # Both phases failed: report the most nearly shifted-feasible iterate.
    gr = _aug_gradient(problem, minpen_x, u, v, rho, t)
    gn = float(np.abs(gr).max()) if np.all(np.isfinite(gr)) else float("inf")
    return InnerResult(minpen_x, gn, iters, status)


def solve_subproblem(problem: ProblemDefinition, grid: TimeGrid, x_warm: Trajectory,
                     u_tilde: Trajectory, v_tilde: Trajectory, rho: float,
                     cfg: InnerConfig):
    """Solve every node independently, warm-started from x_warm.

    Returns (trajectory of node solutions, worst status, max grad norm), with
    nodes solved and reduced in ascending order.
    """
    for tr in (x_warm, u_tilde, v_tilde):
        if not grid.same_as(tr.grid):
            raise ValueError("trajectories must share the grid")

    results = [solve_node(problem, grid.nodes[i], x_warm.values[i],
                          MultiplierSet(u_tilde.values[i], v_tilde.values[i]), rho, cfg)
               for i in range(grid.num_nodes)]

    values = np.vstack([r.x_star for r in results])
    worst = InnerStatus.CONVERGED
    max_grad = 0.0
    for r in results:
        worst = worst_of(worst, r.status)
        if r.grad_inf_norm > max_grad:
            max_grad = r.grad_inf_norm
    return Trajectory(grid, values), worst, max_grad
