"""The per-node solver the lockstep solver replaced, kept as its bit-for-bit
reference.

`solve_node` here solves one node on its own, with scalar arithmetic and one
evaluator call per node and step, calling the evaluators with one state (n,)
at one time.  `scalar_builtin` gives the built-in problems as they were
written for that solver, with scalar evaluators.  The lockstep solver on the
stacked built-ins must reproduce the iterate bytes, status, gradient norm and
iteration count of this solver on the scalar ones at every row.
"""

from __future__ import annotations

import numpy as np

from ctpalm.inner import InnerResult, InnerStatus
from ctpalm.lagrangian import MultiplierSet
from ctpalm.problems import Convexity, ProblemDefinition

_POLISH_FD_STEP = 1e-7
# The solver's fixed step rules and budgets, written out here rather than
# imported so that the bit-for-bit comparison pins their values.
ARMIJO_C = 1e-4
STEP_INIT = 1.0
STEP_MIN = 1e-14
ITERATE_BOX = 1e6
POLISH_ITERS = 200


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


def _value_and_penalty(problem, x, u, v, rho, t):
    pen = _penalty_value(problem, x, u, v, rho, t)
    return float(problem.eval_phi(x, t)) + pen, pen


def _stopped(gn, x, cfg):
    """Descent's stop test: the status of an iterate that stops, else None."""
    if gn <= cfg.grad_tol:
        return InnerStatus.CONVERGED
    if float(np.abs(x).max()) > ITERATE_BOX:
        return InnerStatus.DIVERGED
    return None


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
        status = _stopped(gn, x, cfg)
        if status is not None:
            return best_x, best_gn, minpen_x, gn0, it - 1, status
        d = -gr
        gd = float(gr @ d)
        if prev_x is not None:
            s = x - prev_x
            y = gr - prev_g
            sy = float(s @ y)
            alpha = float(s @ s) / sy if sy > 0.0 and np.isfinite(sy) else STEP_INIT
            if not np.isfinite(alpha) or alpha <= 0.0:
                alpha = STEP_INIT
        else:
            alpha = STEP_INIT
        accepted = False
        while alpha >= STEP_MIN:
            xn = x + alpha * d
            fn, pn = _value_and_penalty(problem, xn, u, v, rho, t)
            if np.isfinite(fn) and fn <= f + ARMIJO_C * alpha * gd:
                gn_new_vec = _aug_gradient(problem, xn, u, v, rho, t)
                if np.all(np.isfinite(gn_new_vec)):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            return best_x, best_gn, minpen_x, gn0, it, InnerStatus.MAX_ITERS
        if trace is not None:
            trace(dict(phase="descent", f_old=f, f_new=fn, alpha=alpha,
                       slope=gd, armijo_c=ARMIJO_C))
        prev_x, prev_g = x, gr
        x, f, pen, gr = xn, fn, pn, gn_new_vec
        gn = float(np.abs(gr).max())
        if gn <= best_gn:
            best_x, best_gn = x.copy(), gn
        if pen < minpen:
            minpen_x, minpen = x.copy(), pen
    # The last step's point meets the stop test too.
    status = _stopped(gn, x, cfg) or InnerStatus.MAX_ITERS
    return best_x, best_gn, minpen_x, gn0, cfg.max_iters, status


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
    for it in range(1, POLISH_ITERS + 1):
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
        while alpha >= STEP_MIN:
            xn = x + alpha * d
            Fn = _aug_gradient(problem, xn, u, v, rho, t)
            psin = 0.5 * float(Fn @ Fn) if np.all(np.isfinite(Fn)) else float("inf")
            if np.isfinite(psin) and psin <= psi + ARMIJO_C * alpha * gd:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        if trace is not None:
            trace(dict(phase="polish", f_old=psi, f_new=psin, alpha=alpha,
                       slope=gd, armijo_c=ARMIJO_C))
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
        if float(np.abs(x).max()) > ITERATE_BOX:
            break
        g = psi_gradient(x, F)
    return best_x, best_gn, it


def solve_node(problem: ProblemDefinition, t: float, x_init: np.ndarray,
               safeguarded: MultiplierSet, rho: float, cfg, trace=None) -> InnerResult:
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
    if problem.p + problem.m > 0 or best_gn < initial_gn:
        px, pgn, extra = _polish(problem, t, best_x, u, v, rho, cfg, trace)
        iters += extra
        if pgn <= cfg.grad_tol:
            return InnerResult(px, pgn, iters, InnerStatus.CONVERGED)
    # Both phases failed: report the most nearly shifted-feasible iterate.
    gr = _aug_gradient(problem, minpen_x, u, v, rho, t)
    gn = float(np.abs(gr).max()) if np.all(np.isfinite(gr)) else float("inf")
    return InnerResult(minpen_x, gn, iters, status)


# -- the built-in problems with scalar evaluators ----------------------------

_E2 = np.zeros((0, 2))
_E3 = np.zeros((0, 3))
_E0 = np.zeros(0)


def _ex1() -> ProblemDefinition:
    # minimize  int x1^2 + x2  s.t.  -x2 <= 0,  -x1^2 - x2 <= 0   on [0, 1]
    return ProblemDefinition(
        name="ex1", n=2, p=0, m=2, horizon=1.0,
        eval_phi=lambda x, t: x[0] ** 2 + x[1],
        eval_grad_phi=lambda x, t: np.array([2.0 * x[0], 1.0]),
        eval_h=lambda x, t: _E0,
        eval_jac_h=lambda x, t: _E2,
        eval_g=lambda x, t: np.array([-x[1], -x[0] ** 2 - x[1]]),
        eval_jac_g=lambda x, t: np.array([[0.0, -1.0], [-2.0 * x[0], -1.0]]),
        convexity=Convexity(phi_convex=True, g_convex=(True, False), h_affine=()),
        reference=lambda t: np.array([0.0, 0.0]),
    )


def _ex2() -> ProblemDefinition:
    # minimize  int x1  subject to three parabolic constraints pinching x at (0, t)
    return ProblemDefinition(
        name="ex2", n=2, p=0, m=3, horizon=1.0,
        eval_phi=lambda x, t: x[0],
        eval_grad_phi=lambda x, t: np.array([1.0, 0.0]),
        eval_h=lambda x, t: _E0,
        eval_jac_h=lambda x, t: _E2,
        eval_g=lambda x, t: np.array([
            x[0] ** 2 - 2.0 * x[0] + x[1] - t,
            x[0] ** 2 - 2.0 * x[0] - x[1] + t,
            -x[0] ** 2 + 0.5 * x[0] + x[1] - t,
        ]),
        eval_jac_g=lambda x, t: np.array([
            [2.0 * x[0] - 2.0, 1.0],
            [2.0 * x[0] - 2.0, -1.0],
            [-2.0 * x[0] + 0.5, 1.0],
        ]),
        convexity=Convexity(phi_convex=True, g_convex=(True, True, False), h_affine=()),
        reference=lambda t: np.array([0.0, t]),
    )


def _ex3() -> ProblemDefinition:
    # Equality + inequality constrained instance with solution (1, 1, 0).
    return ProblemDefinition(
        name="ex3", n=3, p=1, m=2, horizon=1.0,
        eval_phi=lambda x, t: (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2 - x[2] ** 2,
        eval_grad_phi=lambda x, t: np.array([
            2.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0), -2.0 * x[2],
        ]),
        eval_h=lambda x, t: np.array([x[0] ** 2 + x[1] ** 2 - x[2] - 2.0]),
        eval_jac_h=lambda x, t: np.array([[2.0 * x[0], 2.0 * x[1], -1.0]]),
        eval_g=lambda x, t: np.array([
            2.0 * x[0] * x[1] - 4.0 * x[1] - x[2] + 2.0,
            -x[0] - 0.5 * x[2] + 1.0,
        ]),
        eval_jac_g=lambda x, t: np.array([
            [2.0 * x[1], 2.0 * x[0] - 4.0, -1.0],
            [-1.0, 0.0, -0.5],
        ]),
        convexity=Convexity(phi_convex=False, g_convex=(False, True), h_affine=(False,)),
        reference=lambda t: np.array([1.0, 1.0, 0.0]),
    )


def _ex4_A(t: float) -> np.ndarray:
    # sign(0) = 0, so at the kink t = 1 the third row degenerates to (0, 0).
    return np.array([
        [0.0, -1.0],
        [-1.0, 0.0],
        [np.sign(t - 1.0), np.sign(1.0 - t)],
        [1.0, 1.0],
        [0.0, 1.0],
    ])


def _ex4_b(t: float) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 3.0, 0.25 + 0.625 * t])


def _ex4_c(t: float) -> np.ndarray:
    return np.array([(t - 1.0) * np.sign(1.0 - t), -1.0])


def _ex4_reference(t: float) -> np.ndarray:
    x1 = 11.0 / 4.0 - 5.0 * t / 8.0 if t <= 1.0 else 0.25 + 0.625 * t
    return np.array([x1, 0.25 + 0.625 * t])


def _ex4() -> ProblemDefinition:
    # Linear cost c(t).x with A(t) x <= b(t).  The optimum is unique except at
    # two instants where c(t) is normal to a whole optimal edge: at t = 0,
    # c = (-1, -1) and the edge is x1 + x2 = 3, 0 <= x2 <= 1/4; at t = 1, where
    # the solution jumps, c = (0, -1) and the edge is x2 = 7/8, 0 <= x1 <= 17/8.
    return ProblemDefinition(
        name="ex4", n=2, p=0, m=5, horizon=2.0,
        eval_phi=lambda x, t: float(_ex4_c(t) @ x),
        eval_grad_phi=lambda x, t: _ex4_c(t),
        eval_h=lambda x, t: _E0,
        eval_jac_h=lambda x, t: _E2,
        eval_g=lambda x, t: _ex4_A(t) @ x - _ex4_b(t),
        eval_jac_g=lambda x, t: _ex4_A(t),
        convexity=Convexity(phi_convex=True, g_convex=(True,) * 5, h_affine=()),
        reference=_ex4_reference,
        reference_discontinuities=(0.0, 1.0),
    )


def _akkt_example() -> ProblemDefinition:
    # KKT never holds at the solution (0, 0), but asymptotic multipliers exist.
    return ProblemDefinition(
        name="akkt_example", n=2, p=0, m=2, horizon=1.0,
        eval_phi=lambda x, t: (t - 0.5) * x[0],
        eval_grad_phi=lambda x, t: np.array([t - 0.5, 0.0]),
        eval_h=lambda x, t: _E0,
        eval_jac_h=lambda x, t: _E2,
        eval_g=lambda x, t: np.array([-(t - 0.5) * x[0] ** 3 + x[1], -x[1]]),
        eval_jac_g=lambda x, t: np.array([
            [-3.0 * (t - 0.5) * x[0] ** 2, 1.0],
            [0.0, -1.0],
        ]),
        convexity=Convexity(phi_convex=True, g_convex=(False, True), h_affine=()),
        reference=lambda t: np.array([0.0, 0.0]),
    )


def _infeasible1() -> ProblemDefinition:
    # Empty feasible set: x^2 + 1 <= 0 never holds.  The squared-violation
    # integral has its unique stationary point at x = 0.
    return ProblemDefinition(
        name="infeasible1", n=1, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([2.0 * x[0]]),
        eval_h=lambda x, t: _E0,
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.array([x[0] ** 2 + 1.0]),
        eval_jac_g=lambda x, t: np.array([[2.0 * x[0]]]),
        convexity=Convexity(phi_convex=True, g_convex=(True,), h_affine=()),
    )


_SCALAR_BUILTINS = {
    "ex1": _ex1,
    "ex2": _ex2,
    "ex3": _ex3,
    "ex4": _ex4,
    "akkt_example": _akkt_example,
    "infeasible1": _infeasible1,
}


def scalar_builtin(name: str) -> ProblemDefinition:
    """Built-in problem `name` with evaluators of one state at one time."""
    return _SCALAR_BUILTINS[name]()
