"""Lockstep solver for the penalized subproblems.

The discretized subproblem separates across grid nodes because every function
depends only on the state at the same time, so each node is an independent
small unconstrained problem.  All nodes are solved together, as the rows of a
stack: every phase below advances each unfinished row by one step per pass,
with the row's own step size, Barzilai-Borwein memory, Armijo backtracking and
termination, and evaluates only the rows still working.  A row's arithmetic
is that of a solve of its node alone.

Rows are selected by one rule: a selection that covers the whole working
batch is the basic slice `[:]`, so gathering through it takes views of the
batch's arrays and no copy, and a whole-batch result becomes the rows' state
as it is, without a scatter.  Any other selection is an index array.  The
evaluators therefore see the batch's own state and time arrays, which they
must not write into.

1. Spectral (Barzilai-Borwein) gradient descent with a monotone Armijo
   backtracking safeguard on the augmented objective.
2. Rows where descent stops short (budget exhausted or iterates escaping the
   guard box) go on to a stationary-point polish, which minimizes half the
   squared gradient norm from the best point seen.  Penalized subproblems can
   be unbounded below while still owning the stationary point the outer
   iteration needs, and a pure descent method cannot terminate at a
   stationary point that is not a local minimum; the polish can.
3. Rows where both phases fail return the iterate with the smallest penalty
   (shifted-violation) value seen during descent rather than the one with the
   smallest gradient.  On an unbounded subproblem, descent progress is
   meaningless, and the most nearly shifted-feasible point is the one that
   keeps the outer multiplier update stable.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lagrangian import MultiplierSet, _aug_gradient, _check_multipliers, _penalty_value
from .problems import (EVALUATORS, EvalBundle, ProblemDefinition, _evaluate_fields,
                       _row_dots)

# Relative step for the directional curvature difference used by the polish.
_POLISH_FD_STEP = 1e-7
# Armijo sufficient-decrease constant, first trial step, smallest trial step,
# the box |x_i| <= _ITERATE_BOX outside which an iterate counts as escaping,
# and the polish iteration budget.
_ARMIJO_C = 1e-4
_STEP_INIT = 1.0
_STEP_MIN = 1e-14
_ITERATE_BOX = 1e6
_POLISH_ITERS = 200
# Largest descent budget whose iteration counts, polish included, fit the
# int64 counters.
_MAX_ITERS_LIMIT = int(np.iinfo(np.int64).max) - _POLISH_ITERS
# The evaluators behind the augmented objective's value, and the others its
# gradient needs besides h and g.
_VALUE_FIELDS = ("phi", "h", "g")
_GRADIENT_FIELDS = ("grad_phi", "jac_h", "jac_g")


class InnerStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    DIVERGED = "Diverged"


# Statuses by severity; the solver carries each row's status as an index here.
_BY_SEVERITY = (InnerStatus.CONVERGED, InnerStatus.MAX_ITERS, InnerStatus.DIVERGED)
_CONVERGED, _MAX_ITERS, _DIVERGED = range(3)


def _count(value):
    """`value` as an integer, numpy integers included; NaN, which fails every
    range test, for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        return math.nan


@dataclass(frozen=True)
class InnerConfig:
    """Stationarity tolerance and descent iteration budget of each node solve."""

    grad_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if not 1 <= _count(self.max_iters) <= _MAX_ITERS_LIMIT:
            raise ValueError(f"max_iters must lie in [1, {_MAX_ITERS_LIMIT}]")


@dataclass(frozen=True)
class InnerResult:
    x_star: np.ndarray
    grad_inf_norm: float
    iterations: int
    status: InnerStatus


class _Rows:
    """Arrays with one entry per row, as attributes.  For the state of the
    rows still iterating, `rows` holds their indices in the batch."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        if not mask.all():
            self.__dict__.update({k: a[mask] for k, a in vars(self).items()})


def _select(rows: np.ndarray, count: int):
    """Selector of `rows`, ascending indices into a batch of `count` rows: the
    slice over the whole batch when they are all of it, so that a gather
    through it is a view, else the indices."""
    return slice(None) if len(rows) == count else rows


def _update(dest, j, values, mask) -> None:
    """dest[j][mask] = values[mask] for a selector j from `_select`; over the
    whole batch, one masked copy."""
    if isinstance(j, slice):
        np.copyto(dest, values, where=mask.reshape(mask.shape + (1,) * (dest.ndim - 1)))
    else:
        dest[j[mask]] = values[mask]


def _gradient_at(problem, xs, ts, us, vs, rho):
    """Augmented gradient at states xs, from one call of each evaluator it
    needs there."""
    ev = _Rows(**_evaluate_fields(problem, ("h", "g") + _GRADIENT_FIELDS, xs, ts))
    return _aug_gradient(ev, us, vs, rho)


def _escaped(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of states x with an entry outside the iterate box."""
    return np.abs(x).max(axis=1) > _ITERATE_BOX


def _grad_norms(gr: np.ndarray) -> np.ndarray:
    """Largest |entry| of each row; inf for rows with a non-finite entry."""
    return np.where(np.isfinite(gr).all(axis=1), np.abs(gr).max(axis=1), np.inf)


def _bb_step(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Barzilai-Borwein step s.s / s.y of each row; _STEP_INIT where s.y or
    the step is not positive and finite."""
    sy = _row_dots(s, y)
    usable = (sy > 0.0) & np.isfinite(sy)
    alpha = _row_dots(s, s) / np.where(usable, sy, 1.0)
    return np.where(usable & np.isfinite(alpha) & (alpha > 0.0), alpha, _STEP_INIT)


def _armijo_pass(w, alpha, trial, fields, iters, it):
    """Pass `it` of a phase: at every row of `w`, one step along -w.gr under a
    monotone Armijo safeguard on the objective with values w.f, gradients w.gr.

    `alpha` is the phase's first step; None takes the BB step.  Steps halve
    until `trial(j, x, bound)` accepts them or drop below _STEP_MIN; `j`
    selects the trial's rows of `w` (see `_select`), and `trial` returns the
    mask of accepted points and their values of `fields` (w.f first), or None
    for the values when it accepts none.  Rows without an acceptable step
    stop after `it` iterations.
    """
    d = -w.gr
    gd = _row_dots(w.gr, d)
    if alpha is None:
        # Every row past its first step has accepted one, so has BB memory.
        alpha = _bb_step(w.x - w.prev_x, w.gr - w.prev_g)
    names = ("x",) + fields
    count = len(w.rows)
    new = None
    accepted = np.zeros(count, dtype=bool)
    rows = np.flatnonzero(alpha >= _STEP_MIN)
    while rows.size:
        j = _select(rows, count)
        xt = w.x[j] + alpha[j, None] * d[j]
        ok, values = trial(j, xt, w.f[j] + _ARMIJO_C * alpha[j] * gd[j])
        if values is not None:
            if isinstance(j, slice) and ok.all():
                # The whole batch accepts, and no row has before.
                new, accepted = (xt,) + values, ok
                break
            if new is None:
                new = [np.empty_like(getattr(w, k)) for k in names]
            k = rows[ok]
            for a, value in zip(new, (xt[ok],) + values):
                a[k] = value
            accepted[k] = True
        rows = rows[~ok]
        alpha[rows] *= 0.5
        rows = rows[alpha[rows] >= _STEP_MIN]
    w.prev_x, w.prev_g = w.x, w.gr
    if new is not None:
        vars(w).update(zip(names, new))
    if not accepted.all():
        iters[w.rows[~accepted]] = it
        w.keep(accepted)


def _stop_test(rows, gn, x, it, iters, status, cfg):
    """Descent's stop test after `it` steps at batch rows `rows`, with
    gradient norms gn and states x: a row within cfg.grad_tol converges, any
    other outside the iterate box diverges.  Records the iterations and status
    of the rows that stop.  Returns the mask of the rows that go on, or None
    when no row stops."""
    converged = gn <= cfg.grad_tol
    diverged = ~converged & _escaped(x)
    stop = converged | diverged
    if not stop.any():
        return None
    iters[rows[stop]] = it
    status[rows[converged]] = _CONVERGED
    status[rows[diverged]] = _DIVERGED
    return ~stop


def _descend(problem, ts, xs, start, us, vs, rho, cfg):
    """Phase 1 at every row: BB descent on the augmented objective, from
    states xs whose evaluator outputs are `start`.

    Returns (best_x, best_gn, minpen_x, initial_gn, iters, status) with one
    entry per row: best_* track the smallest gradient norm seen and minpen_x
    the first iterate with strictly smallest penalty value; status holds
    `_BY_SEVERITY` indices.  When every row starts within cfg.grad_tol, one
    whole-batch comparison returns them all Converged after 0 iterations, at
    a copy of xs, without an evaluator call or a gather of rows.
    """
    count = len(ts)
    shift_u, shift_v = us / rho, vs / rho
    pen = _penalty_value(start, shift_u, shift_v, rho)
    f = start.phi + pen
    gr = _aug_gradient(start, us, vs, rho)
    gn = np.where(np.isfinite(f), _grad_norms(gr), np.inf)
    iters = np.zeros(count, dtype=int)
    if (gn <= cfg.grad_tol).all():
        # Every row starts stationary and stops at step 0.
        return xs.copy(), gn.copy(), xs, gn, iters, np.full(count, _CONVERGED)
    status = np.full(count, _MAX_ITERS)
    # Rows with a non-finite start take no step and meet no stop test.
    go = np.isfinite(gn)
    on = _stop_test(np.flatnonzero(go), gn[go], xs[go], 0, iters, status, cfg)
    if on is not None:
        go[go] = on
    if not go.any():
        # No row takes a step: each is its own best and min-penalty point.
        return xs.copy(), gn.copy(), xs, gn, iters, status
    best_x, best_gn, minpen_x, minpen = xs.copy(), gn.copy(), xs.copy(), pen
    w = _Rows(rows=np.arange(count), t=ts, u=us, v=vs, shift_u=shift_u, shift_v=shift_v,
              x=xs, f=f, pen=pen, gr=gr, gn=gn)
    w.keep(go)

    def trial(j, xt, bound):
        # The gradient is evaluated only where the value passes, and takes h
        # and g from the value's evaluation.
        t, u, v = w.t[j], w.u[j], w.v[j]
        ev = _Rows(**_evaluate_fields(problem, _VALUE_FIELDS, xt, t))
        pt = _penalty_value(ev, w.shift_u[j], w.shift_v[j], rho)
        ft = ev.phi + pt
        ok = np.isfinite(ft) & (ft <= bound)
        if not ok.any():
            return ok, None
        k = _select(np.flatnonzero(ok), len(ok))
        ev.keep(ok)
        vars(ev).update(_evaluate_fields(problem, _GRADIENT_FIELDS, xt[k], t[k]))
        gt = _aug_gradient(ev, u[k], v[k], rho)
        finite = np.isfinite(gt).all(axis=1)
        if not finite.all():
            ok[ok] = finite
            k, gt = np.flatnonzero(ok), gt[finite]
        return ok, (ft[k], pt[k], gt)

    for it in range(1, cfg.max_iters + 1):
        first = np.full(len(w.rows), _STEP_INIT) if it == 1 else None
        _armijo_pass(w, first, trial, ("f", "pen", "gr"), iters, it)
        w.gn = np.abs(w.gr).max(axis=1)
        j = _select(w.rows, count)
        better = w.gn <= best_gn[j]
        _update(best_x, j, w.x, better)
        _update(best_gn, j, w.gn, better)
        lower = w.pen < minpen[j]
        _update(minpen_x, j, w.x, lower)
        _update(minpen, j, w.pen, lower)
        on = _stop_test(w.rows, w.gn, w.x, it, iters, status, cfg)
        if on is not None:
            w.keep(on)
        if not w.rows.size:
            break
    iters[w.rows] = cfg.max_iters
    return best_x, best_gn, minpen_x, gn, iters, status


def _psi_gradient(problem, w, rho):
    """Gradient of psi = 0.5 ||F||^2 at every row of `w`: the directional
    derivative of F along itself (central difference) times ||F||, which
    needs no second derivatives from the problem; zero where F = 0."""
    norm = np.sqrt(_row_dots(w.F, w.F))
    out = np.zeros_like(w.x)
    j = np.flatnonzero(norm != 0.0)
    if j.size:
        j = _select(j, len(norm))
        scale = norm[j, None]
        step = _POLISH_FD_STEP * (w.F[j] / scale)
        u, v, t = w.u[j], w.v[j], w.t[j]
        plus = _gradient_at(problem, w.x[j] + step, t, u, v, rho)
        minus = _gradient_at(problem, w.x[j] - step, t, u, v, rho)
        out[j] = (plus - minus) / (2.0 * _POLISH_FD_STEP) * scale
    return out


def _polish(problem, ts, xs, us, vs, rho, cfg):
    """Phase 2 at every row: minimize psi = 0.5 ||F||^2, F the augmented
    gradient, to land on a stationary point.  The rows carry psi as f and
    its gradient as gr.  Returns (best_x, best_grad_inf_norm, iterations)."""
    count = len(ts)
    best_x = xs.copy()
    best_gn = np.full(count, np.inf)
    iters = np.zeros(count, dtype=int)
    w = _Rows(rows=np.arange(count), t=ts, u=us, v=vs, x=xs,
              F=_gradient_at(problem, xs, ts, us, vs, rho))
    w.keep(np.isfinite(w.F).all(axis=1))
    w.f = 0.5 * _row_dots(w.F, w.F)
    w.gn = np.abs(w.F).max(axis=1)
    w.since_best = np.zeros(len(w.rows), dtype=int)
    best_gn[w.rows] = w.gn
    w.gr = _psi_gradient(problem, w, rho)

    def trial(j, xt, bound):
        Ft = _gradient_at(problem, xt, w.t[j], w.u[j], w.v[j], rho)
        psit = np.where(np.isfinite(Ft).all(axis=1), 0.5 * _row_dots(Ft, Ft), np.inf)
        ok = np.isfinite(psit) & (psit <= bound)
        k = _select(np.flatnonzero(ok), len(ok))
        return ok, (psit[k], Ft[k])

    for it in range(1, _POLISH_ITERS + 1):
        landed = (w.gn <= cfg.grad_tol) | ~np.isfinite(w.gr).all(axis=1)
        # Gradient norm stopped improving (no stationary point nearby), or
        # -gr is no descent direction for psi.
        stalled = ~landed & ((w.since_best > 30) | (_row_dots(w.gr, -w.gr) >= 0.0))
        iters[w.rows[landed]] = it - 1
        iters[w.rows[stalled]] = it
        w.keep(~(landed | stalled))
        if not w.rows.size:
            break
        first = (np.minimum(1.0, 1.0 / np.maximum(1.0, np.abs(w.gr).max(axis=1)))
                 if it == 1 else None)
        _armijo_pass(w, first, trial, ("f", "F"), iters, it)
        w.gn = np.abs(w.F).max(axis=1)
        j = _select(w.rows, count)
        best = best_gn[j]
        improved = w.gn <= 0.99 * best
        kept = w.gn <= best
        _update(best_x, j, w.x, kept)
        _update(best_gn, j, w.gn, kept)
        w.since_best = np.where(improved, 0, w.since_best + 1)
        escaped = _escaped(w.x)
        iters[w.rows[escaped]] = it
        w.keep(~escaped)
        if not w.rows.size:
            break
        w.gr = _psi_gradient(problem, w, rho)
    iters[w.rows] = _POLISH_ITERS
    return best_x, best_gn, iters


def _solve_rows(problem, ts, xs, us, vs, rho, cfg, start=None):
    """Solve the node problem of every row: states xs (N, n) at times ts (N,)
    with multipliers us (N, p), vs (N, m).

    `start` holds the evaluator outputs at xs (an EvalBundle); they are
    evaluated here when it is None.  Returns (x_star, grad_inf_norm,
    iterations, status) with one entry per row, status as `_BY_SEVERITY`
    indices.
    """
    # Overflow in a trial point shows up as a non-finite value, which the
    # phases reject.
    with np.errstate(over="ignore", invalid="ignore"):
        if start is None:
            start = _Rows(**_evaluate_fields(problem, EVALUATORS, xs, ts))
        x_star, grad, minpen_x, initial_gn, iters, status = _descend(
            problem, ts, xs, start, us, vs, rho, cfg)
        if not status.any():
            # Every row converged (_CONVERGED is 0): nothing to polish or
            # fall back from.
            return x_star, grad, iters, status
        # The polish targets stationary points of penalized subproblems, whose
        # one-sided curvature can make pure descent escape.  Without
        # constraints the augmented objective is the plain objective: there a
        # diverging descent is definitive unless the path itself passed a
        # better stationarity candidate.
        polish = status != _CONVERGED
        if not problem.p + problem.m:
            polish &= grad < initial_gn
        if polish.any():
            j = np.flatnonzero(polish)
            px, pgn, extra = _polish(problem, ts[j], x_star[j], us[j], vs[j], rho, cfg)
            iters[j] += extra
            rescued = pgn <= cfg.grad_tol
            j = j[rescued]
            x_star[j], grad[j], status[j] = px[rescued], pgn[rescued], _CONVERGED
        # Both phases failed: report the most nearly shifted-feasible iterate.
        j = np.flatnonzero(status != _CONVERGED)
        if j.size:
            x_star[j] = minpen_x[j]
            grad[j] = _grad_norms(_gradient_at(problem, minpen_x[j], ts[j], us[j],
                                               vs[j], rho))
    return x_star, grad, iters, status


def _check_rows(problem, ts, xs, us, vs, rho, node=False):
    """The input checks of both entries, on node-row stacks, in this order:
    one row per time, rows of widths n, p and m, rho > 0, finite states, then
    the multipliers.  The one-node entry (`node`) names its own arguments and
    shows their shapes without the row axis."""
    if not len(xs) == len(us) == len(vs) == len(ts):
        raise ValueError(f"xs, us and vs must have one row per time, got "
                         f"{len(xs)}, {len(us)} and {len(vs)} for {len(ts)}")
    names = ("x_init", "safeguarded.u", "safeguarded.v") if node else ("xs", "us", "vs")
    for name, a, k in zip(names, (xs, us, vs), (problem.n, problem.p, problem.m)):
        if a.shape != (len(ts), k):
            raise ValueError(f"{name} must have shape {(len(ts), k)[node:]}, "
                             f"got {a.shape[node:]}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not np.isfinite(xs).all():
        raise ValueError("x_init must be finite")
    _check_multipliers(us, vs)


def solve_node(problem: ProblemDefinition, t: float, x_init: np.ndarray,
               safeguarded: MultiplierSet, rho: float, cfg: InnerConfig) -> InnerResult:
    """Find a stationary point of x -> augmented objective at one node."""
    ts, xs = np.array([t], dtype=float), np.asarray(x_init, dtype=float)[None]
    us, vs = safeguarded.u[None], safeguarded.v[None]
    _check_rows(problem, ts, xs, us, vs, rho, node=True)
    x, grad, iters, status = _solve_rows(problem, ts, xs, us, vs, rho, cfg)
    return InnerResult(x[0], float(grad[0]), int(iters[0]), _BY_SEVERITY[status[0]])


def solve_subproblem(problem: ProblemDefinition, ts: np.ndarray, xs: np.ndarray,
                     us: np.ndarray, vs: np.ndarray, rho: float, cfg: InnerConfig,
                     start: Optional[EvalBundle] = None):
    """Solve the node problem of every row in lockstep: warm starts xs (N, n)
    at times ts (N,) with safeguarded multipliers us (N, p), vs (N, m).

    `start` is the evaluation of the warm starts, `evaluate_all(problem, xs,
    ts)`, which the outer loop already holds; the first descent pass takes
    the objective and gradient from it instead of calling the evaluators.
    Without it the warm starts are evaluated here.  When every row's start
    gradient norm is within cfg.grad_tol, the solve ends after one
    whole-batch comparison: the rows are Converged at a copy of xs, with no
    evaluator call.  Returns (node solutions (N, n), worst status, max grad
    norm).
    """
    _check_rows(problem, ts, xs, us, vs, rho)
    x, grad, _, status = _solve_rows(problem, ts, xs, us, vs, rho, cfg, start=start)
    return x, _BY_SEVERITY[status.max()], max(0.0, float(grad.max()))
