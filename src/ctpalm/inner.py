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
as it is, without a scatter.  Any other selection is an index array, which
a backtracking block repeats once per candidate step of each row.  The
evaluators therefore see the batch's own state and time arrays, which they
must not write into.

1. Spectral (Barzilai-Borwein) gradient descent with a monotone Armijo
   backtracking safeguard on the augmented objective.  Backtracking is
   stacked: a row that rejects its first trial step evaluates its next
   halvings in blocks, several trial rows of one evaluator call when few rows
   backtrack, and takes the first that passes, the step that halving one
   trial at a time would reach.
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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lagrangian import (MultiplierSet, _aug_gradient, _check_multipliers, _penalty_value,
                         _sup)
from .problems import EVALUATORS, ProblemDefinition, _count, _evaluate_fields, _row_dots

# Relative step for the directional curvature difference used by the polish.
_POLISH_FD_STEP = 1e-7
# Armijo sufficient-decrease constant, the BB fallback step (also descent's
# first step), the smallest trial step, the box |x_i| <= _ITERATE_BOX outside
# which an iterate counts as escaping, and the polish iteration budget.
_ARMIJO_C = 1e-4
_STEP_INIT = 1.0
_STEP_MIN = 1e-14
_ITERATE_BOX = 1e6
_POLISH_ITERS = 200
# Backtracking blocks: a block tries the next _BLOCK_ROWS // R halvings of
# each of the R rows still backtracking, at most _BLOCK_HALVINGS.  Each trial
# row costs evaluator work, and a row often passes at its next halving, so
# the row budget keeps blocks short where many rows backtrack at once: past
# _BLOCK_ROWS // 2 rows a block is the one next halving of each.
_BLOCK_ROWS = 128
_BLOCK_HALVINGS = 16
# 2^-i for i < _BLOCK_HALVINGS, exact.
_HALVINGS = tuple(math.ldexp(1.0, -i) for i in range(_BLOCK_HALVINGS))
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
            self.__dict__.update({k: a.compress(mask, axis=0) for k, a in vars(self).items()})


def _select(rows: np.ndarray, count: int):
    """Selector of `rows`, ascending indices into a batch of `count` rows: the
    slice over the whole batch when they are all of it, so that a gather
    through it is a view, else the indices."""
    return slice(None) if len(rows) == count else rows


def _take(a: np.ndarray, j) -> np.ndarray:
    """a[j] for a selector j from `_select`: the view for the slice, else a
    `take` along the row axis, which costs less than fancy indexing."""
    return a[j] if isinstance(j, slice) else a.take(j, axis=0)


def _update(dest, j, values, mask) -> None:
    """dest[j][mask] = values[mask] for a selector j from `_select` and dest
    of one or two axes; over the whole batch, one masked copy."""
    if isinstance(j, slice):
        np.copyto(dest, values, where=mask if dest.ndim == 1 else mask[:, None])
    else:
        dest[j.compress(mask)] = values.compress(mask, axis=0)


def _gradient_at(problem, xs, ts, us, vs, rho):
    """Augmented gradient at states xs, from one call of each evaluator it
    needs there."""
    ev = _Rows(**_evaluate_fields(problem, ("h", "g") + _GRADIENT_FIELDS, xs, ts))
    return _aug_gradient(ev, us, vs, rho)


def _escaped(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of states x with an entry outside the iterate box."""
    return np.abs(x).max(axis=1) > _ITERATE_BOX


def _grad_norms(gr: np.ndarray) -> np.ndarray:
    """Largest |entry| of each row; inf for rows with a non-finite entry (a
    NaN entry makes the row's max NaN, an infinite one makes it inf)."""
    m = np.abs(gr).max(axis=1)
    m[np.isnan(m)] = np.inf
    return m


def _bb_step(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Barzilai-Borwein step s.s / s.y of each row; _STEP_INIT where s.y or
    the step is not positive and finite.  s.s is never negative, so an s.y
    that is not positive and finite (0, negative, NaN or +inf) gives a
    quotient that is not either: one test of the quotient covers both."""
    alpha = _row_dots(s, s) / _row_dots(s, y)
    return np.where((alpha > 0.0) & (alpha < np.inf), alpha, _STEP_INIT)


def _armijo_pass(w, alpha, trial, fields, iters, it):
    """Pass `it` of a phase: at every row of `w`, one step along -w.gr under a
    monotone Armijo safeguard on the objective with values w.f, gradients w.gr.

    `alpha` holds each row's step; None takes the BB step from the rows'
    memory w.prev_x, w.prev_g.  A row takes the first of alpha, alpha/2,
    alpha/4, ... at or above _STEP_MIN that `trial` accepts.  The first
    trial tries each row's alpha, in one call.
    A row that rejects it tries its next halvings in blocks, one call per
    block and one trial row per candidate step (block size: `_BLOCK_ROWS`),
    and takes the first candidate that passes; a block of one halving per
    row is a trial like the first.  Scaling by a power of two
    gives the bits of repeated halving, and evaluators act row by row, so a
    row lands where halving one trial at a time would.

    `trial(j, xt, bound)` tests points xt at rows `j` of `w` against their
    Armijo bounds: `j` is a selector from `_select` in the first trial and
    row indices, each repeated once per candidate, in a block.  It returns
    the mask of passing points and a completion `complete(k, r)`, which
    takes the picked points k (a selector into xt) at rows r of `w` (a
    selector from `_select`) and returns the mask of those it accepts and
    their values of `fields` (w.f first).  A row whose pick it refuses goes
    on at the pick's next halving.  Rows without an acceptable step stop
    after `it` iterations.
    """
    d = -w.gr
    gd = _row_dots(w.gr, d)
    if alpha is None:
        alpha = _bb_step(w.x - w.prev_x, w.gr - w.prev_g)
    names = ("x",) + fields
    count = len(w.rows)
    new = None
    accepted = np.zeros(count, dtype=bool)
    rows = (alpha >= _STEP_MIN).nonzero()[0]
    block = 1
    while rows.size:
        if block == 1:
            j = _select(rows, count)
            step = _take(alpha, j)
        else:
            steps = alpha[rows, None] * _HALVINGS[:block]
            alpha[rows] = steps[:, -1]
            j, step = rows.repeat(block), steps.reshape(-1)
        xt = _take(w.x, j) + step[:, None] * _take(d, j)
        ok, complete = trial(j, xt, _take(w.f, j) + _ARMIJO_C * step * _take(gd, j))
        if block > 1:
            ok &= step >= _STEP_MIN
        k = ok.nonzero()[0]
        if k.size:
            if isinstance(j, slice):
                r = k
            else:
                r = j[k]
                if block > 1:
                    # Each row's first passing candidate.  The row indices
                    # compare as doubles, exactly: an int64 comparison kernel,
                    # which nothing else in a solve runs, raised peak RSS.
                    rf = r.astype(float)
                    first = np.empty(len(r), dtype=bool)
                    first[0], first[1:] = True, rf[1:] > rf[:-1]
                    k, r = k[first], r[first]
            kj, rj = _select(k, len(ok)), _select(r, count)
            good, values = complete(kj, rj)
            if isinstance(rj, slice) and good.all():
                # Every row accepts, and none has before.
                new, accepted = (_take(xt, kj),) + values, good
                break
            if not good.all():
                alpha[r[~good]] = step[k[~good]]
                k, r = k.compress(good), r.compress(good)
                values = tuple(a.compress(good, axis=0) for a in values)
            if new is None:
                new = [np.empty_like(getattr(w, name)) for name in names]
            for a, value in zip(new, (xt.take(k, axis=0),) + values):
                a[r] = value
            accepted[r] = True
            rows = rows[~accepted[rows]]
        alpha[rows] *= 0.5
        rows = rows[alpha[rows] >= _STEP_MIN]
        if rows.size:
            block = max(1, min(_BLOCK_HALVINGS, _BLOCK_ROWS // rows.size))
    w.prev_x, w.prev_g = w.x, w.gr
    if new is not None:
        vars(w).update(zip(names, new))
    if not accepted.all():
        iters[w.rows[~accepted]] = it
        w.keep(accepted)


def _stop_test(w, it, iters, status, cfg):
    """Descent's stop test after `it` steps at every row of `w`: a row within
    cfg.grad_tol converges, any other outside the iterate box diverges.
    Records the iterations and status of the rows that stop and drops them
    from `w`."""
    converged = w.gn <= cfg.grad_tol
    stop = converged | _escaped(w.x)
    if stop.any():
        iters[w.rows[stop]] = it
        status[w.rows[stop & ~converged]] = _DIVERGED
        status[w.rows[converged]] = _CONVERGED
        w.keep(~stop)


def _keep_best(best_x, best_gn, j, x, gn) -> None:
    """Make states x with gradient norms gn the best points of rows j (a
    selector from `_select`) where gn is at most their best norm so far; a
    tie goes to the later point."""
    kept = gn <= _take(best_gn, j)
    _update(best_x, j, x, kept)
    _update(best_gn, j, gn, kept)


def _at_start(ev, gr, us, vs, rho):
    """Descent's start, as a `_Rows` record, at points whose evaluator outputs
    are `ev` and whose augmented gradient rows are gr: the multiplier shifts
    shift_u = us / rho and shift_v = vs / rho, the penalty and objective
    values pen and f, gr, and the gradient norms gn, inf where the objective
    is not finite.  The outer loop builds it once per iteration, tests gn to
    skip a subproblem whose rows all start stationary, and hands it over."""
    shift_u, shift_v = us / rho, vs / rho
    pen = _penalty_value(ev, shift_u, shift_v, rho)
    f = ev.phi + pen
    return _Rows(shift_u=shift_u, shift_v=shift_v, pen=pen, f=f, gr=gr,
                 gn=np.where(np.isfinite(f), _grad_norms(gr), np.inf))


def _descend(problem, ts, xs, start, us, vs, rho, cfg):
    """Phase 1 at every row: BB descent on the augmented objective, from
    states xs whose start record is `start`, `_at_start` there with
    multipliers us, vs and rho.  The record is read, never written.

    Returns (best_x, best_gn, minpen_x, iters, status) with one entry per
    row: best_* track the smallest gradient norm seen and minpen_x the first
    iterate with strictly smallest penalty value; status holds
    `_BY_SEVERITY` indices.  Pass 0 is the stop test at the start, so a
    batch whose rows all start within cfg.grad_tol returns them Converged
    after 0 iterations, at a copy of xs, without an evaluator call.
    """
    count = len(ts)
    iters = np.zeros(count, dtype=int)
    status = np.full(count, _MAX_ITERS)
    best_x, best_gn, minpen_x = xs.copy(), start.gn.copy(), xs.copy()
    minpen = start.pen.copy()
    # Each row's BB memory starts at its start, where s.y = 0 is not positive:
    # its first step is the BB fallback, _STEP_INIT.
    w = _Rows(rows=np.arange(count), t=ts, u=us, v=vs, x=xs, prev_x=xs,
              prev_g=start.gr, **vars(start))
    # Rows with a non-finite start take no step and meet no stop test.
    w.keep(np.isfinite(start.gn))

    def trial(j, xt, bound):
        ev = _Rows(**_evaluate_fields(problem, _VALUE_FIELDS, xt, _take(w.t, j)))
        pt = _penalty_value(ev, _take(w.shift_u, j), _take(w.shift_v, j), rho)
        ft = ev.phi + pt

        def complete(k, r):
            # The gradient is evaluated only at picked points, and takes h and
            # g from the value's evaluation.  A non-finite one refuses the
            # pick: its norm is NaN or inf, since NaN propagates through max.
            grad = _evaluate_fields(problem, _GRADIENT_FIELDS, _take(xt, k), _take(w.t, r))
            gt = _aug_gradient(_Rows(h=_take(ev.h, k), g=_take(ev.g, k), **grad),
                               _take(w.u, r), _take(w.v, r), rho)
            gn = np.abs(gt).max(axis=1)
            return gn < np.inf, (_take(ft, k), _take(pt, k), gt, gn)

        return np.isfinite(ft) & (ft <= bound), complete

    # Pass 0 is the stop test at the start; every later pass takes one step.
    for it in range(cfg.max_iters + 1):
        if it:
            _armijo_pass(w, None, trial, ("f", "pen", "gr", "gn"), iters, it)
            j = _select(w.rows, count)
            _keep_best(best_x, best_gn, j, w.x, w.gn)
            lower = w.pen < _take(minpen, j)
            _update(minpen_x, j, w.x, lower)
            _update(minpen, j, w.pen, lower)
        _stop_test(w, it, iters, status, cfg)
        if not w.rows.size:
            break
    iters[w.rows] = cfg.max_iters
    return best_x, best_gn, minpen_x, iters, status


def _psi_gradient(problem, w, rho):
    """Gradient of psi = 0.5 ||F||^2 at every row of `w`: the directional
    derivative of F along itself (central difference) times ||F||, which
    needs no second derivatives from the problem; zero where F = 0."""
    norm = np.sqrt(_row_dots(w.F, w.F))
    out = np.zeros_like(w.x)
    j = (norm != 0.0).nonzero()[0]
    if j.size:
        j = _select(j, len(norm))
        scale = _take(norm, j)[:, None]
        step = _POLISH_FD_STEP * (_take(w.F, j) / scale)
        x = _take(w.x, j)
        # Both sides in one call of twice the rows; evaluators act row by row.
        t, u, v = (np.concatenate((_take(a, j),) * 2) for a in (w.t, w.u, w.v))
        both = _gradient_at(problem, np.concatenate((x + step, x - step)), t, u, v, rho)
        plus, minus = both[:len(x)], both[len(x):]
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
        # psi's value needs F, so the completion only gathers it.
        Ft = _gradient_at(problem, xt, _take(w.t, j), _take(w.u, j), _take(w.v, j), rho)
        psit = np.where(np.isfinite(Ft).all(axis=1), 0.5 * _row_dots(Ft, Ft), np.inf)
        ok = np.isfinite(psit) & (psit <= bound)
        return ok, lambda k, r: (_take(ok, k), (_take(psit, k), _take(Ft, k)))

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
        w.since_best = np.where(w.gn <= 0.99 * best_gn[j], 0, w.since_best + 1)
        _keep_best(best_x, best_gn, j, w.x, w.gn)
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

    `start` is descent's start record at xs, `_at_start` there; it is built
    here, from one call of every evaluator, when it is None.  Returns
    (x_star, grad_inf_norm, iterations, status) with one entry per row,
    status as `_BY_SEVERITY` indices.
    """
    # Overflow in a trial point shows up as a non-finite value, which the
    # phases reject; a BB quotient over s.y = 0 is refused by its own test.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if start is None:
            ev = _Rows(**_evaluate_fields(problem, EVALUATORS, xs, ts))
            start = _at_start(ev, _aug_gradient(ev, us, vs, rho), us, vs, rho)
        x_star, grad, minpen_x, iters, status = _descend(problem, ts, xs, start, us,
                                                         vs, rho, cfg)
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
            polish &= grad < start.gn
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


def _check_rows(problem, ts, xs, us, vs, rho, start=None, node=False):
    """The input checks of both entries, on node-row stacks, in this order:
    at least one time, one row per time, rows of widths n, p and m (and n
    for the gradient rows of a given start record), 0 < rho < inf, finite
    states, then the multipliers.  The one-node entry (`node`) names its own
    arguments and shows their shapes without the row axis."""
    if not len(ts):
        raise ValueError("ts must not be empty")
    if not len(xs) == len(us) == len(vs) == len(ts):
        raise ValueError(f"xs, us and vs must have one row per time, got "
                         f"{len(xs)}, {len(us)} and {len(vs)} for {len(ts)}")
    names = (("x_init", "safeguarded.u", "safeguarded.v") if node
             else ("xs", "us", "vs", "start.gr"))
    gradient = None if start is None else start.gr
    for name, a, k in zip(names, (xs, us, vs, gradient),
                          (problem.n, problem.p, problem.m, problem.n)):
        if a is not None and a.shape != (len(ts), k):
            raise ValueError(f"{name} must have shape {(len(ts), k)[node:]}, "
                             f"got {a.shape[node:]}")
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive, got {rho}")
    if not np.isfinite(xs).all():
        raise ValueError(f"{names[0]} must be finite")
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
                     start: Optional[_Rows] = None):
    """Solve the node problem of every row in lockstep: warm starts xs (N, n)
    at times ts (N,) with safeguarded multipliers us (N, p), vs (N, m).

    `start` is descent's start record at the warm starts, `_at_start` of
    their evaluation and augmented gradient rows (N, n) with us, vs and rho,
    which the outer loop builds once per iteration; descent starts from it
    without calling the evaluators, and does not modify it.  It is built
    here when it is not given.  Rows whose start gradient norm is within
    cfg.grad_tol stop at descent's first stop test: a batch of only such
    rows returns a copy of xs, Converged, with no evaluator call after the
    start's.  The outer loop does not call this for such a batch; it keeps
    the warm start itself.
    Returns (node solutions (N, n), worst status, max grad norm).
    """
    _check_rows(problem, ts, xs, us, vs, rho, start)
    x, grad, _, status = _solve_rows(problem, ts, xs, us, vs, rho, cfg, start)
    return x, _BY_SEVERITY[status.max()], _sup(grad)
