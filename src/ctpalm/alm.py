"""Outer safeguarded augmented-Lagrangian loop.

Each outer iteration builds the subproblem's start once, at the previous
iterate (`inner._at_start`), and solves the node-wise penalized subproblems
from it (or keeps that iterate when every node already starts within the
inner tolerance).  It evaluates every iterate the subproblem returns, applies
the first-order multiplier update, checks the asymptotic optimality test on
the updated pair, and then runs the infeasibility-progress test that decides
whether the penalty parameter grows.
Multiplier estimates are projected back into fixed safeguard boxes before they
enter the next subproblem.

Termination additionally requires primal feasibility at the stopping
tolerance.  The stationarity and complementarity residuals alone can vanish
on infeasible problems (a violated constraint has zero complementarity
residual by construction), and reporting success there would be wrong; the
infeasibility diagnostics cover that exit instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .grid import TimeGrid, Trajectory, _trapezoid_sum
from .inner import InnerConfig, InnerStatus, _at_start, solve_subproblem
from .lagrangian import (Residuals, _residuals, _sup, _weighted_gradient, akkt_holds,
                         multiplier_update, violations)
from .problems import EvaluationError, ProblemDefinition, _count, evaluate_all

ITERATION_CSV_HEADER = ("k,rho,stationarity_l1,complementarity_sup,"
                        "infeas_measure,objective,inner_status,inner_max_grad")

# Consecutive all-diverged subproblem solves tolerated before giving up.
_DIVERGENCE_PATIENCE = 50


class StartEvaluationError(EvaluationError):
    """An evaluator returned a non-finite value at the starting trajectory x0."""


class SolveStatus(enum.Enum):
    AKKT_CONVERGED = "AkktConverged"
    MAX_OUTER_REACHED = "MaxOuterReached"
    INNER_FAILURE = "InnerFailure"


@dataclass(frozen=True)
class AlmConfig:
    """All outer-loop parameters; defaults follow the reference experiments."""

    rho_init: float = 1.0
    gamma: float = 1.001
    tau: float = 1e-3
    bound_M: float = 1e50
    bound_N: float = 1e50
    eps_stop: float = 1e-5
    max_outer: int = 1000
    inner: Optional[InnerConfig] = None

    def __post_init__(self):
        # Written so that NaN fails every test.
        if not 0.0 < self.rho_init < math.inf:
            raise ValueError("rho_init must be positive and finite")
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("gamma must exceed 1 and be finite")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not (0.0 < self.bound_M < math.inf and 0.0 < self.bound_N < math.inf):
            raise ValueError("safeguard bounds must be positive and finite")
        if not 0.0 < self.eps_stop < math.inf:
            raise ValueError("eps_stop must be positive and finite")
        if not _count(self.max_outer) >= 1:
            raise ValueError("max_outer must be >= 1")
        if self.inner is None:
            # Inner solves one order tighter than the outer stopping test,
            # floored so the inner tolerance never chases rounding noise.
            object.__setattr__(
                self, "inner",
                InnerConfig(grad_tol=max(1e-8, 0.1 * self.eps_stop)))


@dataclass(frozen=True)
class IterationRecord:
    k: int
    rho: float
    residuals: Residuals
    infeas_measure: float
    objective_quadrature: float
    inner_worst_status: InnerStatus
    inner_max_grad: float

    def csv_row(self) -> str:
        return (f"{self.k},{self.rho:.17g},{self.residuals.stationarity_l1:.17g},"
                f"{self.residuals.complementarity_sup:.17g},"
                f"{self.infeas_measure:.17g},{self.objective_quadrature:.17g},"
                f"{self.inner_worst_status.value},{self.inner_max_grad:.17g}")


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    grid: TimeGrid
    iterations: list
    x: Trajectory
    u: Trajectory
    v: Trajectory
    certificates: dict
    error_metrics: Optional[diagnostics.ErrorMetrics]

    @property
    def final(self) -> IterationRecord:
        return self.iterations[-1]


def safeguard_project(u: np.ndarray, v: np.ndarray, bound_M: float, bound_N: float):
    """Clamp equality multipliers into [-M, M] and inequality ones into [0, N]."""
    if not (bound_M > 0 and bound_N > 0):
        raise ValueError("safeguard bounds must be positive")
    # The method skips np.clip's dispatch wrapper and computes the same bits.
    return u.clip(-bound_M, bound_M), v.clip(0.0, bound_N)


def _in_box(values: np.ndarray, low: float, high: float) -> bool:
    """Whether every entry of `values` lies in [low, high]; an empty array does."""
    return not values.size or (low <= values.min() and values.max() <= high)


def penalty_update(rho: float, prev_infeas: float, cur_infeas: float,
                   cfg: AlmConfig) -> float:
    """Keep rho when infeasibility improved by factor tau, else grow it."""
    if not prev_infeas >= 0:
        raise ValueError("prev_infeas must be nonnegative")
    if cur_infeas <= cfg.tau * prev_infeas:
        return rho
    return cfg.gamma * rho


def _evaluation(problem: ProblemDefinition, grid: TimeGrid, xs: np.ndarray):
    """`evaluate_all` at node rows xs, its objective quadrature and its violation."""
    bundle = evaluate_all(problem, xs, grid.nodes)
    return bundle, _trapezoid_sum(bundle.phi, grid.spacing), max(violations(bundle))


def solve(problem: ProblemDefinition, cfg: AlmConfig, x0: Trajectory,
          u_tilde1: Optional[Trajectory] = None,
          v_tilde1: Optional[Trajectory] = None) -> SolveReport:
    """Run the outer loop from (x0, u~1, v~1) until the optimality test passes.

    Omitted initial multipliers default to zero; x0's grid must span the
    problem's horizon.  Writes nothing.  Raises OverflowError when the penalty
    parameter or the multiplier update overflows, and StartEvaluationError
    when an evaluator is non-finite at x0 (an EvaluationError from a later
    iterate is raised as it is).
    """
    grid = x0.grid
    if x0.dim != problem.n:
        raise ValueError(f"x0 has dim {x0.dim}, problem expects n={problem.n}")
    if grid.horizon != problem.horizon:
        raise ValueError(f"x0 has horizon {grid.horizon!r}, problem expects "
                         f"T={problem.horizon!r}")
    if u_tilde1 is None:
        u_tilde1 = Trajectory.constant(grid, np.zeros(problem.p))
    if v_tilde1 is None:
        v_tilde1 = Trajectory.constant(grid, np.zeros(problem.m))
    if u_tilde1.dim != problem.p or v_tilde1.dim != problem.m:
        raise ValueError("initial multiplier trajectories do not match problem dims")
    if not grid == u_tilde1.grid == v_tilde1.grid:
        raise ValueError("initial trajectories must share the grid")
    if not _in_box(u_tilde1.values, -cfg.bound_M, cfg.bound_M):
        raise ValueError("initial equality multipliers outside the safeguard box")
    if not _in_box(v_tilde1.values, 0.0, cfg.bound_N):
        raise ValueError("initial inequality multipliers outside the safeguard box")

    # Baseline infeasibility from the starting guess: the sup of |h(x0)| and
    # of max(g(x0), 0).  The evaluation also starts the first subproblem.
    try:
        bundle, objective, violation = _evaluation(problem, grid, x0.values)
    except EvaluationError as exc:
        raise StartEvaluationError(exc.what, exc.t, exc.x) from None
    prev_infeas = violation

    rho, xs = cfg.rho_init, x0.values
    u_tilde, v_tilde = u_tilde1.values, v_tilde1.values
    records = []
    diverged_streak = 0
    status = SolveStatus.MAX_OUTER_REACHED

    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        for k in range(1, cfg.max_outer + 1):
            if rho == math.inf:
                raise OverflowError(
                    f"outer iteration {k}: the penalty parameter overflowed")
            # The update and the Lagrangian gradient at the warm start; the
            # gradient is the subproblem's augmented gradient there, and the
            # subproblem starts from the record built of them.
            u_rows, v_rows = multiplier_update(bundle, u_tilde, v_tilde, rho)
            gradient = _weighted_gradient(bundle, u_rows, v_rows)
            start = _at_start(bundle, gradient, u_tilde, v_tilde, rho)
            # A subproblem whose nodes all start within grad_tol stops each at
            # descent's first stop test and returns its warm start Converged:
            # the loop keeps the warm start without the call.
            if (start.gn <= cfg.inner.grad_tol).all():
                inner_worst, inner_max_grad = InnerStatus.CONVERGED, _sup(start.gn)
            else:
                xs, inner_worst, inner_max_grad = solve_subproblem(
                    problem, grid.nodes, xs, u_tilde, v_tilde, rho, cfg.inner, start)
                # The evaluation of the subproblem's solution, its objective,
                # its violation, the update and the gradient feed the
                # residuals, the log and the next subproblem's start.
                bundle, objective, violation = _evaluation(problem, grid, xs)
                u_rows, v_rows = multiplier_update(bundle, u_tilde, v_tilde, rho)
                gradient = _weighted_gradient(bundle, u_rows, v_rows)
            if not (np.isfinite(u_rows).all() and np.isfinite(v_rows).all()):
                raise OverflowError(f"outer iteration {k}: the multiplier update "
                                    f"overflowed (rho = {rho:g})")
            residuals = _residuals(grid.spacing, bundle, gradient, v_rows, violation)
            # Penalty-rule measure: sup over all nodes of |h| and |max(g, -v~/rho)|.
            infeas_measure = max(_sup(np.abs(bundle.h)),
                                 _sup(np.abs(np.maximum(bundle.g, -v_tilde / rho))))
            record = IterationRecord(
                k=k, rho=rho, residuals=residuals, infeas_measure=infeas_measure,
                objective_quadrature=objective,
                inner_worst_status=inner_worst, inner_max_grad=inner_max_grad)
            records.append(record)

            if akkt_holds(residuals, cfg.eps_stop):
                status = SolveStatus.AKKT_CONVERGED
                break

            diverged = inner_worst is InnerStatus.DIVERGED
            diverged_streak = diverged_streak + 1 if diverged else 0
            if diverged_streak >= _DIVERGENCE_PATIENCE:
                status = SolveStatus.INNER_FAILURE
                break

            rho_next = penalty_update(rho, prev_infeas, infeas_measure, cfg)
            prev_infeas = infeas_measure
            u_tilde, v_tilde = safeguard_project(u_rows, v_rows,
                                                 cfg.bound_M, cfg.bound_N)
            rho = rho_next

    x, u, v = (Trajectory(grid, rows) for rows in (xs, u_rows, v_rows))
    return SolveReport(
        status=status, grid=grid, iterations=records, x=x, u=u, v=v,
        certificates=diagnostics.certify(problem, grid, bundle, u, v, residuals,
                                         cfg.eps_stop),
        error_metrics=(diagnostics.solution_error(grid, x, problem)
                       if problem.reference is not None else None))
