"""Outer-loop mechanics: update formulas, penalty rule, termination, logging,
and the structural invariants of whole runs."""

import collections
import dataclasses
import warnings

import numpy as np
import pytest

import ctpalm as c
import ctpalm.alm as alm_mod
import ctpalm.inner as inner_mod
import ctpalm.lagrangian as lagrangian
from ctpalm.alm import (SolveStatus, StartEvaluationError, multiplier_update,
                        penalty_update, safeguard_project)
from ctpalm.grid import _trapezoid_sum
from ctpalm.inner import InnerStatus
from ctpalm.lagrangian import MultiplierSet, violations
from ctpalm.problems import EvalBundle, EvaluationError, evaluate_all
from conftest import RUN_STARTS, counting, run_builtin, unconstrained_quadratic


def bundle_with(h=(), g=()):
    """One-node bundle (n = 1) with the given constraint values."""
    h = np.asarray(h, dtype=float).reshape(1, -1)
    g = np.asarray(g, dtype=float).reshape(1, -1)
    return EvalBundle(phi=np.zeros(1), grad_phi=np.zeros((1, 1)), h=h,
                      jac_h=np.zeros((1, h.shape[1], 1)), g=g,
                      jac_g=np.zeros((1, g.shape[1], 1)))


# -- multiplier_update --------------------------------------------------------

def test_update_equality_arithmetic():
    u, v = multiplier_update(bundle_with(h=[0.5]), np.array([[1.0]]),
                             np.zeros((1, 0)), 2.0)
    assert np.array_equal(u, [[2.0]])


def test_update_clamps_inequality_at_zero():
    u, v = multiplier_update(bundle_with(g=[-1.0]), np.zeros((1, 0)),
                             np.array([[1.0]]), 2.0)
    assert np.array_equal(v, [[0.0]])


def test_update_fixed_point_at_zero_violation():
    u, v = multiplier_update(bundle_with(h=[0.0], g=[0.0]),
                             np.array([[1.3]]), np.array([[0.7]]), 5.0)
    assert np.array_equal(u, [[1.3]])
    assert np.array_equal(v, [[0.7]])


def test_update_is_the_one_of_the_augmented_gradient():
    assert c.multiplier_update is alm_mod.multiplier_update is lagrangian.multiplier_update


def test_update_rejects_nonpositive_rho():
    for rho in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^rho must be positive$"):
            multiplier_update(bundle_with(h=[0.5]), np.array([[1.0]]),
                              np.zeros((1, 0)), rho)


# -- safeguard_project --------------------------------------------------------

def test_projection_clamps_upper():
    u, v = safeguard_project(np.array([2.0]), np.zeros(0), 1.5, 1.0)
    assert np.array_equal(u, [1.5])


def test_projection_identity_inside_box():
    u, v = safeguard_project(np.zeros(0), np.array([3.0]), 1.0, 1e50)
    assert np.array_equal(v, [3.0])


def test_projection_clamps_negative_inequality():
    u, v = safeguard_project(np.zeros(0), np.array([-0.2]), 1.0, 1e50)
    assert np.array_equal(v, [0.0])


def test_projection_rejects_nonpositive_bounds():
    for bound_M, bound_N in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (np.nan, 1.0),
                             (1.0, np.nan)):
        with pytest.raises(ValueError, match="^safeguard bounds must be positive$"):
            safeguard_project(np.zeros(0), np.zeros(0), bound_M, bound_N)


def test_projection_is_identity_with_huge_bounds(ex1_run):
    report, _, cfg = ex1_run
    u, v = safeguard_project(report.u.values, report.v.values,
                             cfg.bound_M, cfg.bound_N)
    assert np.array_equal(u, report.u.values)
    assert np.array_equal(v, report.v.values)


# -- penalty_update -----------------------------------------------------------

@pytest.mark.parametrize("cur,prev,expect_growth", [
    (0.1, 200.0, False),   # 0.1 <= 1e-3 * 200
    (0.1, 50.0, True),     # 0.1 > 1e-3 * 50
    (0.0, 0.0, False),     # ties keep rho
])
def test_penalty_rule(cur, prev, expect_growth):
    cfg = c.AlmConfig(tau=1e-3)
    rho_next = penalty_update(2.0, prev, cur, cfg)
    if expect_growth:
        assert rho_next == pytest.approx(2.0 * cfg.gamma, rel=1e-15)
    else:
        assert rho_next == 2.0


def test_penalty_rule_rejects_negative_previous_infeasibility():
    for prev in (-1.0, np.nan):
        with pytest.raises(ValueError, match="^prev_infeas must be nonnegative$"):
            penalty_update(2.0, prev, 0.1, c.AlmConfig())


@pytest.mark.parametrize("u0,v0,message", [
    ([1.0, 1.0], None, "initial multiplier trajectories do not match problem dims"),
    (None, [1.0], "initial multiplier trajectories do not match problem dims"),
    ("other grid", None, "initial trajectories must share the grid"),
    ([2.0], None, "initial equality multipliers outside the safeguard box"),
    ([-2.0], None, "initial equality multipliers outside the safeguard box"),
])
def test_solve_rejects_bad_initial_multipliers(u0, v0, message):
    prob = c.builtin("ex3")
    grid = c.make_uniform_grid(1.0, 5)
    if u0 == "other grid":
        u = c.Trajectory.constant(c.make_uniform_grid(1.0, 6), [0.0])
    else:
        u = None if u0 is None else c.Trajectory.constant(grid, u0)
    v = None if v0 is None else c.Trajectory.constant(grid, v0)
    x0 = c.Trajectory.constant(grid, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        c.solve(prob, c.AlmConfig(bound_M=1.0), x0, u, v)


# -- solve --------------------------------------------------------------------

def test_unconstrained_problem_converges_in_one_iteration():
    prob = unconstrained_quadratic()
    grid = c.make_uniform_grid(1.0, 11)
    cfg = c.AlmConfig()
    report = c.solve(prob, cfg, c.Trajectory.constant(grid, [4.0]))
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert len(report.iterations) == 1
    # residual scale is set by the inner tolerance
    assert report.final.residuals.stationarity_l1 <= cfg.inner.grad_tol * prob.horizon
    assert np.max(np.abs(report.x.values)) <= 1e-5


def test_ex1_reproduces_solution(ex1_run):
    report, prob, _ = ex1_run
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert np.max(np.abs(report.x.values)) <= 1e-3


def test_ex3_converges_near_reference(ex3_run):
    report, prob, _ = ex3_run
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert report.error_metrics.sup_error <= 1e-2


@pytest.mark.parametrize("x0,u0", [([1.0, 1.0, 0.0], [0.5]), ([1.0, 1.0, 0.0], [2.0]),
                                   ([0.0, 0.0, 0.0], [0.5])],
                         ids=["reference-u0.5", "reference-u2", "zero-u0.5"])
def test_ex3_converges_from_other_starts(x0, u0):
    """ex3 at 9 nodes, whose objective is unbounded below on the feasible
    set, from its reference point (1, 1, 0) with u0 = 0.5 and 2 and from
    x0 = 0 with u0 = 0.5: each run converges near the reference.  A start
    from which it still fails ends within 100 outer iterations
    (test_every_iterate_a_subproblem_returns_is_evaluated)."""
    report, _, _ = run_builtin("ex3", x0, u0, nodes=9)
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert report.error_metrics.sup_error <= 1e-2


def test_deep_convex_problem_is_solved_through_the_polish():
    """phi = (x1^2 + 4 x2^2) / 2 - a (x1 + x2) with x1 + x2 <= 1.5 a, a = 1e4,
    from x = 0 on 5 nodes: convex, with its minimizer (a, a / 4) inside the
    constraint.  Descent's first step falls far below the start's objective,
    so each row leaves descent as a runaway after it and the polish lands
    it: the node solve equals the one with a budget of one descent step.
    The run converges in one outer iteration with the convexity certificate."""
    a = 1e4
    prob = c.pointwise(c.ProblemDefinition(
        name="deep", n=2, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: 0.5 * (x[0] ** 2 + 4.0 * x[1] ** 2) - a * (x[0] + x[1]),
        eval_grad_phi=lambda x, t: np.array([x[0] - a, 4.0 * x[1] - a]),
        eval_g=lambda x, t: np.array([x[0] + x[1] - 1.5 * a]),
        eval_jac_g=lambda x, t: np.array([[1.0, 1.0]]),
        convexity=c.Convexity(True, (True,), ())))
    cfg = c.AlmConfig()
    report = c.solve(prob, cfg, c.Trajectory.constant(c.make_uniform_grid(1.0, 5),
                                                      [0.0, 0.0]))
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert len(report.iterations) == 1
    assert (report.certificates["sufficiency"].kind
            is c.CertificateKind.GLOBAL_OPTIMAL_BY_CONVEXITY)
    assert np.allclose(report.x.values, [a, a / 4.0], rtol=1e-9)
    mult = MultiplierSet(np.zeros(0), np.zeros(1))
    node, one_step = (c.solve_node(prob, 0.0, np.zeros(2), mult, cfg.rho_init, inner)
                      for inner in (cfg.inner, c.InnerConfig(max_iters=1)))
    assert node.status is InnerStatus.CONVERGED
    assert node.iterations < cfg.inner.max_iters
    assert node.x_star.tobytes() == one_step.x_star.tobytes()
    assert (node.iterations, node.grad_inf_norm) == (one_step.iterations,
                                                     one_step.grad_inf_norm)


def test_solve_rejects_out_of_box_initial_multipliers():
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 5)
    cfg = c.AlmConfig(bound_N=0.5)
    with pytest.raises(ValueError):
        c.solve(prob, cfg, c.Trajectory.constant(grid, [1.0, 1.0]),
                None, c.Trajectory.constant(grid, [1.0, 1.0]))


def test_solve_rejects_dimension_mismatch():
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 5)
    with pytest.raises(ValueError):
        c.solve(prob, c.AlmConfig(), c.Trajectory.constant(grid, [1.0, 1.0, 1.0]))


def test_solve_rejects_a_start_on_another_horizon():
    # ex4 runs to T = 2; a start on [0, 1] covers half of it.
    grid = c.make_uniform_grid(1.0, 43)
    with pytest.raises(ValueError, match=r"^x0 has horizon 1\.0, problem expects T=2\.0$"):
        c.solve(c.builtin("ex4"), c.AlmConfig(), c.Trajectory.constant(grid, [1.0, 1.0]))


# A bool passes operator.index: max_outer=True was a one-iteration budget.
@pytest.mark.parametrize("max_outer", [2.5, 3.0, "3", None, True])
def test_config_rejects_a_non_integer_outer_budget(max_outer):
    with pytest.raises(ValueError, match="^max_outer must be >= 1$"):
        c.AlmConfig(max_outer=max_outer)
    assert c.AlmConfig(max_outer=np.int64(3)).max_outer == 3


# inner=5 once built, and the solve died on `5.grad_tol` (AttributeError).
@pytest.mark.parametrize("inner", [5, {"grad_tol": 1e-8}, c.AlmConfig()])
def test_config_rejects_an_inner_that_is_not_an_inner_config(inner):
    with pytest.raises(ValueError, match="^inner must be None or an InnerConfig$"):
        c.AlmConfig(inner=inner)
    cfg = c.InnerConfig(grad_tol=1e-7)
    assert c.AlmConfig(inner=cfg).inner is cfg


@pytest.mark.parametrize("cfg_kwargs,x0,message", [
    ({"rho_init": 1e300}, [0.0, -1e10], "multiplier update overflowed"),
    ({"gamma": 1e300}, [0.0, 0.0], "penalty parameter overflowed"),
], ids=["multipliers", "rho"])
def test_overflow_stops_the_run(cfg_kwargs, x0, message):
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 5)
    cfg = c.AlmConfig(max_outer=3, **cfg_kwargs)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OverflowError, match=message):
        c.solve(prob, cfg, c.Trajectory.constant(grid, x0))


@pytest.mark.parametrize("cfg_kwargs,x0,message", [
    ({"rho_init": 1e300}, [0.0, -1e10], "multiplier update overflowed"),
    ({"gamma": 1e300}, [0.0, 0.0], "penalty parameter overflowed"),
], ids=["multipliers", "rho"])
def test_overflow_stops_the_run_without_a_numpy_warning(cfg_kwargs, x0, message):
    """The library raises OverflowError alone: no RuntimeWarning comes first,
    also with numpy's default error state."""
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 5)
    cfg = c.AlmConfig(max_outer=3, **cfg_kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=message):
            c.solve(prob, cfg, c.Trajectory.constant(grid, x0))


def test_overflow_is_checked_on_the_update_of_the_returned_iterate(monkeypatch):
    """The update at the warm start overflows, the one at the iterate that the
    subproblem returns does not: the run goes on, as the record uses the
    latter."""
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 5)
    monkeypatch.setattr(alm_mod, "solve_subproblem",
                        lambda problem, ts, xs, *rest: (np.zeros_like(xs),
                                                        InnerStatus.CONVERGED, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = c.solve(prob, c.AlmConfig(rho_init=1e300, max_outer=1),
                         c.Trajectory.constant(grid, [0.0, -1e10]))
    assert report.status is SolveStatus.MAX_OUTER_REACHED
    assert report.v.values.tolist() == [[0.0, 0.0]] * 5


def test_rho_monotone_and_growth_matches_progress_rule(ex4_run):
    report, prob, cfg = ex4_run
    records = report.iterations
    rhos = [r.rho for r in records]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    # baseline infeasibility from the documented start x0 = (1, 1)
    grid = report.grid
    v0 = max(float(np.maximum(prob.eval_g(np.array([1.0, 1.0]), t), 0.0).max())
             for t in grid.nodes)
    prev = v0
    for i in range(len(records) - 1):
        grew = records[i + 1].rho > records[i].rho
        assert grew == (records[i].infeas_measure > cfg.tau * prev)
        prev = records[i].infeas_measure


def test_multiplier_min_nonnegative_every_iteration(ex2_run, ex4_run):
    for report, _, _ in (ex2_run, ex4_run):
        for rec in report.iterations:
            assert rec.residuals.multiplier_min >= 0.0
        assert np.min(report.v.values) >= 0.0


def test_safeguards_respected_with_small_boxes(monkeypatch):
    """Spy on the projection to confirm every safeguarded iterate stays boxed."""
    seen = []
    original = alm_mod.safeguard_project

    def spy(u, v, bound_M, bound_N):
        out = original(u, v, bound_M, bound_N)
        seen.append((out[0].copy(), out[1].copy(), bound_M, bound_N))
        return out

    monkeypatch.setattr(alm_mod, "safeguard_project", spy)
    prob = c.builtin("infeasible1")
    grid = c.make_uniform_grid(1.0, 9)
    cfg = c.AlmConfig(bound_N=2.5, max_outer=40)
    report = c.solve(prob, cfg, c.Trajectory.constant(grid, [5.0]))
    assert seen
    for u, v, M, N in seen:
        if u.size:
            assert np.abs(u).max() <= M
        if v.size:
            assert v.min() >= 0.0 and v.max() <= N
    # the inequality multiplier keeps getting clipped at the box edge
    assert np.max(report.v.values) >= 2.5


def test_final_objective_small_on_zero_value_problems(ex1_run, ex2_run, ex3_run):
    for report, _, _ in (ex1_run, ex2_run, ex3_run):
        assert abs(report.final.objective_quadrature) <= 1e-3


def test_deterministic_records():
    a = run_builtin("ex1", [1.0, 1.0], v0=[1.0, 1.0], nodes=41)
    b = run_builtin("ex1", [1.0, 1.0], v0=[1.0, 1.0], nodes=41)
    rows_a = [r.csv_row() for r in a[0].iterations]
    rows_b = [r.csv_row() for r in b[0].iterations]
    assert rows_a == rows_b


def test_placeholders_for_absent_constraints_change_no_byte(ex1_run, ex4_run):
    """ex1 and ex4 (p = 0), given the empty-row evaluators of h the built-ins
    once carried, solve to the same bytes as built, and the placeholders
    are never called."""
    calls = []

    def no_rows(x, t):
        calls.append("h")
        return np.zeros(np.shape(x)[:-1] + (0,))

    def no_jacobian(x, t):
        calls.append("jac_h")
        return np.zeros(np.shape(x)[:-1] + (0, np.shape(x)[-1]))

    for name, (built, _, _) in (("ex1", ex1_run), ("ex4", ex4_run)):
        problem = dataclasses.replace(c.builtin(name), eval_h=no_rows,
                                      eval_jac_h=no_jacobian)
        report, _, _ = run_builtin(problem, *RUN_STARTS[name])
        assert report.status == built.status
        assert len(report.iterations) == len(built.iterations)
        assert ([r.csv_row() for r in report.iterations]
                == [r.csv_row() for r in built.iterations])
        for traj in ("x", "u", "v"):
            assert (getattr(report, traj).values.tobytes()
                    == getattr(built, traj).values.tobytes()), (name, traj)
    assert calls == []


def test_inner_failure_after_persistent_divergence():
    prob = c.pointwise(c.ProblemDefinition(
        name="runaway", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: -x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([-2.0 * x[0]]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 1)),
        convexity=c.Convexity(False, (), ())))
    grid = c.make_uniform_grid(1.0, 3)
    report = c.solve(prob, c.AlmConfig(max_outer=200),
                     c.Trajectory.constant(grid, [1.0]))
    assert report.status is SolveStatus.INNER_FAILURE
    assert len(report.iterations) == 50
    assert all(r.inner_worst_status is InnerStatus.DIVERGED
               for r in report.iterations)


# Subproblem calls and evaluator calls of the ex4 and infeasible1 runs of
# tests/conftest.py.  ex4 calls the subproblem in each of its 95 outer
# iterations, infeasible1 in 4 of its 1,000: in the others every node starts
# within grad_tol, and the loop keeps its warm start without the call.  Each
# evaluator count holds the outer loop's evaluations, 96 (ex4) and 5
# (infeasible1): one of x0 and one of each iterate a subproblem returned.
# Beyond those, phi and g are called once per descent trial block:
# the first trial of each Armijo pass (523 and 11) and each block of halvings
# after it (246 and 15).
# A block holds 128 // R halvings of each of the R rows still backtracking,
# so infeasible1, whose 85 identical rows backtrack together, tries one
# halving per call.  grad_phi and jac_g are called once per trial block that
# picks a point (677 and 11); neither run polishes.  Evaluating the warm
# starts again, the kept warm start of a stalled iteration again, h and g
# again for the gradient at picked points, or each halving of ex4 in a call
# of its own, would raise them (ex4 phi: 1,061).
@pytest.mark.parametrize("name,expected", [
    ("ex4", (95, {"phi": 865, "grad_phi": 773, "g": 865, "jac_g": 773})),
    ("infeasible1", (4, {"phi": 31, "grad_phi": 16, "g": 31, "jac_g": 16})),
])
def test_each_point_is_evaluated_once(name, expected, monkeypatch):
    subproblems, evaluations = expected
    problem, calls = counting(c.builtin(name))
    # Evaluator calls each subproblem makes before its first descent step,
    # or in all when it takes none.
    before_first_step = []
    solve_subproblem, armijo_pass = alm_mod.solve_subproblem, inner_mod._armijo_pass

    def subproblem(*args, **kwargs):
        mark = [sum(calls.values()), None]
        before_first_step.append(mark)
        result = solve_subproblem(*args, **kwargs)
        if mark[1] is None:
            mark[1] = sum(calls.values()) - mark[0]
        return result

    def step(*args, **kwargs):
        mark = before_first_step[-1]
        if mark[1] is None:
            mark[1] = sum(calls.values()) - mark[0]
        return armijo_pass(*args, **kwargs)

    monkeypatch.setattr(alm_mod, "solve_subproblem", subproblem)
    monkeypatch.setattr(inner_mod, "_armijo_pass", step)
    run_builtin(problem, *RUN_STARTS[name])
    assert [calls for _, calls in before_first_step] == [0] * subproblems
    assert dict(calls) == evaluations


# Evaluator calls of ex3 at 17 nodes from its conftest start, where no node
# converges in descent and the polish lands every one: in the first
# subproblem after the whole descent budget, in the later ones once the row
# runs away.  The outer loop evaluates x0 and 9 changed iterates (10 calls of
# each).  phi is called once per descent trial block: 654 Armijo passes make
# 878 trial calls.  grad_phi and jac_h are called once per descent block
# that picks a point (654), and once per augmented gradient of the polish
# and the fallback (774: 9 polish starts, 321 for the central differences of
# the psi gradient, one call for both sides of each, 442 polish trial blocks
# and 2 fallbacks); h and g once per descent trial block and once per such
# gradient.  Descent that ran every row to its budget made 6,283 phi, 7,057
# h and g and 5,278 gradient calls; a trial call per halving besides made
# 11,706 phi and 13,189 h and g calls, and 5,987 gradient calls.
def test_ex3_backtracks_in_blocks_of_halvings():
    problem, calls = counting(c.builtin("ex3"))
    report, _, _ = run_builtin(problem, *RUN_STARTS["ex3"], nodes=17)
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert dict(calls) == {"phi": 888, "grad_phi": 1438, "h": 1662, "jac_h": 1438,
                           "g": 1662, "jac_g": 1438}


def record_update_passes(monkeypatch):
    """Wrap the outer loop's calls, one entry per outer iteration: the lists
    of the iterates each iteration ends at (the subproblem's solution, or the
    warm start of an iteration that does not call it), whether each differs
    from its warm start bit for bit (the loop evaluates a solution either
    way), each iteration's multipliers and rho, and what its residuals were
    computed from (bundle, gradient rows and v); and the list of the
    arguments of each evaluate_all call, x0's first."""
    solve_subproblem, at_start = alm_mod.solve_subproblem, alm_mod._at_start
    residuals = alm_mod._residuals
    returned, moved, inputs, kept, evaluations = [], [], [], [], []

    def started(bundle, gradient, us, vs, rho):
        returned.append(returned[-1] if returned else evaluations[0][1])
        moved.append(False)
        inputs.append((us, vs, rho))
        return at_start(bundle, gradient, us, vs, rho)

    def subproblem(problem, ts, xs, us, vs, rho, *rest):
        assert xs is returned[-1] and us is inputs[-1][0] and vs is inputs[-1][1]
        assert rho == inputs[-1][2]
        out = solve_subproblem(problem, ts, xs, us, vs, rho, *rest)
        returned[-1], moved[-1] = out[0], out[0].tobytes() != xs.tobytes()
        return out

    def recorded(spacing, bundle, gradient, v, *rest):
        kept.append((bundle, gradient, v))
        return residuals(spacing, bundle, gradient, v, *rest)

    def evaluated(*args):
        evaluations.append(args)
        return evaluate_all(*args)

    monkeypatch.setattr(alm_mod, "_at_start", started)
    monkeypatch.setattr(alm_mod, "solve_subproblem", subproblem)
    monkeypatch.setattr(alm_mod, "_residuals", recorded)
    monkeypatch.setattr(alm_mod, "evaluate_all", evaluated)
    return returned, moved, inputs, kept, evaluations


def assert_same_bits(a, b, what):
    assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), what


# Outer iterations of the ex4 and infeasible1 runs of tests/conftest.py whose
# subproblem changed the iterate.
@pytest.mark.parametrize("name,moves", [("ex4", 95), ("infeasible1", 4)])
def test_update_pass_uses_the_evaluation_of_the_returned_iterate(name, moves,
                                                                  monkeypatch):
    """Each record's residuals, the next subproblem's multipliers and the
    returned multipliers come from the evaluation of the iterate that the
    subproblem returned, bit for bit: its bundle, its multiplier update and
    the Lagrangian gradient at that update."""
    returned, moved, inputs, kept, evaluations = record_update_passes(monkeypatch)
    report, problem, cfg = run_builtin(name, *RUN_STARTS[name])
    assert len(returned) == len(inputs) == len(kept) == len(report.iterations)
    updates = []
    for xs, (us, vs, rho), (bundle, gradient, v) in zip(returned, inputs, kept):
        fresh = evaluate_all(problem, xs, report.grid.nodes)
        for f in dataclasses.fields(EvalBundle):
            assert_same_bits(getattr(bundle, f.name), getattr(fresh, f.name), f.name)
        u_fresh, v_fresh = multiplier_update(fresh, us, vs, rho)
        assert_same_bits(v, v_fresh, "v")
        assert_same_bits(gradient, lagrangian._weighted_gradient(fresh, u_fresh, v_fresh),
                         "gradient")
        updates.append((u_fresh, v_fresh))
    for (u, v), (us, vs, _) in zip(updates, inputs[1:]):
        projected = safeguard_project(u, v, cfg.bound_M, cfg.bound_N)
        assert_same_bits(us, projected[0], "next u~")
        assert_same_bits(vs, projected[1], "next v~")
    assert_same_bits(report.x.values, returned[-1], "returned x")
    assert_same_bits(report.u.values, updates[-1][0], "returned u")
    assert_same_bits(report.v.values, updates[-1][1], "returned v")
    # x0, then each iterate a subproblem returned, changed or not (every one
    # on these runs changed); the warm start of an iteration that does not
    # call the subproblem reuses the bundle it holds.
    assert sum(moved) == moves
    assert len(evaluations) == 1 + moves


# Calls of the multiplier update and of the Lagrangian gradient in the ex4 and
# infeasible1 runs of tests/conftest.py.  The outer loop computes both at each
# warm start, hands the gradient to the subproblem in its start record, and
# computes them again at each iterate a subproblem returns (95 and 4 of
# them); each other call is a descent trial block that picks a point (677
# and 11).  Computing them again at the kept warm start of a stalled
# iteration would raise them (infeasible1: 2,011 each), and so would
# computing them in the subproblem at its start, or a gradient per halving
# that accepts a point (ex4: 917).
@pytest.mark.parametrize("name,expected", [("ex4", 867), ("infeasible1", 1015)])
def test_update_and_gradient_are_computed_once_per_iterate(name, expected, monkeypatch):
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (lagrangian.multiplier_update, lagrangian._weighted_gradient):
        wrapper = counted(fn)
        for module in (lagrangian, alm_mod):
            monkeypatch.setattr(module, fn.__name__, wrapper)
    run_builtin(name, *RUN_STARTS[name])
    assert dict(calls) == {"multiplier_update": expected, "_weighted_gradient": expected}


@pytest.mark.parametrize("name", ["ex4", "infeasible1"])
def test_logged_objective_and_violation_are_those_of_each_iterate(name, monkeypatch):
    """The loop keeps the objective and the violation beside the evaluation
    it keeps; each record's must equal a fresh evaluation's, bit for bit."""
    returned, _, _, _, _ = record_update_passes(monkeypatch)
    report, problem, _ = run_builtin(name, *RUN_STARTS[name])
    assert len(returned) == len(report.iterations)
    for xs, record in zip(returned, report.iterations):
        fresh = evaluate_all(problem, xs, report.grid.nodes)
        objective = _trapezoid_sum(fresh.phi, report.grid.spacing)
        assert record.objective_quadrature.hex() == objective.hex()
        assert (record.residuals.primal_infeasibility.hex()
                == max(violations(fresh)).hex())


# Outer iterations of each run that do not call the subproblem: the conftest
# runs, and infeasible1 from the seeded start of tools/output_digest.py
# (seed 11, half-width 0.5).
@pytest.mark.parametrize("name,seed,skipped", [
    ("ex1", None, 0), ("ex2", None, 0), ("ex3", None, 0), ("ex4", None, 0),
    ("infeasible1", None, 996), ("infeasible1", 11, 955),
])
def test_a_stalled_iteration_does_no_subproblem_work(name, seed, skipped, monkeypatch):
    """An outer iteration calls the subproblem unless every node starts
    within grad_tol, and one that does not calls no evaluator either: it
    keeps its warm start, which a solve of its batch returns Converged after 0
    iterations at every row, with the logged worst status and gradient norm.
    Each iteration's warm start, multipliers, rho and gradient pass the
    subproblem's input checks with its start record, so skipping the checks
    hides no error."""
    base = c.builtin(name)
    problem, calls = counting(base)
    x0, u0, v0 = RUN_STARTS[name]
    grid = c.make_uniform_grid(problem.horizon, 85)
    xs0 = np.tile(np.asarray(x0, dtype=float), (85, 1))
    if seed is not None:
        xs0 += np.random.default_rng(seed).uniform(-0.5, 0.5, size=xs0.shape)
    x0_traj = c.Trajectory(grid, xs0)
    at_start, solve_subproblem = alm_mod._at_start, alm_mod.solve_subproblem
    residuals, solve_rows = alm_mod._residuals, inner_mod._solve_rows
    # Per outer iteration: the loop's subproblem inputs, its evaluator calls
    # from the start record to the residuals, and the rows of the
    # subproblem's solve when it calls one.
    iterations, current = [], [x0_traj.values]

    def started(bundle, gradient, us, vs, rho):
        start = at_start(bundle, gradient, us, vs, rho)
        iterations.append({"inputs": (current[0], us, vs, rho, start),
                           "calls": sum(calls.values()), "rows": None})
        return start

    def subproblem(problem, ts, xs, us, vs, rho, cfg, start):
        assert all(a is b for a, b in zip((xs, us, vs, rho, start),
                                          iterations[-1]["inputs"]))
        out = solve_subproblem(problem, ts, xs, us, vs, rho, cfg, start)
        current[0] = out[0]
        return out

    def rows(*args):
        out = solve_rows(*args)
        iterations[-1]["rows"] = out
        return out

    def recorded(*args):
        iterations[-1]["calls"] = sum(calls.values()) - iterations[-1]["calls"]
        return residuals(*args)

    monkeypatch.setattr(alm_mod, "_at_start", started)
    monkeypatch.setattr(alm_mod, "solve_subproblem", subproblem)
    monkeypatch.setattr(inner_mod, "_solve_rows", rows)
    monkeypatch.setattr(alm_mod, "_residuals", recorded)
    cfg = c.AlmConfig()
    report = c.solve(problem, cfg, x0_traj,
                     *(None if a is None else c.Trajectory.constant(grid, a)
                       for a in (u0, v0)))
    monkeypatch.undo()
    assert len(iterations) == len(report.iterations)
    assert_same_bits(report.x.values, current[0], "returned x")
    stalled = 0
    for it, record in zip(iterations, report.iterations):
        xs, us, vs, rho, start = it["inputs"]
        inner_mod._check_rows(base, grid.nodes, xs, us, vs, rho, start)
        if it["rows"] is None:
            stalled += 1
            assert it["calls"] == 0, record.k
            x, grad, iters, status = solve_rows(base, grid.nodes, xs, us, vs, rho,
                                                cfg.inner, start)
            assert_same_bits(x, xs, record.k)
        else:
            x, grad, iters, status = it["rows"]
        ends_at_start = not (iters.any() or status.any())  # _CONVERGED is 0
        assert ends_at_start == (it["rows"] is None), record.k
        if ends_at_start:
            assert record.inner_worst_status is InnerStatus.CONVERGED
            assert record.inner_max_grad.hex() == max(0.0, float(grad.max())).hex()
    assert stalled == skipped


# Outer iterations of the ex4 and infeasible1 runs of tests/conftest.py.
@pytest.mark.parametrize("name,outer", [("ex4", 95), ("infeasible1", 1000)])
def test_the_start_is_built_once_per_outer_iteration(name, outer, monkeypatch):
    """The outer loop builds each iteration's start record once and hands it
    to the subproblem, whose descent starts from it: `_at_start` runs once
    per outer iteration, also in the iterations that call the subproblem."""
    at_start, built = inner_mod._at_start, []

    def counted(*args):
        built.append(args)
        return at_start(*args)

    for module in (inner_mod, alm_mod):
        monkeypatch.setattr(module, "_at_start", counted)
    report, _, _ = run_builtin(name, *RUN_STARTS[name])
    assert len(report.iterations) == outer
    assert len(built) == outer


def test_every_iterate_a_subproblem_returns_is_evaluated(monkeypatch):
    """ex3 on 9 nodes from x0 = (-100, -100, -100), u0 = 1.01, v0 = (1, 1)
    fails in its subproblems and stops after 55 outer iterations on
    InnerFailure.  In 43 of them the subproblem returns its warm start bit
    for bit; the loop evaluates that iterate as it evaluates the others, and
    each record's residuals are those of the iterate's own evaluation."""
    returned, moved, inputs, kept, evaluations = record_update_passes(monkeypatch)
    report, problem, _ = run_builtin("ex3", [-100.0, -100.0, -100.0], [1.01],
                                    [1.0, 1.0], nodes=9)
    assert report.status is SolveStatus.INNER_FAILURE
    assert len(report.iterations) == len(returned) == 55
    assert len(moved) - sum(moved) == 43
    assert len(evaluations) == 1 + 55
    for xs, (_, xs_evaluated, _), (bundle, gradient, v), (us, vs, rho) in zip(
            returned, evaluations[1:], kept, inputs):
        assert xs_evaluated is xs
        fresh = evaluate_all(problem, xs, report.grid.nodes)
        for f in dataclasses.fields(EvalBundle):
            assert_same_bits(getattr(bundle, f.name), getattr(fresh, f.name), f.name)
        u_fresh, v_fresh = multiplier_update(fresh, us, vs, rho)
        assert_same_bits(v, v_fresh, "v")
        assert_same_bits(gradient, lagrangian._weighted_gradient(fresh, u_fresh, v_fresh),
                         "gradient")


@pytest.mark.parametrize("run", ["ex1_run", "ex2_run", "ex3_run", "ex4_run",
                                 "infeasible1_run"])
def test_final_residuals_equal_those_of_check(run, request):
    """The stop test and `ctpalm check` share one residual function: the last
    record's residuals are akkt_residuals of the returned iterate."""
    report, problem, _ = request.getfixturevalue(run)
    fresh = c.akkt_residuals(report.grid,
                             evaluate_all(problem, report.x.values, report.grid.nodes),
                             report.u, report.v)
    for f in dataclasses.fields(c.Residuals):
        a, b = getattr(report.final.residuals, f.name), getattr(fresh, f.name)
        assert a.hex() == b.hex(), f.name


def test_update_pass_evaluates_an_iterate_that_differs_only_in_a_zero_sign(
        monkeypatch):
    """-0.0 == 0.0, yet phi = copysign(1, x) + x tells them apart: the outer
    loop evaluates the iterate the subproblem returns, not one it compares
    equal to.  The gradient is 1 everywhere, so no start is stationary and
    the loop calls the subproblem."""
    prob = c.pointwise(c.ProblemDefinition(
        name="signed", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: np.copysign(1.0, x[0]) + x[0],
        eval_grad_phi=lambda x, t: np.ones(1),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 1)),
        convexity=c.Convexity(False, (), ())))
    _, _, _, kept, evaluations = record_update_passes(monkeypatch)
    flips = []

    def flipped(problem, ts, xs, *rest):
        out = xs.copy()
        out[1, 0] = -0.0
        flips.append(out)
        return out, InnerStatus.CONVERGED, 0.0

    monkeypatch.setattr(alm_mod, "solve_subproblem", flipped)
    grid = c.make_uniform_grid(1.0, 3)
    report = c.solve(prob, c.AlmConfig(max_outer=1), c.Trajectory.constant(grid, [0.0]))
    assert len(flips) == 1 and len(evaluations) == 2
    assert len(kept) == 1 and np.array_equal(kept[0][0].phi, [1.0, -1.0, 1.0])
    assert np.signbit(report.x.values[:, 0]).tolist() == [False, True, False]
    # The objective is the trapezoid of phi = (1, -1, 1); the bundle of x0
    # would give 1.0.
    assert report.final.objective_quadrature == 0.0


def test_only_the_start_is_blamed_for_its_evaluation(monkeypatch):
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 3)
    with pytest.raises(StartEvaluationError, match="^phi returned a non-finite") as err:
        c.solve(prob, c.AlmConfig(), c.Trajectory.constant(grid, [1e200, 0.0]))
    assert err.value.t == 0.0 and np.array_equal(err.value.x, [1e200, 0.0])
    # A later iterate that overflows is not the start's fault.
    monkeypatch.setattr(alm_mod, "solve_subproblem",
                        lambda problem, ts, xs, *rest: (np.full_like(xs, 1e200),
                                                        InnerStatus.CONVERGED, 0.0))
    with pytest.raises(EvaluationError) as err:
        c.solve(prob, c.AlmConfig(), c.Trajectory.constant(grid, [1.0, 1.0]))
    assert type(err.value) is EvaluationError


def test_certificates_attached_by_status(ex1_run, infeasible1_run):
    converged, _, _ = ex1_run
    assert converged.certificates["akkt"].kind is c.CertificateKind.AKKT_HOLDS
    assert converged.certificates["infeasibility"] is None
    stalled, _, _ = infeasible1_run
    assert stalled.status is SolveStatus.MAX_OUTER_REACHED
    assert stalled.certificates["akkt"] is None
    assert (stalled.certificates["infeasibility"].kind
            is c.CertificateKind.INFEASIBLE_BUT_THETA_STATIONARY)


# N -> (outer iterations, sufficiency verdict, min pairing sum) of ex4 under
# the default config from the conftest start.
_EX4_MESH_RECORD = {
    85: (95, c.CertificateKind.GLOBAL_OPTIMAL_BY_CONVEXITY, -7.59e-7),
    169: (183, c.CertificateKind.HYPOTHESIS_VIOLATED, -3.35e-6),
    341: (342, c.CertificateKind.HYPOTHESIS_VIOLATED, -2.22e-6),
}


@pytest.mark.parametrize("nodes", _EX4_MESH_RECORD)
def test_ex4_outer_count_and_certificate_depend_on_the_mesh(nodes, ex4_run):
    """A record of the mesh dependence of ROADMAP item 11, not a bound: ex4's
    outer iterations grow with N, and from N = 169 the stop no longer implies
    the sufficiency test (tolerance 1e-6, ten times tighter than eps_stop).
    This test is expected to fail, and be rewritten, once item 11 lands."""
    report = (ex4_run[0] if nodes == 85
              else run_builtin("ex4", *RUN_STARTS["ex4"], nodes=nodes)[0])
    outer, verdict, pairing = _EX4_MESH_RECORD[nodes]
    sufficiency = report.certificates["sufficiency"]
    assert report.status is SolveStatus.AKKT_CONVERGED
    assert (len(report.iterations), sufficiency.kind) == (outer, verdict)
    assert sufficiency.evidence["min_pairing_sum"] == pytest.approx(pairing, rel=1e-2)
