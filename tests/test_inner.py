"""Node solver behavior: convergence, divergence, Armijo compliance, input
checks, node independence, and bit equality of the lockstep solver with the
per-node reference solver.  Agreement with the brute-force lattice oracle is
acceptance criterion 10 (tests/test_acceptance.py)."""

import numpy as np
import pytest

import ctpalm as c
import ctpalm.inner as inner_mod
import node_solver_reference as reference
from ctpalm.inner import _BY_SEVERITY, InnerStatus, _solve_rows
from ctpalm.lagrangian import MultiplierSet
from ctpalm.problems import evaluate_all
from conftest import counting, unconstrained_quadratic
from testkit import FdConfig, aug_lagrangian_value, fd_gradient


def shifted_quadratic():
    target = np.array([3.0, -2.0])
    return c.pointwise(c.ProblemDefinition(
        name="shifted_quad", n=2, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: float((x - target) @ (x - target)),
        eval_grad_phi=lambda x, t: 2.0 * (x - target),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 2)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 2)),
        convexity=c.Convexity(True, (), ())))


def concave_scalar():
    return c.pointwise(c.ProblemDefinition(
        name="concave", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: -x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([-2.0 * x[0]]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 1)),
        convexity=c.Convexity(False, (), ())))


# -- solve_node --------------------------------------------------------------

def test_node_converges_on_strictly_convex_quadratic():
    cfg = c.InnerConfig(grad_tol=1e-8)
    result = c.solve_node(shifted_quadratic(), 0.0, np.zeros(2),
                          MultiplierSet(), 1.0, cfg)
    assert result.status is InnerStatus.CONVERGED
    assert result.grad_inf_norm <= cfg.grad_tol
    assert np.allclose(result.x_star, [3.0, -2.0], atol=1e-7)


def test_node_finds_hand_solved_stationary_point():
    cfg = c.InnerConfig(grad_tol=1e-8)
    result = c.solve_node(c.builtin("ex1"), 0.4, np.array([1.0, 1.0]),
                          MultiplierSet(v=np.array([1.0, 1.0])), 1.0, cfg)
    assert result.status is InnerStatus.CONVERGED
    assert np.allclose(result.x_star, [0.0, 0.5], atol=1e-6)


def test_node_reports_divergence_on_unbounded_objective():
    result = c.solve_node(concave_scalar(), 0.0, np.array([1.0]),
                          MultiplierSet(), 1.0, c.InnerConfig())
    assert result.status is InnerStatus.DIVERGED


@pytest.mark.parametrize("max_iters", [2.5, 3.0, "3", None])
def test_config_rejects_a_non_integer_descent_budget(max_iters):
    with pytest.raises(ValueError, match=r"^max_iters must lie in \[1, "):
        c.InnerConfig(max_iters=max_iters)
    assert c.InnerConfig(max_iters=np.int64(3)).max_iters == 3


def test_node_rejects_bad_inputs():
    with pytest.raises(ValueError):
        c.solve_node(shifted_quadratic(), 0.0, np.zeros(2), MultiplierSet(), -1.0,
                     c.InnerConfig())
    with pytest.raises(ValueError):
        c.solve_node(shifted_quadratic(), 0.0, np.array([np.nan, 0.0]),
                     MultiplierSet(), 1.0, c.InnerConfig())


def test_converged_result_satisfies_tolerance_invariant():
    cfg = c.InnerConfig(grad_tol=1e-6)
    for t in (0.0, 0.5, 1.0):
        result = c.solve_node(c.builtin("ex2"), t, np.array([0.5, 0.5]),
                              MultiplierSet(v=np.ones(3)), 1.0, cfg)
        if result.status is InnerStatus.CONVERGED:
            assert result.grad_inf_norm <= cfg.grad_tol


def test_armijo_acceptance_holds_on_every_accepted_step(monkeypatch):
    """Each step the lockstep solver accepts meets the Armijo inequality; the
    step length is recovered from the move along -gr."""
    steps = []
    armijo_pass = inner_mod._armijo_pass

    def observed(w, *args):
        rows, x, f, gr = w.rows, w.x.copy(), w.f.copy(), w.gr.copy()
        armijo_pass(w, *args)
        accepted = np.isin(rows, w.rows)
        for x_old, f_old, g, x_new, f_new in zip(x[accepted], f[accepted], gr[accepted],
                                                 w.x, w.f):
            steps.append((f_old, f_new, (x_old - x_new) @ g / (g @ g), -(g @ g)))

    monkeypatch.setattr(inner_mod, "_armijo_pass", observed)
    c.solve_node(c.builtin("ex1"), 0.2, np.array([4.0, -3.0]),
                 MultiplierSet(v=np.array([1.0, 1.0])), 1.0, c.InnerConfig(grad_tol=1e-9))
    assert steps, "expected at least one accepted step"
    for f_old, f_new, alpha, slope in steps:
        assert f_new <= f_old + inner_mod._ARMIJO_C * alpha * slope + 1e-15
        assert slope <= 0.0


# -- solve_subproblem --------------------------------------------------------

def test_subproblem_constant_problem_gives_identical_rows():
    prob = shifted_quadratic()
    grid = c.make_uniform_grid(1.0, 7)
    warm = np.zeros((7, 2))
    empty = np.zeros((7, 0))
    xs, worst, max_grad = c.solve_subproblem(prob, grid.nodes, warm, empty, empty,
                                             1.0, c.InnerConfig())
    assert worst is InnerStatus.CONVERGED
    for i in range(1, 7):
        assert np.array_equal(xs[i], xs[0])


def test_subproblem_rejects_bad_inputs():
    prob = c.builtin("ex1")
    ts = c.make_uniform_grid(1.0, 4).nodes
    xs, us, vs = np.ones((4, 2)), np.zeros((4, 0)), np.ones((4, 2))
    nan_start = xs.copy()
    nan_start[2, 1] = np.nan
    cfg = c.InnerConfig()
    for x, u, v, rho in [(xs, us, vs, -1.0),                 # rho <= 0
                         (nan_start, us, vs, 1.0),           # warm start not finite
                         (xs, us, -vs, 1.0),                 # v < 0
                         (xs, us, np.full((4, 2), np.inf), 1.0)]:  # not finite
        with pytest.raises(ValueError):
            c.solve_subproblem(prob, ts, x, u, v, rho, cfg)
    # Row counts other than one per time.
    for x, u, v in [(xs, np.zeros((5, 0)), vs), (xs, us, np.ones((5, 2))),
                    (xs, np.zeros((3, 0)), vs), (np.ones((5, 2)), us, vs)]:
        with pytest.raises(ValueError, match="one row per time"):
            c.solve_subproblem(prob, ts, x, u, v, 1.0, cfg)
    c.solve_subproblem(prob, ts, xs, us, vs, 1.0, cfg)


def test_entries_reject_rows_of_the_wrong_width():
    """Both entries check the widths n, p and m, and name the argument with
    the expected and the given shape."""
    ts, cfg = c.make_uniform_grid(1.0, 4).nodes, c.InnerConfig()
    ex1, ex3 = c.builtin("ex1"), c.builtin("ex3")
    for prob, x, u, v, message in [
            (ex1, np.ones((4, 2)), np.zeros((4, 0)), np.ones((4, 1)),
             r"vs must have shape \(4, 2\), got \(4, 1\)"),
            (ex3, np.ones((4, 3)), np.zeros((4, 2)), np.ones((4, 2)),
             r"us must have shape \(4, 1\), got \(4, 2\)"),
            (ex1, np.ones((4, 3)), np.zeros((4, 0)), np.ones((4, 2)),
             r"xs must have shape \(4, 2\), got \(4, 3\)"),
            (ex3, np.ones((4, 4)), np.zeros((4, 1)), np.ones((4, 2)),
             r"xs must have shape \(4, 3\), got \(4, 4\)")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            c.solve_subproblem(prob, ts, x, u, v, 1.0, cfg)
    for prob, x, mult, message in [
            (ex1, np.ones(2), MultiplierSet(v=[1.0]),
             r"safeguarded.v must have shape \(2,\), got \(1,\)"),
            (ex3, np.ones(3), MultiplierSet([1.0, 1.0], [1.0, 1.0]),
             r"safeguarded.u must have shape \(1,\), got \(2,\)"),
            (ex1, np.ones(3), MultiplierSet(v=[1.0, 1.0]),
             r"x_init must have shape \(2,\), got \(3,\)"),
            (ex3, np.ones(4), MultiplierSet([1.0], [1.0, 1.0]),
             r"x_init must have shape \(3,\), got \(4,\)")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            c.solve_node(prob, 0.4, x, mult, 1.0, cfg)
    # Row counts are tested first, with their own message.
    with pytest.raises(ValueError, match="one row per time"):
        c.solve_subproblem(ex1, ts, np.ones((5, 3)), np.zeros((4, 0)), np.ones((4, 1)),
                           1.0, cfg)


def test_subproblem_multiplier_checks_keep_their_messages_and_order():
    """Sign first, then finiteness, on p > 0 as well as m > 0."""
    prob = c.builtin("ex3")
    ts = c.make_uniform_grid(1.0, 4).nodes
    xs, us, vs = np.ones((4, 3)), np.zeros((4, 1)), np.ones((4, 2))
    cfg = c.InnerConfig()
    inf_u, nan_v, negative_and_inf_v = us.copy(), vs.copy(), vs.copy()
    inf_u[1, 0] = -np.inf
    nan_v[3, 1] = np.nan
    negative_and_inf_v[0, 0] = np.inf
    negative_and_inf_v[2, 1] = -1.0
    for u, v, message in [(inf_u, vs, "multipliers must be finite"),
                          (us, nan_v, "multipliers must be finite"),
                          (us, negative_and_inf_v,
                           "inequality multipliers must be nonnegative")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            c.solve_subproblem(prob, ts, xs, u, v, 1.0, cfg)


def test_subproblem_matches_independent_node_solves_in_any_order():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 9)
    cfg = c.InnerConfig()
    warm = np.full((9, 2), 0.5)
    u0 = np.zeros((9, 0))
    v0 = np.ones((9, 3))
    xs, worst, max_grad = c.solve_subproblem(prob, grid.nodes, warm, u0, v0, 1.0, cfg)

    order = np.random.default_rng(0).permutation(9)
    results = {}
    for i in order:
        results[i] = c.solve_node(prob, grid.nodes[i], warm[i],
                                  MultiplierSet(v=v0[i]), 1.0, cfg)
    for i in range(9):
        assert np.array_equal(xs[i], results[i].x_star)
    assert max_grad == max(r.grad_inf_norm for r in results.values())


def test_subproblem_every_node_converges_on_ex2():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 85)
    cfg = c.InnerConfig(grad_tol=1e-6)
    warm = np.full((85, 2), 0.5)
    u0 = np.zeros((85, 0))
    v0 = np.ones((85, 3))
    xs, worst, max_grad = c.solve_subproblem(prob, grid.nodes, warm, u0, v0, 1.0, cfg)
    assert worst is InnerStatus.CONVERGED
    assert max_grad <= cfg.grad_tol
    # independent stationarity check through central differences
    for i in (0, 42, 84):
        t = grid.nodes[i]
        mult = MultiplierSet(v=v0[i])
        fd = fd_gradient(lambda z: aug_lagrangian_value(prob, z, mult, 1.0, t),
                         xs[i], FdConfig(step=1e-7))
        assert np.max(np.abs(fd)) <= 1e-4


def test_subproblem_two_node_grid():
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 2)
    cfg = c.InnerConfig()
    warm = np.ones((2, 2))
    u0 = np.zeros((2, 0))
    v0 = np.ones((2, 2))
    xs, worst, _ = c.solve_subproblem(prob, grid.nodes, warm, u0, v0, 1.0, cfg)
    for i in (0, 1):
        solo = c.solve_node(prob, grid.nodes[i], warm[i],
                            MultiplierSet(v=v0[i]), 1.0, cfg)
        assert np.array_equal(xs[i], solo.x_star)


# -- warm starts ---------------------------------------------------------------

def test_warm_start_no_worse_than_cold_on_linear_problem():
    """Drive the outer iteration on the linear instance by hand and compare
    inner iteration counts from warm and cold starts (median over the run)."""
    prob = c.builtin("ex4")
    grid = c.make_uniform_grid(prob.horizon, 21)
    cfg = c.InnerConfig()
    nodes = grid.nodes
    rho = 1.0
    x = c.Trajectory.constant(grid, [1.0, 1.0]).values.copy()
    v = np.ones((21, 5))
    warm_counts, cold_counts = [], []
    for outer in range(12):
        warm_total = cold_total = 0
        for i in range(21):
            mult = MultiplierSet(v=v[i])
            warm = c.solve_node(prob, nodes[i], x[i], mult, rho, cfg)
            cold = c.solve_node(prob, nodes[i], np.zeros(2), mult, rho, cfg)
            warm_total += warm.iterations
            cold_total += cold.iterations
            x[i] = warm.x_star
            g = prob.eval_g(x[i], nodes[i])
            v[i] = np.maximum(v[i] + rho * g, 0.0)
        if outer > 0:  # first pass has no history to benefit from
            warm_counts.append(warm_total)
            cold_counts.append(cold_total)
        rho *= 1.001
    assert np.median(warm_counts) <= np.median(cold_counts)


# -- lockstep rows against the per-node reference -------------------------------

# (x0, u0, v0, nodes) of the tests/conftest.py runs; akkt_example has none
# there, and ex3 takes the benchmark's 17 nodes to keep the reference fast.
CONFTEST_STARTS = {
    "ex1": ([1.0, 1.0], [], [1.0, 1.0], 85),
    "ex2": ([0.5, 0.5], [], [1.0, 1.0, 1.0], 85),
    "ex3": ([-100.0, -100.0, -100.0], [1.0], [1.0, 1.0], 17),
    "ex4": ([1.0, 1.0], [], [1.0] * 5, 85),
    "akkt_example": ([1.0, 1.0], [], [1.0, 1.0], 84),
    "infeasible1": ([5.0], [], [0.0], 85),
}


def assert_rows_match_reference(name, grid, xs, us, vs, rho, cfg):
    """Every row of the lockstep solve of built-in `name` equals the reference
    solve of its node alone, and solve_subproblem reduces those rows as the
    node loop did."""
    prob, scalar = c.builtin(name), reference.scalar_builtin(name)
    x, grad, iters, status = _solve_rows(prob, grid.nodes, xs, us, vs, rho, cfg)
    solo = [reference.solve_node(scalar, t, xs[i], MultiplierSet(us[i], vs[i]), rho, cfg)
            for i, t in enumerate(grid.nodes)]
    for i, r in enumerate(solo):
        assert x[i].tobytes() == r.x_star.tobytes(), i
        assert grad[i] == r.grad_inf_norm, i
        assert iters[i] == r.iterations, i
        assert _BY_SEVERITY[status[i]] is r.status, i
    xs_out, worst, max_grad = c.solve_subproblem(prob, grid.nodes, xs, us, vs, rho, cfg)
    assert xs_out.tobytes() == np.vstack([r.x_star for r in solo]).tobytes()
    assert worst is max((r.status for r in solo), key=_BY_SEVERITY.index)
    assert max_grad == max([0.0] + [r.grad_inf_norm for r in solo])
    return solo


@pytest.mark.parametrize("name", sorted(CONFTEST_STARTS))
def test_lockstep_rows_equal_the_node_solver_at_conftest_start(name):
    x0, u0, v0, nodes = CONFTEST_STARTS[name]
    prob = c.builtin(name)
    grid = c.make_uniform_grid(prob.horizon, nodes)
    cfg = c.AlmConfig()

    def tile(a, k):
        return np.tile(np.asarray(a, dtype=float), (nodes, 1)).reshape(nodes, k)

    assert_rows_match_reference(name, grid, tile(x0, prob.n), tile(u0, prob.p),
                                tile(v0, prob.m), cfg.rho_init, cfg.inner)


@pytest.mark.parametrize("name", sorted(CONFTEST_STARTS))
def test_lockstep_rows_equal_the_node_solver_from_random_starts(name):
    prob = c.builtin(name)
    grid = c.make_uniform_grid(prob.horizon, 12)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3.0, 3.0, size=(12, prob.n))
    us = rng.uniform(-2.0, 2.0, size=(12, prob.p))
    vs = rng.uniform(0.0, 2.0, size=(12, prob.m))
    for rho in (1.0, 30.0):
        assert_rows_match_reference(name, grid, xs, us, vs, rho, c.AlmConfig().inner)


def test_whole_batch_descent_trial_takes_views(monkeypatch):
    """ex3 from its conftest start at 17 nodes: every row descends through the
    whole budget, and every descent trial that covers the whole batch hands
    the evaluators a view of the grid's nodes, not a gathered copy."""
    x0, u0, v0, nodes = CONFTEST_STARTS["ex3"]
    prob = c.builtin("ex3")
    grid = c.make_uniform_grid(prob.horizon, nodes)
    evaluate, shares = inner_mod._evaluate_fields, []

    def observed(problem, names, xs, ts):
        if (names in (inner_mod._VALUE_FIELDS, inner_mod._GRADIENT_FIELDS)
                and len(ts) == nodes):
            shares.append(np.shares_memory(ts, grid.nodes))
        return evaluate(problem, names, xs, ts)

    monkeypatch.setattr(inner_mod, "_evaluate_fields", observed)
    xs, us, vs = (np.tile(np.asarray(a, dtype=float), (nodes, 1)) for a in (x0, u0, v0))
    c.solve_subproblem(prob, grid.nodes, xs, us, vs, 1.0, c.InnerConfig())
    assert shares and all(shares)


def test_lockstep_ex3_batch_mixes_every_outcome():
    """ex3 at rho = 1: rows converging in descent, rows the polish rescues,
    rows falling back to the min-penalty iterate (one diverged, one with an
    exhausted polish) all match the reference."""
    prob = c.builtin("ex3")
    starts = [[1.0, 1.0, 0.0], [-100.0, -100.0, -100.0], [0.5, 0.5, 0.5],
              [2.0, -1.0, 3.0], [0.0, 0.0, 0.0], [10.0, 10.0, 10.0],
              [-1.0, 2.0, -5.0], [1.0, 1.0, 5.0]]
    # Two multiplier blocks of the same starts, plus one row whose descent
    # escapes the iterate box.
    xs = np.array(starts * 2 + [[-5.0, 3.0, 4.0]])
    us = np.zeros((len(xs), 1))
    vs = np.array([[0.0, 0.0]] * len(starts) + [[0.0, 1.0]] * len(starts) + [[0.5, 0.0]])
    grid = c.make_uniform_grid(1.0, len(xs))
    cfg = c.AlmConfig().inner
    solo = assert_rows_match_reference("ex3", grid, xs, us, vs, 1.0, cfg)
    converged = [r.status is InnerStatus.CONVERGED for r in solo]
    assert any(ok and r.iterations < cfg.max_iters for ok, r in zip(converged, solo))
    assert any(ok and r.iterations > cfg.max_iters for ok, r in zip(converged, solo))
    assert any(r.status is InnerStatus.MAX_ITERS for r in solo)
    assert any(r.status is InnerStatus.DIVERGED for r in solo)
    assert any(r.iterations == cfg.max_iters + reference.POLISH_ITERS for r in solo)


def test_lockstep_rows_that_start_stationary_equal_the_node_solver(monkeypatch):
    """infeasible1 at x = 0 is stationary for any v >= 0: a batch of such rows
    matches the reference without a descent step and builds no row state; one
    row started at x = 0.5 makes the batch run the descent loop again."""
    built = []

    class Rows(inner_mod._Rows):
        def __init__(self, **arrays):
            built.append(arrays)
            super().__init__(**arrays)

    monkeypatch.setattr(inner_mod, "_Rows", Rows)
    grid = c.make_uniform_grid(1.0, 9)
    prob, cfg = c.builtin("infeasible1"), c.AlmConfig().inner
    xs, us = np.zeros((9, 1)), np.zeros((9, 0))
    vs = np.linspace(0.0, 2.0, 9)[:, None]
    for rho in (1.0, 30.0):
        solo = assert_rows_match_reference("infeasible1", grid, xs, us, vs, rho, cfg)
        assert all(r.iterations == 0 and r.status is InnerStatus.CONVERGED
                   and r.grad_inf_norm == 0.0 for r in solo)
        built.clear()
        start = evaluate_all(prob, xs, grid.nodes)
        c.solve_subproblem(prob, grid.nodes, xs, us, vs, rho, cfg, start)
        assert built == []
    mixed = xs.copy()
    mixed[4] = 0.5
    solo = assert_rows_match_reference("infeasible1", grid, mixed, us, vs, 1.0, cfg)
    assert [r.iterations > 0 for r in solo] == [i == 4 for i in range(9)]
    assert solo[4].status is InnerStatus.CONVERGED
    built.clear()
    c.solve_subproblem(prob, grid.nodes, mixed, us, vs, 1.0, cfg,
                       evaluate_all(prob, mixed, grid.nodes))
    assert built


def stationary_batch():
    """infeasible1 at x = 0 on 9 nodes, stationary for any v >= 0: states,
    multipliers and the grid."""
    grid = c.make_uniform_grid(1.0, 9)
    return np.zeros((9, 1)), np.zeros((9, 0)), np.linspace(0.0, 2.0, 9)[:, None], grid


def test_batch_that_starts_stationary_takes_the_whole_batch_exit(monkeypatch):
    """Given the start's evaluation, a batch whose rows all start within
    grad_tol returns a copy of its states, each row Converged after 0
    iterations, without an evaluator call or a stop test."""
    prob = c.builtin("infeasible1")
    counted, calls = counting(prob)
    xs, us, vs, grid = stationary_batch()
    start = evaluate_all(prob, xs, grid.nodes)
    stop_tests = []
    monkeypatch.setattr(inner_mod, "_stop_test", lambda *args: stop_tests.append(args))
    cfg = c.AlmConfig().inner
    for rho in (1.0, 30.0):
        x, grad, iters, status = _solve_rows(counted, grid.nodes, xs, us, vs, rho, cfg,
                                             start)
        assert x.tobytes() == xs.tobytes() and not np.shares_memory(x, xs)
        assert grad.tolist() == [0.0] * 9 and iters.tolist() == [0] * 9
        assert [_BY_SEVERITY[s] for s in status] == [InnerStatus.CONVERGED] * 9
        x, worst, max_grad = c.solve_subproblem(counted, grid.nodes, xs, us, vs, rho,
                                                cfg, start)
        assert x.tobytes() == xs.tobytes() and not np.shares_memory(x, xs)
        assert (worst, max_grad) == (InnerStatus.CONVERGED, 0.0)
    assert calls == {} and stop_tests == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("x4,rho,outcome", [
    # The penalty overflows: a non-finite start, which takes no step.
    (1e5, 1e300, (0, InnerStatus.MAX_ITERS)),
    # Outside the iterate box: diverges at step 0, then the polish takes one.
    (2e6, 1.0, (1, InnerStatus.DIVERGED)),
])
def test_one_row_not_stationary_keeps_the_batch_off_the_exit(x4, rho, outcome):
    """The stationary batch with row 4 moved, given the start's evaluation or
    not, equals the node solver at every row."""
    prob, cfg = c.builtin("infeasible1"), c.AlmConfig().inner
    xs, us, vs, grid = stationary_batch()
    xs[4] = x4
    solo = assert_rows_match_reference("infeasible1", grid, xs, us, vs, rho, cfg)
    assert [(r.iterations, r.status) for r in solo] == (
        [(0, InnerStatus.CONVERGED)] * 4 + [outcome] + [(0, InnerStatus.CONVERGED)] * 4)
    x, worst, max_grad = c.solve_subproblem(prob, grid.nodes, xs, us, vs, rho, cfg,
                                            evaluate_all(prob, xs, grid.nodes))
    assert x.tobytes() == np.vstack([r.x_star for r in solo]).tobytes()
    assert (worst, max_grad) == (outcome[1], solo[4].grad_inf_norm)


def test_lockstep_rows_test_the_last_budget_step():
    """phi = -x^2 from x = -2, 1 and 0.5 escapes the iterate box at descent
    step 12, 13 and 14.  With a budget of 13 steps the second row escapes on
    its last step, which the stop test sees: it diverges, in the lockstep
    solver as in the node solver, as it does with the default budget."""
    scalar = c.ProblemDefinition(
        name="concave", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: -x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([-2.0 * x[0]]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 1)),
        convexity=c.Convexity(False, (), ()))
    ts = c.make_uniform_grid(1.0, 3).nodes
    xs, us, vs = np.array([[-2.0], [1.0], [0.5]]), np.zeros((3, 0)), np.zeros((3, 0))
    cfg = c.InnerConfig(max_iters=13)
    x, grad, iters, status = _solve_rows(c.pointwise(scalar), ts, xs, us, vs, 1.0, cfg)
    solo = [reference.solve_node(scalar, t, xs[i], MultiplierSet(us[i], vs[i]), 1.0, cfg)
            for i, t in enumerate(ts)]
    for i, r in enumerate(solo):
        assert x[i].tobytes() == r.x_star.tobytes(), i
        assert grad[i] == r.grad_inf_norm, i
        assert iters[i] == r.iterations, i
        assert _BY_SEVERITY[status[i]] is r.status, i
    assert [(r.iterations, r.status) for r in solo] == [
        (12, InnerStatus.DIVERGED), (13, InnerStatus.DIVERGED),
        (13, InnerStatus.MAX_ITERS)]
    wider = reference.solve_node(scalar, ts[1], xs[1], MultiplierSet(us[1], vs[1]), 1.0,
                                 c.InnerConfig())
    assert (wider.iterations, wider.status) == (13, InnerStatus.DIVERGED)


def test_ex3_row_through_descent_and_polish_equals_the_node_solver():
    """ex3 at t = 0 from (0.5, 0.5, 0.5): descent, then the polish, which the
    reference's own trace shows."""
    mult = MultiplierSet([0.0], [0.0, 0.0])
    cfg = c.AlmConfig().inner
    grid = c.make_uniform_grid(1.0, 2)
    solo = assert_rows_match_reference("ex3", grid, np.full((2, 3), 0.5),
                                       np.zeros((2, 1)), np.zeros((2, 2)), 1.0, cfg)
    node = c.solve_node(c.builtin("ex3"), 0.0, np.array([0.5, 0.5, 0.5]), mult, 1.0, cfg)
    assert node.x_star.tobytes() == solo[0].x_star.tobytes()
    assert (node.grad_inf_norm, node.iterations, node.status) == (
        solo[0].grad_inf_norm, solo[0].iterations, solo[0].status)
    events = []
    reference.solve_node(reference.scalar_builtin("ex3"), 0.0, np.array([0.5, 0.5, 0.5]),
                         mult, 1.0, cfg, trace=events.append)
    assert {e["phase"] for e in events} == {"descent", "polish"}


def test_lockstep_pass_without_a_trial_step_equals_the_node_solver():
    """phi = 1e16 x^2 with an inactive constraint: descent finds no acceptable
    step, and the polish's first step is already below the smallest trial
    step, so its first pass tries no point at any row."""
    scalar = c.ProblemDefinition(
        name="stiff", n=1, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: 1e16 * x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([2e16 * x[0]]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.array([-x[0] - 10.0]),
        eval_jac_g=lambda x, t: np.array([[-1.0]]),
        convexity=c.Convexity(True, (True,), ()))
    ts = c.make_uniform_grid(1.0, 3).nodes
    xs, us, vs = np.array([[1.0], [2.0], [-3.0]]), np.zeros((3, 0)), np.zeros((3, 1))
    cfg = c.AlmConfig().inner
    x, grad, iters, status = _solve_rows(c.pointwise(scalar), ts, xs, us, vs, 1.0, cfg)
    for i, t in enumerate(ts):
        r = reference.solve_node(scalar, t, xs[i], MultiplierSet(us[i], vs[i]), 1.0, cfg)
        assert x[i].tobytes() == r.x_star.tobytes() == xs[i].tobytes(), i
        assert grad[i] == r.grad_inf_norm, i
        assert iters[i] == r.iterations == 2, i
        assert _BY_SEVERITY[status[i]] is r.status is InnerStatus.MAX_ITERS, i
