"""Node solver behavior: convergence, divergence, Armijo compliance, input
checks, node independence, and bit equality of the lockstep solver with the
per-node reference solver.  Agreement with the brute-force lattice oracle is
acceptance criterion 10 (tests/test_acceptance.py)."""

import warnings

import numpy as np
import pytest

import ctpalm as c
import ctpalm.inner as inner_mod
import node_solver_reference as reference
from ctpalm.inner import _BY_SEVERITY, InnerStatus, _solve_rows
from ctpalm.lagrangian import MultiplierSet, _weighted_gradient, multiplier_update
from ctpalm.problems import _row_dots, evaluate_all
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


# A bool passes operator.index: max_iters=True was a one-step budget.
@pytest.mark.parametrize("max_iters", [2.5, 3.0, "3", None, True])
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
    for x, u, v, rho, message in [
            (xs, us, vs, -1.0, r"rho must be positive, got -1\.0"),
            (xs, us, vs, np.nan, "rho must be positive, got nan"),
            (xs, us, vs, np.inf, "rho must be positive, got inf"),
            (nan_start, us, vs, 1.0, "xs must be finite"),
            (xs, us, -vs, 1.0, "inequality multipliers must be nonnegative"),
            (xs, us, np.full((4, 2), np.inf), 1.0, "multipliers must be finite")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            c.solve_subproblem(prob, ts, x, u, v, rho, cfg)
    # The one-node entry names its own argument.
    with pytest.raises(ValueError, match="^x_init must be finite$"):
        c.solve_node(prob, ts[2], nan_start[2], MultiplierSet(v=vs[2]), 1.0, cfg)
    with pytest.raises(ValueError, match="^rho must be positive, got nan$"):
        c.solve_node(prob, ts[2], xs[2], MultiplierSet(v=vs[2]), np.nan, cfg)
    # Row counts other than one per time.
    for x, u, v in [(xs, np.zeros((5, 0)), vs), (xs, us, np.ones((5, 2))),
                    (xs, np.zeros((3, 0)), vs), (np.ones((5, 2)), us, vs)]:
        with pytest.raises(ValueError, match="one row per time"):
            c.solve_subproblem(prob, ts, x, u, v, 1.0, cfg)
    c.solve_subproblem(prob, ts, xs, us, vs, 1.0, cfg)


def test_subproblem_rejects_a_batch_of_no_rows():
    prob = c.builtin("ex1")
    with pytest.raises(ValueError, match="^ts must not be empty$"):
        c.solve_subproblem(prob, np.zeros(0), np.zeros((0, 2)), np.zeros((0, 0)),
                           np.zeros((0, 2)), 1.0, c.InnerConfig())


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
    # A start record, when given, has gradient rows of width n, one per time.
    xs, us, vs = np.ones((4, 2)), np.zeros((4, 0)), np.ones((4, 2))
    start = start_of(ex1, ts, xs, us, vs, 1.0)
    for gradient, message in [(np.zeros((4, 3)), r"\(4, 3\)"),
                              (np.zeros((3, 2)), r"\(3, 2\)"),
                              (np.zeros(4), r"\(4,\)")]:
        with pytest.raises(ValueError,
                           match=rf"^start.gr must have shape \(4, 2\), got {message}$"):
            c.solve_subproblem(ex1, ts, xs, us, vs, 1.0, cfg,
                               inner_mod._Rows(**{**vars(start), "gr": gradient}))
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


def start_of(prob, ts, xs, us, vs, rho):
    """Descent's start record at xs, built as the outer loop builds it: from
    the evaluation there and the Lagrangian gradient at the multiplier
    update."""
    ev = evaluate_all(prob, xs, ts)
    with np.errstate(over="ignore", invalid="ignore"):
        gradient = _weighted_gradient(ev, *multiplier_update(ev, us, vs, rho))
        return inner_mod._at_start(ev, gradient, us, vs, rho)


def snapshot(start):
    """The shape and bytes of each array of a start record."""
    return {k: (a.shape, a.tobytes()) for k, a in vars(start).items()}


def assert_rows_match_reference(name, grid, xs, us, vs, rho, cfg, handed=False):
    """Every row of the lockstep solve of built-in `name` (or of a problem
    with scalar evaluators) equals the reference solve of its node alone, and
    solve_subproblem reduces those rows as the node loop did.  With `handed`,
    so does the solve given the start record, as the outer loop gives it,
    and neither solve modifies the record."""
    if isinstance(name, str):
        prob, scalar = c.builtin(name), reference.scalar_builtin(name)
    else:
        prob, scalar = c.pointwise(name), name
    solo = [reference.solve_node(scalar, t, xs[i], MultiplierSet(us[i], vs[i]), rho, cfg)
            for i, t in enumerate(grid.nodes)]
    handed = (start_of(prob, grid.nodes, xs, us, vs, rho),) if handed else ()
    before = [snapshot(start) for start in handed]
    for given in ((),) + tuple((start,) for start in handed):
        x, grad, iters, status = _solve_rows(prob, grid.nodes, xs, us, vs, rho, cfg,
                                             *given)
        for i, r in enumerate(solo):
            assert x[i].tobytes() == r.x_star.tobytes(), i
            assert grad[i] == r.grad_inf_norm, i
            assert iters[i] == r.iterations, i
            assert _BY_SEVERITY[status[i]] is r.status, i
        xs_out, worst, max_grad = c.solve_subproblem(prob, grid.nodes, xs, us, vs, rho,
                                                     cfg, *given)
        assert xs_out.tobytes() == np.vstack([r.x_star for r in solo]).tobytes()
        assert worst is max((r.status for r in solo), key=_BY_SEVERITY.index)
        assert max_grad == max([0.0] + [r.grad_inf_norm for r in solo])
    assert [snapshot(start) for start in handed] == before
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
                                tile(v0, prob.m), cfg.rho_init, cfg.inner, handed=True)


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


def test_lockstep_rows_that_start_stationary_equal_the_node_solver():
    """infeasible1 at x = 0 is stationary for any v >= 0: a batch of such rows
    matches the reference without a descent step, and solve_subproblem given
    the start record returns the states Converged; one row started at
    x = 0.5 descends, in the batch as in the reference."""
    grid = c.make_uniform_grid(1.0, 9)
    prob, cfg = c.builtin("infeasible1"), c.AlmConfig().inner
    xs, us = np.zeros((9, 1)), np.zeros((9, 0))
    vs = np.linspace(0.0, 2.0, 9)[:, None]
    for rho in (1.0, 30.0):
        solo = assert_rows_match_reference("infeasible1", grid, xs, us, vs, rho, cfg,
                                           handed=True)
        assert all(r.iterations == 0 and r.status is InnerStatus.CONVERGED
                   and r.grad_inf_norm == 0.0 for r in solo)
        start = start_of(prob, grid.nodes, xs, us, vs, rho)
        x, worst, max_grad = c.solve_subproblem(prob, grid.nodes, xs, us, vs, rho, cfg,
                                                start)
        assert x.tobytes() == xs.tobytes()
        assert (worst, max_grad) == (InnerStatus.CONVERGED, 0.0)
    mixed = xs.copy()
    mixed[4] = 0.5
    solo = assert_rows_match_reference("infeasible1", grid, mixed, us, vs, 1.0, cfg,
                                       handed=True)
    assert [r.iterations > 0 for r in solo] == [i == 4 for i in range(9)]
    assert solo[4].status is InnerStatus.CONVERGED
    x, worst, max_grad = c.solve_subproblem(prob, grid.nodes, mixed, us, vs, 1.0, cfg,
                                            start_of(prob, grid.nodes, mixed, us, vs, 1.0))
    assert x.tobytes() == np.vstack([r.x_star for r in solo]).tobytes()
    assert (worst, max_grad) == (InnerStatus.CONVERGED, solo[4].grad_inf_norm)


def stationary_batch():
    """infeasible1 at x = 0 on 9 nodes, stationary for any v >= 0: states,
    multipliers and the grid."""
    grid = c.make_uniform_grid(1.0, 9)
    return np.zeros((9, 1)), np.zeros((9, 0)), np.linspace(0.0, 2.0, 9)[:, None], grid


def test_batch_that_starts_stationary_takes_the_whole_batch_exit():
    """Given the start record, a batch whose rows all start within grad_tol
    stops as a whole at descent's first stop test: it returns a copy of its
    states, each row Converged after 0 iterations, without an evaluator call.
    The outer loop does not call the subproblem on such a batch
    (tests/test_alm.py)."""
    prob = c.builtin("infeasible1")
    counted, calls = counting(prob)
    xs, us, vs, grid = stationary_batch()
    cfg = c.AlmConfig().inner
    for rho in (1.0, 30.0):
        start = start_of(prob, grid.nodes, xs, us, vs, rho)
        x, grad, iters, status = _solve_rows(counted, grid.nodes, xs, us, vs, rho, cfg,
                                             start)
        assert x.tobytes() == xs.tobytes() and not np.shares_memory(x, xs)
        assert grad.tolist() == [0.0] * 9 and iters.tolist() == [0] * 9
        assert [_BY_SEVERITY[s] for s in status] == [InnerStatus.CONVERGED] * 9
        x, worst, max_grad = c.solve_subproblem(counted, grid.nodes, xs, us, vs, rho,
                                                cfg, start)
        assert x.tobytes() == xs.tobytes() and not np.shares_memory(x, xs)
        assert (worst, max_grad) == (InnerStatus.CONVERGED, 0.0)
    assert calls == {}


def test_grad_norms_have_the_bits_of_the_finite_masked_max():
    """Each row's largest |entry|, inf where an entry is NaN or infinite: the
    bits of np.where(np.isfinite(gr).all(axis=1), np.abs(gr).max(axis=1),
    np.inf), on rows holding NaN, +-inf and -0.0."""
    gr = np.array([[-0.0, 0.0], [-0.0, -0.0], [np.nan, 1.0], [-np.inf, 2.0],
                   [np.inf, np.nan], [-np.inf, -0.0], [np.nan, np.nan], [3.0, -4.0],
                   [-0.0, -5e-324], [-1e300, 1e-300]])
    masked = np.where(np.isfinite(gr).all(axis=1), np.abs(gr).max(axis=1), np.inf)
    norms = inner_mod._grad_norms(gr)
    assert norms.tobytes() == masked.tobytes()
    assert norms.tolist() == [0.0, 0.0] + [np.inf] * 5 + [4.0, 5e-324, 1e300]


def three_mask_bb_step(s, y):
    """The BB step that the one-division `_bb_step` replaced, which divided
    only by a usable s.y: its bit-for-bit reference."""
    sy = _row_dots(s, y)
    usable = (sy > 0.0) & np.isfinite(sy)
    alpha = _row_dots(s, s) / np.where(usable, sy, 1.0)
    return np.where(usable & np.isfinite(alpha) & (alpha > 0.0), alpha,
                    inner_mod._STEP_INIT)


def test_bb_step_has_the_bits_of_the_three_mask_step():
    """One row per case, (s, y) with n = 1: s.y = +0, -0, negative, NaN,
    +inf and subnormal (with a finite and with an overflowing quotient),
    s.s = 0 (with s.y = 0 and s.y = 1), s.s = +inf, an infinite s, a NaN s
    and a quotient that overflows; then a usable step with n = 2.  Each row
    alone and the n = 1 rows in one stack give the old step's bits."""
    tiny = 2.0 ** -537  # tiny * tiny is the smallest subnormal
    cases = [(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (1.0, -2.0), (1.0, np.nan),
             (1.0, np.inf), (2.0 * tiny, tiny), (1.0, 5e-324), (0.0, 0.0), (0.0, 1.0),
             (1e200, 1e-100), (np.inf, 1.0), (np.nan, 1.0), (1e150, 1e-200)]
    s, y = np.array(cases).T[:, :, None]
    rows = [(s[i:i + 1], y[i:i + 1]) for i in range(len(cases))]
    rows += [(s, y), (np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))]
    with np.errstate(all="ignore"):
        for s, y in rows:
            assert inner_mod._bb_step(s, y).tobytes() == three_mask_bb_step(s, y).tobytes()
        alphas = inner_mod._bb_step(*rows[-2]).tolist() + inner_mod._bb_step(*rows[-1]).tolist()
    # Only the subnormal s.y with a finite quotient and the last row are
    # usable; every other row takes _STEP_INIT.
    assert alphas == [1.0] * 6 + [2.0] + [1.0] * 7 + [5.0 / 11.0]


def test_descent_over_a_zero_curvature_pair_raises_no_warning():
    """phi = c.x, linear: every gradient is c, so every BB pair has y = 0 and
    s.y = 0, whose quotient the step refuses.  Descent from three starts
    runs to the iterate box with no warning, as the node solver does."""
    coeff = np.array([1e4, -2e4])
    scalar = c.ProblemDefinition(
        name="linear", n=2, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: float(coeff @ x), eval_grad_phi=lambda x, t: coeff.copy(),
        convexity=c.Convexity(True, (), ()))
    grid = c.make_uniform_grid(1.0, 3)
    xs, empty = np.array([[0.0, 0.0], [1.0, -1.0], [-5e5, 5e5]]), np.zeros((3, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solo = assert_rows_match_reference(scalar, grid, xs, empty, empty, 1.0,
                                           c.InnerConfig())
    assert [r.status for r in solo] == [InnerStatus.DIVERGED] * 3


# -- row selection -------------------------------------------------------------

ROW_ARRAYS = {"(R,)": np.arange(5.0) - 2.5, "(R, 0)": np.empty((5, 0)),
              "(R, n)": np.arange(15.0).reshape(5, 3) * -1.5}
ROW_MASKS = {"empty": [False] * 5, "one": [False, False, True, False, False],
             "all-but-one": [True, True, True, False, True], "all": [True] * 5}


@pytest.mark.parametrize("mask", list(ROW_MASKS.values()), ids=list(ROW_MASKS))
def test_row_gathers_equal_plain_indexing(mask):
    """`_Rows.keep`, `_take` and `_update` give the shapes and bytes of plain
    indexing, on arrays of shapes (R,), (R, 0) and (R, n), through both
    kinds of selector."""
    mask = np.array(mask)
    w = inner_mod._Rows(**{k: a.copy() for k, a in ROW_ARRAYS.items()})
    w.keep(mask)
    for k, a in ROW_ARRAYS.items():
        assert vars(w)[k].shape == a[mask].shape and vars(w)[k].tobytes() == a[mask].tobytes()
    rows = mask.nonzero()[0]
    j = inner_mod._select(rows, len(mask))
    assert isinstance(j, slice) == mask.all()
    for a in ROW_ARRAYS.values():
        taken = inner_mod._take(a, j)
        assert taken.shape == a[rows].shape and taken.tobytes() == a[rows].tobytes()
        # values of the selected rows, updated where `kept`: each row but the
        # second of the selection.
        values = -100.0 - a[rows]
        kept = np.arange(len(rows)) != 1
        dest, expected = a.copy(), a.copy()
        expected[rows[kept]] = values[kept]
        inner_mod._update(dest, j, values, kept)
        assert dest.tobytes() == expected.tobytes()


def test_best_point_tie_goes_to_the_later_point():
    """A point whose gradient norm equals its row's best so far becomes the
    row's best point, through either kind of row selector."""
    for j, x, gn in ((slice(None), [[3.0], [4.0]], [0.5, 0.75]),
                     (np.array([0]), [[3.0]], [0.5])):
        best_x, best_gn = np.array([[1.0], [2.0]]), np.array([0.5, 0.5])
        inner_mod._keep_best(best_x, best_gn, j, np.array(x), np.array(gn))
        assert best_x.tolist() == [[3.0], [2.0]] and best_gn.tolist() == [0.5, 0.5]


def test_descent_tie_sends_the_later_point_to_the_polish():
    """phi = x^3/3 + x^2/2 - x, with one inactive constraint so that the polish
    runs, from x = 0 with a budget of one descent step: the step, of length 1,
    lands on x = 1, where |phi'| = 1 as at the start.  The polish starts from
    the later point, in the lockstep solver as in the node solver, and lands
    after 6 steps; from x = 0 it would take 5 and land on other bits."""
    scalar = c.ProblemDefinition(
        name="tie", n=1, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: x[0] ** 3 / 3.0 + x[0] ** 2 / 2.0 - x[0],
        eval_grad_phi=lambda x, t: np.array([x[0] ** 2 + x[0] - 1.0]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.array([-1.0]),
        eval_jac_g=lambda x, t: np.zeros((1, 1)),
        convexity=c.Convexity(False, (True,), ()))
    assert [abs(scalar.eval_grad_phi([x], 0.0)[0]) for x in (0.0, 1.0)] == [1.0, 1.0]
    grid = c.make_uniform_grid(1.0, 2)
    solo = assert_rows_match_reference(scalar, grid, np.zeros((2, 1)), np.zeros((2, 0)),
                                       np.zeros((2, 1)), 1.0, c.InnerConfig(max_iters=1))
    assert [(r.iterations, r.status) for r in solo] == [(7, InnerStatus.CONVERGED)] * 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("x4,rho,outcome", [
    # The penalty overflows: a non-finite start, which takes no step.
    (1e5, 1e300, (0, InnerStatus.MAX_ITERS)),
    # Outside the iterate box: diverges at step 0, then the polish takes one.
    (2e6, 1.0, (1, InnerStatus.DIVERGED)),
])
def test_one_row_not_stationary_keeps_the_batch_off_the_exit(x4, rho, outcome):
    """The stationary batch with row 4 moved, given the start record or not,
    equals the node solver at every row."""
    prob, cfg = c.builtin("infeasible1"), c.AlmConfig().inner
    xs, us, vs, grid = stationary_batch()
    xs[4] = x4
    solo = assert_rows_match_reference("infeasible1", grid, xs, us, vs, rho, cfg,
                                       handed=True)
    assert [(r.iterations, r.status) for r in solo] == (
        [(0, InnerStatus.CONVERGED)] * 4 + [outcome] + [(0, InnerStatus.CONVERGED)] * 4)
    x, worst, max_grad = c.solve_subproblem(prob, grid.nodes, xs, us, vs, rho, cfg,
                                            start_of(prob, grid.nodes, xs, us, vs, rho))
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


# -- stacked backtracking ------------------------------------------------------

def backtracking_problem(rows):
    """phi = a x^2 (n = 1) with one constraint, g = -x - 10, inactive at the
    points tried here.  Node i of len(rows) uniform nodes on [0, 1] takes
    (a, cap) = rows[i]; grad_phi is NaN at x = 0 and +inf where |x| > cap,
    so that a finite value can come with a non-finite gradient.  Scalar
    evaluators, for the reference and through `pointwise`."""
    def row(t):
        return rows[round(t * (len(rows) - 1))]

    def grad_phi(x, t):
        a, cap = row(t)
        if x[0] == 0.0:
            return np.array([np.nan])
        return np.array([2.0 * a * x[0] if abs(x[0]) <= cap else np.inf])

    return c.ProblemDefinition(
        name="backtracking", n=1, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: row(t)[0] * x[0] ** 2,
        eval_grad_phi=grad_phi,
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.array([-x[0] - 10.0]),
        eval_jac_g=lambda x, t: np.array([[-1.0]]),
        convexity=c.Convexity(True, (True,), ()))


def record_trial_rows(monkeypatch):
    """Per Armijo pass, in call order: the phase and the number of points of
    each trial call."""
    passes = []
    armijo_pass = inner_mod._armijo_pass

    def observed(w, alpha, trial, fields, *rest):
        sizes = []
        passes.append(("polish" if "F" in fields else "descent", sizes))

        def counted(j, xt, bound):
            sizes.append(len(xt))
            return trial(j, xt, bound)
        return armijo_pass(w, alpha, counted, fields, *rest)

    monkeypatch.setattr(inner_mod, "_armijo_pass", observed)
    return passes


def first_steps(scalar, ts, xs, us, vs, rho, cfg, phase):
    """The first step that the reference accepts in `phase` at each row, or
    None when it accepts none."""
    out = []
    for i, t in enumerate(ts):
        events = []
        reference.solve_node(scalar, t, xs[i], MultiplierSet(us[i], vs[i]), rho, cfg,
                             trace=events.append)
        out.append(next((e["alpha"] for e in events if e["phase"] == phase), None))
    return out


def test_stacked_backtracking_in_descent_equals_the_node_solver(monkeypatch):
    """Descent from x = 1 on four rows in one batch.  a = 1/4 accepts its
    first trial step.  a = 1e6 passes first at 2^-20, in its second block.
    a = 1e16 passes nowhere down to _STEP_MIN, which its third block
    reaches.  a = 1 passes first at 1/2, where x = 0 and the gradient is NaN,
    and goes on to 1/4.  Each row's x, gradient norm, iterations and status
    equal the node solver's; the first pass makes one call for the first
    steps, then blocks of 16 halvings."""
    passes = record_trial_rows(monkeypatch)
    scalar = backtracking_problem([(0.25, np.inf), (1e6, np.inf), (1e16, np.inf),
                                   (1.0, np.inf)])
    grid = c.make_uniform_grid(1.0, 4)
    xs, us, vs, cfg = np.ones((4, 1)), np.zeros((4, 0)), np.zeros((4, 1)), c.InnerConfig()
    solo = assert_rows_match_reference(scalar, grid, xs, us, vs, 1.0, cfg)
    assert passes[0] == ("descent", [4, 48, 48, 16])
    assert first_steps(scalar, grid.nodes, xs, us, vs, 1.0, cfg, "descent") == [
        1.0, 2.0 ** -20, None, 0.25]
    assert [r.status for r in solo] == [InnerStatus.CONVERGED, InnerStatus.CONVERGED,
                                        InnerStatus.MAX_ITERS, InnerStatus.CONVERGED]


def test_descent_refuses_a_pick_with_an_infinite_gradient_as_a_nan_one(monkeypatch):
    """phi = 3/4 x^2 from x = 1, on three rows whose gradient at x <= 0 is
    +inf, -inf and NaN.  Each row's first trial step, 1, passes the Armijo
    test at x = -1/2, where the gradient refuses the pick; each goes on at
    1/2, to x = 1/4.  The three rows end alike, as the node solver ends."""
    def row(t):
        return (np.inf, -np.inf, np.nan)[round(2 * t)]

    scalar = c.ProblemDefinition(
        name="edge", n=1, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: 0.75 * x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([1.5 * x[0] if x[0] > 0.0 else row(t)]),
        eval_g=lambda x, t: np.array([-x[0] - 10.0]),
        eval_jac_g=lambda x, t: np.array([[-1.0]]),
        convexity=c.Convexity(True, (True,), ()))
    passes = record_trial_rows(monkeypatch)
    grid = c.make_uniform_grid(1.0, 3)
    xs, us, vs, cfg = np.ones((3, 1)), np.zeros((3, 0)), np.zeros((3, 1)), c.InnerConfig()
    solo = assert_rows_match_reference(scalar, grid, xs, us, vs, 1.0, cfg)
    assert passes[0] == ("descent", [3, 48])
    assert first_steps(scalar, grid.nodes, xs, us, vs, 1.0, cfg, "descent") == [0.5] * 3
    assert len({(r.x_star.tobytes(), r.grad_inf_norm, r.iterations, r.status)
                for r in solo}) == 1


def test_stacked_backtracking_in_the_polish_equals_the_node_solver(monkeypatch):
    """The polish alone, from four rows in one batch.  a = 1/4 at x = 1
    accepts its first trial step.  a = 1e3 at x = 1e-8 passes first at
    2^-21 of its first step, in its second block.  a = 1e8 at x = 1e-6 passes
    nowhere down to _STEP_MIN, which its first block reaches.  a = 20 at
    x = 1e-4, where the gradient is +inf beyond |x| = 0.01, rejects the
    non-finite points of its first trial and of its block's first three
    candidates, then passes at 2^-10.  Each row's best point, gradient norm
    and iterations equal the node solver's polish, and so does the whole
    solve of the batch."""
    passes = record_trial_rows(monkeypatch)
    scalar = backtracking_problem([(0.25, np.inf), (1e3, np.inf), (1e8, np.inf),
                                   (20.0, 0.01)])
    grid = c.make_uniform_grid(1.0, 4)
    xs = np.array([[1.0], [1e-8], [1e-6], [1e-4]])
    us, vs, cfg = np.zeros((4, 0)), np.zeros((4, 1)), c.InnerConfig()
    with np.errstate(over="ignore", invalid="ignore"):
        x, gn, iters = inner_mod._polish(c.pointwise(scalar), grid.nodes, xs, us, vs,
                                         1.0, cfg)
    assert passes[0] == ("polish", [4, 48, 16])
    firsts = []
    for i, t in enumerate(grid.nodes):
        events = []
        rx, rgn, rits = reference._polish(scalar, t, xs[i], us[i], vs[i], 1.0, cfg,
                                          events.append)
        assert x[i].tobytes() == rx.tobytes(), i
        assert (gn[i], iters[i]) == (rgn, rits), i
        firsts.append(events[0]["alpha"] if events else None)
    assert firsts == [1.0, 2.0 ** -21, None, 2.0 ** -10]
    assert_rows_match_reference(scalar, grid, xs, us, vs, 1.0, cfg)
