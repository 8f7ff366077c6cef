"""Node solver behavior: convergence, divergence, Armijo compliance,
node independence, and agreement with the brute-force lattice oracle."""

import numpy as np
import pytest

import ctpalm as c
from ctpalm.inner import InnerStatus, worst_of
from ctpalm.lagrangian import MultiplierSet, aug_lagrangian_value
from ctpalm.testkit import dense_grid_min
from conftest import unconstrained_quadratic


def shifted_quadratic():
    target = np.array([3.0, -2.0])
    return c.ProblemDefinition(
        name="shifted_quad", n=2, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: float((x - target) @ (x - target)),
        eval_grad_phi=lambda x, t: 2.0 * (x - target),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 2)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 2)),
        convexity=c.Convexity(True, (), ()))


def concave_scalar():
    return c.ProblemDefinition(
        name="concave", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: -x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([-2.0 * x[0]]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 1)),
        convexity=c.Convexity(False, (), ()))


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


def test_armijo_acceptance_holds_on_traced_run():
    steps = []
    cfg = c.InnerConfig(grad_tol=1e-9)
    c.solve_node(c.builtin("ex1"), 0.2, np.array([4.0, -3.0]),
                 MultiplierSet(v=np.array([1.0, 1.0])), 1.0, cfg,
                 trace=steps.append)
    assert steps, "expected at least one accepted step"
    for s in steps:
        assert s["f_new"] <= s["f_old"] + s["armijo_c"] * s["alpha"] * s["slope"] + 1e-15
        assert s["slope"] <= 0.0


# -- solve_subproblem --------------------------------------------------------

def test_subproblem_constant_problem_gives_identical_rows():
    prob = shifted_quadratic()
    grid = c.make_uniform_grid(1.0, 7)
    warm = c.Trajectory.constant(grid, [0.0, 0.0])
    empty = c.Trajectory(grid, np.zeros((7, 0)))
    traj, worst, max_grad = c.solve_subproblem(prob, grid, warm, empty, empty,
                                               1.0, c.InnerConfig())
    assert worst is InnerStatus.CONVERGED
    for i in range(1, 7):
        assert np.array_equal(traj.values[i], traj.values[0])


def test_subproblem_matches_independent_node_solves_in_any_order():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 9)
    cfg = c.InnerConfig()
    warm = c.Trajectory.constant(grid, [0.5, 0.5])
    u0 = c.Trajectory(grid, np.zeros((9, 0)))
    v0 = c.Trajectory.constant(grid, [1.0, 1.0, 1.0])
    traj, worst, max_grad = c.solve_subproblem(prob, grid, warm, u0, v0, 1.0, cfg)

    order = np.random.default_rng(0).permutation(9)
    results = {}
    for i in order:
        results[i] = c.solve_node(prob, grid.nodes[i], warm.values[i],
                                  MultiplierSet(v=v0.values[i]), 1.0, cfg)
    for i in range(9):
        assert np.array_equal(traj.values[i], results[i].x_star)
    assert max_grad == max(r.grad_inf_norm for r in results.values())


def test_subproblem_every_node_converges_on_ex2():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 85)
    cfg = c.InnerConfig(grad_tol=1e-6)
    warm = c.Trajectory.constant(grid, [0.5, 0.5])
    u0 = c.Trajectory(grid, np.zeros((85, 0)))
    v0 = c.Trajectory.constant(grid, [1.0, 1.0, 1.0])
    traj, worst, max_grad = c.solve_subproblem(prob, grid, warm, u0, v0, 1.0, cfg)
    assert worst is InnerStatus.CONVERGED
    assert max_grad <= cfg.grad_tol
    # independent stationarity check through central differences
    from ctpalm.testkit import FdConfig, fd_gradient
    for i in (0, 42, 84):
        t = grid.nodes[i]
        mult = MultiplierSet(v=v0.values[i])
        fd = fd_gradient(lambda z: aug_lagrangian_value(prob, z, mult, 1.0, t),
                         traj.values[i], FdConfig(step=1e-7))
        assert np.max(np.abs(fd)) <= 1e-4


def test_subproblem_two_node_grid():
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 2)
    cfg = c.InnerConfig()
    warm = c.Trajectory.constant(grid, [1.0, 1.0])
    u0 = c.Trajectory(grid, np.zeros((2, 0)))
    v0 = c.Trajectory.constant(grid, [1.0, 1.0])
    traj, worst, _ = c.solve_subproblem(prob, grid, warm, u0, v0, 1.0, cfg)
    for i in (0, 1):
        solo = c.solve_node(prob, grid.nodes[i], warm.values[i],
                            MultiplierSet(v=v0.values[i]), 1.0, cfg)
        assert np.array_equal(traj.values[i], solo.x_star)


def test_status_severity_ordering():
    assert worst_of(InnerStatus.CONVERGED, InnerStatus.MAX_ITERS) is InnerStatus.MAX_ITERS
    assert worst_of(InnerStatus.DIVERGED, InnerStatus.MAX_ITERS) is InnerStatus.DIVERGED
    assert worst_of(InnerStatus.CONVERGED, InnerStatus.CONVERGED) is InnerStatus.CONVERGED


# -- lattice-oracle agreement --------------------------------------------------

@pytest.mark.parametrize("name,x0,v0,ts", [
    ("ex1", [1.0, 1.0], [1.0, 1.0], (0.0, 0.4, 1.0)),
    ("ex2", [0.5, 0.5], [1.0, 1.0, 1.0], (0.0, 0.5, 1.0)),
])
def test_node_solution_matches_dense_lattice(name, x0, v0, ts):
    prob = c.builtin(name)
    cfg = c.InnerConfig(grad_tol=1e-8)
    spacing = 2.0 * 2.0 / 200
    for t in ts:
        mult = MultiplierSet(v=np.array(v0))
        result = c.solve_node(prob, t, np.array(x0), mult, 1.0, cfg)
        assert result.status is InnerStatus.CONVERGED
        x_best, _ = dense_grid_min(
            lambda z: aug_lagrangian_value(prob, z, mult, 1.0, t),
            np.array(x0), 2.0, 201)
        assert np.max(np.abs(result.x_star - x_best)) <= spacing + 1e-9


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
