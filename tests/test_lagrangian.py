"""Lagrangian values/gradients, the multiplier-update identity, residuals on
analytic fixtures, and the squared-violation diagnostics."""

import numpy as np
import pytest

from ctpalm.grid import Trajectory, _l1_quadrature, _trapezoid_sum, make_uniform_grid
from ctpalm.lagrangian import (MultiplierSet, _row_dots, _transposed_product,
                               akkt_residuals, feasibility_factor,
                               feasibility_stationarity_residual)
from ctpalm.problems import builtin, evaluate_all, pointwise, reference_solution
from conftest import unconstrained_quadratic
from testkit import (FdConfig, akkt_example_sequence, aug_lagrangian_gradient,
                     aug_lagrangian_value, fd_gradient, lagrangian_gradient)

ALL_NAMES = ("ex1", "ex2", "ex3", "ex4", "akkt_example", "infeasible1")


def const_traj(grid, value):
    return Trajectory.constant(grid, value)


def bundle_of(prob, x):
    return evaluate_all(prob, x.values, x.grid.nodes)


# -- lagrangian_gradient -----------------------------------------------------

def test_gradient_vanishes_on_asymptotic_fixture():
    prob = builtin("akkt_example")
    t = 0.25
    s = t - 0.5
    x = np.array([s / 1.0, 0.0])
    v = 1.0 / (3.0 * s * s)
    grad = lagrangian_gradient(prob, x, MultiplierSet(v=np.array([v, v])), t)
    assert np.max(np.abs(grad)) <= 1e-15


def test_gradient_reduces_to_objective_gradient_unconstrained():
    prob = unconstrained_quadratic()
    grad = lagrangian_gradient(prob, np.array([3.0]), MultiplierSet(), 0.1)
    assert np.array_equal(grad, [6.0])


def test_gradient_ex1_zero_multipliers():
    grad = lagrangian_gradient(builtin("ex1"), np.array([1.0, 1.0]),
                               MultiplierSet(v=np.array([0.0, 0.0])), 0.77)
    assert np.array_equal(grad, [2.0, 1.0])


def test_multiplier_set_rejects_negative_v():
    with pytest.raises(ValueError):
        MultiplierSet(v=np.array([0.5, -0.1]))


@pytest.mark.parametrize("u,v", [([np.inf], []), ([0.0], [1.0, np.nan])])
def test_multiplier_set_rejects_nonfinite_entries(u, v):
    with pytest.raises(ValueError, match="^multipliers must be finite$"):
        MultiplierSet(np.array(u), np.array(v))


# -- augmented value ---------------------------------------------------------

def test_aug_value_hand_checked_inactive_terms():
    value = aug_lagrangian_value(builtin("ex1"), np.array([1.0, 1.0]),
                                 MultiplierSet(v=np.array([1.0, 1.0])), 1.0, 0.5)
    assert value == pytest.approx(2.0, abs=1e-15)


def test_aug_value_unconstrained_equals_objective():
    prob = unconstrained_quadratic()
    for rho in (0.5, 1.0, 100.0):
        assert aug_lagrangian_value(prob, np.array([2.0]), MultiplierSet(),
                                    rho, 0.0) == pytest.approx(4.0)


def test_aug_value_hand_checked_active_terms():
    value = aug_lagrangian_value(builtin("ex1"), np.array([0.0, 0.0]),
                                 MultiplierSet(v=np.array([1.0, 1.0])), 2.0, 0.5)
    assert value == pytest.approx(0.5, abs=1e-15)


def test_aug_value_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        aug_lagrangian_value(builtin("ex1"), np.zeros(2),
                             MultiplierSet(v=np.zeros(2)), 0.0, 0.0)


# -- augmented gradient ------------------------------------------------------

def test_aug_gradient_stationary_point_hand_solved():
    grad = aug_lagrangian_gradient(builtin("ex1"), np.array([0.0, 0.5]),
                                   MultiplierSet(v=np.array([1.0, 1.0])), 1.0, 0.3)
    assert np.max(np.abs(grad)) <= 1e-15


def test_aug_gradient_unconstrained_is_objective_gradient():
    prob = unconstrained_quadratic()
    grad = aug_lagrangian_gradient(prob, np.array([-1.5]), MultiplierSet(), 3.0, 0.0)
    assert np.array_equal(grad, [-3.0])


def test_multiplier_update_identity_random():
    """Augmented gradient == Lagrangian gradient at first-order-updated
    multipliers, bitwise, across the registry."""
    rng = np.random.default_rng(2024)
    for name in ALL_NAMES:
        prob = builtin(name)
        for _ in range(50):
            t = rng.uniform(0.0, prob.horizon)
            x = rng.uniform(-10.0, 10.0, size=prob.n)
            u = rng.uniform(-10.0, 10.0, size=prob.p)
            v = rng.uniform(0.0, 10.0, size=prob.m)
            rho = 10.0 ** rng.uniform(-2, 4)
            bundle = evaluate_all(prob, x[None], [t])
            u_new = u + rho * bundle.h[0]
            v_new = np.maximum(v + rho * bundle.g[0], 0.0)
            lhs = aug_lagrangian_gradient(prob, x, MultiplierSet(u, v), rho, t)
            rhs = lagrangian_gradient(prob, x, MultiplierSet(u_new, v_new), t)
            assert np.all(np.abs(lhs - rhs) <= 1e-12), (name, t, rho)


def test_aug_value_dominates_objective_for_zero_equality_multipliers():
    rng = np.random.default_rng(5)
    for name in ALL_NAMES:
        prob = builtin(name)
        for _ in range(20):
            t = rng.uniform(0.0, prob.horizon)
            x = rng.uniform(-5.0, 5.0, size=prob.n)
            v = rng.uniform(0.0, 3.0, size=prob.m)
            rho = 10.0 ** rng.uniform(-1, 2)
            mult = MultiplierSet(np.zeros(prob.p), v)
            assert (aug_lagrangian_value(prob, x, mult, rho, t)
                    >= prob.eval_phi(x, t) - 1e-12)


def test_aug_gradient_matches_finite_differences_off_kink():
    rng = np.random.default_rng(11)
    cfg = FdConfig(step=1e-6)
    checked = 0
    for name in ALL_NAMES:
        prob = builtin(name)
        while True:
            t = rng.uniform(0.0, prob.horizon)
            x = rng.uniform(-3.0, 3.0, size=prob.n)
            u = rng.uniform(-2.0, 2.0, size=prob.p)
            v = rng.uniform(0.0, 2.0, size=prob.m)
            rho = 10.0 ** rng.uniform(-1, 1)
            if prob.m:
                margin = np.abs(v + rho * np.asarray(prob.eval_g(x, t)))
                if margin.min() < 1e-4:  # too close to the max kink for FD
                    continue
            mult = MultiplierSet(u, v)
            grad = aug_lagrangian_gradient(prob, x, mult, rho, t)
            fd = fd_gradient(lambda z: aug_lagrangian_value(prob, z, mult, rho, t),
                             x, cfg)
            scale = np.maximum(1.0, np.abs(grad))
            assert np.all(np.abs(grad - fd) <= 1e-5 * scale), (name, t, x)
            checked += 1
            break
    assert checked == len(ALL_NAMES)


# -- residuals ---------------------------------------------------------------

def test_residuals_on_asymptotic_fixture_k1():
    prob = builtin("akkt_example")
    grid = make_uniform_grid(1.0, 84)
    x, v = akkt_example_sequence(grid, k=1)
    u = Trajectory(grid, np.zeros((84, 0)))
    res = akkt_residuals(grid, bundle_of(prob, x), u, v)
    assert res.stationarity_l1 <= 1e-12
    # worst pointwise pairing v1 * max(-g1, 0) = (t - 1/2)^2 / 3 at the endpoints
    assert res.complementarity_sup == pytest.approx(0.25 / 3.0, rel=1e-12)
    assert res.multiplier_min > 0.0


def test_residuals_zero_multipliers_at_reference():
    prob = builtin("ex1")
    grid = make_uniform_grid(1.0, 85)
    x = Trajectory(grid, np.zeros((85, 2)))
    res = akkt_residuals(grid, bundle_of(prob, x),
                         Trajectory(grid, np.zeros((85, 0))),
                         Trajectory(grid, np.zeros((85, 2))))
    # gradient of the objective alone is (0, 1) at every node
    assert res.stationarity_l1 == pytest.approx(1.0, rel=1e-14)
    assert res.complementarity_sup == 0.0


def test_residuals_reject_negative_multipliers():
    prob = builtin("ex1")
    grid = make_uniform_grid(1.0, 5)
    x = const_traj(grid, [0.0, 0.0])
    u = Trajectory(grid, np.zeros((5, 0)))
    v = Trajectory(grid, np.full((5, 2), -0.1))
    with pytest.raises(ValueError):
        akkt_residuals(grid, bundle_of(prob, x), u, v)


def test_residuals_reject_other_grids_and_dimensions():
    prob = builtin("ex1")
    grid = make_uniform_grid(1.0, 5)
    bundle = bundle_of(prob, const_traj(grid, [0.0, 0.0]))
    u, v = Trajectory(grid, np.zeros((5, 0))), const_traj(grid, [0.0, 0.0])
    other = make_uniform_grid(2.0, 5)
    for args in [(other, u, v), (grid, Trajectory(other, np.zeros((5, 0))), v),
                 (grid, u, const_traj(other, [0.0, 0.0]))]:
        with pytest.raises(ValueError, match="^trajectories must share the grid$"):
            akkt_residuals(args[0], bundle, *args[1:])
    wrong = "^trajectory dimensions do not match the problem$"
    for args in [(const_traj(grid, [0.0]), v), (u, const_traj(grid, [0.0]))]:
        with pytest.raises(ValueError, match=wrong):
            akkt_residuals(grid, bundle, *args)
    grid6 = make_uniform_grid(1.0, 6)
    with pytest.raises(ValueError, match="^bundle must have one row per grid node, "
                                         "got 5 for 6$"):
        akkt_residuals(grid6, bundle, Trajectory(grid6, np.zeros((6, 0))),
                       const_traj(grid6, [0.0, 0.0]))


@pytest.mark.parametrize("diagnostic", [feasibility_factor,
                                        feasibility_stationarity_residual])
def test_feasibility_diagnostics_reject_a_bundle_of_other_nodes(diagnostic):
    prob, grid = builtin("ex4"), make_uniform_grid(1.0, 5)
    bundle = evaluate_all(prob, np.ones((3, prob.n)), grid.nodes[:3])
    with pytest.raises(ValueError, match="^bundle must have one row per grid node, "
                                         "got 3 for 5$"):
        diagnostic(grid, bundle)


def test_residuals_invariant_under_constraint_reordering():
    import dataclasses
    prob = builtin("ex2")
    perm = [2, 0, 1]
    permuted = pointwise(dataclasses.replace(
        prob,
        eval_g=lambda x, t, _p=prob: _p.eval_g(x, t)[perm],
        eval_jac_g=lambda x, t, _p=prob: _p.eval_jac_g(x, t)[perm],
        convexity=dataclasses.replace(
            prob.convexity, g_convex=tuple(prob.convexity.g_convex[i] for i in perm))))
    grid = make_uniform_grid(1.0, 21)
    rng = np.random.default_rng(3)
    x = Trajectory(grid, rng.normal(size=(21, 2)))
    u = Trajectory(grid, np.zeros((21, 0)))
    v_vals = rng.uniform(0.0, 2.0, size=(21, 3))
    res = akkt_residuals(grid, bundle_of(prob, x), u, Trajectory(grid, v_vals))
    res_p = akkt_residuals(grid, bundle_of(permuted, x), u,
                           Trajectory(grid, v_vals[:, perm]))
    assert res_p.complementarity_sup == res.complementarity_sup
    assert res_p.multiplier_min == res.multiplier_min
    assert res_p.stationarity_l1 == pytest.approx(res.stationarity_l1, rel=1e-13)


def test_stacked_reductions_equal_the_node_loop():
    """The stacked products behind the residuals reproduce per-node `J.T @ w`
    and `a @ b` bit for bit, and so do the reductions built on them.  The
    node loop calls the evaluators each problem has; an absent constraint's
    value is an empty row."""
    rng = np.random.default_rng(5)
    for name in ALL_NAMES:
        prob = builtin(name)
        grid = make_uniform_grid(prob.horizon, 41)
        x = rng.uniform(-3.0, 3.0, size=(41, prob.n))
        u = rng.uniform(-2.0, 2.0, size=(41, prob.p))
        v = rng.uniform(0.0, 2.0, size=(41, prob.m))
        bundle = evaluate_all(prob, x, grid.nodes)
        for jac, w in ((bundle.jac_h, u), (bundle.jac_g, v)):
            assert np.array_equal(_transposed_product(jac, w),
                                  [jac_i.T @ w_i for jac_i, w_i in zip(jac, w)])
        assert np.array_equal(_row_dots(bundle.g, v),
                              [g_i @ v_i for g_i, v_i in zip(bundle.g, v)])

        def node_value(k, i):
            shape = prob.row_shape(k)
            if 0 in shape:
                return np.zeros(shape)
            return np.asarray(getattr(prob, "eval_" + k)(x[i], grid.nodes[i]), dtype=float)

        stat, comp, factor, feas_grad = [], 0.0, [], []
        for i, t in enumerate(grid.nodes):
            h = node_value("h", i)
            gp = np.maximum(node_value("g", i), 0.0)
            gl = lagrangian_gradient(prob, x[i], MultiplierSet(u[i], v[i]), t)
            stat.append(float(np.abs(gl).sum()))
            comp = max(comp, float((v[i] * np.maximum(
                -node_value("g", i), 0.0)).max(initial=0.0)))
            factor.append(float(h @ h) + float(gp @ gp))
            feas_grad.append(node_value("jac_h", i).T @ (2.0 * h)
                             + node_value("jac_g", i).T @ (2.0 * gp))
        res = akkt_residuals(grid, bundle, Trajectory(grid, u), Trajectory(grid, v))
        assert res.stationarity_l1 == _trapezoid_sum(np.array(stat), grid.spacing)
        assert res.complementarity_sup == comp
        assert feasibility_factor(grid, bundle) == _trapezoid_sum(np.array(factor),
                                                                  grid.spacing)
        assert feasibility_stationarity_residual(grid, bundle) == _l1_quadrature(
            np.array(feas_grad), grid.spacing)


# -- squared-violation diagnostics -------------------------------------------

def test_feasibility_factor_zero_on_feasible_trajectory():
    prob = builtin("ex2")
    grid = make_uniform_grid(1.0, 41)
    x = Trajectory(grid, np.array([reference_solution(prob, t) for t in grid.nodes]))
    assert feasibility_factor(grid, bundle_of(prob, x)) == 0.0


def test_feasibility_factor_hand_values():
    grid = make_uniform_grid(1.0, 33)
    assert feasibility_factor(grid, bundle_of(
        builtin("ex1"), const_traj(grid, [0.0, -1.0]))) == pytest.approx(2.0, rel=1e-14)
    assert feasibility_factor(grid, bundle_of(
        builtin("infeasible1"), const_traj(grid, [0.0]))) == pytest.approx(1.0, rel=1e-14)


def test_feasibility_factor_zero_iff_feasible():
    prob = builtin("ex1")
    grid = make_uniform_grid(1.0, 9)
    rng = np.random.default_rng(12)
    for _ in range(20):
        vals = rng.normal(size=(9, 2))
        traj = Trajectory(grid, vals)
        factor = feasibility_factor(grid, bundle_of(prob, traj))
        violations = max(
            float(np.maximum(prob.eval_g(vals[i], t), 0.0).max())
            for i, t in enumerate(grid.nodes))
        assert (factor == 0.0) == (violations <= 1e-12)


def test_violation_stationarity_hand_values():
    grid = make_uniform_grid(1.0, 33)
    prob = builtin("infeasible1")
    assert feasibility_stationarity_residual(
        grid, bundle_of(prob, const_traj(grid, [0.0]))) == 0.0
    assert feasibility_stationarity_residual(
        grid, bundle_of(prob, const_traj(grid, [1.0]))) == pytest.approx(8.0, rel=1e-14)
    ex2 = builtin("ex2")
    feas = Trajectory(grid, np.array([reference_solution(ex2, t) for t in grid.nodes]))
    assert feasibility_stationarity_residual(grid, bundle_of(ex2, feas)) == 0.0
