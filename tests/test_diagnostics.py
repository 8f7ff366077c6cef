"""Certificates, infeasibility verdicts, and reference-error metrics."""

import dataclasses
import json

import numpy as np
import pytest

import ctpalm as c
from ctpalm.diagnostics import (CertificateKind, infeasibility_report,
                                solution_error, sufficiency_certificate)
from ctpalm.problems import MissingReferenceError, reference_solution


def const(grid, value):
    return c.Trajectory.constant(grid, value)


def empty(grid):
    return c.Trajectory(grid, np.zeros((grid.num_nodes, 0)))


def bundle_of(prob, x):
    return c.evaluate_all(prob, x.values, x.grid.nodes)


# -- sufficiency certificate ---------------------------------------------------

def test_linear_problem_run_is_certified(ex4_run):
    report, _, _ = ex4_run
    cert = report.certificates["sufficiency"]
    assert cert.kind is CertificateKind.GLOBAL_OPTIMAL_BY_CONVEXITY
    assert cert.evidence["min_pairing_sum"] >= -1e-6


def test_nonconvex_problem_not_applicable(ex1_run):
    report, prob, _ = ex1_run
    cert = report.certificates["sufficiency"]
    assert cert.kind is CertificateKind.NOT_APPLICABLE
    direct = sufficiency_certificate(prob, report.grid, bundle_of(prob, report.x),
                                     report.u, report.v)
    assert direct.kind is CertificateKind.NOT_APPLICABLE


def test_not_applicable_evidence_is_the_convexity_flags():
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(prob.horizon, 5)
    x = const(grid, [0.5, 0.5])
    cert = sufficiency_certificate(prob, grid, bundle_of(prob, x), empty(grid),
                                   const(grid, [1.0, 1.0]))
    assert cert.kind is CertificateKind.NOT_APPLICABLE
    assert cert.evidence == {"convexity": dataclasses.asdict(prob.convexity)}
    # JSON writes the flag tuples as lists.
    assert json.dumps(cert.as_json_obj()["evidence"]) == json.dumps({"convexity": {
        "phi_convex": prob.convexity.phi_convex,
        "g_convex": list(prob.convexity.g_convex),
        "h_affine": list(prob.convexity.h_affine)}})


def test_constructed_violation_detected():
    prob = c.builtin("ex4")
    grid = c.make_uniform_grid(prob.horizon, 9)
    x = const(grid, [1.0, 1.0])          # feasible; row 1 gives g1 = -1
    v = const(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
    cert = sufficiency_certificate(prob, grid, bundle_of(prob, x), empty(grid), v)
    assert cert.kind is CertificateKind.HYPOTHESIS_VIOLATED
    assert cert.evidence["min_pairing_sum"] == pytest.approx(-1.0)
    assert 0 <= cert.evidence["worst_node"] < 9


def test_certificate_invariant_under_positive_rescaling():
    prob = c.builtin("ex4")
    grid = c.make_uniform_grid(prob.horizon, 9)
    x = const(grid, [4.0, 4.0])          # infeasible: positive pairing products
    v = const(grid, [0.0, 0.0, 0.0, 2.0, 0.0])
    for scale in (1.0, 7.3, 1e4):
        cert = sufficiency_certificate(prob, grid, bundle_of(prob, x), empty(grid),
                                       const(grid, [0.0, 0.0, 0.0, 2.0 * scale, 0.0]))
        assert cert.kind is CertificateKind.GLOBAL_OPTIMAL_BY_CONVEXITY


# -- infeasibility report ------------------------------------------------------

def test_stalled_run_is_theta_stationary(infeasible1_run):
    report, prob, _ = infeasible1_run
    cert = report.certificates["infeasibility"]
    assert cert.kind is CertificateKind.INFEASIBLE_BUT_THETA_STATIONARY
    assert cert.evidence["stationarity_residual"] <= 1e-4
    assert np.max(np.abs(report.x.values)) <= 1e-2


def test_feasible_trajectory_gets_no_report(ex1_run):
    report, prob, cfg = ex1_run
    assert infeasibility_report(report.grid, bundle_of(prob, report.x),
                                cfg.eps_stop) is None


def test_infeasible_point_away_from_stationarity():
    prob = c.builtin("infeasible1")
    grid = c.make_uniform_grid(1.0, 17)
    cert = infeasibility_report(grid, bundle_of(prob, const(grid, [1.0])), 1e-5)
    assert cert.kind is CertificateKind.INFEASIBLE_NOT_STATIONARY
    assert cert.evidence["stationarity_residual"] == pytest.approx(8.0, rel=1e-12)


def test_report_never_theta_stationary_for_feasible_points():
    prob = c.builtin("ex1")
    grid = c.make_uniform_grid(1.0, 9)
    eps = c.AlmConfig().eps_stop
    rng = np.random.default_rng(8)
    for _ in range(25):
        vals = rng.normal(size=(9, 2))
        cert = infeasibility_report(grid, bundle_of(prob, c.Trajectory(grid, vals)), eps)
        feasible = all(
            float(np.maximum(prob.eval_g(vals[i], t), 0.0).max()) <= eps
            for i, t in enumerate(grid.nodes))
        if feasible:
            assert cert is None
        else:
            assert cert is not None


@pytest.mark.parametrize("diagnostic", ["sufficiency", "infeasibility"])
def test_diagnostics_reject_a_bundle_of_other_nodes(diagnostic):
    prob = c.builtin("ex4")
    grid = c.make_uniform_grid(prob.horizon, 5)
    bundle = c.evaluate_all(prob, np.ones((3, prob.n)), grid.nodes[:3])
    with pytest.raises(ValueError, match="^bundle must have one row per grid node, "
                                         "got 3 for 5$"):
        if diagnostic == "sufficiency":
            sufficiency_certificate(prob, grid, bundle, empty(grid), const(grid, [1.0, 1.0]))
        else:
            infeasibility_report(grid, bundle, 1e-5)


# -- solution error ------------------------------------------------------------

def test_error_zero_when_exact():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 13)
    x = c.Trajectory(grid, np.array([reference_solution(prob, t) for t in grid.nodes]))
    metrics = solution_error(grid, x, prob)
    assert metrics.sup_error == 0.0
    assert metrics.l1_error == 0.0
    assert metrics.masked_nodes == ()


def test_error_constant_offset():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 41)
    x = c.Trajectory(grid, np.array([[0.0, t + 0.01] for t in grid.nodes]))
    metrics = solution_error(grid, x, prob)
    assert metrics.sup_error == pytest.approx(0.01, rel=1e-12)
    assert metrics.l1_error == pytest.approx(0.01, rel=1e-12)


def test_error_masks_jump_node_on_85_grid():
    prob = c.builtin("ex4")
    grid = c.make_uniform_grid(prob.horizon, 85)
    x = c.Trajectory(grid, np.array([reference_solution(prob, t) for t in grid.nodes]))
    metrics = solution_error(grid, x, prob)
    # ex4's optimum is not unique at t = 0 and t = 1 (test_problems,
    # test_ex4_declared_instants_are_the_non_unique_optima); both are nodes here.
    assert metrics.masked_nodes == (0, 42)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[42] == 1.0


def test_error_requires_reference():
    prob = c.builtin("infeasible1")
    grid = c.make_uniform_grid(1.0, 5)
    with pytest.raises(MissingReferenceError):
        solution_error(grid, const(grid, [0.0]), prob)


def test_error_symmetric_in_samples():
    prob = c.builtin("ex2")
    grid = c.make_uniform_grid(1.0, 21)
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(21, 2))
    x = c.Trajectory(grid, samples)
    forward = solution_error(grid, x, prob)
    # swap roles: reference returns the old samples, x carries the old reference
    lookup = {float(t): samples[i] for i, t in enumerate(grid.nodes)}
    swapped_problem = dataclasses.replace(prob, reference=lambda t: lookup[float(t)])
    ref_traj = c.Trajectory(grid, np.array([reference_solution(prob, t)
                                            for t in grid.nodes]))
    backward = solution_error(grid, ref_traj, swapped_problem)
    assert forward.sup_error == backward.sup_error
    assert forward.l1_error == pytest.approx(backward.l1_error, rel=1e-15)
