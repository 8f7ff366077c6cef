"""Registry contents, hand-checked evaluations, reference solutions, and
finite-difference validation of every analytic derivative."""

import dataclasses
import re

import numpy as np
import pytest

from ctpalm import problems
from ctpalm.grid import make_uniform_grid
from ctpalm.lagrangian import _transposed_product
from ctpalm.problems import (EVALUATORS, Convexity, EvaluationError,
                             MissingReferenceError, ProblemDefinition,
                             UnknownProblemError, builtin, builtin_names,
                             evaluate_all, pointwise, reference_solution)
import node_solver_reference as reference
from conftest import unconstrained_quadratic
from testkit import FdConfig, akkt_example_sequence, fd_gradient

ALL_NAMES = ("ex1", "ex2", "ex3", "ex4", "akkt_example", "infeasible1")


# -- registry ----------------------------------------------------------------

def test_registry_names():
    assert builtin_names() == ALL_NAMES


@pytest.mark.parametrize("name,dims", [
    ("ex1", (2, 0, 2, 1.0)),
    ("ex2", (2, 0, 3, 1.0)),
    ("ex3", (3, 1, 2, 1.0)),
    ("ex4", (2, 0, 5, 2.0)),
    ("akkt_example", (2, 0, 2, 1.0)),
    ("infeasible1", (1, 0, 1, 1.0)),
])
def test_builtin_dimensions(name, dims):
    prob = builtin(name)
    assert (prob.n, prob.p, prob.m, prob.horizon) == dims


def test_unknown_name_lists_valid_ones():
    with pytest.raises(UnknownProblemError) as err:
        builtin("nosuch")
    message = str(err.value)
    for name in ALL_NAMES:
        assert name in message


def test_convexity_flags():
    assert builtin("ex1").convexity == Convexity(True, (True, False), ())
    assert builtin("ex2").convexity == Convexity(True, (True, True, False), ())
    assert builtin("ex3").convexity == Convexity(False, (False, True), (False,))
    assert builtin("ex4").convexity == Convexity(True, (True,) * 5, ())
    assert builtin("infeasible1").convexity.all_hold()
    assert not builtin("akkt_example").convexity.all_hold()


# -- evaluate_all ------------------------------------------------------------

def test_evaluate_ex1_at_origin():
    bundle = evaluate_all(builtin("ex1"), np.array([[0.0, 0.0]]), [0.3])
    assert np.array_equal(bundle.phi, [0.0])
    assert np.array_equal(bundle.g, [[0.0, 0.0]])


def test_evaluate_ex3_at_reference_point():
    bundle = evaluate_all(builtin("ex3"), np.array([[1.0, 1.0, 0.0]]), [0.42])
    assert np.array_equal(bundle.h, [[0.0]])
    assert np.array_equal(bundle.g, [[0.0, 0.0]])
    assert np.array_equal(bundle.phi, [0.0])


def test_evaluate_unconstrained_has_empty_constraint_blocks():
    bundle = evaluate_all(unconstrained_quadratic(), np.array([[2.0]]), [0.0])
    assert bundle.h.shape == (1, 0)
    assert bundle.g.shape == (1, 0)
    assert bundle.jac_g.shape == (1, 0, 1)


def test_evaluate_stacks_one_row_per_node():
    prob = builtin("ex4")
    ts = np.array([0.0, 0.5, 1.5])
    xs = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 1.0]])
    bundle = evaluate_all(prob, xs, ts)
    assert bundle.jac_g.shape == (3, 5, 2)
    for i, t in enumerate(ts):
        assert bundle.phi[i] == prob.eval_phi(xs[i], t)
        assert np.array_equal(bundle.g[i], prob.eval_g(xs[i], t))
        assert np.array_equal(bundle.jac_g[i], prob.eval_jac_g(xs[i], t))


def test_evaluate_nonfinite_raises_with_context():
    # phi fails from t = 0.5 on, grad_phi from t = 0.25 on: the lowest
    # offending node is t = 0.25, where grad_phi is the first bad field.
    bad = pointwise(ProblemDefinition(
        name="bad", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: float("inf") if t >= 0.5 else 0.0,
        eval_grad_phi=lambda x, t: np.array([np.nan if t >= 0.25 else 0.0]),
        eval_h=lambda x, t: np.zeros(0),
        eval_jac_h=lambda x, t: np.zeros((0, 1)),
        eval_g=lambda x, t: np.zeros(0),
        eval_jac_g=lambda x, t: np.zeros((0, 1)),
        convexity=Convexity(True, (), ())))
    with pytest.raises(EvaluationError) as err:
        evaluate_all(bad, np.array([[1.0], [2.0], [3.0], [4.0]]), [0.0, 0.25, 0.5, 0.75])
    assert err.value.t == 0.25
    assert np.array_equal(err.value.x, [2.0])
    assert str(err.value).startswith("grad_phi returned a non-finite value")


def test_evaluate_calls_each_evaluator_once_per_pass():
    calls = []
    prob = builtin("ex3")
    counted = dataclasses.replace(prob, **{
        f"eval_{k}": (lambda fn, k: lambda x, t: calls.append(k) or fn(x, t))(
            getattr(prob, f"eval_{k}"), k) for k in EVALUATORS})
    evaluate_all(counted, np.zeros((7, 3)), np.linspace(0.0, 1.0, 7))
    assert sorted(calls) == sorted(EVALUATORS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pointwise_builtin_gives_identical_bundles(name):
    """Built-ins accept one state as well as a stack: looping over the rows
    one state at a time gives the same bytes as the stacked call, and so do
    the scalar evaluators the built-ins were first written with."""
    prob = builtin(name)
    rng = np.random.default_rng(11)
    ts = np.concatenate([np.linspace(0.0, prob.horizon, 37), [0.0, 1.0, 0.5]])
    xs = rng.normal(size=(len(ts), prob.n)) * 10.0 ** rng.uniform(-3, 3, (len(ts), prob.n))
    stacked = evaluate_all(prob, xs, ts)
    for looped in (evaluate_all(pointwise(prob), xs, ts),
                   evaluate_all(pointwise(reference.scalar_builtin(name)), xs, ts)):
        for k in EVALUATORS:
            assert getattr(stacked, k).tobytes() == getattr(looped, k).tobytes(), k


def stacked_matrix(like, *rows):
    """The `_matrix` that stacked one `_vector` per row, which the one-block
    builder replaced: its bit-for-bit reference."""
    return np.stack([problems._vector(like, *row) for row in rows], axis=-2)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matrix_builder_gives_the_stacked_builders_bytes(name, monkeypatch):
    """Every evaluator of the built-in gives the same shapes and bytes with
    the one-block `_matrix` as with the stacked one, on stacks of 1 to 300
    seeded states and on one state at a time (ex4's kink t = 1 included)."""
    prob = builtin(name)
    rng = np.random.default_rng(29)
    calls = []
    for rows in (1, 2, 3, 17, 85, 300):
        ts = rng.uniform(0.0, prob.horizon, rows)
        ts[0] = 1.0
        xs = rng.normal(size=(rows, prob.n)) * 10.0 ** rng.uniform(-3, 3, (rows, prob.n))
        calls.append((xs, ts))
        calls += [(xs[i], ts[i]) for i in range(min(rows, 3))]

    def outputs():
        return [np.asarray(getattr(prob, "eval_" + k)(x, t))
                for x, t in calls for k in EVALUATORS]

    block = outputs()
    monkeypatch.setattr(problems, "_matrix", stacked_matrix)
    for new, old in zip(block, outputs(), strict=True):
        assert new.shape == old.shape and new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


def test_evaluate_rejects_a_transposed_jacobian():
    # ex2 has n = 2, m = 3: the transposed Jacobian has the same size.
    prob = builtin("ex2")
    transposed = dataclasses.replace(
        prob, eval_jac_g=lambda x, t: np.swapaxes(prob.eval_jac_g(x, t), -1, -2))
    xs, ts = np.array([[0.5, 0.5], [1.0, 2.0]]), np.array([0.0, 1.0])
    with pytest.raises(ValueError, match=r"eval_jac_g returned shape \(2, 2, 3\), "
                                         r"expected \(2, 3, 2\)"):
        evaluate_all(transposed, xs, ts)
    with pytest.raises(ValueError, match=r"eval_jac_g returned shape \(2, 3\) at "
                                         r"t=0.0, expected \(3, 2\)"):
        evaluate_all(pointwise(transposed), xs, ts)


def test_evaluate_all_rejects_states_of_the_wrong_shape():
    prob = builtin("ex1")
    for xs, shape in [(np.zeros((3, 3)), "(3, 3)"), (np.zeros((2, 2)), "(2, 2)"),
                      (np.zeros(6), "(6,)")]:
        with pytest.raises(ValueError, match="^" + re.escape(
                f"states have shape {shape}, expected (3, 2)") + "$"):
            evaluate_all(prob, xs, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("dims", [dict(n=0), dict(p=-1), dict(m=-1)])
def test_problem_definition_rejects_bad_dimensions(dims):
    with pytest.raises(ValueError,
                       match="^dimensions must satisfy n >= 1, p >= 0, m >= 0$"):
        dataclasses.replace(builtin("ex1"), **dims)


# -- stacked products --------------------------------------------------------

# Entries that one row each carries: signed zeros, infinities, NaN and
# magnitudes whose products overflow or underflow.
SPECIAL_ENTRIES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300,
                   -1e-300, 5e-324)
# A row whose sum depends on its order: 6 summed in index order, 5 pairwise.
CANCELLING_ROW = (1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def stacked_operands(rng, rows, width, *lead):
    """(rows, *lead, width) seeded entries over 16 decades; row r < 10 holds
    SPECIAL_ENTRIES[r] at one place, and the last row starts with
    CANCELLING_ROW."""
    out = rng.normal(size=(rows, *lead, width)) * 10.0 ** rng.integers(
        -8, 9, size=(rows, *lead, width))
    if width:
        for r, value in enumerate(SPECIAL_ENTRIES[:rows - 1]):
            out[(r, *(rng.integers(0, d) for d in lead), rng.integers(0, width))] = value
        out[-1] = CANCELLING_ROW[:width]
    return out


def same_bits(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return (new.shape == old.shape and new.dtype == old.dtype
            and new.tobytes() == old.tobytes())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 9])
def test_stacked_products_equal_per_node_matmul(width):
    """`_row_dots`, `_matvec` and `_transposed_product` give the bits of
    per-node `a @ b`, `M @ x` and `J.T @ w` at reduction width 0 to 9, over
    special entries and a cancelling row that `(a * b).sum(axis=-1)` sums to
    other bits; width 0 gives zeros."""
    rng = np.random.default_rng(31)
    rows = len(SPECIAL_ENTRIES) + 2
    a, b = stacked_operands(rng, rows, width), stacked_operands(rng, rows, width)
    b[-1] = 1.0
    assert same_bits(problems._row_dots(a, b), [ai @ bi for ai, bi in zip(a, b)])
    for n in (1, 2, 3):
        mat = stacked_operands(rng, rows, width, n)
        mat[-1] = 1.0
        assert same_bits(problems._matvec(mat, a),
                         [mi @ ai for mi, ai in zip(mat, a)])
        jac = np.swapaxes(mat, -1, -2).copy()
        assert same_bits(_transposed_product(jac, a),
                         [ji.T @ ai for ji, ai in zip(jac, a)])
        if not width:
            assert same_bits(_transposed_product(jac, a), np.zeros((rows, n)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 9])
def test_stacked_products_of_one_state_equal_matmul(width):
    """Without a node axis, as ex4's evaluators call them on one state, the
    products are the 0-d and 1-d results of `@`."""
    rng = np.random.default_rng(37)
    rows = len(SPECIAL_ENTRIES) + 2
    for a, b, mat in zip(stacked_operands(rng, rows, width),
                         stacked_operands(rng, rows, width),
                         stacked_operands(rng, rows, width, 3)):
        assert same_bits(problems._row_dots(a, b), a @ b)
        assert same_bits(problems._matvec(mat, a), mat @ a)
        assert same_bits(_transposed_product(mat.T, a), mat @ a)


# -- reference solutions -----------------------------------------------------

def test_reference_values():
    assert np.allclose(reference_solution(builtin("ex2"), 0.3), [0.0, 0.3],
                       rtol=0, atol=1e-16)
    # piecewise formula evaluated by hand at t = 1/2
    assert np.allclose(reference_solution(builtin("ex4"), 0.5), [2.4375, 0.5625],
                       rtol=0, atol=1e-16)
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(reference_solution(builtin("ex1"), t), [0.0, 0.0])


def test_reference_missing_raises():
    with pytest.raises(MissingReferenceError):
        reference_solution(builtin("infeasible1"), 0.5)


def test_ex4_reference_feasible_away_from_jump():
    prob = builtin("ex4")
    grid = make_uniform_grid(prob.horizon, 85)
    for t in grid.nodes:
        if t == 1.0:
            continue
        g = prob.eval_g(reference_solution(prob, t), t)
        assert np.max(g) <= 1e-12


def _ex4_vertices(prob, t):
    """Distinct vertices of ex4's feasible polygon at t, by enumeration.

    The polygon lies in the triangle x >= 0, x1 + x2 <= 3, so it is bounded:
    the LP optimum is unique iff exactly one vertex attains it.
    """
    zero = np.zeros(prob.n)
    A, b = prob.eval_jac_g(zero, t), -prob.eval_g(zero, t)
    vertices = []
    for i in range(prob.m):
        for j in range(i + 1, prob.m):
            rows = A[[i, j]]
            if abs(np.linalg.det(rows)) <= 1e-12:
                continue
            x = np.linalg.solve(rows, b[[i, j]])
            if (np.max(prob.eval_g(x, t)) <= 1e-12
                    and all(np.max(np.abs(x - y)) > 1e-9 for y in vertices)):
                vertices.append(x)
    return vertices


def _ex4_unique_vertex_certificate(prob, t):
    """True when the reference at t is a vertex cut out by two independent
    active rows whose multipliers are strictly positive.

    Complementary slackness then forces both rows active at every optimum,
    and two independent rows in the plane fix the point: the optimum is unique.
    """
    x = reference_solution(prob, t)
    A, g, c = prob.eval_jac_g(x, t), prob.eval_g(x, t), prob.eval_grad_phi(x, t)
    active = np.flatnonzero(np.abs(g) <= 1e-12)
    for k, i in enumerate(active):
        for j in active[k + 1:]:
            rows = A[[i, j]]
            if abs(np.linalg.det(rows)) <= 1e-12:
                continue
            lam = np.linalg.solve(rows.T, -c)       # c + rows^T lam = 0
            if np.min(lam) > 1e-9:
                return True
    return False


def test_ex4_declared_instants_are_the_non_unique_optima():
    prob = builtin("ex4")
    declared = prob.reference_discontinuities
    # At each declared instant: two distinct feasible points (vertices) reach
    # the reference's objective, so the reference is one selection of several.
    for d in declared:
        ref_phi = prob.eval_phi(reference_solution(prob, d), d)
        phis = [prob.eval_phi(x, d) for x in _ex4_vertices(prob, d)]
        assert min(phis) >= ref_phi - 1e-12, d
        assert sum(phi <= ref_phi + 1e-12 for phi in phis) >= 2, d
    # At every other node the reference is the unique optimum.
    for nodes in (21, 84, 85, 201):
        grid = make_uniform_grid(prob.horizon, nodes)
        for t in grid.nodes:
            if any(abs(t - d) <= 1e-12 for d in declared):
                assert not _ex4_unique_vertex_certificate(prob, t), (nodes, t)
            else:
                assert _ex4_unique_vertex_certificate(prob, t), (nodes, t)


def test_ex3_reference_is_a_kkt_point_not_a_minimizer():
    """(1, 1, 0) is feasible with a vanishing objective gradient, so it is a
    KKT point with zero multipliers.  Feasible points of lower cost approach
    it along (1 + s, 1, 2s + s^2), where phi = -3s^2 + O(s^3), and phi is
    unbounded below on the feasible ray (s, s, 2s^2 - 2), s >= 1."""
    prob = builtin("ex3")

    def feasible(x, t):
        return abs(prob.eval_h(x, t)[0]) <= 1e-12 and max(prob.eval_g(x, t)) <= 1e-12

    for t in (0.0, 0.5, 1.0):
        ref = reference_solution(prob, t)
        assert feasible(ref, t) and prob.eval_phi(ref, t) == 0.0
        assert np.array_equal(prob.eval_grad_phi(ref, t), np.zeros(3))
        for s in (1e-1, 1e-2, 1e-3):
            x = np.array([1.0 + s, 1.0, 2.0 * s + s * s])
            assert feasible(x, t), s
            assert 1.0 < prob.eval_phi(x, t) / (-3.0 * s * s) <= 1.0 + 2.0 * s, s
        for s, phi in ((1.0, 0.0), (2.0, -34.0), (10.0, -39042.0)):
            x = np.array([s, s, 2.0 * s * s - 2.0])
            assert feasible(x, t) and prob.eval_phi(x, t) == phi, s


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_smooth_references_feasible_everywhere(name):
    prob = builtin(name)
    grid = make_uniform_grid(prob.horizon, 85)
    for t in grid.nodes:
        x = reference_solution(prob, t)
        if prob.p:
            assert np.max(np.abs(prob.eval_h(x, t))) <= 1e-12
        if prob.m:
            assert np.max(prob.eval_g(x, t)) <= 1e-12


# -- analytic derivatives vs central differences -----------------------------

def _check_derivatives(prob, draws, seed):
    rng = np.random.default_rng(seed)
    cfg = FdConfig(step=1e-6)
    for _ in range(draws):
        t = rng.uniform(0.0, prob.horizon)
        center = (reference_solution(prob, t) if prob.reference is not None
                  else np.zeros(prob.n))
        x = center + rng.uniform(-10.0, 10.0, size=prob.n)

        def assert_close(analytic, fd):
            tol = np.maximum(1e-8, 1e-6 * np.maximum(np.abs(analytic), np.abs(fd)))
            assert np.all(np.abs(analytic - fd) <= tol), (prob.name, t, x)

        assert_close(np.asarray(prob.eval_grad_phi(x, t)),
                     fd_gradient(lambda z: prob.eval_phi(z, t), x, cfg))
        for i in range(prob.p):
            assert_close(np.asarray(prob.eval_jac_h(x, t))[i],
                         fd_gradient(lambda z: prob.eval_h(z, t)[i], x, cfg))
        for j in range(prob.m):
            assert_close(np.asarray(prob.eval_jac_g(x, t))[j],
                         fd_gradient(lambda z: prob.eval_g(z, t)[j], x, cfg))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gradients_match_finite_differences(name):
    _check_derivatives(builtin(name), draws=25, seed=hash(name) % 2**32)


# -- closed-form asymptotic sequence fixture ---------------------------------

def test_akkt_sequence_shapes_and_values():
    grid = make_uniform_grid(1.0, 84)
    x, v = akkt_example_sequence(grid, k=10)
    assert x.dim == 2 and v.dim == 2
    assert np.all(v.values > 0.0)
    assert np.array_equal(x.values[:, 1], np.zeros(84))
    i = 10
    s = grid.nodes[i] - 0.5
    assert x.values[i, 0] == s / 10
    assert v.values[i, 0] == pytest.approx(100.0 / (3.0 * s * s), rel=1e-15)


def test_akkt_sequence_rejects_grid_with_midpoint_node():
    grid = make_uniform_grid(1.0, 85)  # odd count puts a node at t = 1/2
    with pytest.raises(ValueError):
        akkt_example_sequence(grid, k=3)
