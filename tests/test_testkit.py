"""The oracles themselves need sanity checks before anything trusts them."""

import itertools

import numpy as np
import pytest

from ctpalm.lagrangian import MultiplierSet
from ctpalm.problems import builtin

from testkit import (FdConfig, aug_lagrangian_value, aug_lagrangian_values, dense_grid_min,
                     fd_gradient)


def test_fd_gradient_quadratic():
    grad = fd_gradient(lambda x: x[0] ** 2 + x[1], np.array([1.0, 1.0]))
    assert np.allclose(grad, [2.0, 1.0], atol=1e-8)


def test_fd_gradient_constant():
    grad = fd_gradient(lambda x: 7.0, np.array([0.3, -0.2, 5.0]))
    assert np.allclose(grad, 0.0, atol=1e-10)


def test_fd_gradient_of_squared_hinge():
    grad = fd_gradient(lambda x: max(0.0, x[0]) ** 2, np.array([0.5]))
    assert grad[0] == pytest.approx(1.0, abs=1e-8)


def test_fd_gradient_polynomials_high_accuracy():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        x = rng.normal(size=2)
        f = lambda z: float(z @ A @ z + b @ z)
        exact = (A + A.T) @ x + b
        assert np.allclose(fd_gradient(f, x), exact, atol=1e-8)


def test_fd_gradient_rejects_nonfinite():
    with pytest.raises(ValueError):
        fd_gradient(lambda x: float("nan"), np.array([0.0]))


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FdConfig(step=0.0)


def test_lattice_min_hits_exact_node():
    x, f = dense_grid_min(lambda z: (z[:, 0] - 0.3) ** 2, np.array([0.0]), 1.0, 201)
    assert x[0] == pytest.approx(0.3, abs=1e-15)
    assert f == pytest.approx(0.0, abs=1e-16)


def test_lattice_min_matches_hand_solved_penalized_node():
    from ctpalm.lagrangian import MultiplierSet
    from ctpalm.problems import builtin
    prob = builtin("ex1")
    mult = MultiplierSet(v=np.array([1.0, 1.0]))
    x, _ = dense_grid_min(lambda z: aug_lagrangian_values(prob, z, mult, 1.0, 0.0),
                          np.array([0.0, 0.5]), 1.0, 101)
    assert np.max(np.abs(x - np.array([0.0, 0.5]))) <= 2.0 / 100 + 1e-12


def test_lattice_tie_break_is_first_index():
    # symmetric double well: minima at -0.5 and +0.5, both on the lattice
    f = lambda z: (z[:, 0] ** 2 - 0.25) ** 2
    x, _ = dense_grid_min(f, np.array([0.0]), 1.0, 5)  # lattice -1,-0.5,0,0.5,1
    assert x[0] == -0.5


def test_lattice_exhaustive_lower_bound():
    rng = np.random.default_rng(3)
    f = lambda z: np.sin(3 * z[:, 0]) + z[:, 1] ** 2
    x_best, f_best = dense_grid_min(f, np.zeros(2), 1.5, 11)
    axes = np.linspace(-1.5, 1.5, 11)
    for a in axes:
        for b in axes:
            assert f_best <= f(np.array([[a, b]]))[0] + 1e-15


def test_lattice_rejects_big_dimension():
    with pytest.raises(ValueError):
        dense_grid_min(lambda z: 0.0, np.zeros(4), 1.0, 5)


def loop_grid_min(f, box_center, radius, points_per_axis):
    """The per-point loop `dense_grid_min` replaces, as its bit-for-bit
    reference: f maps one point (n,) to its value, visited in row-major index
    order, and a strictly smaller value replaces the best."""
    center = np.atleast_1d(np.asarray(box_center, dtype=float))
    axes = [np.array([center[d] - radius + 2.0 * radius * k / (points_per_axis - 1)
                      for k in range(points_per_axis)])
            for d in range(center.size)]
    best_x, best_f = None, np.inf
    for idx in itertools.product(range(points_per_axis), repeat=center.size):
        x = np.array([axes[d][idx[d]] for d in range(center.size)])
        val = float(f(x))
        if val < best_f:
            best_x, best_f = x, val
    return best_x, best_f


def assert_same_minimum(stacked, point, center, radius, points_per_axis):
    x, f = dense_grid_min(stacked, center, radius, points_per_axis)
    x_loop, f_loop = loop_grid_min(point, center, radius, points_per_axis)
    assert repr(f) == repr(f_loop)
    assert (x is None and x_loop is None) or x.tobytes() == x_loop.tobytes()
    return x, f


# The ex1 and ex2 instants of acceptance criterion 10: (problem, x0, v0, t).
CRITERION_10 = [("ex1", [1.0, 1.0], [1.0, 1.0], t) for t in (0.0, 0.4, 1.0)] + [
    ("ex2", [0.5, 0.5], [1.0, 1.0, 1.0], t) for t in (0.0, 0.5, 1.0)]


@pytest.mark.parametrize("name,x0,v0,t", CRITERION_10)
def test_stacked_lattice_minimum_equals_the_point_loop(name, x0, v0, t):
    """Criterion 10's augmented objectives on its box, at a 41-point lattice:
    every stacked value equals the one-point value bit for bit, and so do the
    minimum and its point."""
    prob, mult = builtin(name), MultiplierSet(v=np.array(v0))
    stacked = lambda z: aug_lagrangian_values(prob, z, mult, 1.0, t)
    point = lambda z: aug_lagrangian_value(prob, z, mult, 1.0, t)
    axis = np.linspace(-2.0, 2.0, 41)
    lattice = np.array(list(itertools.product(axis + x0[0], axis + x0[1])))
    assert stacked(lattice).tobytes() == np.array([point(z) for z in lattice]).tobytes()
    assert_same_minimum(stacked, point, np.array(x0), 2.0, 41)


@pytest.mark.parametrize("values,expected", [
    # Ties: the first smallest value in row-major order, -0.0 tying with 0.0.
    ([3.0, 1.0, 2.0, 1.0, 1.0, 5.0, 4.0, 1.0, 9.0], 1),
    ([0.0, 7.0, -0.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0], 0),
    # NaN is skipped even where it comes first; so is +inf.
    ([np.nan, 2.0, np.nan, np.inf, 1.0, np.nan, 1.0, 3.0, np.nan], 4),
    ([np.inf, np.nan, -np.inf, 0.0, -np.inf, 1.0, 2.0, 3.0, 4.0], 2),
    # No value below +inf: no point.
    ([np.nan, np.inf] * 4 + [np.nan], None),
])
def test_stacked_lattice_keeps_the_loops_ties_and_skips_nan(values, expected):
    """A 3 x 3 lattice whose values are looked up by row-major index."""
    table = np.array(values)

    def index(z):
        return np.rint((z[..., 0] + 1.0) * 3.0 + z[..., 1] + 1.0).astype(int)

    x, f = assert_same_minimum(lambda z: table[index(z)], lambda z: table[index(z)],
                               np.zeros(2), 1.0, 3)
    if expected is None:
        assert x is None and f == np.inf
    else:
        assert int(index(x)) == expected and repr(f) == repr(float(table[expected]))
