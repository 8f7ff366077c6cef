"""The oracles themselves need sanity checks before anything trusts them."""

import numpy as np
import pytest

from testkit import FdConfig, aug_lagrangian_value, dense_grid_min, fd_gradient


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
    x, f = dense_grid_min(lambda z: (z[0] - 0.3) ** 2, np.array([0.0]), 1.0, 201)
    assert x[0] == pytest.approx(0.3, abs=1e-15)
    assert f == pytest.approx(0.0, abs=1e-16)


def test_lattice_min_matches_hand_solved_penalized_node():
    from ctpalm.lagrangian import MultiplierSet
    from ctpalm.problems import builtin
    prob = builtin("ex1")
    mult = MultiplierSet(v=np.array([1.0, 1.0]))
    x, _ = dense_grid_min(lambda z: aug_lagrangian_value(prob, z, mult, 1.0, 0.0),
                          np.array([0.0, 0.5]), 1.0, 101)
    assert np.max(np.abs(x - np.array([0.0, 0.5]))) <= 2.0 / 100 + 1e-12


def test_lattice_tie_break_is_first_index():
    # symmetric double well: minima at -0.5 and +0.5, both on the lattice
    f = lambda z: (z[0] ** 2 - 0.25) ** 2
    x, _ = dense_grid_min(f, np.array([0.0]), 1.0, 5)  # lattice -1,-0.5,0,0.5,1
    assert x[0] == -0.5


def test_lattice_exhaustive_lower_bound():
    rng = np.random.default_rng(3)
    f = lambda z: float(np.sin(3 * z[0]) + z[1] ** 2)
    x_best, f_best = dense_grid_min(f, np.zeros(2), 1.5, 11)
    axes = np.linspace(-1.5, 1.5, 11)
    for a in axes:
        for b in axes:
            assert f_best <= f(np.array([a, b])) + 1e-15


def test_lattice_rejects_big_dimension():
    with pytest.raises(ValueError):
        dense_grid_min(lambda z: 0.0, np.zeros(4), 1.0, 5)
