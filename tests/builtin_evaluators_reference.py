"""The per-entry built-in evaluators that the template and whole-row ones in
`ctpalm.problems` replaced, kept as their bit-for-bit reference: on every
stack, and on one state at a time, each built-in evaluator must return the
shape, dtype and bytes that its reference returns here.

Every output is built by `_vector` or `_matrix`, one `np.empty` and one
assignment per entry, constant entries included.
"""

from __future__ import annotations

import numpy as np

_pow = np.float_power


def _vector(like, *entries):
    """Entries stacked on a new last axis; each broadcasts to `like`'s shape."""
    out = np.empty(getattr(like, "shape", ()) + (len(entries),))
    for i, entry in enumerate(entries):
        out[..., i] = entry
    return out


def _matrix(like, *rows):
    """Rows of entries in one block of shape `like`'s + (rows, entries); each
    entry broadcasts to `like`'s shape."""
    out = np.empty(getattr(like, "shape", ()) + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def _ex1() -> dict:
    return {
        "phi": lambda x, t: _pow(x[..., 0], 2) + x[..., 1],
        "grad_phi": lambda x, t: _vector(x[..., 0], 2.0 * x[..., 0], 1.0),
        "g": lambda x, t: _vector(x[..., 0], -x[..., 1], -_pow(x[..., 0], 2) - x[..., 1]),
        "jac_g": lambda x, t: _matrix(x[..., 0], (0.0, -1.0), (-2.0 * x[..., 0], -1.0)),
    }


def _ex2() -> dict:
    def g(x, t):
        x1, x2 = x[..., 0], x[..., 1]
        sq = _pow(x1, 2)
        return _vector(x1, sq - 2.0 * x1 + x2 - t, sq - 2.0 * x1 - x2 + t,
                       -sq + 0.5 * x1 + x2 - t)

    def jac_g(x, t):
        x1 = x[..., 0]
        return _matrix(x1, (2.0 * x1 - 2.0, 1.0), (2.0 * x1 - 2.0, -1.0),
                       (-2.0 * x1 + 0.5, 1.0))

    return {
        "phi": lambda x, t: x[..., 0].copy(),
        "grad_phi": lambda x, t: _vector(x[..., 0], 1.0, 0.0),
        "g": g,
        "jac_g": jac_g,
    }


def _ex3() -> dict:
    def phi(x, t):
        return (_pow(x[..., 0] - 1.0, 2) + _pow(x[..., 1] - 1.0, 2)
                - _pow(x[..., 2], 2))

    def g(x, t):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return _vector(x1, 2.0 * x1 * x2 - 4.0 * x2 - x3 + 2.0,
                       -x1 - 0.5 * x3 + 1.0)

    return {
        "phi": phi,
        "grad_phi": lambda x, t: _vector(
            x[..., 0], 2.0 * (x[..., 0] - 1.0), 2.0 * (x[..., 1] - 1.0), -2.0 * x[..., 2]),
        "h": lambda x, t: _vector(
            x[..., 0], _pow(x[..., 0], 2) + _pow(x[..., 1], 2) - x[..., 2] - 2.0),
        "jac_h": lambda x, t: _matrix(
            x[..., 0], (2.0 * x[..., 0], 2.0 * x[..., 1], -1.0)),
        "g": g,
        "jac_g": lambda x, t: _matrix(
            x[..., 0], (2.0 * x[..., 1], 2.0 * x[..., 0] - 4.0, -1.0),
            (-1.0, 0.0, -0.5)),
    }


def _ex4_A(t) -> np.ndarray:
    return _matrix(t, (0.0, -1.0), (-1.0, 0.0),
                   (np.sign(t - 1.0), np.sign(1.0 - t)), (1.0, 1.0), (0.0, 1.0))


def _ex4_b(t) -> np.ndarray:
    return _vector(t, 0.0, 0.0, 0.0, 3.0, 0.25 + 0.625 * t)


def _ex4_c(t) -> np.ndarray:
    return _vector(t, (t - 1.0) * np.sign(1.0 - t), -1.0)


def _ex4() -> dict:
    return {
        "phi": lambda x, t: np.vecdot(_ex4_c(t), x),
        "grad_phi": lambda x, t: _ex4_c(t),
        "g": lambda x, t: np.matvec(_ex4_A(t), x) - _ex4_b(t),
        "jac_g": lambda x, t: _ex4_A(t),
    }


def _akkt_example() -> dict:
    return {
        "phi": lambda x, t: (t - 0.5) * x[..., 0],
        "grad_phi": lambda x, t: _vector(x[..., 0], t - 0.5, 0.0),
        "g": lambda x, t: _vector(
            x[..., 0], -(t - 0.5) * _pow(x[..., 0], 3) + x[..., 1], -x[..., 1]),
        "jac_g": lambda x, t: _matrix(
            x[..., 0], (-3.0 * (t - 0.5) * _pow(x[..., 0], 2), 1.0), (0.0, -1.0)),
    }


def _infeasible1() -> dict:
    return {
        "phi": lambda x, t: _pow(x[..., 0], 2),
        "grad_phi": lambda x, t: _vector(x[..., 0], 2.0 * x[..., 0]),
        "g": lambda x, t: _vector(x[..., 0], _pow(x[..., 0], 2) + 1.0),
        "jac_g": lambda x, t: _matrix(x[..., 0], (2.0 * x[..., 0],)),
    }


_EVALUATORS = {
    "ex1": _ex1,
    "ex2": _ex2,
    "ex3": _ex3,
    "ex4": _ex4,
    "akkt_example": _akkt_example,
    "infeasible1": _infeasible1,
}


def evaluators(name: str) -> dict:
    """Built-in `name`'s evaluators of present fields ("phi", "jac_g", ...),
    by field name, as they were written with `_vector` and `_matrix`."""
    return _EVALUATORS[name]()
