"""Problem abstraction and the registry of built-in instances.

A problem is an integral cost phi over [0, T] subject to pointwise equality
constraints h = 0 and inequality constraints g <= 0, all functions of the
state vector x and time t.  Evaluators are plain callables over a stack of
states, one row per node; user problems enter through this same dataclass,
not through a text format, and `pointwise` adapts callables of one (x, t).
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional

import numpy as np


class UnknownProblemError(KeyError):
    """Requested registry name does not exist."""


class EvaluationError(RuntimeError):
    """An evaluator produced a non-finite value; carries its name and (t, x)."""

    def __init__(self, what: str, t: float, x: np.ndarray):
        super().__init__(f"{what} returned a non-finite value at t={float(t)!r}, "
                         f"x={np.asarray(x).tolist()!r}")
        self.what = what
        self.t = t
        self.x = np.array(x)


class MissingReferenceError(ValueError):
    """Problem has no closed-form reference solution attached."""


def _count(value):
    """`value` as an integer, numpy integers included; NaN, which fails every
    range test, for a bool or anything else."""
    if isinstance(value, bool):
        return math.nan
    try:
        return operator.index(value)
    except TypeError:
        return math.nan


@dataclass(frozen=True)
class Convexity:
    """Structure flags used by the global-optimality certificate.

    Trusted metadata: `ProblemDefinition` checks their counts, not values.
    """

    phi_convex: bool
    g_convex: tuple
    h_affine: tuple

    def all_hold(self) -> bool:
        return self.phi_convex and all(self.g_convex) and all(self.h_affine)


@dataclass(frozen=True)
class ProblemDefinition:
    """Dimensions, evaluators and metadata for one problem instance.

    Evaluators are stacked: each takes states x of shape (N, n) and times t
    of shape (N,), row i being the state at time t[i], and returns, for the
    N rows, phi (N,), grad_phi (N, n), h (N, p), jac_h (N, p, n), g (N, m)
    or jac_g (N, m, n).  Callers check these shapes exactly.  Evaluators must
    be pure and act row by row: a row's values depend only on that row's
    (x, t), and repeated calls return identical values.  The solver relies on
    this: it evaluates trial points it does not accept, and one call may hold
    several rows of one node, the same t at different x (the halvings of a
    backtracking step).  Evaluators must not write into x or t: the solver
    passes its own arrays, the grid's nodes and the iterates it goes on with.
    Wrap callables of one state x (n,) at one time with `pointwise`.  Absent
    constraints (p or m = 0) take no evaluators; one given is never called.
    Construction raises ValueError unless n >= 1, p >= 0 and m >= 0 are
    integers (a bool is not one), `convexity` is a `Convexity` whose
    g_convex and h_affine are sequences of m and p flags, and each evaluator
    the solver calls is callable.

    `reference` returns one optimal state per instant.  Because the problem
    separates pointwise, that is an optimal trajectory wherever the pointwise
    optimum is unique.  `reference_discontinuities` lists the instants where
    the optimal solution is not unique, so the reference value there is only
    one selection from the optimal set; a jump in the reference is one such
    case.  Error metrics mask the nodes next to these instants.
    """

    name: str
    n: int
    p: int
    m: int
    horizon: float
    eval_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    eval_grad_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _: KW_ONLY
    eval_h: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    eval_jac_h: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    eval_g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    eval_jac_g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    convexity: Convexity
    reference: Optional[Callable[[float], np.ndarray]] = None
    reference_discontinuities: tuple = ()

    def __post_init__(self):
        n, p, m = (_count(d) for d in (self.n, self.p, self.m))
        if not (n >= 1 and p >= 0 and m >= 0):
            raise ValueError("dimensions must satisfy n >= 1, p >= 0, m >= 0")
        convexity = self.convexity
        if not (isinstance(convexity, Convexity) and hasattr(convexity.g_convex, "__len__")
                and hasattr(convexity.h_affine, "__len__")):
            raise ValueError("convexity must be a Convexity whose g_convex and h_affine "
                             "are sequences of flags")
        flags = len(convexity.g_convex), len(convexity.h_affine)
        if flags != (m, p):
            raise ValueError(f"convexity has {flags[0]} g_convex and {flags[1]} h_affine "
                             f"flags, expected m = {m} and p = {p}")
        shapes = {"phi": (), "grad_phi": (n,), "h": (p,), "jac_h": (p, n),
                  "g": (m,), "jac_g": (m, n)}
        # Built once (`dataclasses.replace` builds it anew): every evaluator
        # call takes the callable here and checks its output against the
        # shape; the evaluators of absent constraints are never called.
        table = {name: (getattr(self, "eval_" + name), shape, 0 in shape)
                 for name, shape in shapes.items()}
        for name, (fn, _, absent) in table.items():
            if not (absent or callable(fn)):
                raise ValueError(f"eval_{name} must be callable")
        object.__setattr__(self, "_evaluators", table)

    def row_shape(self, name: str) -> tuple:
        """Shape of one node's value of evaluator `name` ("phi", "jac_g", ...)."""
        return self._evaluators[name][1]


EVALUATORS = ("phi", "grad_phi", "h", "jac_h", "g", "jac_g")


@dataclass(frozen=True)
class EvalBundle:
    """Every evaluator at each node of a trajectory, stacked on a node axis.

    For N nodes: phi (N,), grad_phi (N, n), h (N, p), jac_h (N, p, n),
    g (N, m) and jac_g (N, m, n).
    """

    phi: np.ndarray
    grad_phi: np.ndarray
    h: np.ndarray
    jac_h: np.ndarray
    g: np.ndarray
    jac_g: np.ndarray


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i along the last axis at every row, in one `np.vecdot` call.

    Stacked products are one numpy kernel each, because on the solver's small
    stacks the cost is the number of numpy calls.  `vecdot` runs the float64
    dot loop of a 1-D `a @ b` and gives its bits; einsum and
    `(a * b).sum(...)` sum in another order.
    """
    return np.vecdot(a, b)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """M_i v_i at every row, in one `np.matvec` call: (..., k, n) and (..., n)
    to (..., k), with the bits of a per-row 2-D @ 1-D."""
    return np.matvec(mat, vec)


def _evaluate_fields(problem: ProblemDefinition, names, xs: np.ndarray,
                     ts: np.ndarray) -> dict:
    """Evaluators `names` on states xs (N, n) at times ts (N,), by name.

    Those of absent constraints (p or m = 0) have empty values and are not
    called.  Raises ValueError, naming the evaluator and both shapes, unless
    an output has exactly the contracted shape (N,) + `problem.row_shape(name)`.
    Values are not checked for finiteness.
    """
    fields = {}
    for name in names:
        fn, shape, absent = problem._evaluators[name]
        expected = (len(ts),) + shape
        if absent:
            fields[name] = np.empty(expected)
            continue
        out = np.asarray(fn(xs, ts), dtype=float)
        if out.shape != expected:
            raise ValueError(f"eval_{name} returned shape {out.shape}, "
                             f"expected {expected}")
        fields[name] = out
    return fields


def evaluate_all(problem: ProblemDefinition, xs: np.ndarray, ts) -> EvalBundle:
    """Evaluate phi, h, g and their spatial derivatives at every node.

    Row i of `xs` is the state at time `ts[i]`.  Each evaluator runs once on
    the whole stack; those of h and g only when p, m > 0.  A non-finite value
    raises `EvaluationError` for the lowest offending node, naming the first
    non-finite field there.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    count = len(ts)
    if xs.shape != (count, problem.n):
        raise ValueError(f"states have shape {xs.shape}, expected ({count}, {problem.n})")
    # Overflow shows up as a non-finite value, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        fields = _evaluate_fields(problem, EVALUATORS, xs, ts)
    finite = [np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
              for arr in fields.values()]
    bad = ~np.logical_and.reduce(finite)
    if bad.any():
        i = int(np.argmax(bad))
        what = next(name for name, ok in zip(fields, finite) if not ok[i])
        raise EvaluationError(what, ts[i], xs[i])
    return EvalBundle(**fields)


def pointwise(problem: ProblemDefinition) -> ProblemDefinition:
    """The problem with evaluators of one state wrapped into stacked ones.

    Each of `problem`'s evaluators takes one state x (n,) and one time t; the
    wrapper calls it once per row, in ascending row order, and raises
    ValueError when a row's value does not have exactly the per-node shape.
    Those of absent constraints stay as given.
    """
    def stacked(name):
        fn = getattr(problem, "eval_" + name)
        shape = problem.row_shape(name)

        def evaluator(xs, ts):
            out = np.empty((len(ts),) + shape)
            for i in range(len(ts)):
                row = np.asarray(fn(xs[i], ts[i]), dtype=float)
                if row.shape != shape:
                    raise ValueError(f"eval_{name} returned shape {row.shape} at "
                                     f"t={float(ts[i])!r}, expected {shape}")
                out[i] = row
            return out
        return evaluator

    return dataclasses.replace(problem, **{
        "eval_" + name: stacked(name) for name, (_, _, absent)
        in problem._evaluators.items() if not absent})


def reference_solution(problem: ProblemDefinition, t: float) -> np.ndarray:
    """Closed-form solution sample at time t."""
    if problem.reference is None:
        raise MissingReferenceError(f"problem {problem.name!r} has no reference solution")
    return np.asarray(problem.reference(t), dtype=float)


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------
#
# The built-in evaluators take one state (n,) at one time, or a stack (N, n)
# at times (N,).  On the solver's small stacks each numpy call costs about the
# same whatever its size, so each output is built in a few calls, not one per
# entry: its constant entries are copied from a read-only template below in
# one assignment, and its varying entries are computed a whole row at a time
# where that gives each entry's bits, else one entry at a time (`_vector`).

# libm's pow, the function a scalar `x ** k` calls.  Array `**` takes numpy's
# own kernels (x * x for squares, SIMD pow otherwise), which can differ from it
# in the last bit.
_pow = np.float_power


def _vector(like, *entries):
    """Entries stacked on a new last axis; each broadcasts to `like`'s shape.
    `like` is an array or a scalar, whose shape is read without `np.shape`'s
    Python-level dispatch."""
    out = np.empty(getattr(like, "shape", ()) + (len(entries),))
    for i, entry in enumerate(entries):
        out[..., i] = entry
    return out


# Templates of constant entries, NaN where an entry varies and is written
# over, and the operands of whole-row steps.  A shift subtracts 0.0 from an
# entry that takes no such step, which keeps every bit, signed zeros and NaN
# included.
_EX1_JAC_G = np.array([[0.0, -1.0], [math.nan, -1.0]])
_EX2_GRAD_PHI = np.array([1.0, 0.0])
_EX2_JAC_G = np.array([[math.nan, 1.0], [math.nan, -1.0], [math.nan, 1.0]])
# Column 0 of ex2's jac_g is x1 * scale + offset, x1 * 2.0 + -2.0 being 2.0 * x1 - 2.0.
_EX2_JAC_G_SCALE = np.array([2.0, 2.0, -2.0])
_EX2_JAC_G_OFFSET = np.array([-2.0, -2.0, 0.5])
_EX3_SHIFT = np.array([1.0, 1.0, 0.0])
_EX3_GRAD_PHI_SCALE = np.array([2.0, 2.0, -2.0])
_EX3_JAC_G = np.array([[math.nan, math.nan, -1.0], [-1.0, 0.0, -0.5]])
_EX3_JAC_G_SHIFT = np.array([0.0, 4.0])
_EX4_A = np.array([[0.0, -1.0], [-1.0, 0.0], [math.nan, math.nan], [1.0, 1.0], [0.0, 1.0]])
_EX4_B = np.array([0.0, 0.0, 0.0, 3.0, math.nan])
_AKKT_GRAD_PHI = np.array([math.nan, 0.0])
_AKKT_JAC_G = np.array([[math.nan, 1.0], [0.0, -1.0]])
for _template in (_EX1_JAC_G, _EX2_GRAD_PHI, _EX2_JAC_G, _EX2_JAC_G_SCALE, _EX2_JAC_G_OFFSET,
                  _EX3_SHIFT, _EX3_GRAD_PHI_SCALE, _EX3_JAC_G, _EX3_JAC_G_SHIFT, _EX4_A,
                  _EX4_B, _AKKT_GRAD_PHI, _AKKT_JAC_G):
    _template.setflags(write=False)
del _template


def _ex1() -> ProblemDefinition:
    # minimize  int x1^2 + x2  s.t.  -x2 <= 0,  -x1^2 - x2 <= 0   on [0, 1]
    def grad_phi(x, t):
        out = 2.0 * x
        out[..., 1] = 1.0
        return out

    def jac_g(x, t):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[...] = _EX1_JAC_G
        out[..., 1, 0] = -2.0 * x[..., 0]
        return out

    return ProblemDefinition(
        name="ex1", n=2, p=0, m=2, horizon=1.0,
        eval_phi=lambda x, t: _pow(x[..., 0], 2) + x[..., 1],
        eval_grad_phi=grad_phi,
        eval_g=lambda x, t: _vector(x[..., 0], -x[..., 1],
                                    -_pow(x[..., 0], 2) - x[..., 1]),
        eval_jac_g=jac_g,
        convexity=Convexity(phi_convex=True, g_convex=(True, False), h_affine=()),
        reference=lambda t: np.array([0.0, 0.0]),
    )


def _ex2() -> ProblemDefinition:
    # minimize  int x1  subject to three parabolic constraints pinching x at (0, t)
    def grad_phi(x, t):
        out = np.empty(x.shape[:-1] + (2,))
        out[...] = _EX2_GRAD_PHI
        return out

    def g(x, t):
        x1, x2 = x[..., 0], x[..., 1]
        sq = _pow(x1, 2)
        lead = sq - 2.0 * x1
        return _vector(x1, lead + x2 - t, lead - x2 + t, -sq + 0.5 * x1 + x2 - t)

    def jac_g(x, t):
        out = np.empty(x.shape[:-1] + (3, 2))
        out[...] = _EX2_JAC_G
        out[..., 0] = x[..., :1] * _EX2_JAC_G_SCALE + _EX2_JAC_G_OFFSET
        return out

    return ProblemDefinition(
        name="ex2", n=2, p=0, m=3, horizon=1.0,
        eval_phi=lambda x, t: x[..., 0].copy(),
        eval_grad_phi=grad_phi,
        eval_g=g,
        eval_jac_g=jac_g,
        convexity=Convexity(phi_convex=True, g_convex=(True, True, False), h_affine=()),
        reference=lambda t: np.array([0.0, t]),
    )


def _ex3() -> ProblemDefinition:
    # Equality + inequality constrained instance.  Its reference (1, 1, 0) is
    # a KKT point with zero multipliers, the one reached from the reference
    # start, not a minimizer: the feasible set is unbounded below along
    # x = (s, s, 2s^2 - 2), s >= 1, and phi = -3s^2 + O(s^3) < 0 on the
    # feasible curve (1 + s, 1, 2s + s^2) leaving it.
    def phi(x, t):
        # Rows of the transpose are numpy scalars on one state, as the
        # per-entry terms were, so a sum of two NaNs keeps the same one.
        sq = _pow(x - _EX3_SHIFT, 2).T
        return sq[0] + sq[1] - sq[2]

    def h(x, t):
        return (_pow(x[..., 0], 2) + _pow(x[..., 1], 2) - x[..., 2] - 2.0)[..., None]

    def jac_h(x, t):
        out = 2.0 * x
        out[..., 2] = -1.0
        return out[..., None, :]

    def g(x, t):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return _vector(x1, 2.0 * x1 * x2 - 4.0 * x2 - x3 + 2.0,
                       -x1 - 0.5 * x3 + 1.0)

    def jac_g(x, t):
        out = np.empty(x.shape[:-1] + (2, 3))
        out[...] = _EX3_JAC_G
        out[..., 0, :2] = 2.0 * x[..., 1::-1] - _EX3_JAC_G_SHIFT
        return out

    return ProblemDefinition(
        name="ex3", n=3, p=1, m=2, horizon=1.0,
        eval_phi=phi,
        eval_grad_phi=lambda x, t: (x - _EX3_SHIFT) * _EX3_GRAD_PHI_SCALE,
        eval_h=h,
        eval_jac_h=jac_h,
        eval_g=g,
        eval_jac_g=jac_g,
        convexity=Convexity(phi_convex=False, g_convex=(False, True), h_affine=(False,)),
        reference=lambda t: np.array([1.0, 1.0, 0.0]),
    )


def _ex4_A(t) -> np.ndarray:
    # sign(0) = 0, so at the kink t = 1 the third row degenerates to (0, 0).
    out = np.empty(getattr(t, "shape", ()) + (5, 2))
    out[...] = _EX4_A
    out[..., 2, 0] = np.sign(t - 1.0)
    out[..., 2, 1] = np.sign(1.0 - t)
    return out


def _ex4_b(t) -> np.ndarray:
    out = np.empty(getattr(t, "shape", ()) + (5,))
    out[...] = _EX4_B
    out[..., 4] = 0.25 + 0.625 * t
    return out


def _ex4_c(t) -> np.ndarray:
    return _vector(t, (t - 1.0) * np.sign(1.0 - t), -1.0)


def _ex4_reference(t: float) -> np.ndarray:
    x1 = 11.0 / 4.0 - 5.0 * t / 8.0 if t <= 1.0 else 0.25 + 0.625 * t
    return np.array([x1, 0.25 + 0.625 * t])


def _ex4() -> ProblemDefinition:
    # Linear cost c(t).x with A(t) x <= b(t).  The optimum is unique except at
    # two instants where c(t) is normal to a whole optimal edge: at t = 0,
    # c = (-1, -1) and the edge is x1 + x2 = 3, 0 <= x2 <= 1/4; at t = 1, where
    # the solution jumps, c = (0, -1) and the edge is x2 = 7/8, 0 <= x1 <= 17/8.
    return ProblemDefinition(
        name="ex4", n=2, p=0, m=5, horizon=2.0,
        eval_phi=lambda x, t: _row_dots(_ex4_c(t), x),
        eval_grad_phi=lambda x, t: _ex4_c(t),
        eval_g=lambda x, t: _matvec(_ex4_A(t), x) - _ex4_b(t),
        eval_jac_g=lambda x, t: _ex4_A(t),
        convexity=Convexity(phi_convex=True, g_convex=(True,) * 5, h_affine=()),
        reference=_ex4_reference,
        reference_discontinuities=(0.0, 1.0),
    )


def _akkt_example() -> ProblemDefinition:
    # KKT never holds at the solution (0, 0), but asymptotic multipliers exist.
    # At t = 0.5, phi = 0 and x1 is free: (0, 0) is one optimum of many.
    def grad_phi(x, t):
        out = np.empty(x.shape[:-1] + (2,))
        out[...] = _AKKT_GRAD_PHI
        out[..., 0] = t - 0.5
        return out

    def jac_g(x, t):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[...] = _AKKT_JAC_G
        out[..., 0, 0] = -3.0 * (t - 0.5) * _pow(x[..., 0], 2)
        return out

    return ProblemDefinition(
        name="akkt_example", n=2, p=0, m=2, horizon=1.0,
        eval_phi=lambda x, t: (t - 0.5) * x[..., 0],
        eval_grad_phi=grad_phi,
        eval_g=lambda x, t: _vector(
            x[..., 0], -(t - 0.5) * _pow(x[..., 0], 3) + x[..., 1], -x[..., 1]),
        eval_jac_g=jac_g,
        convexity=Convexity(phi_convex=True, g_convex=(False, True), h_affine=()),
        reference=lambda t: np.array([0.0, 0.0]),
        reference_discontinuities=(0.5,),
    )


def _infeasible1() -> ProblemDefinition:
    # Empty feasible set: x^2 + 1 <= 0 never holds.  The squared-violation
    # integral has its unique stationary point at x = 0.  With n = m = 1 every
    # output is x's one entry worked whole-row.
    return ProblemDefinition(
        name="infeasible1", n=1, p=0, m=1, horizon=1.0,
        eval_phi=lambda x, t: _pow(x[..., 0], 2),
        eval_grad_phi=lambda x, t: 2.0 * x,
        eval_g=lambda x, t: _pow(x, 2) + 1.0,
        eval_jac_g=lambda x, t: (2.0 * x)[..., None],
        convexity=Convexity(phi_convex=True, g_convex=(True,), h_affine=()),
    )


_REGISTRY = {
    "ex1": _ex1,
    "ex2": _ex2,
    "ex3": _ex3,
    "ex4": _ex4,
    "akkt_example": _akkt_example,
    "infeasible1": _infeasible1,
}


def builtin_names() -> tuple:
    return tuple(_REGISTRY)


def builtin(name: str) -> ProblemDefinition:
    """Look up a built-in problem by registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; valid names: {', '.join(_REGISTRY)}"
        ) from None
    return factory()
