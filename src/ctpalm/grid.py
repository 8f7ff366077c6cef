"""Uniform time grids, node-sampled trajectories, quadrature and norms.

Everything downstream (problem evaluation, the solver, diagnostics) works on
trajectories sampled at the nodes of a uniform grid on [0, T].  All reductions
run in ascending node order so repeated runs are bit-identical.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .problems import _count

# Relative slack allowed on node spacing before a grid is rejected as non-uniform.
_UNIFORMITY_RTOL = 1e-15
# Most nodes a grid may have, whether it comes from `make_uniform_grid` or a
# trajectory CSV: the solver holds a few rows of evaluator output per node.
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform node set t_i = i * horizon / (num_nodes - 1), i = 0..num_nodes-1."""

    horizon: float
    num_nodes: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 2 <= _count(self.num_nodes) <= MAX_NODES:
            raise ValueError(f"num_nodes must lie in [2, {MAX_NODES}], got {self.num_nodes}")
        nodes = np.arange(self.num_nodes) * self.horizon / (self.num_nodes - 1)
        # Guard against rounding at the right endpoint.
        nodes[-1] = self.horizon
        # A horizon too small to divide (5e-324 over 2 steps) gives unequal steps.
        gaps = np.diff(nodes)
        if np.any(np.abs(gaps - self.spacing) > _UNIFORMITY_RTOL * self.horizon):
            raise ValueError("grid nodes are not uniformly spaced")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def spacing(self) -> float:
        return self.horizon / (self.num_nodes - 1)


def make_uniform_grid(horizon: float, num_nodes: int) -> TimeGrid:
    """Grid with nodes t_i = i * horizon / (num_nodes - 1)."""
    return TimeGrid(float(horizon), num_nodes)


@dataclass(frozen=True)
class Trajectory:
    """Per-node samples of a vector function of time: values[i] ~ f(t_i)."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2 or vals.shape[0] != self.grid.num_nodes:
            raise ValueError(
                f"values must be (num_nodes, dim), got {vals.shape} for "
                f"{self.grid.num_nodes} nodes"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("trajectory contains non-finite entries")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def constant(grid: TimeGrid, value) -> "Trajectory":
        row = np.atleast_1d(np.asarray(value, dtype=float))
        return Trajectory(grid, np.tile(row, (grid.num_nodes, 1)))


def _trapezoid_sum(samples: np.ndarray, h: float) -> float:
    """Composite trapezoid over per-node scalars, accumulated in ascending order.

    np.cumsum adds left to right (np.sum would add pairwise); starting from
    0.0 makes a sum of negative zeros +0.0.
    """
    if samples.size < 2:
        return 0.0
    return float(0.0 + np.cumsum(h * (samples[:-1] + samples[1:]) / 2.0)[-1])


def _l1_quadrature(rows: np.ndarray, h: float) -> float:
    """Trapezoid quadrature, node spacing h, of the l1 norm of each row;
    0.0 for rows without entries."""
    return _trapezoid_sum(np.abs(rows).sum(axis=1), h)


def write_trajectory_csv(traj: Trajectory, dest, columns=None) -> None:
    """Write `t,c0,c1,...` rows at full double precision to the text file `dest`.

    `columns` names the value columns (default c0, c1, ...).  One data row per
    node, newline-terminated.
    """
    if columns is None:
        columns = [f"c{d}" for d in range(traj.dim)]
    row = ",".join(["%.17g"] * (traj.dim + 1))
    cells = np.column_stack([traj.grid.nodes, traj.values]).ravel().tolist()
    body = "\n".join([row] * traj.grid.num_nodes) % tuple(cells)
    dest.write(f"t,{','.join(columns)}\n{body}\n")


class TrajectoryCsvError(ValueError):
    """Malformed trajectory CSV; carries the file's path and the 1-based
    offending line number."""

    def __init__(self, message: str, line: int, path):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line
        self.path = path


def read_trajectory_csv(path) -> Trajectory:
    """Parse a `t,c0,c1,...` CSV file back into a trajectory on a uniform grid.

    `path` names a UTF-8 file; cells are parsed with `float`, all of them in
    one pass.  Malformed input raises TrajectoryCsvError at its first
    offending line, each line checked for its column count, the MAX_NODES
    row limit, numeric cells and finite cells in that order; the time column
    is checked after the last.
    """

    def fail(message, line):
        return TrajectoryCsvError(message, line, path)

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise fail(f"not UTF-8 text ({exc.reason})",
                   data.count(b"\n", 0, exc.start) + 1) from None
    lines = text.splitlines()
    if not lines:
        raise fail("empty file", 1)
    header = [c.strip() for c in lines[0].split(",")]
    if not header or header[0] != "t":
        raise fail("header must start with 't'", 1)
    dim = len(header) - 1
    linenos = [lineno for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    body = [lines[lineno - 1] for lineno in linenos]
    cells = None
    if len(body) <= MAX_NODES and all(ln.count(",") == dim for ln in body):
        with contextlib.suppress(ValueError):
            cells = np.fromiter(map(float, ",".join(body).split(",")), float,
                                len(body) * (dim + 1)).reshape(len(body), dim + 1)
    if cells is None or not np.isfinite(cells).all():
        # Some line is malformed: name the first.
        for row, (lineno, ln) in enumerate(zip(linenos, body)):
            line_cells = ln.split(",")
            if len(line_cells) != dim + 1:
                raise fail(f"expected {dim + 1} columns, got {len(line_cells)}", lineno)
            if row == MAX_NODES:
                raise fail(f"more than {MAX_NODES} data rows", lineno)
            try:
                vals = [float(c) for c in line_cells]
            except ValueError:
                raise fail("non-numeric cell", lineno) from None
            if not all(map(math.isfinite, vals)):
                raise fail("non-finite cell", lineno)
    if len(body) < 2:
        raise fail("need at least 2 data rows", len(lines))
    ts = cells[:, 0]
    horizon = float(ts[-1])
    if horizon <= 0 or ts[0] != 0.0:
        raise fail("time column must run from 0 to a positive horizon", 2)
    try:
        grid = make_uniform_grid(horizon, len(ts))
    except ValueError as exc:  # a horizon too small or too large to divide
        raise fail(f"time column gives no uniform grid ({exc})", 2) from None
    off_grid = np.flatnonzero(np.abs(ts - grid.nodes) > 1e-12 * max(1.0, horizon))
    if off_grid.size:
        i = off_grid[0]
        raise fail(f"time column is not a uniform grid (t={float(ts[i])!r})", linenos[i])
    return Trajectory(grid, cells[:, 1:])
