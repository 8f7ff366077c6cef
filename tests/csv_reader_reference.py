"""The line-by-line trajectory CSV reader that `grid.read_trajectory_csv`
replaced, kept as its reference: on every file the reader must return the
same array bits, or raise the same TrajectoryCsvError message and line.

It reads `grid.MAX_NODES` at call time, so a test that lowers the limit
lowers it for both readers.
"""

from __future__ import annotations

import math

import numpy as np

from ctpalm import grid
from ctpalm.grid import Trajectory, TrajectoryCsvError, make_uniform_grid


def read_trajectory_csv(path) -> Trajectory:
    """Parse a `t,c0,c1,...` CSV file, converting and checking it line by line."""

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
    ts, rows, linenos = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != dim + 1:
            raise fail(f"expected {dim + 1} columns, got {len(cells)}", lineno)
        if len(ts) == grid.MAX_NODES:
            raise fail(f"more than {grid.MAX_NODES} data rows", lineno)
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            raise fail("non-numeric cell", lineno) from None
        if not all(map(math.isfinite, vals)):
            raise fail("non-finite cell", lineno)
        ts.append(vals[0])
        rows.append(vals[1:])
        linenos.append(lineno)
    if len(ts) < 2:
        raise fail("need at least 2 data rows", len(lines))
    horizon = ts[-1]
    if horizon <= 0 or ts[0] != 0.0:
        raise fail("time column must run from 0 to a positive horizon", 2)
    try:
        uniform = make_uniform_grid(horizon, len(ts))
    except ValueError as exc:  # a horizon too small or too large to divide
        raise fail(f"time column gives no uniform grid ({exc})", 2) from None
    off_grid = np.flatnonzero(np.abs(np.array(ts) - uniform.nodes)
                              > 1e-12 * max(1.0, horizon))
    if off_grid.size:
        i = off_grid[0]
        raise fail(f"time column is not a uniform grid (t={ts[i]!r})", linenos[i])
    return Trajectory(uniform, np.array(rows))
