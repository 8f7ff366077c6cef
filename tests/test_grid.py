"""Grid construction, quadrature, norms and trajectory CSV round-trips."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csv_reader_reference as reference
import ctpalm.grid as grid_mod
from ctpalm.grid import (MAX_NODES, TimeGrid, Trajectory, TrajectoryCsvError,
                         _l1_quadrature, _trapezoid_sum, make_uniform_grid,
                         read_trajectory_csv, write_trajectory_csv)


def traj_of(grid, fn):
    return Trajectory(grid, np.array([np.atleast_1d(fn(t)) for t in grid.nodes]))


def trapezoid(grid, fn):
    return _trapezoid_sum(np.array([fn(t) for t in grid.nodes]), grid.spacing)


def oracle_trapezoid(values, h):
    """Independent summation oracle: exact pairwise-term sum via fsum."""
    return math.fsum(h * (values[i] + values[i + 1]) / 2.0
                     for i in range(len(values) - 1))


def loop_nodes(horizon, num_nodes):
    """The list-comprehension node rule `TimeGrid` replaces: its bit-for-bit
    reference."""
    nodes = np.array([i * horizon / (num_nodes - 1) for i in range(num_nodes)])
    nodes[-1] = horizon
    return nodes


def csv_error(tmp_path, text):
    """The TrajectoryCsvError raised by reading `text` from a file, after
    checking that its message starts with the file's path and line."""
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(TrajectoryCsvError) as err:
        read_trajectory_csv(str(path))
    assert str(err.value).startswith(f"{path}: line {err.value.line}: ")
    return err.value


def loop_trapezoid(samples, h):
    """The node loop `_trapezoid_sum` replaces: its bit-for-bit reference."""
    total = 0.0
    for i in range(samples.size - 1):
        total += h * (samples[i] + samples[i + 1]) / 2.0
    return float(total)


# -- make_uniform_grid -------------------------------------------------------

def test_grid_85_nodes_unit_horizon():
    grid = make_uniform_grid(1.0, 85)
    assert grid.num_nodes == 85
    assert grid.spacing == pytest.approx(1.0 / 84.0, rel=1e-15)
    assert np.allclose(grid.nodes, [i / 84 for i in range(85)], rtol=0, atol=1e-16)


def test_grid_two_nodes_is_endpoints():
    grid = make_uniform_grid(1.0, 2)
    assert list(grid.nodes) == [0.0, 1.0]


def test_grid_five_nodes_horizon_two():
    grid = make_uniform_grid(2.0, 5)
    assert list(grid.nodes) == [0.0, 0.5, 1.0, 1.5, 2.0]


# The last five: horizons too small to divide into equal steps, and
# non-finite horizons.
@pytest.mark.parametrize("horizon,nodes", [(0.0, 5), (-1.0, 5), (1.0, 1), (1.0, 0),
                                           (1.0, MAX_NODES + 1), (5e-324, 3),
                                           (1e-323, 4), (1e-320, 1000),
                                           (math.inf, 5), (math.nan, 5)])
def test_grid_rejects_bad_arguments(horizon, nodes):
    with pytest.raises(ValueError):
        make_uniform_grid(horizon, nodes)


# A float count once raised TypeError from operator.index; every count now
# takes the one rule of `problems._count` (a bool is refused too).
@pytest.mark.parametrize("nodes", [5.0, 5.5, 85.0, np.float64(3), "3", True])
def test_grid_node_count_must_be_an_integer(nodes):
    message = "^" + re.escape(f"num_nodes must lie in [2, {MAX_NODES}], got {nodes}") + "$"
    for make in (make_uniform_grid, TimeGrid):
        with pytest.raises(ValueError, match=message):
            make(1.0, nodes)
    assert TimeGrid(1.0, np.int64(3)).nodes.tolist() == [0.0, 0.5, 1.0]


def test_grid_nodes_equal_the_list_comprehension_bit_for_bit():
    rng = np.random.default_rng(8)
    pairs = [(float(10.0 ** rng.uniform(-300, 300)), int(rng.integers(2, 5000)))
             for _ in range(200)]
    for horizon, n in pairs + [(1.0, MAX_NODES)]:
        grid = make_uniform_grid(horizon, n)
        assert grid.nodes.tobytes() == loop_nodes(horizon, n).tobytes(), (horizon, n)
        assert not grid.nodes.flags.writeable


def test_grids_compare_by_horizon_and_node_count():
    assert [f.name for f in dataclasses.fields(TimeGrid) if f.init] == [
        "horizon", "num_nodes"]
    grid = make_uniform_grid(1.0, 5)
    assert grid == TimeGrid(1.0, 5) == make_uniform_grid(1, 5)
    assert not grid != TimeGrid(1.0, 5)
    assert grid != make_uniform_grid(2.0, 5) and not grid == make_uniform_grid(2.0, 5)
    assert grid != make_uniform_grid(1.0, 6) and not grid == make_uniform_grid(1.0, 6)


def test_trajectory_rejects_nonfinite_and_bad_shape():
    grid = make_uniform_grid(1.0, 3)
    with pytest.raises(ValueError):
        Trajectory(grid, np.array([[0.0], [np.nan], [0.0]]))
    with pytest.raises(ValueError):
        Trajectory(grid, np.zeros((4, 1)))


def test_trajectory_takes_1d_values_as_one_column():
    traj = Trajectory(make_uniform_grid(1.0, 3), [1.0, 2.0, 3.0])
    assert traj.dim == 1 and traj.values.shape == (3, 1)
    assert np.array_equal(traj.values[:, 0], [1.0, 2.0, 3.0])


# -- _trapezoid_sum ----------------------------------------------------------

def test_trapezoid_constant_one():
    for n in (2, 5, 85):
        grid = make_uniform_grid(1.0, n)
        assert trapezoid(grid, lambda t: 1.0) == pytest.approx(1.0, rel=1e-15)


def test_trapezoid_exact_for_identity():
    for n in (2, 9, 85):
        grid = make_uniform_grid(1.0, n)
        assert trapezoid(grid, lambda t: t) == pytest.approx(0.5, rel=1e-14)


def test_trapezoid_t_squared_85_nodes_matches_oracle():
    grid = make_uniform_grid(1.0, 85)
    values = [t * t for t in grid.nodes]
    expected = oracle_trapezoid(values, grid.spacing)
    h = 1.0 / 84.0
    assert expected == pytest.approx(1.0 / 3.0 + h * h / 6.0, rel=1e-12)
    assert expected == pytest.approx(0.3333570, abs=5e-8)
    got = trapezoid(grid, lambda t: t * t)
    assert got == pytest.approx(expected, rel=1e-12)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_trapezoid_linearity(n, seed):
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(1.0, n)
    f = rng.normal(size=n)
    g = rng.normal(size=n)
    a, b = rng.normal(size=2)
    h = grid.spacing
    lhs = _trapezoid_sum(a * f + b * g, h)
    rhs = a * _trapezoid_sum(f, h) + b * _trapezoid_sum(g, h)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=2, max_value=200),
       st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-5, max_value=5))
@settings(max_examples=40, deadline=None)
def test_trapezoid_exact_for_affine(n, a, b):
    grid = make_uniform_grid(2.0, n)
    got = trapezoid(grid, lambda t: a * t + b)
    exact = a * 2.0 + 2.0 * b  # integral of a t + b over [0, 2]
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("samples", [np.zeros(0), np.array([2.5]), np.full(7, -0.0),
                                     np.array([-0.0, 0.0, -0.0])])
def test_trapezoid_equals_the_node_loop_on_edge_samples(samples):
    for h in (0.5, -0.0):
        got, want = _trapezoid_sum(samples, h), loop_trapezoid(samples, h)
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_trapezoid_equals_the_node_loop_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(scale=10.0 ** rng.integers(-150, 150), size=n)
    samples[rng.random(n) < 0.1] = 0.0
    h = float(rng.uniform(1e-6, 10.0))
    got, want = _trapezoid_sum(samples, h), loop_trapezoid(samples, h)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- l1 quadrature -----------------------------------------------------------

def test_l1_norm_zero_trajectory():
    grid = make_uniform_grid(1.0, 11)
    assert _l1_quadrature(np.zeros((11, 3)), grid.spacing) == 0.0


def test_l1_norm_constant_scalar_on_horizon_two():
    grid = make_uniform_grid(2.0, 21)
    values = traj_of(grid, lambda t: 1.0).values
    assert _l1_quadrature(values, grid.spacing) == pytest.approx(2.0, rel=1e-14)


def test_l1_norm_signed_pair():
    grid = make_uniform_grid(1.0, 85)
    traj = traj_of(grid, lambda t: np.array([t, -t]))
    assert _l1_quadrature(traj.values, grid.spacing) == pytest.approx(1.0, rel=1e-14)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_l1_norm_nonnegative_and_zero_iff_zero(n, dim, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, dim))
    grid = make_uniform_grid(1.0, n)
    norm = _l1_quadrature(vals, grid.spacing)
    assert norm >= 0.0
    assert (norm == 0.0) == bool(np.all(vals == 0.0))


# -- CSV serialization -------------------------------------------------------

def test_csv_round_trip_is_bit_exact(tmp_path):
    grid = make_uniform_grid(1.0, 17)
    rng = np.random.default_rng(7)
    traj = Trajectory(grid, rng.normal(size=(17, 3)))
    path = tmp_path / "x.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_trajectory_csv(traj, fh)
    text = path.read_text()
    assert text.splitlines()[0] == "t,c0,c1,c2"
    assert text.endswith("\n")
    back = read_trajectory_csv(str(path))
    assert np.array_equal(back.values, traj.values)
    assert np.array_equal(back.grid.nodes, grid.nodes)
    assert back.grid == grid


def loop_csv(traj, columns=None):
    """The per-cell f-string loop `write_trajectory_csv` replaces: its
    byte-for-byte reference."""
    if columns is None:
        columns = [f"c{d}" for d in range(traj.dim)]
    lines = ["t," + ",".join(columns)]
    for i, t in enumerate(traj.grid.nodes):
        lines.append(",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in traj.values[i]]))
    return "\n".join(lines) + "\n"


# Finite doubles the writer must spell as the loop does.
_EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0]


@pytest.mark.parametrize("width", [0, 1, 5])
@pytest.mark.parametrize("seed", range(4))
def test_csv_writer_equals_the_cell_loop_byte_for_byte(width, seed):
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(2, 40))
    grid = make_uniform_grid(float(rng.uniform(0.1, 1e3)), nodes)
    values = rng.normal(size=(nodes, width)) * 10.0 ** rng.integers(-320, 300,
                                                                     size=(nodes, width))
    flat = values.reshape(-1)
    picks = rng.integers(0, len(_EDGE_DOUBLES), size=flat.size)
    keep = rng.random(flat.size) < 0.5
    flat[keep] = np.array(_EDGE_DOUBLES)[picks[keep]]
    traj = Trajectory(grid, values)
    for columns in (None, [f"x{d + 1}" for d in range(width)]):
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, columns)
        assert buf.getvalue() == loop_csv(traj, columns)


def test_csv_rejects_empty_file(tmp_path):
    assert csv_error(tmp_path, "").line == 1


def test_csv_reports_offending_line(tmp_path):
    assert csv_error(tmp_path, "t,c0\n0,1.0\n0.5,oops\n1,3.0\n").line == 3


def test_csv_time_error_reports_the_row_line_after_a_blank_line(tmp_path):
    assert csv_error(tmp_path, "t,c0\n0,0\n\n0.3,0\n1,0\n").line == 4


def test_csv_reports_a_nonfinite_row_before_a_later_non_numeric_one(tmp_path):
    err = csv_error(tmp_path, "t,c0\n0,0\n0.25,inf\n0.5,0\n0.75,zap\n1,0\n")
    assert str(err) == f"{tmp_path / 'x.csv'}: line 3: non-finite cell"


def test_csv_reports_the_first_of_two_off_grid_times_with_its_repr(tmp_path):
    err = csv_error(tmp_path, "t,c0\n0,0\n\n0.3,0\n0.6,0\n1,0\n")
    assert str(err) == (f"{tmp_path / 'x.csv'}: line 4: time column is not a "
                        f"uniform grid (t=0.3)")


def test_csv_rejects_column_mismatch(tmp_path):
    assert csv_error(tmp_path, "t,c0\n0,1.0\n0.5,1.0,2.0\n1,3.0\n").line == 3


@pytest.mark.parametrize("text,line,message", [
    ("x,c0\n0,1\n1,2\n", 1, "header must start with 't'"),
    ("time,c0\n0,1\n1,2\n", 1, "header must start with 't'"),
    ("t,c0\n0,1\n", 2, "need at least 2 data rows"),
    ("t,c0\n0,1\n\n\n", 4, "need at least 2 data rows"),
    ("t,c0\n0.5,1\n1,2\n", 2, "time column must run from 0 to a positive horizon"),
    ("t,c0\n0,1\n-1,2\n", 2, "time column must run from 0 to a positive horizon"),
])
def test_csv_rejects_bad_header_row_count_and_time_range(tmp_path, text, line, message):
    assert str(csv_error(tmp_path, text)) == f"{tmp_path / 'x.csv'}: line {line}: {message}"


def test_csv_error_names_the_file_and_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"t,c0\n0,1\n1,\xff\n")
    with pytest.raises(TrajectoryCsvError) as err:
        read_trajectory_csv(str(path))
    assert err.value.line == 3 and err.value.path == str(path)
    assert str(err.value).startswith(f"{path}: line 3: not UTF-8 text")


# Cell spellings that `float` takes: padded, underscored, signed, upper-case
# exponent, a signed zero, subnormals and magnitudes near the float range.
ODD_CELLS = (" 1 ", "\t2.5", "1_0", "+1E5", "-0.0", "5e-324", "-2.5e-320",
             "1.7e308", "-1.7e308")
# Cells that are no finite float.
BAD_CELLS = ("", " ", "nan", "inf", "-inf", "1e400", "zap", "1__0")
# What `csv_files` does to a well-formed file.
DEFECTS = ("none", "bad cell", "balanced widths", "too many rows", "off-grid time")


@st.composite
def csv_files(draw):
    """(text of a trajectory CSV, MAX_NODES to read it under or None): a
    well-formed file in odd spellings, with blank lines and either line end,
    then at most one defect from DEFECTS."""
    dim, rows = draw(st.integers(0, 3)), draw(st.integers(0, 12))
    horizon = draw(st.sampled_from([1.0, 2.5, 1e-3, 1e300]))
    cell = st.one_of(st.sampled_from(ODD_CELLS),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))
    spelled = st.sampled_from(["{!r}", " {!r} ", "+{!r}", "{:.17g}"])
    times = [i * horizon / (rows - 1) for i in range(rows - 1)] + [horizon] * (rows > 0)
    body = [[draw(spelled).format(t)] + [draw(cell) for _ in range(dim)] for t in times]
    defect, max_nodes = draw(st.sampled_from(DEFECTS)), None
    if defect == "bad cell" and rows:
        row = draw(st.integers(0, rows - 1))
        body[row][draw(st.integers(0, dim))] = draw(st.sampled_from(BAD_CELLS))
    if defect == "balanced widths" and rows >= 2:
        short, long = draw(st.permutations(range(rows)))[:2]
        body[long].append(body[short].pop())
    if defect == "too many rows":
        max_nodes = draw(st.integers(2, 6))
    lines = [",".join(["t"] + [f"c{d}" for d in range(dim)])] + [",".join(r) for r in body]
    if defect == "off-grid time" and rows >= 3:
        row = draw(st.integers(1, rows - 2))
        lines[1 + row] = ",".join([repr(times[row] + 0.3 * horizon / (rows - 1))]
                                  + body[row][1:])
        lines.insert(1 + row, "")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), max_nodes


def csv_outcome(read, path):
    """The grid and value bits a reader returns, or its error's message and line."""
    try:
        traj = read(str(path))
    except TrajectoryCsvError as exc:
        return str(exc), exc.line
    return traj.grid, traj.values.shape, traj.values.tobytes()


@given(csv_files())
@example(("t,c0,c1\r\n0, 1 ,1_0\r\n\r\n0.5,+1E5,-0.0\r\n1,5e-324,1.7e308\r\n"
          "\r\n", None))
@example(("t,c0\n0,-1.7e308\n  \n1,-2.5e-320\n", None))
@example(("t,c0\n0,1\n0.5,\n1,2\n", None))
@example(("t,c0\n0,1\n0.5,nan\n1,2\n", None))
@example(("t,c0\n0,1\n0.5,inf\n1,2\n", None))
@example(("t,c0\n0,1\n0.5,1e400\n1,2\n", None))
@example(("t,c0,c1\n0,1\n0.5,1,2,3\n1,2,3\n", None))
@example(("t,c0\n0,1\n0.25,1\n0.5,1\n0.75,1\n1,2\n", 3))
@example(("t,c0\n0,0\n\n0.3,0\n1,0\n", None))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_reader_equals_the_line_by_line_reader(tmp_path, case):
    text, max_nodes = case
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        if max_nodes is not None:
            mp.setattr(grid_mod, "MAX_NODES", max_nodes)
        assert (csv_outcome(read_trajectory_csv, path)
                == csv_outcome(reference.read_trajectory_csv, path))


def test_csv_reader_takes_every_float_spelling(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"t,c0,c1\r\n 0 , 1 ,1_0\r\n\r\n+0.5,+1E5,-0.0\r\n"
                     b"1,5e-324,-1.7e308\r\n")
    values = read_trajectory_csv(str(path)).values
    assert values.tobytes() == np.array([[1.0, 10.0], [1e5, -0.0],
                                         [5e-324, -1.7e308]]).tobytes()
