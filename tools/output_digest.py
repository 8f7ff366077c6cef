"""Print one SHA-256 line per reference solve, to show that a change keeps
the solver's outputs byte for byte.

Usage, from the root of a source checkout:

  python3 tools/output_digest.py [CHECKOUT]

imports `ctpalm` from CHECKOUT/src (default: the checkout holding this
script) and solves, each through `ctpalm solve` with the default config but
the `--config` run:

  - the five runs of `tests/conftest.py` (`RUN_STARTS`, 85 nodes);
  - ex3 from its conftest start at 17 nodes;
  - akkt_example from x0 = (1, 1) at 84 nodes, default multipliers;
  - ex4 and infeasible1 at 85 nodes from the conftest x0 plus a uniform
    offset per node and component, drawn by `np.random.default_rng(11)` with
    half-width 0.1 and 0.5 (the seeded starts of the benchmark's ex4-outer
    and infeasible1-stall at seed 11), handed to `ctpalm solve` as an `--x0`
    trajectory CSV;
  - ex1 from the conftest start at 85 nodes with every option taken from a
    `--config` file, at the non-default values of `tests/test_cli.py`;
  - ex3 from x0 = (1, 1, 0), u0 = 0.5 at 9 nodes, which exits 3
    (InnerFailure) after 53 outer iterations; in 47 of them the subproblem
    returns its warm start unchanged;
  - the six one-node solves of acceptance criterion 10 (`solve_node` on ex1
    and ex2 at three instants each, grad_tol 1e-8, rho 1), on one line;
  - three `solve_subproblem` batches of infeasible1 on 9 nodes, each
    building its own start, on one line: every row at x = 0 (all stationary,
    stopped at descent's first stop test; the outer loop keeps such a batch
    without calling the subproblem), then row 4 moved to 1e5 under
    rho = 1e300 (a non-finite start) and to 2e6 (outside the iterate box):
    in these two batches no row takes a descent step, since every row stops
    at descent's stop test at the start or has a non-finite start;
  - three batches of node problems through the lockstep solver's row
    solve (`ctpalm.inner._solve_rows`, the body of `solve_subproblem`), on
    one line: ex3 on 17 nodes from seeded states, u and v at rho = 1 and
    rho = 1e4, where rows backtrack through many halvings in descent and in
    the polish, then ex4 on 85 nodes from a seeded start around x0 = (1, 1)
    with seeded v, where some rows accept their first trial step and others
    backtrack;
  - the three stacked products `_row_dots`, `_matvec` and
    `_transposed_product` on one line, at reduction widths 0, 1, 2, 3, 5 and
    9, on seeded stacks and on one state without a node axis, the entries
    spread over 16 decades with signed zeros, infinities, NaN, magnitudes
    near 1e+-300 and a row whose sum depends on its order.  This line pins
    the bits of the numpy kernels behind the products across numpy versions.

Each solve's digest covers its exit code and the bytes of four of the five
files it publishes: `iterations.csv`, `trajectory.csv` (x, u and v in `.17g`,
which round-trips every double) and both plots.  The one-node line covers each result's x_star
bytes, gradient norm, iterations and status; the batch line each batch's
solution bytes, worst status and largest gradient norm; the backtracking line
the bytes of each batch's solutions, gradient norms, iterations and statuses;
the kernel line each product's shape and bytes.

Then come the lines of the CLI's text, each covering exit codes and output:

  - `summary:NAME`, per solve: the bytes of that solve's `summary.json`
    (status, residuals, certificates, error metrics and the config echo), on
    a line of its own so that a change to the summary's layout leaves the
    solver's own bytes checkable line by line;
  - `check:NAME`, per solve: `ctpalm check` on that solve's `trajectory.csv`,
    split into a state CSV and a multiplier CSV as `perfbench/workloads.py`
    splits it (exit code and stdout);
  - `help`: `ctpalm --help` and the `--help` of each subcommand (exit code
    and stdout), at 80 columns;
  - `usage-errors`: an unknown command, an argument that `list-problems`
    does not take and `solve` without `--problem` (exit code and stderr);
  - `csv-errors`: `ctpalm check ex1` on six malformed state CSVs (exit code
    and stderr);
  - `argv-routing`: `ctpalm ARGV` for each argv of `ROUTING_ARGV`: valid
    `solve`, `check` and `list-problems` runs, abbreviated options, `-h` and
    `--version` before and after the command, `--` separators, arguments no
    parser takes, missing arguments and an empty argv (exit code, stdout and
    stderr);
  - `csv-accepted`: `ctpalm check ex1` on valid state and multiplier CSVs in
    unusual spellings: CRLF line ends, blank lines, padded cells, `1_0`,
    `+1E5`, `-0.0`, subnormals and +-1.7e308 (exit code, stdout and stderr).

Run it on two checkouts and compare the lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
sys.path.insert(0, str(ROOT / "src"))

import ctpalm as c  # noqa: E402
import ctpalm.cli  # noqa: E402
from ctpalm.inner import _solve_rows  # noqa: E402
from ctpalm.lagrangian import _transposed_product  # noqa: E402
from ctpalm.problems import _matvec, _row_dots  # noqa: E402

# Seed of the seeded starts.
SEED = 11

# The options other than nodes and initial data of the --config run:
# tests/test_cli.py's `_NON_DEFAULT`.
CONFIG_OPTIONS = {"rho_init": 2.0, "gamma": 1.5, "tau": 0.5, "bound_m": 1e40,
                  "bound_n": 1e30, "eps_stop": 1e-4, "max_outer": 3,
                  "inner_grad_tol": 1e-7, "inner_max_iters": 400}

# (name, problem, x0, u0, v0, nodes, half-width of the seeded offset, 0 for
# none[, options of a run that takes them all from --config]); the first five
# are tests/conftest.py's.
RUNS = (
    ("ex1", "ex1", [1.0, 1.0], None, [1.0, 1.0], 85, 0.0),
    ("ex2", "ex2", [0.5, 0.5], None, [1.0, 1.0, 1.0], 85, 0.0),
    ("ex3", "ex3", [-100.0, -100.0, -100.0], [1.0], [1.0, 1.0], 85, 0.0),
    ("ex4", "ex4", [1.0, 1.0], None, [1.0, 1.0, 1.0, 1.0, 1.0], 85, 0.0),
    ("infeasible1", "infeasible1", [5.0], None, None, 85, 0.0),
    ("ex3@17", "ex3", [-100.0, -100.0, -100.0], [1.0], [1.0, 1.0], 17, 0.0),
    ("akkt_example@84", "akkt_example", [1.0, 1.0], None, None, 84, 0.0),
    (f"ex4@seed{SEED}", "ex4", [1.0, 1.0], None, [1.0, 1.0, 1.0, 1.0, 1.0], 85, 0.1),
    (f"infeasible1@seed{SEED}", "infeasible1", [5.0], None, None, 85, 0.5),
    ("ex1@config", "ex1", [1.0, 1.0], None, [1.0, 1.0], 85, 0.0, CONFIG_OPTIONS),
    ("ex3@9-inner-failure", "ex3", [1.0, 1.0, 0.0], [0.5], None, 9, 0.0),
)


def write_seeded_start(path, problem_name, x0, nodes, half_width) -> None:
    """x0 at every node plus a uniform offset in [-half_width, half_width)
    per component, as a trajectory CSV at `path`."""
    grid = c.make_uniform_grid(c.builtin(problem_name).horizon, nodes)
    xs = np.tile(np.asarray(x0, dtype=float), (nodes, 1))
    xs = xs + np.random.default_rng(SEED).uniform(-half_width, half_width,
                                                  size=xs.shape)
    with open(path, "w", encoding="utf-8") as fh:
        c.write_trajectory_csv(c.Trajectory(grid, xs), fh)


def split_trajectory(text, n) -> tuple:
    """The state and multiplier CSV texts of a `t,x..,u..,v..` trajectory CSV
    with n state columns, cells as written, headers `t,c0,...`."""
    lines = text.splitlines()
    m_cols = len(lines[0].split(",")) - 1 - n
    x_rows = ["t," + ",".join(f"c{d}" for d in range(n))]
    m_rows = ["t," + ",".join(f"c{d}" for d in range(m_cols))]
    for ln in lines[1:]:
        cells = ln.split(",")
        x_rows.append(",".join(cells[:1 + n]))
        m_rows.append(",".join(cells[:1] + cells[1 + n:]))
    return "\n".join(x_rows) + "\n", "\n".join(m_rows) + "\n"


def cli_text(argv) -> bytes:
    """Exit code, stdout and stderr of `ctpalm ARGV`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ctpalm.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"{code!r}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def digest(problem_name, x0, u0, v0, nodes, half_width, config=None) -> tuple:
    """(digest of the solve, of its summary.json, and of `ctpalm check` on its
    trajectory)."""
    specs = [",".join(map(repr, values)) if values is not None else None
             for values in (x0, u0, v0)]
    # The solve runs in its output directory, so that the seeded start's
    # path, which the summary names, is the same on every run.
    with tempfile.TemporaryDirectory() as out, contextlib.chdir(out):
        if half_width:
            specs[0] = "x0.csv"
            write_seeded_start(specs[0], problem_name, x0, nodes, half_width)
        options = {"nodes": nodes, **{flag: spec for flag, spec
                                      in zip(("x0", "u0", "v0"), specs)
                                      if spec is not None}}
        argv = ["solve", "--problem", problem_name]
        if config is None:
            argv += [f"--{flag}={value}" for flag, value in options.items()]
        else:
            with open("run.json", "w", encoding="utf-8") as fh:
                json.dump({**config, **options}, fh)
            argv += ["--config", "run.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = ctpalm.cli.main(argv + ["--out-dir", out])
        h = hashlib.sha256(repr(code).encode())
        for name in ctpalm.cli.OUTPUT_FILES:
            if name != "summary.json":
                h.update(name.encode() + b"\0")
                h.update((Path(out) / name).read_bytes())
        summary = hashlib.sha256((Path(out) / "summary.json").read_bytes())
        texts = split_trajectory((Path(out) / "trajectory.csv").read_text(),
                                 c.builtin(problem_name).n)
        for path, text in zip(("x.csv", "m.csv"), texts):
            Path(path).write_text(text)
        check = hashlib.sha256(cli_text(["check", problem_name, "x.csv", "m.csv"]))
    return h.hexdigest(), summary.hexdigest(), check.hexdigest()


# (problem, x0, v0, instants) of acceptance criterion 10.
NODE_SOLVES = (
    ("ex1", [1.0, 1.0], [1.0, 1.0], (0.0, 0.4, 1.0)),
    ("ex2", [0.5, 0.5], [1.0, 1.0, 1.0], (0.0, 0.5, 1.0)),
)


def node_digest() -> str:
    h = hashlib.sha256()
    cfg = c.InnerConfig(grad_tol=1e-8)
    for problem_name, x0, v0, ts in NODE_SOLVES:
        problem = c.builtin(problem_name)
        for t in ts:
            result = c.solve_node(problem, t, np.array(x0),
                                  c.MultiplierSet(v=np.array(v0)), 1.0, cfg)
            h.update(result.x_star.tobytes())
            h.update(repr((result.grad_inf_norm, result.iterations,
                           result.status.value)).encode())
    return h.hexdigest()


# (row 4's state, rho) of the infeasible1 batches on 9 nodes whose other rows
# sit at the stationary point x = 0.  In the last two no row takes a descent
# step.
EXIT_BATCHES = ((0.0, 1.0), (1e5, 1e300), (2e6, 1.0))


def exit_digest() -> str:
    h = hashlib.sha256()
    problem = c.builtin("infeasible1")
    grid = c.make_uniform_grid(problem.horizon, 9)
    us, vs = np.zeros((9, 0)), np.linspace(0.0, 2.0, 9)[:, None]
    for x4, rho in EXIT_BATCHES:
        xs = np.zeros((9, 1))
        xs[4] = x4
        x, worst, max_grad = c.solve_subproblem(problem, grid.nodes, xs, us, vs, rho,
                                                c.AlmConfig().inner)
        h.update(x.tobytes())
        h.update(repr((worst.value, max_grad)).encode())
    return h.hexdigest()


def backtracking_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(SEED)
    ex3, ex4, cfg = c.builtin("ex3"), c.builtin("ex4"), c.InnerConfig()
    ts = c.make_uniform_grid(ex3.horizon, 17).nodes
    xs = rng.uniform(-3.0, 3.0, size=(17, 3))
    us, vs = rng.uniform(-2.0, 2.0, size=(17, 1)), rng.uniform(0.0, 2.0, size=(17, 2))
    batches = [(ex3, ts, xs, us, vs, 1.0), (ex3, ts, xs, us, vs, 1e4)]
    ts = c.make_uniform_grid(ex4.horizon, 85).nodes
    xs = 1.0 + rng.uniform(-0.5, 0.5, size=(85, 2))
    batches.append((ex4, ts, xs, np.zeros((85, 0)), rng.uniform(0.0, 2.0, size=(85, 5)), 1.0))
    for problem, ts, xs, us, vs, rho in batches:
        for out in _solve_rows(problem, ts, xs, us, vs, rho, cfg):
            h.update(out.tobytes())
    return h.hexdigest()


# Entries placed once in each stack, and a row (first entries of the last)
# whose sum depends on its order.
SPECIAL_ENTRIES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300,
                   -1e-300, 5e-324)
CANCELLING_ROW = (1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def kernel_operand(rng, *shape) -> np.ndarray:
    """Seeded entries over 16 decades, SPECIAL_ENTRIES at distinct random
    places, and the last row along the last axis the start of CANCELLING_ROW."""
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    flat = out.reshape(-1)
    count = min(flat.size, len(SPECIAL_ENTRIES))
    flat[rng.choice(flat.size, count, replace=False)] = SPECIAL_ENTRIES[:count]
    if flat.size:
        out.reshape(-1, shape[-1])[-1] = CANCELLING_ROW[:shape[-1]]
    return out


def kernel_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(SEED)
    with np.errstate(over="ignore", invalid="ignore"):
        for width in (0, 1, 2, 3, 5, 9):
            # Stacks of 17 and 85 rows, and one state without a node axis.
            for lead in ((17,), (85,), ()):
                a, b = kernel_operand(rng, *lead, width), kernel_operand(rng, *lead, width)
                outs = [_row_dots(a, b), _row_dots(a, np.ones_like(a))]
                for n in (1, 2, 3):
                    mat = kernel_operand(rng, *lead, n, width)
                    outs += [_matvec(mat, a),
                             _transposed_product(np.swapaxes(mat, -1, -2).copy(), a)]
                for out in outs:
                    h.update(repr(out.shape).encode())
                    h.update(out.tobytes())
    return h.hexdigest()


# Malformed state CSVs for `ctpalm check ex1`: one error each.
BAD_CSVS = (
    b"x,c0,c1\n0,0,0\n1,0,0\n",
    b"t,c0,c1\n0,0,0\n0.5,0\n1,0,0\n",
    b"t,c0,c1\n0,0,0\n0.5,zap,0\n1,0,0\n",
    b"t,c0,c1\n0,0,0\n0.25,inf,0\n0.5,0,0\n0.75,zap,0\n1,0,0\n",
    b"t,c0,c1\n0,0,0\n0.3,0,0\n0.6,0,0\n1,0,0\n",
    b"t,c0,c1\n0,\xff,0\n1,0,0\n",
)
USAGE_ERRORS = (["frobnicate"], ["list-problems", "extra"], ["solve", "--nodes", "5"])
# `tests/test_cli.py`'s argv routing table, run where x.csv and m.csv hold a
# constant ex1 trajectory and zero multipliers.
CHECK = ["check", "ex1", "x.csv", "m.csv"]
ROUTING_ARGV = (
    ["solve", "--problem", "ex1", "--nodes", "9", "--out-dir", "out"],
    ["solve", "--prob", "ex1", "--nodes", "9", "--max-o", "1", "--out-dir", "out"],
    CHECK, CHECK + ["--eps", "1e-3"], ["list-problems"],
    ["-h"], ["--help"], ["--version"], ["-h", "check"], ["--version", "solve"],
    ["solve", "-h"], ["check", "--help"], ["list-problems", "-h"],
    ["check", "--version"], CHECK + ["--version"], ["list-problems", "--version"],
    ["check", "--", "ex1", "x.csv", "m.csv"], ["check", "ex1", "--", "x.csv", "m.csv"],
    ["--", "check", "ex1", "x.csv", "m.csv"], ["list-problems", "--"],
    CHECK + ["--bogus"], ["check", "--bogus", "ex1", "x.csv", "m.csv"],
    ["list-problems", "extra"], ["check", "ex1", "x.csv"], ["solve", "--nodes", "5"],
    ["check", "ex1", "x.csv", "m.csv", "--eps-stop"], [], ["frobnicate"],
)
# (state CSV, multiplier CSV) pairs for `ctpalm check ex1` that the reader
# takes, in unusual spellings.
ODD_CSVS = (
    (b"t,c0,c1\r\n0, 1 ,1_0\r\n\r\n0.5,+1E-1,-0.0\r\n1,\t2 ,1\r\n",
     b" t , c0 ,c1\n\n0,0,0\n  \n+0.5,1_0,+1E5\n1.0,-0.0,0\n\n"),
    (b"t,c0,c1\n0,5e-324,-2.5e-320\n0.5,1,1\n1,1,1",
     b"t,c0,c1\r\n0,5e-324,0\r\n0.5,0,2.2250738585072014e-308\r\n1,0,0\r\n"),
    (b"t,c0,c1\n0,1.7e308,-1.7e308\n0.5,1,1\n1,1,1\n",
     b"t,c0,c1\n0,0,0\n0.5,0,0\n1,0,0\n"),
    (b"t,c0,c1\n0,1,1\n0.5,1,1\n1,1,1\n",
     b"t,c0,c1\n0,1.7e308,0\n0.5,0,0\n1,0,0\n"),
)


def text_digests() -> list:
    """(name, digest) of the help, usage error and CSV error texts."""
    os.environ["COLUMNS"] = "80"
    helps = hashlib.sha256()
    for argv in (["--help"], ["solve", "--help"], ["check", "--help"],
                 ["list-problems", "--help"]):
        helps.update(cli_text(argv))
    usage = hashlib.sha256()
    for argv in USAGE_ERRORS:
        usage.update(cli_text(argv))
    csvs = hashlib.sha256()
    with tempfile.TemporaryDirectory() as d, contextlib.chdir(d):
        Path("m.csv").write_text("t,c0,c1\n0,0,0\n1,0,0\n")
        for data in BAD_CSVS:
            Path("x.csv").write_bytes(data)
            csvs.update(cli_text(["check", "ex1", "x.csv", "m.csv"]))
    routing, accepted = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as d, contextlib.chdir(d):
        Path("x.csv").write_text("t,c0,c1\n0,1,1\n0.5,1,1\n1,1,1\n")
        Path("m.csv").write_text("t,c0,c1\n0,0,0\n0.5,0,0\n1,0,0\n")
        for argv in ROUTING_ARGV:
            routing.update(cli_text(argv))
        for x_data, m_data in ODD_CSVS:
            Path("x.csv").write_bytes(x_data)
            Path("m.csv").write_bytes(m_data)
            accepted.update(cli_text(CHECK))
    return [("help", helps.hexdigest()), ("usage-errors", usage.hexdigest()),
            ("csv-errors", csvs.hexdigest()), ("argv-routing", routing.hexdigest()),
            ("csv-accepted", accepted.hexdigest())]


def main() -> None:
    summaries, checks = [], []
    for name, *run in RUNS:
        solved, summary, checked = digest(*run)
        print(f"{solved}  {name}", flush=True)
        summaries.append((f"summary:{name}", summary))
        checks.append((f"check:{name}", checked))
    print(f"{node_digest()}  solve_node@criterion10", flush=True)
    print(f"{exit_digest()}  solve_subproblem@stationary-exit", flush=True)
    print(f"{backtracking_digest()}  solve_subproblem@backtracking", flush=True)
    print(f"{kernel_digest()}  kernels", flush=True)
    for name, value in summaries + checks + text_digests():
        print(f"{value}  {name}", flush=True)


if __name__ == "__main__":
    main()
