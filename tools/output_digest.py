"""Print one SHA-256 line per reference solve, to show that a change keeps
the solver's outputs byte for byte.

Usage, from the root of a source checkout:

  python3 tools/output_digest.py [CHECKOUT]

imports `ctpalm` from CHECKOUT/src (default: the checkout holding this
script) and solves, each through `ctpalm solve` with the default config but
the last:

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
  - the six one-node solves of acceptance criterion 10 (`solve_node` on ex1
    and ex2 at three instants each, grad_tol 1e-8, rho 1), on one line.

Each solve's digest covers its exit code and the bytes of the five files it
publishes: `iterations.csv`, `trajectory.csv` (x, u and v in `.17g`, which
round-trips every double), `summary.json` (status, certificates, error
metrics), and both plots.  The one-node line covers each result's x_star
bytes, gradient norm, iterations and status.

Then come the lines of the CLI's text, each covering exit codes and output:

  - `check:NAME`, per solve: `ctpalm check` on that solve's `trajectory.csv`,
    split into a state CSV and a multiplier CSV as `perfbench/workloads.py`
    splits it (exit code and stdout);
  - `help`: `ctpalm --help` and the `--help` of each subcommand (exit code
    and stdout), at 80 columns;
  - `usage-errors`: an unknown command, an argument that `list-problems`
    does not take and `solve` without `--problem` (exit code and stderr);
  - `csv-errors`: `ctpalm check ex1` on six malformed state CSVs (exit code
    and stderr).

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
    """(digest of the solve, digest of `ctpalm check` on its trajectory)."""
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
            h.update(name.encode() + b"\0")
            h.update((Path(out) / name).read_bytes())
        texts = split_trajectory((Path(out) / "trajectory.csv").read_text(),
                                 c.builtin(problem_name).n)
        for path, text in zip(("x.csv", "m.csv"), texts):
            Path(path).write_text(text)
        check = hashlib.sha256(cli_text(["check", problem_name, "x.csv", "m.csv"]))
    return h.hexdigest(), check.hexdigest()


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
    return [("help", helps.hexdigest()), ("usage-errors", usage.hexdigest()),
            ("csv-errors", csvs.hexdigest())]


def main() -> None:
    checks = []
    for name, *run in RUNS:
        solved, checked = digest(*run)
        print(f"{solved}  {name}", flush=True)
        checks.append((f"check:{name}", checked))
    print(f"{node_digest()}  solve_node@criterion10", flush=True)
    for name, value in checks + text_digests():
        print(f"{value}  {name}", flush=True)


if __name__ == "__main__":
    main()
