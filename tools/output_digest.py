"""Print one SHA-256 line per reference solve, to show that a change keeps
the solver's outputs byte for byte.

Usage, from the root of a source checkout:

  python3 tools/output_digest.py [CHECKOUT]

imports `ctpalm` from CHECKOUT/src (default: the checkout holding this
script) and solves:

  - the five runs of `tests/conftest.py` (`run_builtin` with `RUN_STARTS`,
    85 nodes, default config);
  - ex3 from its conftest start at 17 nodes;
  - akkt_example from x0 = (1, 1) at 84 nodes, default multipliers and config;
  - the six one-node solves of acceptance criterion 10 (`solve_node` on ex1
    and ex2 at three instants each, grad_tol 1e-8, rho 1), on one line.

Each digest covers x, u and v (shape and bytes), the `iterations.csv` text,
the status, the certificates, the error metrics, and the texts of the two
plots as `ctpalm solve` writes them: `trajectory_svg` with the reference
overlay when the problem has one, and `residuals_svg`.  The one-node line
covers each result's x_star bytes, gradient norm, iterations and status.
Run it on two checkouts and compare the lines.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path.insert(0, str(ROOT / "src"))

import ctpalm as c  # noqa: E402
from ctpalm.diagnostics import _reference_trajectory  # noqa: E402
from ctpalm.plots import residuals_svg, trajectory_svg  # noqa: E402

# (name, problem, x0, u0, v0, nodes); the first five are tests/conftest.py's.
RUNS = (
    ("ex1", "ex1", [1.0, 1.0], None, [1.0, 1.0], 85),
    ("ex2", "ex2", [0.5, 0.5], None, [1.0, 1.0, 1.0], 85),
    ("ex3", "ex3", [-100.0, -100.0, -100.0], [1.0], [1.0, 1.0], 85),
    ("ex4", "ex4", [1.0, 1.0], None, [1.0, 1.0, 1.0, 1.0, 1.0], 85),
    ("infeasible1", "infeasible1", [5.0], None, None, 85),
    ("ex3@17", "ex3", [-100.0, -100.0, -100.0], [1.0], [1.0, 1.0], 17),
    ("akkt_example@84", "akkt_example", [1.0, 1.0], None, None, 84),
)


def digest(problem_name, x0, u0, v0, nodes) -> str:
    problem = c.builtin(problem_name)
    grid = c.make_uniform_grid(problem.horizon, nodes)
    log = io.StringIO()
    report = c.solve(problem, c.AlmConfig(), c.Trajectory.constant(grid, x0),
                     c.Trajectory.constant(grid, u0) if u0 is not None else None,
                     c.Trajectory.constant(grid, v0) if v0 is not None else None,
                     iteration_csv=log)
    h = hashlib.sha256()
    for traj in (report.x, report.u, report.v):
        h.update(repr(traj.values.shape).encode())
        h.update(traj.values.tobytes())
    certificates = {key: cert.as_json_obj() if cert is not None else None
                    for key, cert in report.certificates.items()}
    metrics = (report.error_metrics.as_json_obj()
               if report.error_metrics is not None else None)
    reference = (_reference_trajectory(problem, grid)
                 if problem.reference is not None else None)
    for text in (log.getvalue(), report.status.value,
                 json.dumps(certificates, sort_keys=True),
                 json.dumps(metrics, sort_keys=True),
                 trajectory_svg(report.x, reference,
                                title=f"{problem.name}: solver trajectory"),
                 residuals_svg(report.iterations,
                               title=f"{problem.name}: residual history")):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


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


def main() -> None:
    for name, *run in RUNS:
        print(f"{digest(*run)}  {name}", flush=True)
    print(f"{node_digest()}  solve_node@criterion10", flush=True)


if __name__ == "__main__":
    main()
