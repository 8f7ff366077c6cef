"""Workload inputs, the operations a run times, and their correctness checks.

Every workload repeats one *sample*: a solve of the workload's problem followed
by `ctpalm check` on that solve's result.  Library workloads solve through
`ctpalm.solve`; `cli-roundtrip` solves through `ctpalm.cli.main(["solve", ...])`,
which also writes the five output files.  Every operation's result is checked
against the acceptance clauses of its problem and against the first result of
the run (repeats must be bit-identical).  Operations report wall time; the
measuring loop in `run.py` converts it to reference seconds (`refclock.py`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import ctpalm
import ctpalm.cli
from inputs import WORKLOADS, Workload, build_inputs  # noqa: F401  (re-exported)


def _csv_text(grid, values) -> str:
    buf = io.StringIO()
    ctpalm.write_trajectory_csv(ctpalm.Trajectory(grid, values), buf)
    return buf.getvalue()


def _constants(values) -> str:
    return ",".join(f"{v:g}" for v in values)


# -- acceptance clauses -------------------------------------------------------
# Each takes the solve's summary (the `summary.json` layout, built from the
# report for library solves) and returns the names of the clauses that failed.

def _ex3_clauses(s: dict) -> list:
    # Criterion 3: converged and sup error <= 1e-2.
    bad = []
    if s["status"] != "AkktConverged":
        bad.append("ex3.status")
    if not s["error_metrics"]["sup_error"] <= 1e-2:
        bad.append("ex3.sup_error")
    return bad


def _ex4_clauses(s: dict) -> list:
    # Criterion 4 without its sup clause, which the method cannot meet at the
    # t = 0 node (README, "Known acceptance failure"); sup is reported instead.
    bad = []
    if s["status"] != "AkktConverged":
        bad.append("ex4.status")
    cert = s["certificates"]["sufficiency"]
    if cert is None or cert["kind"] != "GlobalOptimalByConvexity":
        bad.append("ex4.sufficiency")
    if not s["error_metrics"]["l1_error"] <= 2e-2:
        bad.append("ex4.l1_error")
    return bad


def _infeasible1_clauses(s: dict) -> list:
    # Criterion 8: stalls, |x| <= 1e-2 everywhere, theta-stationary verdict.
    bad = []
    if s["status"] == "AkktConverged":
        bad.append("infeasible1.status")
    if not s["x_abs_max"] <= 1e-2:
        bad.append("infeasible1.x_abs_max")
    cert = s["certificates"]["infeasibility"]
    if (cert is None or cert["kind"] != "InfeasibleButThetaStationary"
            or not cert["evidence"]["stationarity_residual"] <= 1e-4):
        bad.append("infeasible1.theta_stationary")
    return bad


def _ex1_cli_clauses(s: dict) -> list:
    # Criterion 1: exit 0, sup <= 1e-3, |objective| <= 1e-3, <= 50 outer
    # iterations, <= 5 s wall.
    bad = []
    if s["exit_code"] != 0:
        bad.append("ex1.exit_code")
    if not s["error_metrics"]["sup_error"] <= 1e-3:
        bad.append("ex1.sup_error")
    if not abs(s["objective"]) <= 1e-3:
        bad.append("ex1.objective")
    if not s["outer_iterations"] <= 50:
        bad.append("ex1.outer_iterations")
    if not s["wall_s"] <= 5.0:
        bad.append("ex1.wall")
    return bad


def check_clauses(w: Workload, code: int, out: dict) -> list:
    """Clauses on `ctpalm check` of the workload's own solution."""
    if not w.infeasible:
        return [] if code == 0 and out["pass"] else ["check.pass"]
    # On the infeasible1 limit point the check must report the violation and
    # the theta-stationary verdict.  Its pass/fail verdict is not gated: it
    # tests residuals only and passes this infeasible point (exit 0), unlike
    # the solver's stop test, which also requires feasibility.
    bad = [] if code in (0, 1) else ["check.exit_code"]
    if not out["feasibility"]["max_inequality_violation"] > 1e-6:
        bad.append("check.violation")
    cert = out["certificates"]["infeasibility"]
    if cert is None or cert["kind"] != "InfeasibleButThetaStationary":
        bad.append("check.theta_stationary")
    return bad


CLAUSES = {"ex3-unbounded": _ex3_clauses, "ex4-outer": _ex4_clauses,
           "infeasible1-stall": _infeasible1_clauses,
           "cli-roundtrip": _ex1_cli_clauses}


def _report_summary(report) -> dict:
    """The fields of `summary.json` the clauses read, from a library report."""
    return {
        "status": report.status.value,
        "outer_iterations": len(report.iterations),
        "objective": report.final.objective_quadrature,
        "certificates": {k: (c.as_json_obj() if c is not None else None)
                         for k, c in report.certificates.items()},
        "error_metrics": (report.error_metrics.as_json_obj()
                          if report.error_metrics is not None else None),
        "x_abs_max": float(np.abs(report.x.values).max()),
    }


@dataclass
class Outcome:
    wall_s: float
    failures: list
    summary: Optional[dict] = None


class Session:
    """One run's operations on one workload, with their correctness state.

    `solve()` and `check()` each time exactly the call into ctpalm, in wall
    seconds read from `now`; file preparation and the checks around it are
    untimed.
    `problem_hook` lets a traced run substitute an instrumented problem for
    library solves.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: str, now):
        self.w = workload
        self._now = now
        self.inputs = build_inputs(workload, seed)
        self.work_dir = work_dir
        self.x_csv = os.path.join(work_dir, "x.csv")
        self.m_csv = os.path.join(work_dir, "m.csv")
        self.out_dir = os.path.join(work_dir, "out")
        self._fingerprint = None
        self._check_stdout = None
        # (exit code, "pass") of every distinct check verdict seen.
        self.check_verdicts = set()
        self.problem_hook = None
        if workload.via_cli:
            self._cli_argv = self._build_cli_argv()

    def _build_cli_argv(self) -> list:
        w, inp = self.w, self.inputs
        if inp.seeded:
            path = os.path.join(self.work_dir, "x0.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_csv_text(inp.grid, inp.x0.values))
            x0_spec = path
        else:
            x0_spec = _constants(w.x0)
        argv = ["solve", "--problem", w.problem, "--nodes", str(w.nodes),
                "--x0", x0_spec]
        if w.u0 is not None:
            argv += ["--u0", _constants(w.u0)]
        if w.v0 is not None:
            argv += ["--v0", _constants(w.v0)]
        return argv + ["--out-dir", self.out_dir]

    def _timed(self, fn, *args):
        """fn(*args) and its wall seconds."""
        start = self._now()
        result = fn(*args)
        return result, self._now() - start

    def _same_as_first(self, fingerprint: bytes) -> list:
        if self._fingerprint is None:
            self._fingerprint = fingerprint
            return []
        return [] if fingerprint == self._fingerprint else ["determinism.solve"]

    def solve(self) -> Outcome:
        if self.w.via_cli:
            return self._solve_cli()
        return self._solve_library()

    def _solve_library(self) -> Outcome:
        inp = self.inputs
        problem = inp.problem if self.problem_hook is None else self.problem_hook(inp.problem)
        report, wall_s = self._timed(ctpalm.solve, problem, ctpalm.AlmConfig(),
                                inp.x0, inp.u0, inp.v0)

        summary = _report_summary(report)
        failures = CLAUSES[self.w.name](summary)
        failures += self._same_as_first(
            report.x.values.tobytes() + report.u.values.tobytes()
            + report.v.values.tobytes())
        mults = np.hstack([report.u.values, report.v.values])
        with open(self.x_csv, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(inp.grid, report.x.values))
        with open(self.m_csv, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(inp.grid, mults))
        return Outcome(wall_s, failures, summary)

    def _solve_cli(self) -> Outcome:
        # A failed solve writes nothing, so stale files must not stand in for it.
        for name in ctpalm.cli.OUTPUT_FILES:
            path = os.path.join(self.out_dir, name)
            if os.path.exists(path):
                os.unlink(path)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, wall_s = self._timed(ctpalm.cli.main, list(self._cli_argv))

        missing = [f for f in ctpalm.cli.OUTPUT_FILES
                   if not os.path.isfile(os.path.join(self.out_dir, f))]
        if missing:
            return Outcome(wall_s, ["cli.outputs_missing"], None)
        with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        summary["exit_code"] = code
        summary["wall_s"] = wall_s
        failures = CLAUSES[self.w.name](summary)
        with open(os.path.join(self.out_dir, "trajectory.csv"), encoding="utf-8") as fh:
            text = fh.read()
        failures += self._same_as_first(text.encode("utf-8"))
        self._split_trajectory(text)
        return Outcome(wall_s, failures, summary)

    def _split_trajectory(self, text: str) -> None:
        """Split `t,x..,u..,v..` rows into the state and multiplier CSVs."""
        n = self.inputs.problem.n
        lines = text.splitlines()
        x_rows = ["t," + ",".join(f"c{d}" for d in range(n))]
        m_cols = len(lines[0].split(",")) - 1 - n
        m_rows = ["t," + ",".join(f"c{d}" for d in range(m_cols))]
        for ln in lines[1:]:
            cells = ln.split(",")
            x_rows.append(",".join(cells[:1 + n]))
            m_rows.append(",".join(cells[:1] + cells[1 + n:]))
        with open(self.x_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(x_rows) + "\n")
        with open(self.m_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(m_rows) + "\n")

    def check(self) -> Outcome:
        """`ctpalm check` on the latest solve's state and multiplier CSVs."""
        argv = ["check", self.w.problem, self.x_csv, self.m_csv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, wall_s = self._timed(ctpalm.cli.main, argv)
        out = sink.getvalue()
        try:
            verdict = json.loads(out)
            self.check_verdicts.add((code, verdict["pass"]))
            failures = check_clauses(self.w, code, verdict)
        except (ValueError, KeyError, TypeError):
            failures = ["check.output"]
        if self._check_stdout is None:
            self._check_stdout = out
        elif out != self._check_stdout:
            failures.append("determinism.check")
        return Outcome(wall_s, failures)
