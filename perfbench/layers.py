"""Traced runs: spans and counters recorded around each layer's entry points.

Nothing in `src/` changes.  `Tracer.installed()` replaces the public entry
points at the module attributes their callers look up, and `wrap_problem`
replaces a problem's six evaluator callables, so the program runs unmodified
code between the wrappers:

  alm          ctpalm.solve, ctpalm.alm.evaluate_all, ctpalm.cli.solve
  inner        ctpalm.alm.solve_subproblem, ctpalm.inner.solve_node (the
               wrapper passes its own `trace=` callback and counts the
               descent and polish steps it reports)
  diagnostics  ctpalm.diagnostics.{sufficiency_certificate,
               infeasibility_report, solution_error} and the names `cli`
               imported from it
  lagrangian   ctpalm.cli.{akkt_residuals, feasibility_factor},
               ctpalm.diagnostics.feasibility_stationarity_residual
  grid         ctpalm.cli.read_trajectory_csv
  plots        ctpalm.cli.{trajectory_svg, residuals_svg}
  cli          ctpalm.cli.main (spans named cli.solve or cli.check after
               the command)
  problems     the evaluators, via dataclasses.replace (also on the problem
               ctpalm.cli.builtin returns)

Spans (solve -> subproblem -> node solve, and the others above) are kept in
memory and written out when the run ends.  Evaluators are called about a
million times on ex3, so they get counters and busy time instead of spans.
Spans are in wall seconds read from the run's SpeedMeter clock, which stands
still during its calibration loops; `sample_metrics` converts a sample's
times to reference seconds with the scale the meter measured over it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from collections import defaultdict

import ctpalm
import ctpalm.alm
import ctpalm.cli
import ctpalm.diagnostics
import ctpalm.inner
from ctpalm.inner import InnerStatus

EVALUATORS = ("phi", "grad_phi", "h", "jac_h", "g", "jac_g")

# Span names whose duration is a layer's time; children are subtracted where a
# metric asks for self time.
SOLVE = "alm.solve"
SUBPROBLEM = "inner.subproblem"
NODE = "inner.node"
DIAGNOSTICS = "diagnostics"
RESIDUAL = "lagrangian.residual"
FEAS_STAT = "lagrangian.feas_stat"
CSV_READ = "grid.csv_read"
SVG = "plots.svg"
CLI_SOLVE = "cli.solve"


class Tracer:
    def __init__(self, now):
        self._now = now        # the clock spans and busy times are read from
        self.spans = []        # [span_id, parent_id, name, start, end, sample]
        self._stack = []
        self._sample = 0
        self.reset()

    def reset(self):
        """Start a new sample: counters restart, spans keep accumulating."""
        self._sample += 1
        self._first_span = len(self.spans)
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                name, self._now(), None, self._sample]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[4] = self._now()
        self._stack.pop()

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- instrumented entry points -------------------------------------------

    def wrap_problem(self, problem):
        """The problem with each evaluator counted and timed."""
        now = self._now

        def timed(key, fn):
            def evaluator(x, t):
                start = now()
                out = fn(x, t)
                # Looked up on every call so a reset between samples counts
                # into the new sample.
                self.busy[key] += now() - start
                self.counts[key] += 1
                return out
            return evaluator

        return dataclasses.replace(problem, **{
            f"eval_{k}": timed("eval." + k, getattr(problem, f"eval_{k}"))
            for k in EVALUATORS})

    def _node(self, solve_node):
        def traced_node(problem, t, x_init, safeguarded, rho, cfg, trace=None):
            # [descent steps, polish steps, time of the last descent step]
            steps = [0, 0, 0.0]

            def on_step(event):
                if event["phase"] == "descent":
                    steps[0] += 1
                    steps[2] = self._now()
                else:
                    steps[1] += 1
                if trace is not None:
                    trace(event)

            span = self._open(NODE)
            try:
                result = solve_node(problem, t, x_init, safeguarded, rho, cfg,
                                    trace=on_step)
            finally:
                self._close(span)
            c = self.counts
            c["inner.node_solves"] += 1
            c["inner.iterations"] += result.iterations
            c["inner.descent_steps"] += steps[0]
            c["inner.polish_steps"] += steps[1]
            c["inner.status." + result.status.value] += 1
            if steps[0] >= cfg.max_iters:
                c["inner.descent_exhausted"] += 1
            start, end = span[3], span[4]
            if steps[1]:
                split = steps[2] if steps[0] else start
                c["inner.polished"] += 1
                if result.status is InnerStatus.CONVERGED:
                    c["inner.polish_rescues"] += 1
                self.busy["inner.descent"] += split - start
                self.busy["inner.polish"] += end - split
            else:
                self.busy["inner.descent"] += end - start
            if result.status is not InnerStatus.CONVERGED:
                # Both phases failed: solve_node returns the min-penalty iterate.
                c["inner.minpen_fallbacks"] += 1
            return result
        return traced_node

    def _after_solve(self, args, kwargs, report):
        rhos = [r.rho for r in report.iterations]
        self.counts["alm.rho_growths"] += sum(b > a for a, b in zip(rhos, rhos[1:]))

    def _after_csv_read(self, args, kwargs, result):
        src = args[0]
        if isinstance(src, (str, os.PathLike)):
            self.counts["grid.csv_read_bytes"] += os.path.getsize(src)

    def _after_svg(self, args, kwargs, text):
        self.counts["plots.svg_bytes"] += len(text.encode("utf-8"))

    def _cli(self, main):
        def traced_main(argv):
            argv = list(argv)
            command = argv[0] if argv else ""
            code = self._spanned(f"cli.{command}", main)(argv)
            if command == "solve":
                self._count_outputs(argv)
            return code
        return traced_main

    def _count_outputs(self, argv):
        if "--out-dir" in argv:
            out_dir = argv[argv.index("--out-dir") + 1]
            for name in ctpalm.cli.OUTPUT_FILES:
                path = os.path.join(out_dir, name)
                if os.path.isfile(path):
                    self.counts["cli.output_bytes"] += os.path.getsize(path)

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point listed in the module docstring; restore after."""
        diag = ctpalm.diagnostics
        cli = ctpalm.cli
        builtin = cli.builtin
        patches = [
            (ctpalm, "solve", self._spanned(SOLVE, ctpalm.solve, self._after_solve)),
            (cli, "solve", self._spanned(SOLVE, cli.solve, self._after_solve)),
            (ctpalm.alm, "evaluate_all",
             self._counted("alm.evaluate_all_calls", ctpalm.alm.evaluate_all)),
            (ctpalm.alm, "solve_subproblem",
             self._spanned(SUBPROBLEM, ctpalm.alm.solve_subproblem)),
            (ctpalm.inner, "solve_node", self._node(ctpalm.inner.solve_node)),
            (diag, "feasibility_stationarity_residual",
             self._spanned(FEAS_STAT, diag.feasibility_stationarity_residual)),
            (cli, "akkt_residuals", self._spanned(RESIDUAL, cli.akkt_residuals)),
            (cli, "feasibility_factor", self._spanned(RESIDUAL, cli.feasibility_factor)),
            (cli, "read_trajectory_csv",
             self._spanned(CSV_READ, cli.read_trajectory_csv, self._after_csv_read)),
            (cli, "trajectory_svg", self._spanned(SVG, cli.trajectory_svg, self._after_svg)),
            (cli, "residuals_svg", self._spanned(SVG, cli.residuals_svg, self._after_svg)),
            (cli, "builtin", lambda name: self.wrap_problem(builtin(name))),
            (cli, "main", self._cli(cli.main)),
        ]
        for fn_name in ("sufficiency_certificate", "infeasibility_report",
                        "solution_error"):
            fn = self._spanned(DIAGNOSTICS, getattr(diag, fn_name))
            patches.append((diag, fn_name, fn))
            if hasattr(cli, fn_name):
                patches.append((cli, fn_name, fn))
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- metrics ----------------------------------------------------------------

    def sample_metrics(self, scale: float) -> dict:
        """Per-layer metrics of the current sample (since the last reset).

        Times are multiplied by `scale`, reference seconds per wall second.
        """
        spans = self.spans[self._first_span:]
        total = defaultdict(float)
        child = defaultdict(float)         # span id -> time covered by children
        update_pass = 0.0
        kids = defaultdict(list)
        for sid, parent, name, start, end, _ in spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
                kids[parent].append((start, end, name))
        self_time = defaultdict(float)
        cli_output = 0.0
        for sid, parent, name, start, end, _ in spans:
            self_time[name] += (end - start) - child[sid]
            if name == CLI_SOLVE:
                # The CLI solve minus its solve call.
                cli_output += (end - start) - sum(
                    c_end - c_start for c_start, c_end, c_name in kids[sid]
                    if c_name == SOLVE)
            if name == SOLVE:
                # Update pass: from each subproblem's end to the next child
                # (subproblem or diagnostics) or the end of the solve.
                seq = sorted(kids[sid])
                for i, (_, c_end, c_name) in enumerate(seq):
                    if c_name == SUBPROBLEM:
                        nxt = seq[i + 1][0] if i + 1 < len(seq) else end
                        update_pass += nxt - c_end

        c, busy = self.counts, self.busy
        n_calls = {k: c["eval." + k] for k in EVALUATORS}
        node_solves = c["inner.node_solves"]
        converged = c["inner.status." + InnerStatus.CONVERGED.value]
        m = {
            "problems.eval_calls": sum(n_calls.values()),
            **{f"problems.eval_calls.{k}": v for k, v in n_calls.items()},
            "problems.eval_s": sum(busy["eval." + k] for k in EVALUATORS),
            "inner.subproblem_s": total[SUBPROBLEM],
            "inner.node_s": total[NODE],
            "inner.node_solves": node_solves,
            "inner.iterations": c["inner.iterations"],
            "inner.descent_steps": c["inner.descent_steps"],
            "inner.polish_steps": c["inner.polish_steps"],
            "inner.descent_s": busy["inner.descent"],
            "inner.polish_s": busy["inner.polish"],
            "inner.converged": converged,
            "inner.max_iters": c["inner.status." + InnerStatus.MAX_ITERS.value],
            "inner.diverged": c["inner.status." + InnerStatus.DIVERGED.value],
            "inner.descent_exhausted": c["inner.descent_exhausted"],
            "inner.polished": c["inner.polished"],
            "inner.polish_rescues": c["inner.polish_rescues"],
            "inner.minpen_fallbacks": c["inner.minpen_fallbacks"],
            "inner.converged_ratio": converged / node_solves if node_solves else 0.0,
            "alm.self_s": self_time[SOLVE],
            "alm.update_pass_s": update_pass,
            "alm.evaluate_all_calls": c["alm.evaluate_all_calls"],
            "alm.rho_growths": c["alm.rho_growths"],
            "lagrangian.residual_s": total[RESIDUAL],
            "lagrangian.feas_stat_s": total[FEAS_STAT],
            "diagnostics.s": total[DIAGNOSTICS],
            "diagnostics.calls": sum(1 for s in spans if s[2] == DIAGNOSTICS),
            "grid.csv_read_s": total[CSV_READ],
            "grid.csv_read_bytes": c["grid.csv_read_bytes"],
            "cli.output_s": cli_output,
            "cli.output_bytes": c["cli.output_bytes"],
            "plots.svg_s": total[SVG],
            "plots.svg_bytes": c["plots.svg_bytes"],
        }
        return {k: v * scale if k.endswith("_s") else v for k, v in m.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, sample in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "sample": sample}) + "\n")
