"""Command-line frontend: solve built-in problems, check external trajectories,
and list the registry.

Exit codes: 0 converged (or check passed), 1 check failed, 2 iteration limit,
3 inner-solver failure, 64 usage errors (an option value out of range, an
unusable --out-dir), 65 unreadable or malformed data, dimension mismatches or
an evaluator returning a non-finite value.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .alm import (ITERATION_CSV_HEADER, AlmConfig, SolveStatus, StartEvaluationError,
                  _in_box, solve)
from .diagnostics import certify
from .grid import (Trajectory, TrajectoryCsvError, make_uniform_grid,
                   read_trajectory_csv, write_trajectory_csv)
from .inner import InnerConfig
from .lagrangian import akkt_holds, akkt_residuals, feasibility_factor, violations
from .plots import residuals_svg, trajectory_svg
from .problems import (EvaluationError, UnknownProblemError, builtin, builtin_names,
                       evaluate_all)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MAX_OUTER = 2
EXIT_INNER_FAILURE = 3
EXIT_USAGE = 64
EXIT_DATA = 65

_STATUS_EXIT = {
    SolveStatus.AKKT_CONVERGED: EXIT_OK,
    SolveStatus.MAX_OUTER_REACHED: EXIT_MAX_OUTER,
    SolveStatus.INNER_FAILURE: EXIT_INNER_FAILURE,
}

OUTPUT_FILES = ("iterations.csv", "trajectory.csv", "summary.json",
                "trajectory.svg", "residuals.svg")


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


# Config fields with a flag each: an AlmConfig field's flag is its lower-cased
# name, an InnerConfig field's is inner_<name>.
_ALM_FIELDS = tuple(f for f in dataclasses.fields(AlmConfig) if f.name != "inner")
_INNER_FIELDS = dataclasses.fields(InnerConfig)

# The `solve` options, which are also the --config keys and the keys of
# summary.json's config echo: name -> (type, built-in default), the numeric
# defaults taken from AlmConfig.  None defaults let a --config file fill
# values in; flags always win when both are present.
# Inner flags left unset keep AlmConfig's inner config, whose grad_tol follows
# eps_stop.
_SOLVE_DEFAULTS = {
    "nodes": (int, 85),
    **{f.name.lower(): (type(f.default), f.default) for f in _ALM_FIELDS},
    **{f"inner_{f.name}": (type(f.default), None) for f in _INNER_FIELDS},
    "x0": (str, None), "u0": (str, None), "v0": (str, None),
}
_SOLVE_HELP = {
    "x0": "initial state: comma-separated constants or a trajectory CSV",
    "u0": "initial equality multipliers (constants or CSV)",
    "v0": "initial inequality multipliers (constants or CSV)",
}
# Option type -> (the JSON value types it takes, its name in errors).  JSON
# types are kept: an int option takes a JSON integer, a float option any JSON
# number, a str option a JSON string.
_JSON_TYPES = {int: ((int,), "int"), float: ((int, float), "float"),
               str: ((str,), "a string")}


def _solve_arguments(ps) -> None:
    ps.add_argument("--problem", required=True, help="registry name")
    for flag, (typ, _) in _SOLVE_DEFAULTS.items():
        ps.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=typ, default=None,
                        help=_SOLVE_HELP.get(flag))
    ps.add_argument("--out-dir", default=".", help="output directory (default: .)")
    ps.add_argument("--config", default=None,
                    help="JSON file with the same keys as the flags; flags win")


def _check_arguments(pc) -> None:
    pc.add_argument("problem", help="registry name")
    pc.add_argument("trajectory_csv", help="state trajectory (t,c0,...,c{n-1})")
    pc.add_argument("multipliers_csv",
                    help="multiplier trajectory (t,c0,...): p equality columns "
                         "then m inequality columns")
    pc.add_argument("--eps-stop", dest="eps_stop", type=float,
                    default=AlmConfig.eps_stop)


# Subcommand -> (help, the function that adds its arguments).
_COMMANDS = {
    "solve": ("run the solver on a built-in problem", _solve_arguments),
    "check": ("evaluate optimality residuals for externally produced trajectories",
              _check_arguments),
    "list-problems": ("print the registry", lambda _: None),
}


def build_parser() -> _Parser:
    """The parser of every subcommand, for top-level help and the usage errors
    that name every command; `main` parses a run of one subcommand with that
    subcommand's parser alone."""
    parser = _Parser(prog="ctpalm",
                     description="Augmented Lagrangian solver for "
                                 "continuous-time programs on a uniform grid.")
    parser.add_argument("--version", action="version", version=f"ctpalm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _vector_spec_to_trajectory(spec: Optional[str], dim: int, grid,
                               source: str) -> tuple:
    """(trajectory, where it came from) for `spec`, (None, source) for none.
    Constants are broadcast to every node and come from `source`; any other
    spec is a CSV path and comes from `source: PATH`."""
    if spec is None:
        return None, source
    try:
        constants = np.array([float(part) for part in spec.split(",")])
    except ValueError:
        constants = None
    if constants is not None:
        if constants.size != dim:
            raise CliError(EXIT_DATA,
                           f"{source}: expected {dim} component(s), got {constants.size}")
        if not np.all(np.isfinite(constants)):
            raise CliError(EXIT_DATA, f"{source}: non-finite value in {spec!r}")
        return Trajectory.constant(grid, constants), source
    if not os.path.exists(spec):
        raise CliError(EXIT_DATA, f"{source}: {spec!r} is neither a number list "
                                  f"nor an existing CSV file")
    try:
        traj = read_trajectory_csv(spec)
    except (OSError, TrajectoryCsvError) as exc:
        raise CliError(EXIT_DATA, f"{source}: {exc}") from None
    where = f"{source}: {spec}"
    if traj.dim != dim:
        raise CliError(EXIT_DATA, f"{where}: expected {dim} column(s), got {traj.dim}")
    if traj.grid != grid:
        raise CliError(EXIT_DATA, f"{where}: CSV grid does not match the run grid")
    return traj, where


def _merged_options(args) -> tuple:
    """Each option's value, from its flag before --config, and where it came from."""
    merged, sources = {}, {}
    file_values = {}
    where = f"--config: {args.config}"
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise CliError(EXIT_DATA, f"{where}: {exc.strerror}") from None
        # Bad bytes, bad JSON, or an integer with more digits than int() takes.
        except ValueError as exc:
            raise CliError(EXIT_DATA, f"{where}: {exc}") from None
        if not isinstance(file_values, dict):
            raise CliError(EXIT_DATA, f"{where}: top-level JSON object expected")
        unknown = sorted(set(file_values) - set(_SOLVE_DEFAULTS))
        if unknown:
            raise CliError(EXIT_DATA, f"{where}: unknown keys: {', '.join(unknown)}")
    for flag, (typ, default) in _SOLVE_DEFAULTS.items():
        value, sources[flag] = getattr(args, flag), f"--{flag.replace('_', '-')}"
        if value is None and flag in file_values:
            value, sources[flag] = file_values[flag], f"{where}: {flag}"
            json_types, name = _JSON_TYPES[typ]
            if isinstance(value, bool) or not isinstance(value, json_types):
                raise CliError(EXIT_DATA, f"{sources[flag]}: expected {name}, "
                                          f"got {value!r}")
            try:
                value = typ(value)
            except OverflowError as exc:  # a JSON integer beyond the float range
                raise CliError(EXIT_DATA, f"{sources[flag]}: {exc}") from None
        merged[flag] = default if value is None else value
    return merged, sources


def _certificates_json(certificates: dict) -> dict:
    return {key: (cert.as_json_obj() if cert is not None else None)
            for key, cert in certificates.items()}


def _json_text(obj: dict, what: str = "result") -> str:
    """Strict JSON text; a non-finite number (`what` overflowed) raises
    OverflowError."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise OverflowError(f"{what} out of floating-point range: {exc}") from None


def _publish(out_dir: str, texts: dict) -> None:
    """Write each of OUTPUT_FILES to its `.tmp.` name, then rename all into place;
    after a failure, remove the temp files this call made and did not rename."""
    made, renamed = [], 0
    try:
        for name in OUTPUT_FILES:
            path = os.path.join(out_dir, f".tmp.{name}")
            with open(path, "wb") as fh:
                made.append(path)
                fh.write(texts[name].encode("utf-8"))
        for path, name in zip(made, OUTPUT_FILES):
            os.replace(path, os.path.join(out_dir, name))
            renamed += 1
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"--out-dir: {exc}") from None
    finally:
        for path in made[renamed:]:
            os.unlink(path)


def cmd_solve(args) -> int:
    problem = builtin(args.problem)
    opts, sources = _merged_options(args)
    try:
        grid = make_uniform_grid(problem.horizon, opts["nodes"])
        cfg = AlmConfig(**{f.name: opts[f.name.lower()] for f in _ALM_FIELDS})
        inner = {f.name: opts[f"inner_{f.name}"] for f in _INNER_FIELDS
                 if opts[f"inner_{f.name}"] is not None}
        cfg = dataclasses.replace(cfg, inner=dataclasses.replace(cfg.inner, **inner))
    except ValueError as exc:
        message = str(exc)
        if args.config is not None:
            message += f" (options from the flags and --config {args.config})"
        raise CliError(EXIT_USAGE, message) from None

    # `start` names where the start came from, for an evaluator that fails there.
    x0, start = _vector_spec_to_trajectory(opts["x0"], problem.n, grid, sources["x0"])
    if x0 is None:
        x0, start = Trajectory.constant(grid, np.zeros(problem.n)), "x0 (zeros by default)"
    u0, _ = _vector_spec_to_trajectory(opts["u0"], problem.p, grid, sources["u0"])
    v0, _ = _vector_spec_to_trajectory(opts["v0"], problem.m, grid, sources["v0"])
    for traj, low, high, flag in ((u0, -cfg.bound_M, cfg.bound_M, sources["u0"]),
                                  (v0, 0.0, cfg.bound_N, sources["v0"])):
        if traj is not None and not _in_box(traj.values, low, high):
            raise CliError(EXIT_DATA, f"{flag}: entries must lie in [{low:g}, {high:g}]")

    out_dir = args.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"--out-dir: {exc}") from None
    try:
        report = solve(problem, cfg, x0, u0, v0)
    except StartEvaluationError as exc:
        raise CliError(EXIT_DATA, f"{start}: {exc}") from None

    columns = ([f"x{i + 1}" for i in range(problem.n)]
               + [f"u{i + 1}" for i in range(problem.p)]
               + [f"v{i + 1}" for i in range(problem.m)])
    combined = np.hstack([report.x.values, report.u.values, report.v.values])
    trajectory_csv = io.StringIO()
    write_trajectory_csv(Trajectory(grid, combined), trajectory_csv, columns)
    metrics, final = report.error_metrics, report.final
    summary = {
        "problem": problem.name,
        "status": report.status.value,
        "outer_iterations": len(report.iterations),
        "rho_final": final.rho,
        "residuals": dataclasses.asdict(final.residuals),
        "infeas_measure": final.infeas_measure,
        "objective": final.objective_quadrature,
        "certificates": _certificates_json(report.certificates),
        "error_metrics": metrics.as_json_obj() if metrics is not None else None,
        # The options of this run as a --config file: the inner ones at the
        # values used, unset initial data left out.
        "config": {**{key: value for key, value in opts.items() if value is not None},
                   **{f"inner_{f.name}": getattr(cfg.inner, f.name)
                      for f in _INNER_FIELDS}},
    }
    _publish(out_dir, {
        "iterations.csv": "\n".join([ITERATION_CSV_HEADER,
                                     *(r.csv_row() for r in report.iterations)]) + "\n",
        "trajectory.csv": trajectory_csv.getvalue(),
        "summary.json": _json_text(summary),
        "trajectory.svg": trajectory_svg(report.x, metrics and metrics.reference,
                                         title=f"{problem.name}: solver trajectory"),
        "residuals.svg": residuals_svg(report.iterations,
                                       title=f"{problem.name}: residual history"),
    })

    print(f"{problem.name}: {report.status.value} after "
          f"{len(report.iterations)} outer iteration(s); outputs in {out_dir}")
    return _STATUS_EXIT[report.status]


def cmd_check(args) -> int:
    problem = builtin(args.problem)
    try:
        eps_stop = AlmConfig(eps_stop=args.eps_stop).eps_stop
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"--eps-stop: {exc}") from None
    x_path, m_path = args.trajectory_csv, args.multipliers_csv
    x = read_trajectory_csv(x_path)
    mults = read_trajectory_csv(m_path)
    if x.dim != problem.n:
        raise CliError(EXIT_DATA, f"{x_path}: trajectory has {x.dim} state column(s), "
                                  f"expected {problem.n}")
    if x.grid.horizon != problem.horizon:
        raise CliError(EXIT_DATA, f"{x_path}: trajectory ends at t={x.grid.horizon!r}, "
                                  f"problem horizon is T={problem.horizon!r}")
    if mults.dim != problem.p + problem.m:
        raise CliError(EXIT_DATA, f"{m_path}: multiplier file has {mults.dim} column(s), "
                                  f"expected p+m={problem.p + problem.m}")
    if x.grid != mults.grid:
        raise CliError(EXIT_DATA, f"{m_path}: trajectory and multiplier files use "
                                  f"different grids")
    grid = x.grid
    u = Trajectory(grid, mults.values[:, :problem.p])
    v_vals = mults.values[:, problem.p:]
    if v_vals.size and v_vals.min() < 0.0:
        raise CliError(EXIT_DATA, f"{m_path}: negative inequality multiplier entries")
    v = Trajectory(grid, v_vals)

    try:
        bundle = evaluate_all(problem, x.values, grid.nodes)
    except EvaluationError as exc:
        raise CliError(EXIT_DATA, f"{x_path}: {exc}") from None
    residuals = akkt_residuals(grid, bundle, u, v)
    max_h, max_gp = violations(bundle)
    out = {
        "problem": problem.name,
        "eps_stop": eps_stop,
        "residuals": dataclasses.asdict(residuals),
        "feasibility": {
            "max_equality_violation": max_h,
            "max_inequality_violation": max_gp,
            "feasibility_factor": feasibility_factor(grid, bundle),
        },
        "certificates": _certificates_json(
            certify(problem, grid, bundle, u, v, residuals, eps_stop)),
        "pass": akkt_holds(residuals, eps_stop),
    }
    sys.stdout.write(_json_text(out, f"residuals of {x_path} with {m_path}"))
    return EXIT_OK if out["pass"] else EXIT_CHECK_FAILED


def cmd_list() -> int:
    for name in builtin_names():
        prob = builtin(name)
        ref = "yes" if prob.reference is not None else "no"
        print(f"{name}  n={prob.n} p={prob.p} m={prob.m} "
              f"T={prob.horizon:g} ref={ref}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A run of one subcommand parses as the full tree would hand it to that
    # subcommand's parser; the tree parses any other argv, and one that leaves
    # arguments over, so that its help and error lines name every command.
    name = argv[0] if argv else None
    if name in _COMMANDS:
        parser = _Parser(prog=f"ctpalm {name}")
        _COMMANDS[name][1](parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if name not in _COMMANDS or rest:
        args = build_parser().parse_args(argv)
    try:
        # Overflow reaches users as the error line below, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "solve":
                return cmd_solve(args)
            if args.command == "check":
                return cmd_check(args)
            return cmd_list()
    except CliError as exc:
        code, message = exc.exit_code, str(exc)
    except UnknownProblemError as exc:
        code, message = EXIT_USAGE, exc.args[0]
    # An input file that cannot be opened or parsed, an evaluator returning a
    # non-finite value and a run whose values overflow are data errors.
    except (OSError, TrajectoryCsvError, EvaluationError, OverflowError) as exc:
        code, message = EXIT_DATA, str(exc)
    sys.stderr.write(f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
