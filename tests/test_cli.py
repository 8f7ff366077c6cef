"""Command-line interface: verbs, exit codes, file outputs, and data checks."""

import argparse
import contextlib
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctpalm as c
from ctpalm import cli, grid
from ctpalm.grid import MAX_NODES, write_trajectory_csv
from ctpalm.problems import builtin
from conftest import run_cli, run_in_process
from testkit import akkt_example_sequence


# -- list-problems -------------------------------------------------------------

def test_list_problems_table():
    proc = run_cli(["list-problems"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 6
    assert "ex3  n=3 p=1 m=2 T=1 ref=yes" in lines
    assert any(line.startswith("infeasible1") for line in lines)
    assert any("ref=no" in line for line in lines)


@pytest.mark.parametrize("command", ["solve", "check", "list-problems"])
def test_subcommand_help_equals_that_of_the_full_parser(command, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    full = capsys.readouterr().out
    proc = run_in_process([command, "--help"], capsys)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, full, "")


def test_usage_error_after_a_command_lists_every_command(capsys):
    proc = run_in_process(["list-problems", "extra"], capsys)
    assert (proc.returncode, proc.stderr) == (
        64, "usage: ctpalm [-h] [--version] {solve,check,list-problems} ...\n"
            "error: unrecognized arguments: extra\n")



# Files for the routed `check` runs: a constant ex1 trajectory and zero
# multipliers.
ROUTING_FILES = {"x.csv": "t,c0,c1\n0,1,1\n0.5,1,1\n1,1,1\n",
                 "m.csv": "t,c0,c1\n0,0,0\n0.5,0,0\n1,0,0\n"}
CHECK = ["check", "ex1", "x.csv", "m.csv"]
# Valid runs, abbreviated options, help and --version before and after the
# command, `--` separators, arguments no parser takes, missing arguments.
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


class _TreeOnly(dict):
    """`cli._COMMANDS` in which `main` finds no command, so that it parses
    every argv with the full tree of `cli.build_parser()`."""

    def __contains__(self, name):
        return False


def run_both_ways(argv, monkeypatch, capsys) -> tuple:
    """(exit code, stdout, stderr) of `main(argv)`, then of `main(argv)`
    parsing with the full tree."""
    outs = []
    for commands in (cli._COMMANDS, _TreeOnly(cli._COMMANDS)):
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_COMMANDS", commands)
            proc = run_in_process(argv, capsys)
        outs.append((proc.returncode, proc.stdout, proc.stderr))
    return tuple(outs)


@pytest.fixture
def routing_dir(tmp_path, monkeypatch):
    """A working directory holding ROUTING_FILES, help at 80 columns."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in ROUTING_FILES.items():
        (tmp_path / name).write_text(text)


@pytest.mark.parametrize("argv", ROUTING_ARGV, ids=" ".join)
def test_routed_parse_equals_the_full_tree(argv, routing_dir, monkeypatch, capsys):
    routed, tree = run_both_ways(argv, monkeypatch, capsys)
    assert routed == tree


def test_a_valid_check_builds_one_argument_parser(routing_dir, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    counts = []
    for commands in (cli._COMMANDS, _TreeOnly(cli._COMMANDS)):
        built.clear()
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_COMMANDS", commands)
            assert run_in_process(CHECK, capsys).returncode in (0, 1)
        counts.append(len(built))
    assert counts == [1, 4]


# -- solve ----------------------------------------------------------------------

def test_solve_ex1_writes_everything(ex1_cli_dirs):
    out = ex1_cli_dirs[0]
    for name in ("iterations.csv", "trajectory.csv", "summary.json",
                 "trajectory.svg", "residuals.svg"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "AkktConverged"
    assert summary["error_metrics"]["sup_error"] <= 1e-3
    assert summary["config"]["nodes"] == 85

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,v1,v2"
    it_header = (out / "iterations.csv").read_text().splitlines()[0]
    assert it_header.split(",") == ["k", "rho", "stationarity_l1",
                                    "complementarity_sup", "infeas_measure",
                                    "objective", "inner_status", "inner_max_grad"]
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_summary_round_trips_to_identical_bytes(ex1_cli_dirs):
    raw = (ex1_cli_dirs[0] / "summary.json").read_bytes()
    data = json.loads(raw)
    again = (json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
             + "\n").encode("utf-8")
    assert again == raw


def test_repeated_runs_are_bit_identical(ex1_cli_dirs):
    a, b = ex1_cli_dirs
    for name in ("iterations.csv", "trajectory.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_solve_unknown_problem_is_usage_error(tmp_path, capsys):
    proc = run_in_process(["solve", "--problem", "nosuch", "--out-dir", str(tmp_path)],
                          capsys)
    assert proc.returncode == 64
    for name in ("ex1", "ex2", "ex3", "ex4", "akkt_example", "infeasible1"):
        assert name in proc.stderr
    assert not any(tmp_path.iterdir())


def test_solve_dimension_mismatch_names_flag(tmp_path, capsys):
    proc = run_in_process(["solve", "--problem", "ex1", "--x0", "1,1,1",
                           "--out-dir", str(tmp_path)], capsys)
    assert proc.returncode == 65
    assert "--x0" in proc.stderr
    assert not any(tmp_path.iterdir())


def test_solve_bad_flag_value_is_usage_error(tmp_path, capsys):
    proc = run_in_process(["solve", "--problem", "ex1", "--nodes", "many",
                           "--out-dir", str(tmp_path)], capsys)
    assert proc.returncode == 64


def test_solve_atomic_outputs_no_temp_leftovers(ex1_cli_dirs):
    leftovers = [p for p in os.listdir(ex1_cli_dirs[0]) if p.startswith(".tmp.")]
    assert leftovers == []


def test_iterations_csv_is_the_log_of_the_solve(ex1_cli_dirs, ex1_run):
    # Both solve ex1 from the same start with the default config.
    report = ex1_run[0]
    lines = (ex1_cli_dirs[0] / "iterations.csv").read_text().splitlines()
    assert lines == [c.alm.ITERATION_CSV_HEADER,
                     *(r.csv_row() for r in report.iterations)]


def test_blocked_temp_name_publishes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    (out / ".tmp.summary.json").mkdir(parents=True)
    proc = run_in_process(["solve", "--problem", "ex1", "--nodes", "5",
                           "--out-dir", str(out)], capsys)
    assert proc.returncode == 64
    assert proc.stderr.startswith("error: --out-dir: ")
    assert len(proc.stderr.splitlines()) == 1
    # Only the directory that was there before the run is left.
    assert os.listdir(out) == [".tmp.summary.json"]


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"nodes": 21, "x0": "1,1", "v0": "1,1",
                                    "max_outer": 7}))
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", "ex1", "--config", str(cfg_path),
                           "--max-outer", "300", "--out-dir", str(out)], capsys)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["nodes"] == 21       # from the file
    assert summary["config"]["max_outer"] == 300  # flag overrides file


def test_default_solve_config_is_the_dataclass_defaults(tmp_path, capsys):
    proc = run_in_process(["solve", "--problem", "ex1", "--out-dir", str(tmp_path)],
                          capsys)
    assert proc.returncode == 0, proc.stderr
    cfg = c.AlmConfig()
    config = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert config == {
        "nodes": 85, "rho_init": cfg.rho_init,
        "gamma": cfg.gamma, "tau": cfg.tau, "bound_m": cfg.bound_M,
        "bound_n": cfg.bound_N, "eps_stop": cfg.eps_stop,
        "max_outer": cfg.max_outer, "inner_grad_tol": cfg.inner.grad_tol,
        "inner_max_iters": cfg.inner.max_iters,
    }


def test_solve_nonfinite_evaluation_is_data_error(tmp_path):
    proc = run_cli(["solve", "--problem", "ex1", "--nodes", "5", "--x0=1e200,0",
                    "--out-dir", str(tmp_path)])
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
        "error: --x0: phi returned a non-finite value at t=0.0, x=[1e+200, 0.0]"]
    assert not any(tmp_path.iterdir())


def test_nonfinite_start_error_names_where_the_start_came_from(tmp_path, capsys,
                                                                monkeypatch):
    csv = _write(tmp_path / "x0.csv", "t,c0,c1\n0,1e200,0\n1,0,0\n")
    config = _write(tmp_path / "run.json", '{"x0": "1e200,0"}')
    message = "phi returned a non-finite value at t=0.0, x=[1e+200, 0.0]"
    for args, where in [(["--x0=1e200,0"], "--x0"),
                        (["--x0", csv], f"--x0: {csv}"),
                        (["--config", config], f"--config: {config}: x0")]:
        proc = run_in_process(["solve", "--problem", "ex1", "--nodes", "2", *args,
                               "--out-dir", str(tmp_path / "out")], capsys)
        assert (proc.returncode, proc.stderr) == (65, f"error: {where}: {message}\n")
    # An evaluator failing at a later iterate does not blame the start.
    monkeypatch.setattr(c.alm, "solve_subproblem",
                        lambda problem, ts, xs, *rest: (np.full_like(xs, 1e200),
                                                        c.InnerStatus.CONVERGED, 0.0))
    proc = run_in_process(["solve", "--problem", "ex1", "--nodes", "2", "--x0", "1,1",
                           "--out-dir", str(tmp_path / "out")], capsys)
    assert (proc.returncode, proc.stderr) == (
        65, "error: phi returned a non-finite value at t=0.0, x=[1e+200, 1e+200]\n")
    assert not any((tmp_path / "out").iterdir())


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


NOT_UTF8 = b"t,c0,c1\n0,\xff,0\n1,0,0\n"


def _check_args(d, eps_stop=None):
    """`check` on a feasible ex1 point, with --eps-stop when given."""
    return ["check", "ex1", _write(d / "x.csv", "t,c0,c1\n0,0,0\n1,0,0\n"),
            _write(d / "m.csv", "t,c0,c1\n0,0.5,0.5\n1,0.5,0.5\n"),
            *([f"--eps-stop={eps_stop}"] if eps_stop is not None else [])]


def _out_dir_is_a_file(d):
    """Solve arguments; the --out-dir the test appends is made an existing file."""
    _write(d / "out", "")
    return ["solve", "--problem", "ex1", "--nodes", "5"]


_NONFINITE_OPTIONS = [(flag, value) for flag in ("--eps-stop", "--gamma", "--rho-init",
                                                 "--bound-m", "--inner-grad-tol")
                      for value in ("nan", "inf")] + [("--bound-n", "inf")]


# (exit code, argv from the test's directory, what the error line must name:
# None, a file under that directory, or a (flag, file or None) pair)
_BAD_INPUTS = {
    "nodes-1": (64, lambda d: ["solve", "--problem", "ex1", "--nodes", "1"], None),
    "gamma-0.5": (64, lambda d: ["solve", "--problem", "ex1", "--gamma", "0.5"], None),
    "x0-nan": (65, lambda d: ["solve", "--problem", "ex1", "--x0", "nan,1"], None),
    "v0-negative": (65, lambda d: ["solve", "--problem", "ex1", "--v0=-1,1"], None),
    "x0-overflow": (65, lambda d: ["solve", "--problem", "ex1", "--nodes", "5",
                                   "--x0=1e200,0"], ("--x0", None)),
    "x0-csv-overflow": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2",
        "--x0", _write(d / "x0.csv", "t,c0,c1\n0,1e200,0\n1,0,0\n")],
        ("--x0", "x0.csv")),
    "config-x0-overflow": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2",
        "--config", _write(d / "run.json", '{"x0": "1e200,0"}')], ("x0", "run.json")),
    "config-nodes-abc": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                        _write(d / "run.json", '{"nodes": "abc"}')],
                         "run.json"),
    "check-nan-cell": (65, lambda d: [
        "check", "ex1", _write(d / "x.csv", "t,c0,c1\n0,nan,0\n1,0,0\n"),
        _write(d / "m.csv", "t,c0,c1\n0,0,0\n1,0,0\n")], "x.csv"),
    "check-overflow": (65, lambda d: [
        "check", "ex1", _write(d / "x.csv", "t,c0,c1\n0,1e200,0\n1,0,0\n"),
        _write(d / "m.csv", "t,c0,c1\n0,0,0\n1,0,0\n")], "x.csv"),
    **{f"{flag[2:]}-{value}": (64, lambda d, f=flag, v=value: [
        "solve", "--problem", "ex1", f"{f}={v}"], None)
       for flag, value in _NONFINITE_OPTIONS},
    **{f"check-eps-{name}": (64, lambda d, v=value: _check_args(d, v), None)
       for name, value in (("nan", "nan"), ("inf", "inf"), ("0", "0"),
                           ("negative", "-1"))},
    "out-dir-is-a-file": (64, _out_dir_is_a_file, "out"),
    "x0-directory": (65, lambda d: ["solve", "--problem", "ex1", "--x0", str(d)],
                     ("--x0", "")),
    "x0-not-utf8": (65, lambda d: ["solve", "--problem", "ex1", "--nodes", "2",
                                   "--x0", _write(d / "x0.csv", NOT_UTF8)],
                    ("--x0", "x0.csv")),
    "config-not-utf8": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                       _write(d / "run.json", b'{"nodes": "\xff"}')],
                        "run.json"),
    "check-not-utf8": (65, lambda d: ["check", "ex1", _write(d / "x.csv", NOT_UTF8),
                                      _write(d / "m.csv", "t,c0,c1\n0,0,0\n1,0,0\n")],
                       "x.csv"),
    "config-nodes-float": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                          _write(d / "run.json", '{"nodes": 5.9}')],
                           "run.json"),
    "config-max-outer-bool": (65, lambda d: [
        "solve", "--problem", "ex1",
        "--config", _write(d / "run.json", '{"max_outer": true}')], "run.json"),
    "config-eps-stop-string": (65, lambda d: [
        "solve", "--problem", "ex1",
        "--config", _write(d / "run.json", '{"eps_stop": "1e-3"}')], "run.json"),
    # Residuals that overflow although every cell is finite.
    "check-residual-overflow": (65, lambda d: [
        "check", "infeasible1", _write(d / "x.csv", "t,c0\n0,1e154\n1,1e154\n"),
        _write(d / "m.csv", "t,c0\n0,0\n1,0\n")], "x.csv"),
    # A horizon too small to divide into a uniform grid.
    "check-subnormal-horizon": (65, lambda d: [
        "check", "infeasible1", _write(d / "x.csv", "t,c0\n0,0\n0,0\n5e-324,0\n"),
        _write(d / "m.csv", "t,c0\n0,0\n0,0\n5e-324,0\n")], "x.csv"),
    "x0-non-numeric": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2",
        "--x0", _write(d / "x0.csv", "t,c0,c1\n0,0,0\n1,zap,0\n")],
        ("--x0", "x0.csv")),
    "config-malformed": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                        _write(d / "run.json", "{nodes: 5}")],
                         "run.json"),
    "nodes-above-limit": (64, lambda d: ["solve", "--problem", "ex1",
                                         "--nodes", str(MAX_NODES + 1)], None),
    "config-nodes-above-limit": (64, lambda d: [
        "solve", "--problem", "ex1",
        "--config", _write(d / "run.json", f'{{"nodes": {MAX_NODES + 1}}}')],
        "run.json"),
    # Initial data from --config must be strings, as on the command line.
    "config-x0-number": (65, lambda d: ["solve", "--problem", "infeasible1", "--config",
                                        _write(d / "run.json", '{"x0": 5}')], "run.json"),
    "config-x0-list": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                      _write(d / "run.json", '{"x0": [1, 1]}')],
                       "run.json"),
    # Errors in initial data from --config name the file, not the flag.
    "config-x0-empty": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                       _write(d / "run.json", '{"x0": ""}')],
                        "run.json"),
    "config-x0-wrong-size": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                            _write(d / "run.json", '{"x0": "1,1,1"}')],
                             "run.json"),
    "x0-csv-wrong-width": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2",
        "--x0", _write(d / "x0.csv", "t,c0,c1,c2\n0,0,0,0\n1,0,0,0\n")],
        ("--x0", "x0.csv")),
    "x0-csv-other-grid": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2",
        "--x0", _write(d / "x0.csv", "t,c0,c1\n0,0,0\n0.5,0,0\n1,0,0\n")],
        ("--x0", "x0.csv")),
    "v0-csv-wrong-width": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2",
        "--v0", _write(d / "v0.csv", "t,c0\n0,0\n1,0\n")], ("--v0", "v0.csv")),
    "config-x0-csv-wrong-width": (65, lambda d: [
        "solve", "--problem", "ex1", "--nodes", "2", "--config",
        _write(d / "run.json", json.dumps({"x0": _write(d / "x0.csv",
                                                        "t,c0\n0,0\n1,0\n")}))],
        "x0.csv"),
    "config-u0-csv-other-grid": (65, lambda d: [
        "solve", "--problem", "ex3", "--nodes", "2", "--config",
        _write(d / "run.json", json.dumps({"u0": _write(d / "u0.csv",
                                                        "t,c0\n0,0\n2,0\n")}))],
        "u0.csv"),
    "config-not-object": (65, lambda d: ["solve", "--problem", "ex1", "--config",
                                         _write(d / "run.json", "[1, 2]")], "run.json"),
    "config-missing": (65, lambda d: ["solve", "--problem", "ex1",
                                      "--config", str(d / "missing.json")],
                       ("--config", "missing.json")),
    "config-directory": (65, lambda d: ["solve", "--problem", "ex1", "--config", str(d)],
                         ("--config", "")),
    "check-state-wrong-width": (65, lambda d: [
        "check", "ex1", _write(d / "x.csv", "t,c0\n0,0\n1,0\n"),
        _write(d / "m.csv", "t,c0,c1\n0,0,0\n1,0,0\n")], "x.csv"),
    "check-multipliers-wrong-width": (65, lambda d: [
        "check", "ex1", _write(d / "x.csv", "t,c0,c1\n0,0,0\n1,0,0\n"),
        _write(d / "m.csv", "t,c0\n0,0\n1,0\n")], "m.csv"),
    "check-multipliers-other-grid": (65, lambda d: [
        "check", "ex1", _write(d / "x.csv", "t,c0,c1\n0,0,0\n1,0,0\n"),
        _write(d / "m.csv", "t,c0,c1\n0,0,0\n2,0,0\n")], "m.csv"),
    "check-multipliers-negative": (65, lambda d: [
        "check", "ex1", _write(d / "x.csv", "t,c0,c1\n0,0,0\n1,0,0\n"),
        _write(d / "m.csv", "t,c0,c1\n0,0,0\n1,0,-1\n")], "m.csv"),
    # ex4 runs to T = 2: these files cover [0, 1] only.
    "check-short-horizon": (65, lambda d: [
        "check", "ex4", _write(d / "x.csv", "t,c0,c1\n0,0,0\n1,0,0\n"),
        _write(d / "m.csv", "t,c0,c1,c2,c3,c4\n0,0,0,0,0,0\n1,0,0,0,0,0\n")], "x.csv"),
    "problem-unknown": (64, lambda d: ["solve", "--problem", "nope"], None),
    # A JSON integer with more digits than Python converts.
    "config-nodes-5000-digits": (65, lambda d: [
        "solve", "--problem", "ex1", "--config",
        _write(d / "run.json", '{"nodes": 1' + "0" * 5000 + "}")], "run.json"),
    # A JSON integer beyond the float range for a float option.
    "config-gamma-overflow": (65, lambda d: [
        "solve", "--problem", "ex1", "--config",
        _write(d / "run.json", '{"gamma": 1' + "0" * 400 + "}")], "run.json"),
    # `bound_M` is AlmConfig's name for --bound-m, not a --config key.
    "config-unknown-keys": (65, lambda d: [
        "solve", "--problem", "ex1", "--config",
        _write(d / "run.json", '{"max_outr": 1, "bound_M": 5, "nodes": 5}')], "run.json"),
}


@pytest.mark.parametrize("code,argv,named", _BAD_INPUTS.values(), ids=_BAD_INPUTS)
def test_bad_input_exits_with_one_error_line(tmp_path, capsys, code, argv, named):
    out = tmp_path / "out"
    args = argv(tmp_path)
    if args[0] == "solve":
        args += ["--out-dir", str(out)]
    proc = run_in_process(args, capsys)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if named is not None:
        flag, name = named if isinstance(named, tuple) else ("", named)
        assert flag in lines[0]
        assert name is None or str(tmp_path / name) in lines[0]
    assert not out.is_dir() or not any(out.iterdir())


# The whole error line of some `_BAD_INPUTS` entries, from the test's directory.
_EXACT_ERRORS = {
    "x0-csv-wrong-width": lambda d: f"--x0: {d / 'x0.csv'}: expected 2 column(s), got 3",
    "x0-csv-other-grid": lambda d: f"--x0: {d / 'x0.csv'}: CSV grid does not match the "
                                   f"run grid",
    "v0-csv-wrong-width": lambda d: f"--v0: {d / 'v0.csv'}: expected 2 column(s), got 1",
    "config-x0-csv-wrong-width": lambda d: f"--config: {d / 'run.json'}: x0: "
                                           f"{d / 'x0.csv'}: expected 2 column(s), got 1",
    "config-u0-csv-other-grid": lambda d: f"--config: {d / 'run.json'}: u0: "
                                          f"{d / 'u0.csv'}: CSV grid does not match the "
                                          f"run grid",
    "config-not-object": lambda d: f"--config: {d / 'run.json'}: top-level JSON "
                                   f"object expected",
    "check-state-wrong-width": lambda d: f"{d / 'x.csv'}: trajectory has 1 state "
                                         f"column(s), expected 2",
    "check-multipliers-wrong-width": lambda d: f"{d / 'm.csv'}: multiplier file has 1 "
                                               f"column(s), expected p+m=2",
    "check-multipliers-other-grid": lambda d: f"{d / 'm.csv'}: trajectory and multiplier "
                                              f"files use different grids",
    "check-multipliers-negative": lambda d: f"{d / 'm.csv'}: negative inequality "
                                            f"multiplier entries",
    "config-missing": lambda d: f"--config: {d / 'missing.json'}: No such file or "
                                f"directory",
    "config-directory": lambda d: f"--config: {d}: Is a directory",
    "check-short-horizon": lambda d: f"{d / 'x.csv'}: trajectory ends at t=1.0, "
                                     f"problem horizon is T=2.0",
    "config-x0-number": lambda d: f"--config: {d / 'run.json'}: x0: expected a string, "
                                  f"got 5",
    "config-nodes-abc": lambda d: f"--config: {d / 'run.json'}: nodes: expected int, "
                                  f"got 'abc'",
    "problem-unknown": lambda d: "unknown problem 'nope'; valid names: ex1, ex2, ex3, "
                                 "ex4, akkt_example, infeasible1",
    "config-unknown-keys": lambda d: f"--config: {d / 'run.json'}: unknown keys: "
                                     f"bound_M, max_outr",
    "config-gamma-overflow": lambda d: f"--config: {d / 'run.json'}: gamma: int too "
                                       f"large to convert to float",
}


@pytest.mark.parametrize("name", _EXACT_ERRORS)
def test_bad_input_error_line_is_exact(tmp_path, capsys, name):
    code, argv, _ = _BAD_INPUTS[name]
    args = argv(tmp_path)
    if args[0] == "solve":
        args += ["--out-dir", str(tmp_path / "out")]
    proc = run_in_process(args, capsys)
    assert (proc.returncode, proc.stderr) == (
        code, f"error: {_EXACT_ERRORS[name](tmp_path)}\n")


def test_csv_with_more_rows_than_the_node_limit_is_data_error(tmp_path, monkeypatch,
                                                              capsys):
    # The limit is lowered so that the file stays small: the reader stops at
    # the first row past it, before any grid is built.
    monkeypatch.setattr(grid, "MAX_NODES", 3)
    rows = "".join(f"{t},0\n" for t in (0, 0.25, 0.5, 0.75, 1))
    args = ["check", "infeasible1", _write(tmp_path / "x.csv", "t,c0\n" + rows),
            _write(tmp_path / "m.csv", "t,c0\n" + rows)]
    assert cli.main(args) == 65
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'x.csv'}: line 5: more than 3 data rows\n")


def test_solve_exit_code_for_iteration_limit(tmp_path, capsys):
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", "infeasible1", "--x0", "5",
                           "--max-outer", "25", "--out-dir", str(out)], capsys)
    assert proc.returncode == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "MaxOuterReached"
    cert = summary["certificates"]["infeasibility"]
    assert cert["kind"] == "InfeasibleButThetaStationary"


# -- check -----------------------------------------------------------------------

def _write_csvs(tmp_path, grid, x, mults):
    x_path = tmp_path / "x.csv"
    m_path = tmp_path / "mult.csv"
    with open(x_path, "w") as fh:
        write_trajectory_csv(x, fh)
    with open(m_path, "w") as fh:
        write_trajectory_csv(mults, fh)
    return str(x_path), str(m_path)


def _split_trajectory_csv(out, n, tmp_path):
    """State and multiplier CSVs cut from a solve's trajectory.csv, cells as written."""
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
    x_path, m_path = tmp_path / "x.csv", tmp_path / "m.csv"
    x_path.write_text("".join(",".join(r[:1 + n]) + "\n" for r in rows))
    m_path.write_text("".join(",".join(r[:1] + r[1 + n:]) + "\n" for r in rows))
    return str(x_path), str(m_path)


@pytest.mark.parametrize("name,flags", [
    ("ex1", ["--x0", "1,1", "--v0", "1,1"]),
    ("ex4", ["--x0", "1,1", "--v0", "1,1,1,1,1"]),
])
def test_check_reproduces_the_solver_stop_test(tmp_path, name, flags, capsys):
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", name, *flags, "--out-dir", str(out)],
                          capsys)
    assert proc.returncode == 0, proc.stderr
    x_path, m_path = _split_trajectory_csv(out, builtin(name).n, tmp_path)
    check = run_in_process(["check", name, x_path, m_path], capsys)
    assert check.returncode == 0, check.stdout + check.stderr
    data = json.loads(check.stdout)
    last = (out / "iterations.csv").read_text().splitlines()[-1].split(",")
    summary = json.loads((out / "summary.json").read_text())
    assert data["residuals"] == summary["residuals"]
    assert data["residuals"]["stationarity_l1"] == float(last[2])
    assert data["residuals"]["complementarity_sup"] == float(last[3])
    feas = data["feasibility"]
    assert (max(feas["max_equality_violation"], feas["max_inequality_violation"])
            == summary["residuals"]["primal_infeasibility"])
    assert data["pass"] is True


def test_check_infeasible_limit_point_fails(tmp_path, capsys):
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", "infeasible1", "--x0", "5",
                           "--max-outer", "25", "--out-dir", str(out)], capsys)
    assert proc.returncode == 2
    x_path, m_path = _split_trajectory_csv(out, 1, tmp_path)
    check = run_in_process(["check", "infeasible1", x_path, m_path], capsys)
    assert check.returncode == 1
    data = json.loads(check.stdout)
    assert data["pass"] is False
    certs = data["certificates"]
    assert certs["infeasibility"]["kind"] == "InfeasibleButThetaStationary"
    assert certs["sufficiency"] is None


def test_check_nonfinite_evaluation_is_data_error(tmp_path, capsys):
    x_path = tmp_path / "x.csv"
    x_path.write_text("t,c0,c1\n0,1e200,0\n1,0,0\n")
    m_path = tmp_path / "m.csv"
    m_path.write_text("t,c0,c1\n0,0,0\n1,0,0\n")
    proc = run_in_process(["check", "ex1", str(x_path), str(m_path)], capsys)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
        f"error: {x_path}: phi returned a non-finite value at t=0.0, x=[1e+200, 0.0]"]


def test_check_asymptotic_fixture_fails_tolerance(tmp_path, capsys):
    grid = c.make_uniform_grid(1.0, 84)
    x, v = akkt_example_sequence(grid, k=100)
    x_path, m_path = _write_csvs(tmp_path, grid, x, v)
    proc = run_in_process(["check", "akkt_example", x_path, m_path], capsys)
    assert proc.returncode == 1  # complementarity ~8.3e-4 exceeds 1e-5
    data = json.loads(proc.stdout)
    assert data["residuals"]["stationarity_l1"] <= 1e-12
    assert data["residuals"]["complementarity_sup"] == pytest.approx(
        0.25 / 300.0, rel=1e-12)
    assert data["pass"] is False


def test_check_reference_with_valid_multipliers_passes(tmp_path, capsys):
    prob = builtin("ex1")
    grid = c.make_uniform_grid(1.0, 85)
    x = c.Trajectory.constant(grid, [0.0, 0.0])
    v = c.Trajectory.constant(grid, [0.5, 0.5])
    x_path, m_path = _write_csvs(tmp_path, grid, x, v)
    proc = run_in_process(["check", "ex1", x_path, m_path], capsys)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(proc.stdout)
    assert data["pass"] is True
    assert data["residuals"]["stationarity_l1"] == 0.0
    assert data["feasibility"]["max_inequality_violation"] == 0.0


def test_check_empty_trajectory_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    other = tmp_path / "m.csv"
    other.write_text("t,c0\n0,0\n1,0\n")
    proc = run_in_process(["check", "ex1", str(empty), str(other)], capsys)
    assert proc.returncode == 65


def test_check_malformed_csv_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,c0,c1\n0,0,0\n0.5,zap,0\n1,0,0\n")
    mult = tmp_path / "m.csv"
    mult.write_text("t,c0,c1\n0,0,0\n0.5,0,0\n1,0,0\n")
    proc = run_in_process(["check", "ex1", str(bad), str(mult)], capsys)
    assert proc.returncode == 65
    assert "line 3" in proc.stderr


def test_check_dimension_mismatch(tmp_path, capsys):
    grid = c.make_uniform_grid(1.0, 5)
    x = c.Trajectory.constant(grid, [0.0])          # ex1 needs 2 state columns
    v = c.Trajectory.constant(grid, [0.5, 0.5])
    x_path, m_path = _write_csvs(tmp_path, grid, x, v)
    proc = run_in_process(["check", "ex1", x_path, m_path], capsys)
    assert proc.returncode == 65


def test_check_rejects_negative_multipliers(tmp_path, capsys):
    grid = c.make_uniform_grid(1.0, 5)
    x = c.Trajectory.constant(grid, [0.0, 0.0])
    v = c.Trajectory.constant(grid, [0.5, -0.5])
    x_path, m_path = _write_csvs(tmp_path, grid, x, v)
    proc = run_in_process(["check", "ex1", x_path, m_path], capsys)
    assert proc.returncode == 65


def test_solve_ex4_certificate_through_cli(tmp_path, capsys):
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", "ex4", "--nodes", "85",
                           "--x0", "1,1", "--v0", "1,1,1,1,1", "--out-dir", str(out)],
                          capsys)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    cert = summary["certificates"]["sufficiency"]
    assert cert["kind"] == "GlobalOptimalByConvexity"
    # Nodes t = 0 and t = 1, where ex4's optimum is not unique.
    assert summary["error_metrics"]["masked_nodes"] == [0, 42]


def test_solve_wrong_multiplier_count_for_ex4(tmp_path, capsys):
    proc = run_in_process(["solve", "--problem", "ex4", "--x0", "1,1",
                           "--v0", "1,1,1,1", "--out-dir", str(tmp_path)], capsys)
    assert proc.returncode == 65
    assert "--v0" in proc.stderr


def test_solve_accepts_csv_initial_state(tmp_path, capsys):
    grid = c.make_uniform_grid(1.0, 21)
    x0 = c.Trajectory(grid, np.array([[0.0, t] for t in grid.nodes]))
    path = tmp_path / "x0.csv"
    with open(path, "w") as fh:
        write_trajectory_csv(x0, fh)
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", "ex2", "--nodes", "21",
                           "--x0", str(path), "--v0", "0.25,0.25,0",
                           "--out-dir", str(out)], capsys)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error_metrics"]["sup_error"] <= 1e-2


def test_svg_outputs_are_well_formed_xml(ex1_cli_dirs):
    import xml.etree.ElementTree as ET
    for name in ("trajectory.svg", "residuals.svg"):
        root = ET.fromstring((ex1_cli_dirs[0] / name).read_text())
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 10


# -- option coverage and fuzzing ---------------------------------------------------

# A value other than the default for every config field, under its solve flag
# name; a field missing here fails the coverage test below.
_NON_DEFAULT = {"rho_init": 2.0, "gamma": 1.5, "tau": 0.5, "bound_m": 1e40,
                "bound_n": 1e30, "eps_stop": 1e-4, "max_outer": 3,
                "inner_grad_tol": 1e-7, "inner_max_iters": 400}


def test_solve_cli_covers_every_config_field(tmp_path, capsys):
    """Each AlmConfig field but `inner`, lower-cased, and each InnerConfig
    field as inner_<name>, is a solve flag, a --config key and a summary config
    key, so no solver setting is reachable only from code."""
    fields = [f.name.lower() for f in dataclasses.fields(c.AlmConfig) if f.name != "inner"]
    fields += [f"inner_{f.name}" for f in dataclasses.fields(c.InnerConfig)]
    values = {flag: _NON_DEFAULT[flag] for flag in fields}
    flags = [f"--{flag.replace('_', '-')}={value!r}" for flag, value in values.items()]
    config = _write(tmp_path / "run.json", json.dumps(values))
    for extra, out in ((flags, tmp_path / "flags"), (["--config", config], tmp_path / "file")):
        code = cli.main(["solve", "--problem", "ex1", "--nodes", "5", *extra,
                         "--out-dir", str(out)])
        assert code in (0, 2), capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())["config"]
        assert {flag: summary[flag] for flag in fields} == values


def test_config_accepts_every_solve_option(tmp_path, capsys):
    """Every option of the solve table, initial data included, is a --config
    key; ex3 has an equality constraint, so u0 is used."""
    values = {**_NON_DEFAULT, "nodes": 5, "x0": "1,1,0", "u0": "0", "v0": "1,1"}
    assert set(values) == set(cli._SOLVE_DEFAULTS)
    out = tmp_path / "out"
    proc = run_in_process(["solve", "--problem", "ex3", "--config",
                           _write(tmp_path / "run.json", json.dumps(values)),
                           "--out-dir", str(out)], capsys)
    assert proc.returncode in (0, 2), proc.stderr
    assert json.loads((out / "summary.json").read_text())["config"] == values


# Runs whose summary.json config is replayed: (problem, the run's options,
# the --config object it takes them from instead, or None).  x0.csv is the
# start of `test_solve_accepts_csv_initial_state`, named relative to the run's
# directory.
_REPLAYED = {
    "ex1-defaults": ("ex1", [], None),
    "ex1-config": ("ex1", [], {**_NON_DEFAULT, "nodes": 85, "x0": "1,1", "v0": "1,1"}),
    "ex3-u0": ("ex3", ["--nodes", "9", "--x0", "1,1,0", "--u0", "0.5", "--max-outer", "1"],
               None),
    "ex2-csv-x0": ("ex2", ["--nodes", "21", "--x0", "x0.csv", "--v0", "0.25,0.25,0"],
                   None),
}


@pytest.mark.parametrize("problem,args,config", _REPLAYED.values(), ids=_REPLAYED)
def test_summary_config_replays_the_run(tmp_path, monkeypatch, capsys, problem, args,
                                        config):
    """summary.json's config is a --config file: fed back from the same
    directory, it reruns the run, with its exit code and five byte-identical
    files, summary.json included."""
    monkeypatch.chdir(tmp_path)
    grid = c.make_uniform_grid(1.0, 21)
    with open("x0.csv", "w") as fh:
        write_trajectory_csv(c.Trajectory(grid, np.array([[0.0, t] for t in grid.nodes])),
                             fh)
    if config is not None:
        args = ["--config", _write(tmp_path / "run.json", json.dumps(config))]
    first = run_in_process(["solve", "--problem", problem, *args, "--out-dir", "first"],
                           capsys)
    echo = json.loads((tmp_path / "first" / "summary.json").read_text())["config"]
    assert set(echo) <= set(cli._SOLVE_DEFAULTS)
    again = run_in_process(["solve", "--problem", problem, "--config",
                            _write(tmp_path / "echo.json", json.dumps(echo)),
                            "--out-dir", "again"], capsys)
    assert again.returncode == first.returncode, again.stderr
    for name in cli.OUTPUT_FILES:
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "first" / name).read_bytes()), name


# Drawn for every numeric flag besides the valid values: zero, negative,
# infinite, not a number and huge.
_EDGE_VALUES = ["0", "-1", "-1e300", "inf", "-inf", "nan", "1e300", "1.7e308"]
_FLOAT_VALUES = st.sampled_from(["1e-3", "0.5", "2", "1e50"] + _EDGE_VALUES)
_FUZZ_FLAGS = {
    **{flag: (_FLOAT_VALUES if typ is float else
              st.sampled_from(["1", "50", "0", "-1", "inf", "nan", "1" + "0" * 20]))
       for flag, (typ, _) in cli._SOLVE_DEFAULTS.items()},
    # Kept small so that each solve is quick.
    "nodes": st.sampled_from(["2", "5", "9", "0", "-3", "inf", "nan"]),
    "max_outer": st.sampled_from(["1", "3", "0", "-1", "inf", "nan"]),
    "x0": st.sampled_from(["1,1", "-1,2", "nan,1", "inf,0", "1e300,0", "1e154,1e154",
                           "1,1,1"]),
    "u0": st.sampled_from(["", "0", "nan"]),
    "v0": st.sampled_from(["1,1", "0,0", "-1,1", "nan,1", "1e300,1e300", "1e49,1e49"]),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.fixed_dictionaries({flag: st.none() | values
                              for flag, values in _FUZZ_FLAGS.items()}),
       st.none() | _FLOAT_VALUES)
def test_cli_exit_codes_under_fuzzed_options(tmp_path_factory, flags, eps_stop):
    """Every drawn option value ends in a documented exit code, and a usage or
    data error leaves no output files behind."""
    d = tmp_path_factory.mktemp("fuzz")
    out = d / "out"
    solve_args = ["solve", "--problem", "ex1", "--nodes", "5", "--max-outer", "3",
                  "--out-dir", str(out)]
    solve_args += [f"--{flag.replace('_', '-')}={value}"
                   for flag, value in flags.items() if value is not None]
    for args in (solve_args, _check_args(d, eps_stop)):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 64, 65), args
        if code in (64, 65) and args is solve_args:
            assert not out.is_dir() or not any(out.iterdir()), args
