"""Shared fixtures: the benchmark solves are expensive, so each one runs once
per session and every test that needs it reuses the report."""

from __future__ import annotations

import collections
import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ctpalm as c
from ctpalm import cli
from ctpalm.problems import EVALUATORS


def unconstrained_quadratic():
    """Tiny constraint-free fixture: phi = x^2 on [0, 1]."""
    return c.pointwise(c.ProblemDefinition(
        name="quad", n=1, p=0, m=0, horizon=1.0,
        eval_phi=lambda x, t: x[0] ** 2,
        eval_grad_phi=lambda x, t: np.array([2.0 * x[0]]),
        convexity=c.Convexity(True, (), ())))


def counting(problem):
    """The problem with each of its six evaluators counting its calls, and
    the Counter, keyed by evaluator name, that they count into."""
    calls = collections.Counter()

    def counted(name):
        fn = getattr(problem, "eval_" + name)

        def evaluator(x, t):
            calls[name] += 1
            return fn(x, t)
        return evaluator

    return dataclasses.replace(
        problem, **{"eval_" + name: counted(name) for name in EVALUATORS}), calls


# Starts (x0, u0, v0) of the benchmark runs below.
RUN_STARTS = {
    "ex1": ([1.0, 1.0], None, [1.0, 1.0]),
    "ex2": ([0.5, 0.5], None, [1.0, 1.0, 1.0]),
    "ex3": ([-100.0, -100.0, -100.0], [1.0], [1.0, 1.0]),
    "ex4": ([1.0, 1.0], None, [1.0, 1.0, 1.0, 1.0, 1.0]),
    "infeasible1": ([5.0], None, None),
}


def run_builtin(name, x0, u0=None, v0=None, nodes=85, **cfg_kwargs):
    """Solve built-in `name`, or the problem `name` itself when it is one."""
    problem = c.builtin(name) if isinstance(name, str) else name
    grid = c.make_uniform_grid(problem.horizon, nodes)
    cfg = c.AlmConfig(**cfg_kwargs)
    report = c.solve(
        problem, cfg,
        c.Trajectory.constant(grid, x0),
        c.Trajectory.constant(grid, u0) if u0 is not None else None,
        c.Trajectory.constant(grid, v0) if v0 is not None else None)
    return report, problem, cfg


@pytest.fixture(scope="session")
def ex1_run():
    return run_builtin("ex1", *RUN_STARTS["ex1"])


@pytest.fixture(scope="session")
def ex2_run():
    return run_builtin("ex2", *RUN_STARTS["ex2"])


@pytest.fixture(scope="session")
def ex3_run():
    return run_builtin("ex3", *RUN_STARTS["ex3"])


@pytest.fixture(scope="session")
def ex4_run():
    return run_builtin("ex4", *RUN_STARTS["ex4"])


@pytest.fixture(scope="session")
def infeasible1_run():
    return run_builtin("infeasible1", *RUN_STARTS["infeasible1"])


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "ctpalm"] + list(args),
                          capture_output=True, text=True, cwd=cwd)


def run_in_process(args, capsys):
    """`run_cli` through `cli.main` in this process, output taken from `capsys`.

    A warning, which a separate process would print as an extra stderr line,
    raises; a `SystemExit` code counts as the exit code.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            returncode = cli.main(list(args))
        except SystemExit as exc:
            returncode = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(list(args), returncode, out, err)


@pytest.fixture(scope="session")
def ex1_cli_dirs(tmp_path_factory):
    """The reference command-line run, executed twice for determinism checks."""
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"ex1-cli-{tag}")
        proc = run_cli(["solve", "--problem", "ex1", "--nodes", "85",
                        "--x0", "1,1", "--v0", "1,1", "--out-dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    return dirs
