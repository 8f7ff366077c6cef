"""The benchmark's traced mode (`perfbench/run.py --trace 1`) patches program
entry points by name.  Each name it patches must exist and stay on the call
path, and each must be restored when the tracer is removed."""

import sys
import time
from pathlib import Path

import numpy as np

import ctpalm
import ctpalm.alm
import ctpalm.cli
import ctpalm.diagnostics
import ctpalm.inner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402

MODULES = (ctpalm, ctpalm.alm, ctpalm.cli, ctpalm.diagnostics, ctpalm.inner)


def _attributes():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def test_tracer_patches_existing_names_and_restores_them():
    before = _attributes()
    tracer = layers.Tracer(time.perf_counter)
    with tracer.installed():
        during = _attributes()
        problem = ctpalm.builtin("infeasible1")
        grid = ctpalm.make_uniform_grid(problem.horizon, 5)
        ctpalm.solve(problem, ctpalm.AlmConfig(max_outer=2),
                     ctpalm.Trajectory.constant(grid, np.array([5.0])))
    assert _attributes().keys() == before.keys() == during.keys()
    patched = [key for key, fn in during.items() if fn is not before[key]]
    assert ("ctpalm.inner", "solve_node") in patched
    assert ("ctpalm.diagnostics", "feasibility_stationarity_residual") in patched
    assert all(fn is before[key] for key, fn in _attributes().items())
    # The solve went through the patched names: the outer loop, the
    # subproblem, the update pass's evaluation and the infeasibility report.
    spans = {span[2] for span in tracer.spans}
    assert {layers.SOLVE, layers.SUBPROBLEM, layers.DIAGNOSTICS,
            layers.FEAS_STAT} <= spans
    assert tracer.counts["alm.evaluate_all_calls"] == 3
