"""ctpalm benchmark: end-to-end solve metrics and traced per-layer metrics.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One run is one process on one workload.  It repeats samples (a solve, then
`ctpalm check` on its result) for about S seconds, checks every result, and
prints `metric NAME VALUE UNIT` lines, one `detail {...}` JSON line and, last,
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` samples alternate between traced and
untraced and the metrics are the per-layer ones (see `targets.json`).  The exit
code is 0 only when every correctness check passed; without `src/ctpalm` in
the checkout the run stops with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Fresh-interpreter set-up probes per run: one to warm the bytecode cache, then
# SETUP_PROBES timed ones before the measuring window and as many after it,
# each followed by a numpy-import probe that converts it to reference seconds.
SETUP_PROBES = 4

# Ladder of percentiles for timing tails; the highest one with at least ten
# samples beyond it is reported.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _spec() -> dict:
    """Workload and metric names and units, from the checkout's BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tail(values: list) -> dict:
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None,
           "value": None}
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            ordered = sorted(values)
            # Linear interpolation between closest ranks.
            pos = (n - 1) * q / 100.0
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            out["percentile"] = q
            out["value"] = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
            break
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ctpalm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(threads_was: str | None) -> dict:
    import numpy
    return {
        "processes": 1,
        # Removed from the environment before ctpalm is imported.
        "CTP_ALM_THREADS_removed": threads_was,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _probe(*args: str) -> float:
    """Seconds printed by one fresh-interpreter run of setup_probe.py."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(workload: str, seed: int, probes: int) -> list:
    """(wall, reference) seconds of `probes` set-up probes."""
    times = []
    for _ in range(probes):
        wall = _probe(str(ROOT), workload, str(seed))
        times.append((wall, wall * refclock.REF_IMPORT_S / _probe("--numpy")))
    return times


class Tally:
    """Operations attempted and failed, with the names of failed clauses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.clauses = {}

    def add(self, outcome):
        self.attempted += 1
        if outcome.failures:
            self.failed += 1
            for name in outcome.failures:
                self.clauses[name] = self.clauses.get(name, 0) + 1
        return outcome


def _keep_going(start: float, seconds: float, durations: list) -> bool:
    """True while one more typical sample still fits in the measuring window."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure(session, meter, seconds: float, tally: Tally) -> dict:
    """Untraced samples for `seconds`; returns the end-to-end series.

    Timings are (wall, reference) seconds pairs: reference seconds are the
    metric, wall seconds go to the detail line.
    """
    solve, check, iters, errors = [], [], [], []
    durations = []

    def timed(op) -> tuple:
        # Each operation is scaled by the readings taken just before and
        # during it: the speed changes within seconds.
        out, k = meter.measure(lambda: tally.add(op()))
        return out, (out.wall_s, out.wall_s * k)

    start = time.perf_counter()
    while _keep_going(start, seconds, durations):
        t0 = time.perf_counter()
        out, times = timed(session.solve)
        solve.append(times)
        if out.summary is not None:
            iters.append(out.summary["outer_iterations"])
            errors.append(out.summary["error_metrics"])
        for _ in range(session.w.checks_per_solve):
            check.append(timed(session.check)[1])
        durations.append(time.perf_counter() - t0)
    return {"solve_s": solve, "cli_check_s": check, "outer_iters": iters,
            "error_metrics": errors, "measured_s": time.perf_counter() - start}


def measure_traced(session, meter, tracer, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced samples (at least one each) for `seconds`."""
    plain_s, traced_s, per_sample = [], [], []
    durations = {False: [], True: []}

    def sample():
        out = tally.add(session.solve())
        tally.add(session.check())
        return out

    start = time.perf_counter()
    traced = False
    while (not durations[traced]
           or _keep_going(start, seconds, durations[traced])):
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            with tracer.installed():
                session.problem_hook = tracer.wrap_problem
                try:
                    out, k = meter.measure(sample)
                finally:
                    session.problem_hook = None
            per_sample.append(tracer.sample_metrics(k))
            traced_s.append(out.wall_s * k)
        else:
            out, k = meter.measure(sample)
            plain_s.append(out.wall_s * k)
        durations[traced].append(time.perf_counter() - t0)
        traced = not traced
    return {"untraced_solve_s": plain_s, "traced_solve_s": traced_s,
            "per_sample": per_sample, "measured_s": time.perf_counter() - start}


def _run_one(args) -> int:
    if not (SRC / "ctpalm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ctpalm sources under {SRC}; run from the "
                         f"root of a source checkout\n")
        return 2
    threads_was = os.environ.pop("CTP_ALM_THREADS", None)
    # One CPU for the run and its set-up probes: migrating between CPUs tripled
    # the spread of set-up times on a 2-vCPU guest.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import ctpalm
    if Path(ctpalm.__file__).resolve().parent != (SRC / "ctpalm").resolve():
        sys.stderr.write(f"perfbench: imported ctpalm from {ctpalm.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import layers
    import workloads

    w = workloads.WORKLOADS[args.workload]
    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir()
    tally = Tally()
    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "environment": {**_environment(threads_was), "pinned_cpu": cpu}}
    try:
        meter = refclock.SpeedMeter()
        session = workloads.Session(w, args.seed, str(work_dir), meter.now)
        if args.trace:
            tracer = layers.Tracer(meter.now)
            series = measure_traced(session, meter, tracer, args.seconds, tally)
            metrics = {name: statistics.median(s[name] for s in series["per_sample"])
                       for name in series["per_sample"][0]}
            traced = statistics.median(series["traced_solve_s"])
            plain = statistics.median(series["untraced_solve_s"])
            metrics["trace.solve_s"] = traced
            metrics["trace.untraced_solve_s"] = plain
            metrics["trace.overhead_s"] = traced - plain
            spans_path = WORK / f"spans-{w.name}-seed{args.seed}.jsonl"
            tracer.write_spans(str(spans_path))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            detail["traced_samples"] = len(series["per_sample"])
            detail["untraced_samples"] = len(series["untraced_solve_s"])
            detail["layer_targets"] = json.loads(
                (HERE / "targets.json").read_text(encoding="utf-8"))["layers"]
        else:
            _setup_seconds(w.name, args.seed, 1)      # warms the bytecode cache
            setup = _setup_seconds(w.name, args.seed, SETUP_PROBES)
            series = measure(session, meter, args.seconds, tally)
            setup += _setup_seconds(w.name, args.seed, SETUP_PROBES)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "solve_s": statistics.median(ref for _, ref in series["solve_s"]),
                "cli_check_s": statistics.median(ref for _, ref in series["cli_check_s"]),
                "setup_s": statistics.median(ref for _, ref in setup),
                "peak_rss_mb": peak_kib / 1024.0,
                "outer_iters": statistics.median(series["outer_iters"]),
            }
            detail["timings"] = {}
            for key, pairs in (("solve_s", series["solve_s"]),
                               ("cli_check_s", series["cli_check_s"]),
                               ("setup_s", setup)):
                detail["timings"][key] = _tail([ref for _, ref in pairs])
                detail["timings"][key]["wall"] = _tail([wall for wall, _ in pairs])
            errs = series["error_metrics"]
            detail["quality"] = {
                key: ({"value": statistics.median(e[key] for e in errs),
                       "unit": "state units"} if errs and errs[0] else None)
                for key in ("sup_error", "l1_error")}
        detail["measured_s"] = series["measured_s"]
        detail["check_verdicts"] = [{"exit_code": c, "pass": v}
                                    for c, v in sorted(session.check_verdicts)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail["fail_ratio"] = tally.failed / tally.attempted if tally.attempted else 1.0
    detail["failed_clauses"] = tally.clauses
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    correct = tally.failed == 0 and tally.attempted > 0
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in ((n, metrics[n]) for n in units)}}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    for name in (w["name"] for w in _spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    spec_names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in spec_names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(spec_names)} or all")
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
