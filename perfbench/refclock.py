"""Reference seconds: wall time corrected for the machine's speed.

On a shared virtual machine the same solve can take 1.4 s or 2.3 s depending
on what the host runs beside it (measured on a 2-vCPU KVM guest: ex4 solves
at 1.40-2.28 s within four minutes), and the speed also changes within one
solve: calibration readings taken seconds apart inside one 10 s infeasible1
solve ranged from 290 to 620 us.  No choice of median or run length removes
that, and neither does a calibration before and after each sample (over five
seeds that left a 0.27 quartile spread on infeasible1's solve time).  So
while an operation runs, an interval timer interrupts it every PERIOD seconds
to time a fixed calibration loop (small numpy operations and Python
arithmetic, a mix like the solver's node loop), and its wall time is scaled by

    ref_s = wall_s * mean(REF_KERNEL_S / loop_s over the readings)

the time-weighted speed over the operation: its wall time at the speed where
the loop takes REF_KERNEL_S.  The loop never touches ctpalm, and the wall times
exclude the interruptions; `run.py` reports them next to the reference times.

Added work shows in reference seconds as in wall time when it is interpreter
bound like the loop, and less when it is large-array numpy work.  Measured by
alternating ex4 solves with and without added work, 19 rounds in a slow
phase: Python arithmetic in every node solve, wall x1.191 and reference
x1.187; elementwise ops on 85x5 arrays in every subproblem, x1.079 and
x1.075; three 260x260 linear solves in every subproblem, x1.167 and x1.144.

Set-up time (a fresh interpreter importing ctpalm and numpy) does not follow
the loop: on the same guest, set-up probes took 0.11-0.29 s within three
minutes while the loop time moved the other way or not at all.  It follows
the time of `import numpy` in a fresh interpreter, which is most of it: the
ratio of the two stayed within 1.55-1.66 (medians of 20 s windows) over that
range.  So every set-up probe is paired with a probe that imports numpy alone,
and

    setup_ref_s = setup_wall_s * REF_IMPORT_S / numpy_import_s

A change to what ctpalm imports or builds moves the set-up probe and not the
numpy probe.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# The loop time that defines one reference second (the loop's time on the
# machine above in its fast phase), and the interval between readings.
REF_KERNEL_S = 2.75e-4
PERIOD = 0.02
# The time of `import numpy` that defines one reference second of set-up (its
# time on the machine above in its fast phase).
REF_IMPORT_S = 0.075

_A = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 1.0]])
_B = np.array([1.0, -2.0, 0.5])


def calibration_loop() -> float:
    """Run the fixed calibration work (two short BB descents); return its seconds."""
    start = perf_counter()
    for _ in range(2):
        x = np.array([5.0, -5.0, 5.0])
        g = _A @ x - _B
        prev = None
        for _ in range(25):
            if prev is not None:
                s = x - prev[0]
                y = g - prev[1]
                sy = float(s @ y)
                step = float(s @ s) / sy if sy > 0.0 else 1.0
            else:
                step = 0.1
            prev = (x, g)
            x = x - step * g
            g = _A @ x - _B
    return perf_counter() - start


class SpeedMeter:
    """Times the calibration loop every PERIOD seconds while an operation runs.

    `now()` is perf_counter minus the time spent in calibration loops, so
    operations timed with it exclude the interruptions.  The SIGALRM handler
    stays installed for the life of the process (a handler restored while a
    signal is pending would lose it): make one meter per process.
    """

    def __init__(self):
        self._paused = 0.0
        self._readings = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def now(self) -> float:
        # Paused time first: a loop run between the two reads then counts as
        # elapsed, which keeps the clock monotonic.
        paused = self._paused
        return perf_counter() - paused

    def _read(self) -> None:
        start = perf_counter()
        self._readings.append(calibration_loop())
        self._paused += perf_counter() - start

    def _on_alarm(self, signum, frame):
        if self._readings is not None:
            self._read()

    def measure(self, fn):
        """fn() under the timer: its result and reference seconds per wall second.

        The scale is the mean of REF_KERNEL_S / loop time over the readings,
        taken at equal intervals, so it weights the machine's speed by time.
        Three readings before fn starts cover operations shorter than PERIOD.
        """
        self._readings = []
        for _ in range(3):
            self._read()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            readings, self._readings = self._readings, None
        return result, statistics.fmean(REF_KERNEL_S / r for r in readings)
