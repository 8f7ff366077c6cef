"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py ROOT WORKLOAD SEED
       python3 perfbench/setup_probe.py --numpy

The first form prints the wall seconds from interpreter start-up to the point
just before the first solve: importing ctpalm (and numpy with it), looking up
the problem and building the grid and initial trajectories.  The second form
prints the seconds of `import numpy` alone, the reference `run.py` pairs with
every set-up probe (see `refclock.py`).
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

if sys.argv[1:] == ["--numpy"]:
    import numpy  # noqa: E402,F401
else:
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))

    import inputs  # noqa: E402

    inputs.build_inputs(inputs.WORKLOADS[sys.argv[2]], int(sys.argv[3]))
print(repr(time.perf_counter() - _START))
