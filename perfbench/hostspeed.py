"""How fast the host runs right now, from a fixed reference loop.

On a shared virtual machine the speed of the same code drifts: a pure-Python
loop takes 1.0x, then 1.6x, then 1.0x its fastest time, in phases that last a
fraction of a second to minutes.  Runs a few minutes apart therefore differ
by more than any change worth detecting.  The benchmark times a fixed
pure-Python reference loop right before each request and after the last one;
the mean of the two readings around a request, divided by the loop's nominal
time, is the host factor of that request, and every reported time is the raw
time divided by it: seconds on a host that runs the reference loop in its
nominal time.  Nothing in the loop calls the program, so a change to the
program cannot move it.

Only workloads made of short pure-Python requests are calibrated (see
README.md): a 5-ms reading tracks a 10-ms request, not a 7-s numpy one.

Set-up (process start and imports) drifts in its own way, mostly in loading
numpy and starting its BLAS threads, which the loop does not track.  It is
calibrated on every workload by ``start_factor``: the time to start a
reference process that only imports numpy, divided by its nominal time.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Times of the references at nominal speed (about their fastest on a 2-vCPU
# Intel Xeon VM); only the scale of the calibrated times depends on them.
NOMINAL_S = 0.005
NOMINAL_START_S = 0.15


def _loop() -> None:
    d = {}
    for i in range(20000):
        key = (i * 7919 % 1009, i & 7)
        d[key] = d.get(key, 0) + 1


class HostSpeed:
    """``measure`` times the reference loop and returns the host factor, or
    returns 1.0 without running anything when ``active`` is false."""

    def __init__(self, active: bool):
        self.active = active
        if active:
            _loop()  # warm-up

    def measure(self) -> float:
        if not self.active:
            return 1.0
        t0 = time.perf_counter()
        _loop()
        return (time.perf_counter() - t0) / NOMINAL_S


def start_factor(cwd) -> float:
    """Start ``python3 -c 'import numpy'``, wait for it, return its host factor."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   capture_output=True, timeout=60)
    return (time.monotonic() - t0) / NOMINAL_START_S
