"""A fixed pure-Python loop whose time samples the machine's current speed.

    python3 perfbench/reference.py    # prints one sample, in seconds

`seconds()` samples the speed that work in the calling process sees;
`child_seconds()` takes the sample in a fresh child process, for work that
runs in child processes.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

STEPS = 200_000
NOMINAL_S = STEPS / 1e7  # the loop at ten million steps per second


def seconds():
    """Wall time of the loop in this process."""
    t0 = perf_counter()
    acc = 0
    for i in range(STEPS):
        acc += i * i
    return perf_counter() - t0


def child_seconds():
    """Wall time of the loop, timed inside a fresh child process."""
    proc = subprocess.run([sys.executable, __file__], check=True, capture_output=True,
                          text=True, timeout=120)
    return float(proc.stdout)


def nominal(wall, ref):
    """A wall time at the nominal machine speed, given the reference time
    measured beside it."""
    return wall * NOMINAL_S / ref


if __name__ == "__main__":
    print(seconds())
