"""A probe that measures how fast the host runs code while the benchmark
runs the program.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of per cent over seconds to minutes, as neighbours come and go.  A
run of a workload lasts about half a minute, so the drift moves whole runs
and a median over the passes of one run cannot remove it.  ``run.py``
therefore keeps a ``SpeedProbe`` running in its own process while each
child runs, and scales the child's times by ``REFERENCE_S`` over the
probe's mean sample: an invocation made while the host is slow has its
times scaled down by as much as the probe slowed.

Every ``PERIOD_S`` the probe runs a fixed small computation in three parts
that stand for what the workloads spend their time on: a Python loop over
small numpy operations (the grid engines), float formatting (the TSV
writers), and touching freshly mapped memory (the large distance and
prediction arrays).  It times each part by its own thread's CPU clock.
The probe thread runs under ``SCHED_IDLE``, so it takes a core only when
the child leaves one free, and the CPU clock leaves out the time it waits,
so a sample measures how fast code runs, not how busy the cores are.  The
probe takes about 2 % of one core.
"""

import mmap
import os
import threading
import time

import numpy as np

# About the median probe sample, all three parts together, on the host
# where ``baseline.json`` was recorded: 2 vCPUs of a shared x86-64 host,
# Python 3.11, numpy 2.4.  Scaled times read as seconds on that host at
# its usual speed.
REFERENCE_S = 0.0022
PERIOD_S = 0.1

_RNG = np.random.default_rng(20150616)
_SMALL = _RNG.random((16, 8))
_TABLE = _RNG.random((20, 24)).tolist()
_FRESH_BYTES = 1 << 20


def sample():
    """Seconds of this thread's CPU time that each part of the probe
    computation takes once."""
    start = time.thread_time()
    acc = 0.0
    for i in range(100):
        row = _SMALL[i % 16]
        acc += float(row.sum() - row.max()) * i
    formatted = time.thread_time()
    "\n".join("\t".join(f"{v:.17g}" for v in row) for row in _TABLE)
    mapped = time.thread_time()
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        pages[::64].sum()
        del pages
    return (formatted - start, mapped - formatted,
            time.thread_time() - mapped)


class SpeedProbe:
    """Samples ``sample()`` every ``PERIOD_S`` on a background thread
    between ``__enter__`` and ``__exit__``."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        if hasattr(os, "SCHED_IDLE"):
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        while not self._stop.wait(PERIOD_S):
            self.samples.append(sample())

    def __enter__(self):
        self.samples.append(sample())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False
