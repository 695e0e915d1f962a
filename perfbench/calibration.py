"""Host-speed calibration for the benchmark's timings.

The benchmark host shares its cores with other tenants.  Their load
switches the speed of pure-Python code between two levels about 1.7x
apart, often several times a second and sometimes for minutes at a
time, which a 40-second run cannot average away: on a 2-vCPU Xeon at
2.1 GHz the same qrw6-reach job took 4.7 to 8.0 wall seconds, and ten
40-second runs of the same code spread (quartile distance over median)
up to 0.35.

While a job runs, a :class:`Sampler` therefore interrupts it every
``PERIOD_S`` of CPU time and times a fixed pure-Python workload shaped
like the TDD kernel -- tuple-keyed interning of small objects, memo
lookups, complex arithmetic, an explicit work stack.  The samples are
spread evenly over the job, so their mean is the host's mean slowness
*during that job*.  The job's time without the samples, scaled by
``REFERENCE_S / mean(sample)``, reads as seconds on a host where one
sample takes ``REFERENCE_S``; on the host above this cut the spread of
single qrw6-reach jobs from 0.06 to 0.02 (coefficient of variation).
The workload uses nothing from ``repro``, so a change to the program
cannot move the yardstick, and it runs with the cyclic garbage
collector off, so the program's heap barely does.  A change to the
program moves the scaled times by the same factor as the wall clock.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: seconds one sample takes on the host the benchmark was defined on
#: (the 2-vCPU Xeon above, in a quiet period)
REFERENCE_S = 0.0011
#: CPU seconds between two samples; a sample costs ~5 % of that
PERIOD_S = 0.02
#: work items per sample
SAMPLE_SIZE = 800


class _Node:
    __slots__ = ("level", "low", "high")

    def __init__(self, level, low, high) -> None:
        self.level = level
        self.low = low
        self.high = high


def _workload(size: int) -> int:
    unique = {}
    memo = {}
    stack = list(range(size))
    acc = 0j
    while stack:
        i = stack.pop()
        key = (i % 251, (i * 7) % 509, i & 3)
        node = unique.get(key)
        if node is None:
            node = unique[key] = _Node(i % 251, key, (i, acc))
        memo_key = (id(node), i & 15)
        if memo.get(memo_key) is None:
            acc = acc * 0.5 + complex(i, -i)
            memo[memo_key] = (acc, node)
    return len(unique) + len(memo)


class Sampler:
    """Samples the host's speed during ``with`` blocks.

    :meth:`now` is a clock that leaves out the time spent sampling, so
    the difference of two readings is the program's own time.
    """

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0
        self.active = False
        # installed once and never removed: a SIGPROF still pending when
        # the timer stops would otherwise end the process
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, _signum, _frame) -> None:
        if not self.active:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _workload(SAMPLE_SIZE)
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(duration)
        self.spent += duration

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.active = True
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.active = False

    def mark(self) -> int:
        """The number of samples taken so far in this block."""
        return len(self.samples)

    def scale(self, start: int = 0, stop: int = None) -> float:
        """``REFERENCE_S`` over the mean of samples ``start:stop`` of
        the last block (1.0 without samples)."""
        samples = self.samples[start:stop]
        if not samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(samples)
