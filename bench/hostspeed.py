"""Scaling of measured times to a host of fixed speed.

The speed of a shared host drifts by 20% and more over tens of seconds (a
pure-Python loop measured on a 2-vCPU Intel Xeon VM took between 246 and
505 ms for the same work), which no length of run averages away.  So the
benchmark times a fixed reference kernel every :data:`PROBE_EVERY` seconds,
between two operations, and scales each operation's wall time by
``REFERENCE_S / (reference time around it)``.  The scaled time is what the
operation would take on a host on which the kernel takes ``REFERENCE_S``.

The kernel is plain Python of the kinds the library and its CLI run
(Fraction sums into a dict keyed by tuples, an argparse parser, string
formatting and sorting) and never calls the library, so no change to the
library can move it.  It tracks the host's drift only in part: on the same
host, the time of a fixed list of CLI commands varied with a coefficient of
variation of 11% unscaled and 5% scaled.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import time
from fractions import Fraction

REFERENCE_S = 0.0015
PROBE_EVERY = 0.05


def reference_kernel() -> str:
    """About 1 ms of the kinds of work the library and its CLI do."""
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(150):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0) + third * (i % 13)
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--x", type=int, default=1)
        p.add_argument("y")
    parser.parse_args(["b", "--x", "3", "z"])
    terms = [f"{i}*x{i % 5}^{i % 3}" for i in range(100)]
    return " + ".join(sorted(terms, key=lambda t: (len(t), t)))


def _kernel_seconds() -> float:
    """Kernel time with the collector off, so that the size of the
    library's live heap cannot lengthen it and hide the library's cost."""
    gc.disable()
    try:
        started = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - started
    finally:
        gc.enable()


class HostSpeed:
    """Reference-kernel samples taken along a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []

    def probe(self) -> None:
        """Time the kernel (best of 2, to skip an interrupt in one run)."""
        cost = min(_kernel_seconds(), _kernel_seconds())
        self.times.append(time.perf_counter())
        self.costs.append(cost)

    def probe_if_due(self) -> None:
        if not self.times or \
                time.perf_counter() - self.times[-1] >= PROBE_EVERY:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval, from the probes just before and after."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        around = [self.costs[k] for k in (before, after)
                  if 0 <= k < len(self.costs)]
        return REFERENCE_S / (sum(around) / len(around))
