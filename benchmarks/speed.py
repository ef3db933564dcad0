"""Machine-speed probe: a fixed pure-Python kernel timed between ops.

On a shared virtual machine the same Python code runs up to twice as
fast or as slow from one stretch of seconds, or of minutes, to the next
(other tenants' load).  Medians over a run remove the short stretches but
not the long ones.  So the benchmark times this fixed kernel throughout a
run, between ops and around every set-up and spawn, and reports each
measured interval at *reference speed*:

    measured seconds x PROBE_NOMINAL_S / (median probe time near it)

where "near" is the ``WINDOW`` probes closest in time.  The kernel is the
benchmark's own bitmask code from ``reference.py`` (closure, up-sets,
convexity, frozensets), never specspace, so a change to specspace moves
the reported times exactly as it moves the measured ones.  Garbage
collection is off while the kernel runs, so the probe does not pay for
the size of specspace's heap.  The measured (raw) times stay in the run
record next to the speed factor.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

import reference as ref

# The kernel's time on an idle 2-vCPU Intel Xeon VM, Python 3.11; it only
# fixes the unit of the reported times.
PROBE_NOMINAL_S = 0.0006
# probe at most this often between ops
PROBE_EVERY_S = 0.02
# number of nearest probes whose median gives the speed at an instant
WINDOW = 15


def _kernel_posets() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(20250521)
    out = []
    for n in (6, 7, 8):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        out.append((n, pairs))
    return out


_POSETS = _kernel_posets()


def kernel() -> int:
    acc = 0
    for n, pairs in _POSETS:
        down = ref.down_masks(n, pairs)
        up = ref.up_masks(down)
        for v in range(1 << n):
            acc += ref.is_convex(down, up, v)
        acc += len(frozenset(zip(down, up)))
    return acc


class SpeedProbe:
    """Probe samples of one run, and the scaling of intervals by them."""

    def __init__(self) -> None:
        self.times: list[float] = []  # mid-point of each probe, ascending
        self.durations: list[float] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def near(self, t: float) -> float:
        """Median probe time among the ``WINDOW`` probes nearest to ``t``."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return statistics.median(self.durations[lo:lo + WINDOW])

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        return seconds * PROBE_NOMINAL_S / self.near(start + seconds / 2)

    def factor(self) -> float:
        """Median measured-to-reference time ratio of the whole run."""
        return statistics.median(self.durations) / PROBE_NOMINAL_S

    def timed(self, fn, *args):
        """Run ``fn`` between bursts of probes, so that the probes nearest
        to it are its own; return ``(result, start, seconds)``."""
        for _ in range(WINDOW // 2 + 1):
            self.probe()
        t0 = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - t0
        for _ in range(WINDOW // 2 + 1):
            self.probe()
        return result, t0, seconds


class OpTimes(list):
    """Op latencies that probe the machine's speed between ops, at most
    every ``PROBE_EVERY_S``; ``ends`` holds each op's end time."""

    def __init__(self, probe: SpeedProbe) -> None:
        super().__init__()
        self.speed = probe
        self.ends: list[float] = []
        self.next_probe = 0.0

    def append(self, seconds: float) -> None:
        now = perf_counter()
        super().append(seconds)
        self.ends.append(now)
        if now >= self.next_probe:
            self.speed.probe()
            self.next_probe = perf_counter() + PROBE_EVERY_S

    def scaled(self) -> list[float]:
        return [self.speed.scale(end - s, s) for end, s in zip(self.ends, self)]
