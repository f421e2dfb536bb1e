"""Times reported at a fixed interpreter speed.

The speed of a core of the host swings by up to 1.8x over seconds to minutes
with other tenants' load, which would swamp any change to the program.  So
while ops run, a timer signal every TICK_S interrupts them and runs a fixed
pure-Python reference loop that calls nothing in the library.  ``now`` leaves
out the time of those runs, and each op time is multiplied by REF_NOMINAL_NS
over the mean reference time sampled during the op and just before and after
it: times are reported at the speed at which the reference takes
REF_NOMINAL_NS.  run.py prints the unscaled times beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

REF_NOMINAL_NS = 1_000_000
TICK_S = 0.05


@dataclass(frozen=True)
class _Point:
    x: int
    ys: tuple[int, ...]


def reference() -> int:
    """Fixed interpreter work of the library's kind: objects, tuples, dicts, text."""
    acc = 0
    for i in range(300):
        p = _Point(i, (i, i + 1, i + 2))
        q = {"x": p.x, "ys": sorted(p.ys, reverse=True)}
        acc += len(f"{q['x']}:{q['ys']}")
    return acc


class Pacer:
    """Samples the reference every TICK_S while it is entered.

    Ops are timed with ``now`` and marked with ``mark`` at start and end;
    ``scale`` turns (time, start mark, end mark) records into scaled times.
    """

    def __init__(self) -> None:
        self.refs: list[int] = []
        self.stolen_ns = 0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        reference()
        t1 = time.perf_counter_ns()
        self.refs.append(t1 - t0)
        self.stolen_ns += time.perf_counter_ns() - t0

    def __enter__(self) -> "Pacer":
        self._sample()  # the first ops need a sample before them
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> int:
        """perf_counter_ns less the time spent in reference runs."""
        while True:
            stolen = self.stolen_ns
            t = time.perf_counter_ns()
            if stolen == self.stolen_ns:  # no sample ran in between
                return t - stolen

    def mark(self) -> int:
        return len(self.refs)

    def _smoothed(self) -> list[float]:
        # each sample becomes the median of it and two neighbours either side:
        # one slow reading (an interrupt, a collection) does not count, and a
        # change of host speed is followed within a few ticks
        refs = self.refs
        return [statistics.median(refs[max(0, i - 2): i + 3]) for i in range(len(refs))]

    def scale(self, records: list[tuple[int, int, int]]) -> list[float]:
        """Op times at nominal speed, from (ns, start mark, end mark) records."""
        smooth = self._smoothed()
        out = []
        for ns, start, end in records:
            window = smooth[start - 1: end + 1]  # the sample before, those during, the one after
            out.append(ns * REF_NOMINAL_NS / statistics.fmean(window))
        return out

    def factor(self) -> float:
        """The median multiplier over all samples so far."""
        return REF_NOMINAL_NS / statistics.median(self.refs)
