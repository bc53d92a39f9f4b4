"""Workload time scaled to a reference host speed.

The benchmark runs on shared machines whose cores do not keep one speed:
a fixed loop of plain Python runs up to 1.7x slower for stretches of ten
to a hundred seconds, and process CPU time slows with it (this is not
time stolen from a descheduled vCPU, which CPU time would leave out).
Raw seconds of two repetitions of the same code differ by up to 2x.

So the workload's time is read together with the host's speed at that
moment.  Between two items, at least every INTERVAL_S, the clock runs a
fixed calibration loop and times it; at reference speed the loop takes
REF_S.  The stretch of workload between two calibration samples is
scaled by REF_S over the median of the SMOOTH samples around it (a
second or two of host time, so that one sample disturbed by an
interrupt does not count), and so is every item that ran in it.  The
result reads as the seconds the workload would take on the host at its
reference speed: a change in the program moves it as it moves raw time,
a change in the host's speed moves it much less.  Calibration time is
never counted as workload time.

The loop is the benchmark's own code and never calls the package: it
numbers the points of fixed permutation tuples breadth first from every
start point and keeps the least relabelled tuple, the same kind of work
(small dicts, lists and tuples built and dropped) as the package's.  A
tight loop over a fixed table slows far less than the package when the
host is busy and corrects only about half of the drift; this one
corrects most of it, though code slows by different amounts in
different busy spells.  Measured on a 2-vCPU host, the spread of one
repetition's time (standard deviation over mean) fell from 0.08-0.12
raw to 0.02-0.05 scaled.  Garbage collection is off while the loop
runs, so it never collects the workload's objects.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

INTERVAL_S = 0.3  # workload time between calibration samples, at most one item more
SMOOTH = 6  # samples that set the factor of the stretch in their middle
REF_S = 0.0053  # one calibration loop at reference speed: the fast state of a 2-vCPU Xeon host
_TUPLES = []
_rng = random.Random(0)
for _ in range(60):  # about 5-8 ms a loop, so calibration costs 2-3%
    _gens = []
    for _ in range(3):
        _p = list(range(12))
        _rng.shuffle(_p)
        _gens.append(tuple(_p))
    _TUPLES.append(tuple(_gens))


def calibration_loop(tuples=_TUPLES) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for gens in tuples:
            d = len(gens[0])
            best = None
            for s in range(d):
                num = {s: 0}
                order = [s]
                for x in order:
                    for g in gens:
                        if g[x] not in num:
                            num[g[x]] = len(order)
                            order.append(g[x])
                form = tuple(tuple(num[g[order[i]]] for i in range(len(order))) for g in gens)
                if best is None or form < best:
                    best = form
            total += best[0][0]
        return total
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Call begin() before the workload, tick(items_done) after each of
    its items and end(items_done) after it; then read wall() and
    scale_items()."""

    def __init__(self):
        self.loop = calibration_loop  # a traced run wraps it to keep it out of every layer
        self.marks: list[tuple[float, float, int]] = []  # (start, loop seconds, items done)
        self._next = 0.0

    def _sample(self, items: int) -> None:
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.marks.append((t0, t1 - t0, items))
        self._next = t1 + INTERVAL_S

    def begin(self) -> None:
        self.marks.clear()
        self._sample(0)

    def tick(self, items: int) -> None:
        if time.perf_counter() >= self._next:
            self._sample(items)

    def end(self, items: int) -> None:
        self._sample(items)

    def scale_before(self, seconds: float) -> float:
        """Seconds spent just before begin() (the set-up), scaled by the
        first sample."""
        return seconds * REF_S / self.marks[0][1]

    def _stretches(self):
        """(raw seconds, factor, first item, end item) per stretch of
        workload between two samples."""
        m = self.marks
        loops = [c for _, c, _ in m]
        for k, ((a0, c0, n0), (a1, _, n1)) in enumerate(zip(m, m[1:])):
            lo = max(0, min(k + 1 - SMOOTH // 2, len(m) - SMOOTH))
            yield a1 - a0 - c0, REF_S / statistics.median(loops[lo:lo + SMOOTH]), n0, n1

    def wall(self) -> tuple[float, float]:
        """(raw seconds, scaled seconds) of the workload."""
        raw = scaled = 0.0
        for secs, factor, _, _ in self._stretches():
            raw += secs
            scaled += secs * factor
        return raw, scaled

    def scale_items(self, values: list[float]) -> list[float]:
        """Item times, each scaled by the factor of the stretch it ran in.
        Items the workload did not tick one by one all take the mean
        factor of the repetition."""
        stretches = list(self._stretches())
        if stretches and stretches[-1][3] == len(values):
            return [v * f for _, f, a, b in stretches for v in values[a:b]]
        raw, scaled = self.wall()
        return [v * scaled / raw for v in values] if raw > 0 else list(values)
