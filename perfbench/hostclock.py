"""Host-speed probes: instance times corrected for a shared host's slow spells.

On a shared host the CPU's speed swings by 1.5-2x for seconds to minutes
at a time, as neighbours load the same cores, while a single instance of
the `wide` workload takes up to a second and a half.  Best-of-repeats can
only remove a slow spell that an instance fits between, and even the
fastest spell of a one-minute run differs from minute to minute.  Instead,
a fixed pure-Python kernel is timed between instances (at most every
`PROBE_INTERVAL_S`, and always before the first and after the last
instance) and reads the host's speed at that moment.  An instance's
corrected time is its wall time scaled by `KERNEL_NOMINAL_S / local`,
where `local` is the mean of the two probes around the instance.

So a corrected time is the instance's cost in kernel runs, expressed in
seconds at the nominal speed: the kernel's fastest time on the host the
benchmark was tuned on (a 2.1 GHz Xeon vCPU).  The kernel is the
benchmark's own code and runs with the garbage collector paused, so a
change to the program leaves it alone and moves corrected times one to
one.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.1
KERNEL_NOMINAL_S = 0.0042


def kernel() -> int:
    """About 4 ms of interpreter work like the program's.

    Fraction sums and dict updates, as in the engine, then a small
    recursive product search over ints, as in the brute-force oracles.
    """
    total = Fraction(0)
    seen: dict[int, int] = {}
    for i in range(1, 1200):
        total += Fraction(i, i + 7)
        seen[i % 97] = seen.get(i % 97, 0) + i
    values = [[(i * 7 + g * 3) % 11 for g in range(9)] for i in range(3)]
    current = [0, 0, 0]
    best = 0

    def search(g: int) -> None:
        nonlocal best
        if g == 9:
            best = max(best, current[0] * current[1] * current[2])
            return
        if all(c >= 0 for c in current):
            for i in range(3):
                current[i] += values[i][g]
                search(g + 1)
                current[i] -= values[i][g]

    search(2)
    return best + total.denominator


class HostClock:
    """Probes taken during a run, and the instance times between them."""

    def __init__(self) -> None:
        self.probes: list[float] = []  # kernel seconds, in run order
        self.last_end = float("-inf")
        self.samples: list[tuple[int, float]] = []  # (index of the probe before it, seconds)

    def probe(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        self.last_end = perf_counter()
        if collecting:
            gc.enable()
        self.probes.append(self.last_end - start)

    def before_instance(self) -> None:
        """Probe unless the last probe is younger than the interval."""
        if perf_counter() - self.last_end >= PROBE_INTERVAL_S:
            self.probe()

    def record(self, seconds: float) -> int:
        """Note one instance's wall time; returns its sample index."""
        self.samples.append((len(self.probes) - 1, seconds))
        return len(self.samples) - 1

    def corrected(self) -> list[float]:
        """Every sample's time at the nominal host speed, in sample order.

        Call after a closing `probe`, so every sample has a probe after it.
        """
        out = []
        for before, seconds in self.samples:
            local = (self.probes[before] + self.probes[before + 1]) / 2
            out.append(seconds * KERNEL_NOMINAL_S / local)
        return out
