"""Host speed, measured with a fixed reference kernel.

The host this benchmark is made for shares its cores with other machines:
for seconds to minutes at a time the same code runs up to 1.7x slower, in
every process alike.  The benchmark therefore times a fixed kernel of its
own, interleaved with the ops, and scales the run's times by

    REFERENCE_S / (the kernel's fastest time in the run)

so that they read as on a host where the kernel takes REFERENCE_S.  The
kernel is plain Python (tuples, frozensets, dict lookups, a sort), the kind
of work the package's interpreted layers do; it calls nothing in the
package, so a change to the package leaves it alone.
"""

from __future__ import annotations

import time

# About the kernel's fastest time on a 2-vCPU Intel Xeon (2.0 GHz) with
# Python 3.11; a unit of scale, not a target.
REFERENCE_S = 0.75e-3
# Sample the kernel between ops at least this often.
INTERVAL_S = 0.05


def kernel() -> int:
    table = {}
    for i in range(800):
        key = (i % 17, i % 13, frozenset((i % 5, i % 7)))
        table[key] = table.get(key, 0) + len(key)
    rows = sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    return sum(v for _, v in rows)


class HostSpeed:
    def __init__(self):
        self.samples: list = []
        self._last = float("-inf")

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.samples.append(end - start)
            self._last = end

    def maybe_sample(self) -> None:
        """Sample when the last sample is ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
