"""Core-speed gauge for the timed runs.

On a shared host the speed of a core drifts by up to 2x in phases of
seconds to minutes, while the program's own work stays the same.  A fixed
pure-Python kernel (fraction-free integer elimination and ``Fraction`` sums,
the kind of work a sweep does) is timed in the benchmark's own process just
before and just after each child process.  The child's times are scaled by
``REFERENCE_S`` over the mean of those two timings of one sample: they read
as seconds on a core that runs a sample in ``REFERENCE_S``.  The kernel
calls no code of the package, so a change to the program moves a scaled
time by the same share as the raw one.
"""

from __future__ import annotations

import time
from fractions import Fraction

# One gauge sample (``SAMPLE_CALLS`` kernel calls) in a fast phase of a
# shared 2-vCPU Intel Xeon host, Python 3.11.
REFERENCE_S = 0.010
SAMPLE_CALLS = 5
SAMPLES = 10


def kernel() -> tuple[int, Fraction]:
    """Bareiss elimination of a fixed 24x24 matrix, then a Fraction sum."""
    n, x = 24, 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(x % 7 - 3)
        rows.append(row)
    prev = 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        piv = rows[k][k]
        for i in range(k + 1, n):
            ri, f = rows[i], rows[i][k]
            rows[i] = [(piv * ri[j] - f * rows[k][j]) // prev for j in range(n)]
        prev = piv
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 13 - 6, i)
    return rows[-1][-1], total


def kernel_time() -> float:
    """Mean of ``SAMPLES`` timings of ``SAMPLE_CALLS`` kernel calls.  A mean
    over about 0.1 s takes in the host's contention as a child meets it; the
    fastest sample would miss it and over-correct."""
    total = 0.0
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(SAMPLE_CALLS):
            kernel()
        total += time.perf_counter() - start
    return total / SAMPLES


class Gauge:
    """Brackets each child with kernel timings; the timing after one child
    is the timing before the next."""

    def __init__(self) -> None:
        kernel_time()  # warm-up
        self.last = kernel_time()

    def scale(self) -> float:
        """Call right after a child ends: the factor for that child's times."""
        before, self.last = self.last, kernel_time()
        return REFERENCE_S / ((before + self.last) / 2)
