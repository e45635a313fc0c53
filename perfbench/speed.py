"""Machine speed, so that timings compare across a shared machine's slow spells.

On a shared machine other tenants slow every process down, for seconds to
minutes at a time and by as much as 1.6x; no statistic over one run can see
past a spell that outlasts the run. So the benchmark times a fixed reference
kernel next to the operations it measures and reports each timing at
reference speed:

    reported = measured / factor,  factor = median kernel time / REFERENCE_S

The kernel runs only benchmark code, so a change to hyperstab moves a
reported timing exactly as much as it moves the measured one. The report
lines print the factor, from which measured times can be recovered.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time at reference speed: about its 10th percentile on an
# otherwise idle 2-vCPU Linux container (Python 3.11, numpy 2.4).
REFERENCE_S = 3.0e-4


def kernel() -> float:
    """Scalar float arithmetic in a Python loop, then small numpy calls: the
    same mix as the package's stepping and grading paths."""
    x = 0.1
    for _ in range(4000):
        x = 0.999 * x + 1e-3
    a = np.arange(32.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return x + float(a[0])


def sample(count: int = 1) -> list[float]:
    """Times of ``count`` kernel runs, in seconds."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def factor(samples: list[float]) -> float:
    """How many times slower than reference speed the machine ran."""
    return statistics.median(samples) / REFERENCE_S
