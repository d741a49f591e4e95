"""Machine-speed reference for the benchmark's timings.

On a shared machine the CPU a run gets changes from second to second and
from minute to minute: one 4-minute measurement on the 2-core box this
benchmark was tuned on saw the median of a fixed unit of work vary from
0.22 s to 0.33 s between 25-second windows, while the ratio of that work
to this kernel, timed just before and after it, varied by 2 %.  So every
timing the benchmark reports is corrected: it is divided by the median
time of the kernel runs just before and just after it, and multiplied by
NOMINAL_S.  The median keeps one kernel run caught in a stall from skewing
a pass.  A reported time is then the time the work would take on a
machine that runs this kernel in NOMINAL_S.  The kernel mixes what the
workloads spend time on: interpreter loops, small and mid-size numpy
operations and float formatting.  It belongs to the benchmark, so no
change to ``src/`` can change it.
"""

import math
import time

import numpy as np

# Time of one kernel run on the tuning machine when it was quiet.
NOMINAL_S = 0.022
# Share of a pass's time spent on the reference before it, and again after it.
SHARE = 0.05


def _kernel() -> float:
    x = np.linspace(-1.0, 1.0, 2001)
    acc = 0.0
    for i in range(1000):
        y = 0.5 * x * x - 0.5
        acc += float(np.max(np.abs(np.where(x < 0.0, y, -y))))
        s = np.sin(x[:200] * i)
        acc += float(np.dot(s, s))
        acc += sum(math.sqrt(j + i) for j in range(60))
        acc += len("%.17g,%.17g" % (acc, y[i]))
    return acc


def reference_times(repeats: int) -> list:
    """Wall time of each of repeats kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def repeats_for(seconds: float) -> int:
    """Kernel runs that take about SHARE of a pass lasting seconds (2 to 10).

    A reference taken before and after a long pass must sample enough of
    the machine's speed to correct it; one short kernel run beside a
    2-second pass was found to add more noise than it removed.
    """
    return min(10, max(2, round(SHARE * seconds / NOMINAL_S)))
