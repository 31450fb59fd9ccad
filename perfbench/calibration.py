"""Machine-speed calibration for timings taken on a shared, mode-switching CPU.

On small shared sandboxes the same code can run up to ~1.9x slower for
stretches of seconds to minutes, on both cores.  Wall-clock medians then
depend on when a run happened more than on the program.  The measured
process therefore runs a fixed kernel between consecutive ops and scales
each op to the speed at which that kernel takes its reference time:

    reported = measured * reference / mean(kernel before, kernel after)

The kernels are frozen here and share no code with the package.  The op
kernel gathers through a 64K table on arrays as long as the op's own (a
50-sample chunk, a 2000-sample record) and does dict and ``str`` work,
because per-call overhead and per-element gathers slow by different factors
in the slow mode.  Set-up and the cold op (imports, bulk LUT builds) slow
less; they are scaled by a bulk kernel of fresh 2 MB allocations run before
and after them.  A change to the package moves the ops, never a kernel, so
scaled timings still show it.  Raw timings are printed beside the scaled
ones.
"""

from __future__ import annotations

import time
from typing import List, Tuple

#: Kernel iterations by gather size, and the kernel time (median of three
#: runs) that defines the reference speed: the fast-mode value on a 2-vCPU
#: x86-64 sandbox with Python 3.11 and NumPy 2.4.
KERNEL_ITERATIONS = {50: 100, 2000: 25}
REFERENCE_S = {50: 185e-6, 2000: 135e-6}

#: The same for the bulk kernel, which times set-up and the cold op.
BULK_REFERENCE_S = 13e-3


class Calibration:
    """Runs the kernel on demand and keeps every (end time, kernel seconds).

    ``size`` is the length of the arrays the kernel gathers through, matched
    to the op's arrays (a 50-sample chunk, a 2000-sample record): small
    arrays cost per call, large ones per element, and the two slow down by
    different factors.
    """

    def __init__(self, size: int) -> None:
        import numpy as np

        self._table = np.arange(1 << 16, dtype=np.int64)
        self._size = size
        self._iterations = KERNEL_ITERATIONS[size]
        self._index = (np.arange(size + self._iterations, dtype=np.int64) * 7919) & 0xFFFF
        self.reference_s = REFERENCE_S[size]
        self.samples: List[Tuple[float, float]] = []
        #: Wall time spent inside :meth:`measure`, to subtract from windows.
        self.spent_s = 0.0
        self._kernel()

    def _kernel(self) -> None:
        table, index, size = self._table, self._index, self._size
        sink = {}
        for i in range(self._iterations):
            sink[i] = int(table[index[i : i + size]].sum()) + len(str(i))

    def measure(self) -> float:
        """Median of three kernel runs, in seconds."""
        started = time.perf_counter()
        runs = []
        for _ in range(3):
            begin = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - begin)
        value = sorted(runs)[1]
        end = time.perf_counter()
        self.spent_s += end - started
        self.samples.append((end, value))
        return value

    def scale(self, kernel_s: float) -> float:
        """Factor that turns a timing taken at ``kernel_s`` into reference time."""
        return self.reference_s / kernel_s


def bulk_kernel() -> float:
    """Median of three runs of a kernel shaped like set-up and LUT builds.

    Each run allocates fresh 2 MB arrays (page faults, as the first LUT
    builds of a process take) and gathers through a 64K table.
    """
    import numpy as np

    table = np.arange(1 << 16, dtype=np.int64)
    runs = []
    for _ in range(3):
        begin = time.perf_counter()
        for _ in range(4):
            index = (np.arange(1 << 18, dtype=np.int64) * 40503) & 0xFFFF
            np.take(table, index) + (index >> 2)
        runs.append(time.perf_counter() - begin)
    return sorted(runs)[1]


def bulk_scale(kernel_s: float) -> float:
    """Factor that turns a set-up or cold timing into reference time."""
    return BULK_REFERENCE_S / kernel_s
