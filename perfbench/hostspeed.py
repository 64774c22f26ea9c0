"""Host speed: a fixed piece of work timed around every measured interval.

On a shared virtual machine the same code runs up to 2.7x slower for minutes
at a time while other tenants are busy, and the slowdown shows in CPU time as
well as in wall time, so no statistic of raw pass times stays within a 25%
bound from one run to the next.  The benchmark therefore times
:func:`calibrate`, which uses nothing of the program under test, just before
and just after every measured interval, and reports the interval at the
reference host speed (:meth:`HostClock.around`)::

    normalised = raw * reference time / mean(calibration before, calibration after)

A change to the program moves the raw time and leaves the calibration alone,
so it moves the normalised time by the same factor.

The calibration has two parts.  ``interpreter`` is interpreter-bound Python
(dict updates, a heap) with small numpy calls; ``arrays`` is elementwise
work plus a batched matrix-vector product over a 16 MB array.  When the
host is busy, interpreter-bound passes slow down like the first part, while
array-bound passes slow down like the sum of both; each workload names the
parts it is normalised by.

The calibration runs in a helper process (this file run as a script), one
request at a time while the workload's process waits, so the two never run
at once and the calibration's arrays stay out of the workload's peak memory.
"""

from __future__ import annotations

import functools
import heapq
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# Each part of calibrate() on the reference machine (a 2-vCPU Intel Xeon KVM
# guest, Python 3.11.7, numpy 2.4.6) at its quietest: normalised times read
# as seconds on that machine when nothing else competes for it.
REFERENCE_S = {"interpreter": 0.033, "arrays": 0.037}
HELPER_TIMEOUT_S = 30.0


@functools.lru_cache(maxsize=1)
def _inputs():
    """The calibration's inputs, made once in the process that calibrates.

    The tables have the shape of a 32-row batch of 250-path tables, as in
    fluid-sweep.
    """
    keys = list(range(2000))
    vector = np.arange(64.0)
    tables = np.linspace(0.0, 1.0, 32 * 250 * 250).reshape(32, 250, 250)
    flows = np.linspace(1.0, 2.0, 32 * 250).reshape(32, 250, 1)
    return keys, vector, tables, flows


def calibrate(part: str) -> float:
    """Return the wall seconds of one part of the calibration workload."""
    keys, vector, source, flows = _inputs()
    begin = perf_counter()
    if part == "arrays":
        for _ in range(6):
            tables = source * 0.5 + 0.1
            np.maximum(tables, 0.2, out=tables)
            tables @ flows
            tables.sum(axis=2)
        return perf_counter() - begin
    for _ in range(30):
        table = {}
        heap = []
        for key in keys:
            table[key % 97] = table.get(key % 97, 0) + key
            heapq.heappush(heap, (key * 7919) % 2003)
        while heap:
            heapq.heappop(heap)
    for _ in range(2000):
        vector = np.maximum(vector * 0.5 + 1.0, 0.0)
    return perf_counter() - begin


class HostClock:
    """Times intervals and scales them to the reference host speed.

    ``parts`` names the calibration parts the intervals are normalised by.
    Use it as a context manager: leaving the block stops the helper process
    and waits for it to end.
    """

    def __init__(self, parts) -> None:
        self.parts = tuple(parts)
        self.reference = sum(REFERENCE_S[part] for part in self.parts)
        self.helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def calibrate(self) -> float:
        """Return the helper's time for this clock's calibration parts."""
        self.helper.stdin.write(" ".join(self.parts) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed helper process exited")
        return float(line)

    def around(self, work):
        """Run ``work()`` between two calibrations.

        Return ``(result, raw wall seconds, factor)``, where ``factor``
        takes the interval to the reference host speed.
        """
        before = self.calibrate()
        begin = perf_counter()
        result = work()
        wall = perf_counter() - begin
        after = self.calibrate()
        return result, wall, self.reference / (0.5 * (before + after))

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()

    def __enter__(self) -> "HostClock":
        try:
            self.calibrate()  # the first one also makes the inputs
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


if __name__ == "__main__":
    # The helper: per request line, the summed time of the parts it names,
    # until stdin closes.
    for request in sys.stdin:
        print(repr(sum(calibrate(part) for part in request.split())), flush=True)
