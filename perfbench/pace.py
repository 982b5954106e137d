"""The host's speed, measured next to each operation so times can be scaled.

A shared host runs the same code up to twice as slow for seconds to
minutes at a time, so raw times of the same code spread by tens of
percent from run to run.  After each operation, outside its timed region,
the benchmark times a fixed reference kernel that calls no library code,
and scales the operation's time by the reference kernel time ÷ the kernel
times around it: the figure reads as on the reference host.  A change in
the program still shows in full, since the kernel does not run it.

The kernel runs in a helper process of its own (this file, run as a
script), so neither the program's threads nor its heap slow it down.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: Milliseconds :func:`reference_kernel` takes on the reference host (a
#: quiet 2-vCPU Xeon VM, Python 3.11); scaled times read as on that host.
REFERENCE_KERNEL_MS = 6.0


class _Cell:
    __slots__ = ("value", "key", "links")

    def __init__(self, value: int, key: tuple, links: list) -> None:
        self.value = value
        self.key = key
        self.links = links


def reference_kernel() -> int:
    """Fixed allocation-heavy pure-Python work that calls no library code.

    It builds and filters a few thousand small objects, each with a tuple
    and a list, and lets the collector sweep them: the kind of work the
    DP engines do per state.  Over ten minutes on a loaded 2-vCPU VM, the
    log of its time followed the log of the façade's solve times with a
    slope of 0.8, and scaling by it halved their spread; a tight
    arithmetic loop followed them half as well.
    """
    cells = [_Cell(i, (i, i + 1), [i]) for i in range(8000)]
    return sum(cell.value for cell in cells if cell.key[0] & 1)


def reference_kernel_ms(repeats: int = 1) -> float:
    """Median time of ``repeats`` calls of :func:`reference_kernel`, in this process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        reference_kernel()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


class _Helper:
    """This file run as a script: times the kernel on request, one line each way."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def kernel_ms(self, repeats: int) -> float:
        self.proc.stdin.write(f"{repeats}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def stop(self) -> None:
        try:
            self.proc.stdin.write("0\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


_HELPER: Optional[_Helper] = None


def helper_kernel_ms(repeats: int = 1) -> float:
    """The kernel timed in the helper process (started on first use)."""
    global _HELPER
    if _HELPER is None:
        _HELPER = _Helper()
    return _HELPER.kernel_ms(repeats)


def helper_pid() -> Optional[int]:
    return None if _HELPER is None else _HELPER.proc.pid


def stop_helper() -> None:
    """Stop the helper and wait for it to end."""
    global _HELPER
    if _HELPER is not None:
        _HELPER.stop()
        _HELPER = None


class Pace:
    """Kernel times next to a pass's operations, and the scale they give."""

    #: Operations on each side whose kernel times set an operation's scale.
    WINDOW = 4

    def __init__(self) -> None:
        self.kernel_ms: List[float] = []

    def mark(self, repeats: int = 1) -> None:
        """Time the kernel right after an operation (call once per operation)."""
        self.kernel_ms.append(helper_kernel_ms(repeats))

    def factor(self, index: int) -> float:
        window = self.kernel_ms[max(0, index - self.WINDOW):index + self.WINDOW + 1]
        return REFERENCE_KERNEL_MS / statistics.median(window)

    def scale(self, index: int, ms: float, fixed_ms: float = 0.0) -> float:
        """Operation ``index``'s ``ms`` on the reference host.

        ``fixed_ms`` of it is wall-clock time the user chose (a budget),
        which does not scale.
        """
        return fixed_ms + (ms - fixed_ms) * self.factor(index)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.kernel_ms) if self.kernel_ms else 0.0


if __name__ == "__main__":
    for line in sys.stdin:
        repeats = int(line)
        if repeats <= 0:
            break
        print(reference_kernel_ms(repeats), flush=True)
