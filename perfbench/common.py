"""Shared pieces of the benchmark: spans, the correctness gate, statistics.

Everything here is the benchmark's own code.  It calls the library only
through the public verification API (``repro.verify``), so the numbers it
produces describe the path a user takes.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.verify import certify_bound, certify_result

from .pace import helper_pid

#: Nanoseconds per unit for the metric units the benchmark reports.
_PER_UNIT = {"us": 1e3, "ms": 1e6, "s": 1e9}


# ---------------------------------------------------------------------------
# spans and counters
# ---------------------------------------------------------------------------
class Trace:
    """In-memory spans and counters recorded around calls into the library.

    A span is ``(id, parent id, name, start ns, end ns)``; spans opened
    while another is open record it as their parent, so one request's
    spans form a tree.  With ``enabled=False`` every call is a no-op,
    which is how the untraced pass measures the end-to-end metrics.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, name, time.perf_counter_ns(), None))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            sid, par, nm, start, _ = self.spans[span_id]
            self.spans[span_id] = (sid, par, nm, start, time.perf_counter_ns())

    def count(self, name: str, delta: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + delta

    def sample(self, name: str, value: float) -> None:
        """Record one value measured outside a span (bytes, a server timestamp gap)."""
        if self.enabled:
            self.samples.setdefault(name, []).append(value)

    def durations(self, name: str, unit: str) -> List[float]:
        scale = _PER_UNIT[unit]
        return [
            (end - start) / scale
            for _sid, _par, nm, start, end in self.spans
            if nm == name and end is not None
        ]

    def p50(self, name: str, unit: str) -> float:
        """Median duration of the spans called ``name`` (0 when none ran)."""
        return median_or_zero(self.durations(name, unit))


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------
class Gate:
    """Counts attempted and failed operations and certifies every answer.

    An operation fails when its envelope does not certify, carries
    ``status="error"``, or never arrived (HTTP refusal, timeout).  Each
    check runs outside the timed region; ``certify_ms`` keeps its cost.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.bad_answers = 0
        self.issues: List[str] = []
        #: Spans ``certify_ms`` on the traced pass; swapped in by the runner.
        self.trace = Trace(False)

    def _fail(self, reason: str, answer: bool) -> bool:
        self.failed += 1
        if answer:
            self.bad_answers += 1
        if len(self.issues) < 5:
            self.issues.append(reason)
        return False

    def check(self, problem, result, *, bound: Optional[dict] = None) -> bool:
        """Certify one envelope (and the portfolio lower bound it carries)."""
        self.attempted += 1
        if result.status == "error":
            return self._fail(f"error status: {result.extra.get('error')}", True)
        with self.trace.span("verify.certificates.certify"):
            cert = certify_result(problem, result)
            bound_cert = None if bound is None else certify_bound(problem, bound)
        if not cert.ok:
            return self._fail("certificate: " + "; ".join(cert.issues), True)
        if bound_cert is not None:
            if not bound_cert.ok:
                return self._fail("bound: " + "; ".join(bound_cert.issues), True)
            if result.value is not None and result.value < bound["value"] - 1e-9:
                return self._fail("value below its certified lower bound", True)
        return True

    def lost(self, reason: str) -> None:
        """An operation that produced no envelope at all (429/503/timeout)."""
        self.attempted += 1
        self._fail(reason, False)

    @property
    def correct(self) -> bool:
        return self.bad_answers == 0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# process resources
# ---------------------------------------------------------------------------
def _status_field(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(tok) for tok in fh.read().split())
        except OSError:
            continue
    return kids


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``."""
    found: List[int] = []
    todo = _children(pid)
    while todo:
        child = todo.pop()
        if child not in found:
            found.append(child)
            todo.extend(_children(child))
    return found


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process plus every live descendant.

    The benchmark's own pace helper is not counted.
    """
    pids = [os.getpid()] + [pid for pid in descendants(os.getpid()) if pid != helper_pid()]
    return sum(_status_field(pid, "VmHWM") or 0 for pid in pids) / 1024.0


class WorkDir:
    """Scratch directories inside the checkout, removed on exit."""

    def __init__(self, root: str) -> None:
        base = os.path.join(root, ".perfbench-work")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)
        self._count = 0

    def fresh(self, label: str) -> str:
        """A new, empty directory (one per repetition's disk-cache tier)."""
        self._count += 1
        path = os.path.join(self.path, f"{label}-{self._count}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still uses it
