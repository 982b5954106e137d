"""Throughput microbenchmark for the :func:`repro.runtime.solve_stream` pipeline.

``repro-sched bench --stream`` measures how many *distinct* small problems
per second the streaming solve pipeline sustains on each available
backend.  Distinct instances matter: the pipeline dedupes canonically
identical problems in flight, so a naive microbench of one repeated
instance would measure the dedupe cache, not the pipeline.

The workload is **session churn**: each timed run drains the problem set
through ``num_sessions`` consecutive ``solve_stream`` calls rather than
one.  That is the shape the warm worker pool (:mod:`repro.runtime.pool`)
exists for — the ``"process"`` backend reuses its workers across sessions.
(Its 2.5x win over a fresh executor per session is recorded in the
committed ``BENCH_stream.jsonl`` history.)

The report gets its own schema (``STREAM_SCHEMA``) — it shares nothing
with the interval-DP benchmark (``BENCH_dp.json``) beyond the timing
discipline.  Absolute throughput is machine-dependent and never gated
against a committed snapshot; instead ``bench --stream --append`` grows a
JSONL history (``BENCH_stream.jsonl``) and ``--compare`` gates each
backend's jobs/sec against the **rolling median** of its last
``--median-window`` same-schema entries, so only a sustained trend break
fails CI, not one noisy run.

Report shape::

    schema        the literal STREAM_SCHEMA id
    seed          instance-generator seed
    num_problems  problems streamed per backend run (across all sessions)
    num_jobs      jobs per problem
    num_sessions  solve_stream calls the problems are split across
    repeats       timed repetitions per backend
    environment   same fingerprint block as the DP benchmark
    backends      [{"backend", "workers", "timing", "jobs_per_second",
                    "problems_per_second"}]

History lines (``BENCH_stream.jsonl``)::

    {"schema": STREAM_HISTORY_SCHEMA, "timestamp": ..., "report": <report>}
"""

from __future__ import annotations

import json
import random
import statistics
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from ..api.problem import Problem
from ..core.jobs import OneIntervalInstance
from .bench import time_callable
from .report import BenchSchemaError, environment_fingerprint

__all__ = [
    "STREAM_SCHEMA",
    "STREAM_HISTORY_SCHEMA",
    "run_stream_bench",
    "validate_stream_report",
    "write_stream_report",
    "append_stream_history",
    "read_stream_history",
    "compare_stream_history",
]

STREAM_SCHEMA = "repro.perf/bench-stream/v2"
STREAM_HISTORY_SCHEMA = "repro.perf/stream-history/v1"

#: Stream-bench defaults; small enough that the full backend sweep stays a
#: few seconds, large enough that per-session dispatch overhead dominates.
DEFAULT_NUM_PROBLEMS = 200
DEFAULT_NUM_JOBS = 8
DEFAULT_NUM_SESSIONS = 8

#: A backend regresses when its fresh jobs/sec falls below the rolling
#: median of its history by more than this factor.
DEFAULT_STREAM_THRESHOLD = 1.5

_TOP_KEYS = {
    "schema",
    "seed",
    "num_problems",
    "num_jobs",
    "num_sessions",
    "repeats",
    "environment",
    "backends",
}
_BACKEND_KEYS = {
    "backend",
    "workers",
    "timing",
    "jobs_per_second",
    "problems_per_second",
}


def _stream_problems(
    seed: int, num_problems: int, num_jobs: int
) -> List[Problem]:
    """Distinct feasible one-interval problems (defeats in-flight dedupe)."""
    rng = random.Random(seed)
    problems: List[Problem] = []
    for index in range(num_problems):
        # A per-problem base offset keeps instances canonically distinct
        # even when the sampled windows coincide.
        base = index * 4 * num_jobs
        pairs = []
        for j in range(num_jobs):
            release = base + 2 * j + rng.randrange(2)
            pairs.append((release, release + 2 + rng.randrange(3)))
        problems.append(
            Problem(
                objective="gaps", instance=OneIntervalInstance.from_pairs(pairs)
            )
        )
    return problems


def run_stream_bench(
    seed: int = 0,
    num_problems: Optional[int] = None,
    num_jobs: Optional[int] = None,
    repeats: Optional[int] = None,
    backends: Optional[List[str]] = None,
    num_sessions: Optional[int] = None,
) -> Dict:
    """Measure solve_stream throughput per backend; returns the report dict.

    Every backend drains the same ``num_problems`` distinct problems split
    across ``num_sessions`` consecutive ``solve_stream`` calls; the
    best-of-``repeats`` wall time yields the throughput columns.  Results
    are asserted feasible — a backend that streamed errors fast would
    otherwise win the comparison.
    """
    from ..runtime import available_backends
    from ..runtime.stream import solve_stream

    num_problems = DEFAULT_NUM_PROBLEMS if num_problems is None else num_problems
    num_jobs = DEFAULT_NUM_JOBS if num_jobs is None else num_jobs
    num_sessions = DEFAULT_NUM_SESSIONS if num_sessions is None else num_sessions
    repeats = 3 if repeats is None else repeats
    if num_problems < 1 or num_jobs < 1 or repeats < 1 or num_sessions < 1:
        raise ValueError(
            "num_problems, num_jobs, num_sessions and repeats must be >= 1"
        )
    num_sessions = min(num_sessions, num_problems)
    names = list(backends) if backends is not None else list(available_backends())
    problems = _stream_problems(seed, num_problems, num_jobs)
    per_session = (num_problems + num_sessions - 1) // num_sessions
    sessions = [
        problems[i : i + per_session]
        for i in range(0, num_problems, per_session)
    ]

    records: List[Dict] = []
    for name in names:

        def drain() -> None:
            for chunk in sessions:
                for result in solve_stream(chunk, backend=name):
                    if result.status == "error":
                        raise AssertionError(
                            f"stream bench: backend {name!r} produced an "
                            f"error result: {result.extra.get('error')}"
                        )

        timing = time_callable(drain, repeats=repeats, warmup=1)
        best = max(timing["best"], 1e-12)
        records.append(
            {
                "backend": name,
                "workers": None,
                "timing": timing,
                "jobs_per_second": num_problems * num_jobs / best,
                "problems_per_second": num_problems / best,
            }
        )

    return {
        "schema": STREAM_SCHEMA,
        "seed": seed,
        "num_problems": num_problems,
        "num_jobs": num_jobs,
        "num_sessions": num_sessions,
        "repeats": repeats,
        "environment": environment_fingerprint(),
        "backends": records,
    }


def validate_stream_report(data: object) -> None:
    """Raise :class:`BenchSchemaError` unless ``data`` matches STREAM_SCHEMA."""
    if not isinstance(data, dict):
        raise BenchSchemaError("stream report must be a JSON object")
    actual = set(data)
    missing = _TOP_KEYS - actual
    unexpected = actual - _TOP_KEYS
    if missing:
        raise BenchSchemaError(f"stream report: missing keys {sorted(missing)}")
    if unexpected:
        raise BenchSchemaError(f"stream report: unexpected keys {sorted(unexpected)}")
    if data["schema"] != STREAM_SCHEMA:
        raise BenchSchemaError(
            f"schema id {data['schema']!r} does not match {STREAM_SCHEMA!r}"
        )
    for key in ("seed", "num_problems", "num_jobs", "num_sessions", "repeats"):
        if not isinstance(data[key], int):
            raise BenchSchemaError(f"stream report.{key} must be an integer")
    if not isinstance(data["environment"], dict):
        raise BenchSchemaError("stream report.environment must be an object")
    entries = data["backends"]
    if not isinstance(entries, list) or not entries:
        raise BenchSchemaError("stream report.backends must be a non-empty list")
    seen = set()
    for index, entry in enumerate(entries):
        label = f"backends[{index}]"
        if not isinstance(entry, dict):
            raise BenchSchemaError(f"{label}: must be an object")
        actual = set(entry)
        if actual != _BACKEND_KEYS:
            raise BenchSchemaError(
                f"{label}: keys {sorted(actual)} != {sorted(_BACKEND_KEYS)}"
            )
        if not isinstance(entry["backend"], str) or not entry["backend"]:
            raise BenchSchemaError(f"{label}.backend: must be a non-empty string")
        if entry["backend"] in seen:
            raise BenchSchemaError(f"{label}.backend: duplicate {entry['backend']!r}")
        seen.add(entry["backend"])
        if entry["workers"] is not None and not isinstance(entry["workers"], int):
            raise BenchSchemaError(f"{label}.workers: must be an integer or null")
        for key in ("jobs_per_second", "problems_per_second"):
            if not isinstance(entry[key], (int, float)) or entry[key] <= 0:
                raise BenchSchemaError(f"{label}.{key}: must be a positive number")
        timing = entry["timing"]
        if not isinstance(timing, dict) or set(timing) != {
            "best",
            "median",
            "mean",
            "runs",
        }:
            raise BenchSchemaError(f"{label}.timing: malformed timing block")


def write_stream_report(data: Dict, path: str) -> None:
    """Validate ``data`` and write it as deterministic, indented JSON."""
    validate_stream_report(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# JSONL history + rolling-median trend gate
# ---------------------------------------------------------------------------
def append_stream_history(
    report: Dict, path: str, *, timestamp: Optional[str] = None
) -> Dict:
    """Validate ``report`` and append one history line to ``path``.

    Returns the entry that was written; ``timestamp`` is injectable for
    tests and defaults to the current UTC time.
    """
    validate_stream_report(report)
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry = {
        "schema": STREAM_HISTORY_SCHEMA,
        "timestamp": timestamp,
        "report": report,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")
    return entry


def read_stream_history(path: str) -> List[Dict]:
    """Parse every entry of a stream history file, oldest first."""
    entries: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BenchSchemaError(
                    f"{path}:{number}: not valid JSON: {exc}"
                ) from exc
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != STREAM_HISTORY_SCHEMA
            ):
                raise BenchSchemaError(
                    f"{path}:{number}: not a {STREAM_HISTORY_SCHEMA!r} entry"
                )
            if not isinstance(entry.get("report"), dict):
                raise BenchSchemaError(f"{path}:{number}: missing embedded report")
            entries.append(entry)
    return entries


def compare_stream_history(
    report: Dict,
    path: str,
    window: int = 5,
    threshold: float = DEFAULT_STREAM_THRESHOLD,
) -> Tuple[List[str], int]:
    """Gate ``report`` against the rolling median of its backend history.

    For each backend in ``report`` with at least one same-schema history
    sample among the last ``window`` entries, the gate fails when the
    fresh ``jobs_per_second`` is below ``median / threshold`` — a
    sustained-trend gate, deliberately loose enough that one noisy run
    (or a different machine) doesn't fail CI.  Backends with no history
    are skipped, so schema bumps and newly added backends pass vacuously.

    Returns ``(regressions, samples_used)``; empty ``regressions`` means
    the gate passed.
    """
    if window < 1:
        raise ValueError(f"median window must be >= 1, got {window}")
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    validate_stream_report(report)
    entries = read_stream_history(path)
    reports = [
        entry["report"]
        for entry in entries
        if entry["report"].get("schema") == STREAM_SCHEMA
    ]
    tail = reports[-window:]
    history: Dict[str, List[float]] = {}
    for old in tail:
        for record in old.get("backends", []):
            history.setdefault(record["backend"], []).append(
                float(record["jobs_per_second"])
            )
    regressions: List[str] = []
    samples = 0
    for record in report["backends"]:
        samples_for = history.get(record["backend"])
        if not samples_for:
            continue
        samples = max(samples, len(samples_for))
        median = statistics.median(samples_for)
        fresh = float(record["jobs_per_second"])
        if fresh < median / threshold:
            regressions.append(
                f"{record['backend']}: {fresh:,.0f} jobs/s is below the "
                f"rolling median {median:,.0f} / {threshold:g} over "
                f"{len(samples_for)} run(s)"
            )
    return regressions, samples
