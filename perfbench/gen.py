"""Seeded inputs for the workloads.

Every instance is built by planting a schedule first (each time slot holds
at most ``p`` jobs) and then drawing each job's window around its planted
slot, so every instance is feasible by construction and no operation is
expected to fail.  The library sees only the finished :class:`Problem`.

:class:`Inputs` hands out problems whose canonical cache key has not been
seen before in the run: warm pool workers keep their in-memory canonical
cache across sessions, so a repeated key in a later repetition would be
answered from a cache the benchmark cannot clear.
"""

from __future__ import annotations

import random
from typing import Callable, List

from repro.api import Job, MultiprocessorInstance, OneIntervalInstance, Problem
from repro.core.canonical import canonical_form

#: Wake-up cost of every power problem.
ALPHA = 2.0


def cache_key(problem: Problem) -> tuple:
    """The key the canonical cache files ``problem`` under."""
    return (problem.objective, problem.alpha, canonical_form(problem.instance).key)


def planted_jobs(
    rng: random.Random, n: int, p: int, horizon: int, max_window: int, offset: int = 0
) -> List[Job]:
    """``n`` jobs whose windows each contain a distinct planted slot."""
    slots = [t for t in range(horizon) for _ in range(p)]
    jobs = []
    for t in rng.sample(slots, n):
        width = rng.randint(1, max_window)
        release = max(0, t - rng.randint(0, width - 1))
        deadline = min(horizon - 1, release + width - 1)
        jobs.append(Job(release=offset + release, deadline=offset + max(deadline, t)))
    return jobs


def uniform(
    rng: random.Random, n: int, p: int, window_share: float = 1.0
) -> MultiprocessorInstance:
    """Windows up to ``window_share`` of a horizon about ``3n/4`` long."""
    horizon = max(8, 3 * n // 4)
    max_window = max(2, int(horizon * window_share))
    return MultiprocessorInstance(planted_jobs(rng, n, p, horizon, max_window), p)


def clustered(rng: random.Random, n: int, p: int) -> MultiprocessorInstance:
    """Three back-to-back bursts of short windows: the engine's Hall pruning engages.

    The bursts touch, so no idle seam lets decomposition split the instance.
    """
    width = -(-n // (3 * p)) + 1
    load: dict = {}
    jobs: List[Job] = []
    for _ in range(n):
        while True:
            start = width * rng.randrange(3)
            t = start + rng.randrange(width)
            if load.get(t, 0) < p:
                load[t] = load.get(t, 0) + 1
                break
        release = max(start, t - rng.randint(0, 1))
        jobs.append(Job(release=release, deadline=t + rng.randint(0, 4)))
    return MultiprocessorInstance(jobs, p)


def splittable(rng: random.Random, n: int, p: int) -> MultiprocessorInstance:
    """Three clusters separated by idle seams wider than ``ALPHA``: decomposition splits it."""
    per = -(-n // 3)
    span = max(6, 3 * per // (2 * p))
    jobs: List[Job] = []
    for k in range(3):
        count = min(per, n - len(jobs))
        jobs += planted_jobs(rng, count, p, span, span, offset=k * (span + 8))
    return MultiprocessorInstance(jobs, p)


def one_interval(rng: random.Random, n: int) -> OneIntervalInstance:
    """A single-processor instance with short windows (the portfolio's home ground)."""
    return OneIntervalInstance(planted_jobs(rng, n, 1, n * 8 // 5, 12))


def isomorphic_copy(rng: random.Random, problem: Problem) -> Problem:
    """The same multiprocessor problem shifted in time with its jobs permuted."""
    instance = problem.instance
    shift = rng.randint(1, 64)
    jobs = [Job(release=j.release + shift, deadline=j.deadline + shift) for j in instance.jobs]
    rng.shuffle(jobs)
    moved = MultiprocessorInstance(jobs, instance.num_processors)
    return Problem(objective=problem.objective, instance=moved, alpha=problem.alpha)


def problem(objective: str, instance) -> Problem:
    return Problem(
        objective=objective,
        instance=instance,
        alpha=ALPHA if objective == "power" else None,
    )


class Inputs:
    """Problems for one run, drawn from ``(seed, workload, repetition)``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seen: set = set()

    def rng(self, workload: str, repetition: int) -> random.Random:
        return random.Random(f"{self.seed}/{workload}/{repetition}")

    def fresh(self, make: Callable[[], Problem]) -> Problem:
        """Call ``make`` until it returns a problem with an unseen cache key."""
        while True:
            candidate = make()
            key = cache_key(candidate)
            if key not in self.seen:
                self.seen.add(key)
                return candidate
