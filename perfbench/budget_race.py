"""``budget-race``: one caller, ``solve(problem, budget=B)``.

Closed loop over a fixed cycle of ten slots.  Eight are single-processor
one-interval instances with n = 300..1000 and B = 0.25 or 0.5 s, where the
portfolio races the list heuristics against the exact DP on the warm pool
and hard-kills the losers.  Two are multiprocessor instances (n = 100,
p = 3, B = 0.25 s) whose exact DP alone takes two to three times B: the
roster then holds only the DP, the race runs cooperatively on the serial
backend and the DP runs to completion, so the budget overrun shows in
``budget_miss_share``.  They are a fifth of the races, so p90 falls in
the middle of them.

Race times are scaled to the reference host (:mod:`perfbench.pace`),
except the budget itself: a race the budget ended spent its first B
seconds on the user's clock.
"""

from __future__ import annotations

import time

from repro.api import Problem, from_json, solve, to_json
from repro.bounds import lower_bound_for
from repro.core.canonical import canonical_form
from repro.runtime import worker_pool_stats

from . import gen, service_open, startup
from .common import geomean, peak_rss_mb, percentile, share
from .pace import Pace

NAME = "budget-race"
#: (objective, jobs or "multiprocessor", budget in seconds), cycled in order.
SLOTS = (
    ("gaps", 1000, 0.25),
    ("power", 1000, 0.25),
    ("gaps", 600, 0.25),
    ("power", 600, 0.25),
    ("gaps", 400, 0.25),
    ("power", 400, 0.25),
    ("gaps", 300, 0.5),
    ("power", 300, 0.5),
    ("gaps", "multiprocessor", 0.25),
    ("power", "multiprocessor", 0.25),
)
#: An answer later than its budget by more than this is a budget miss.
GRACE_S = 0.1
EXACT_MEMBERS = ("gap-dp", "power-dp")


def make_problem(rng, index: int) -> Problem:
    objective, size, _budget = SLOTS[index % len(SLOTS)]
    if size == "multiprocessor":
        return gen.problem(objective, gen.uniform(rng, 100, 3, window_share=0.25))
    return gen.problem(objective, gen.one_interval(rng, size))


def setup_s(ctx) -> float:
    return startup.library_setup_s(ctx, "budget")


def warm_up(ctx) -> None:
    """One untimed race so the pool is forked before timing."""
    rng = ctx.inputs.rng(NAME, 0)
    solve(ctx.inputs.fresh(lambda: gen.problem("gaps", gen.one_interval(rng, 50))), budget=0.25)


def _stopped_by_budget(result) -> bool:
    """Whether the budget ended the race (a member was killed at the deadline)."""
    return any(
        member["kill_reason"] == "deadline"
        for member in result.extra.get("portfolio", {}).get("members", ())
    )


def run_pass(ctx, trace, seconds: float, gate, limit=None) -> dict:
    latencies, overruns, ratios = [], [], []
    #: Milliseconds of each race that the budget, not the program, decided.
    budgeted = []
    pace = Pace()
    misses = 0
    rss = 0.0
    keys = []
    pool_before = worker_pool_stats()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and len(latencies) != limit:
        rng = ctx.inputs.rng(NAME, ctx.repetition())
        for index in range(len(SLOTS)):
            if time.perf_counter() - start >= seconds or len(latencies) == limit:
                break
            problem = ctx.inputs.fresh(lambda: make_problem(rng, index))
            budget = SLOTS[index][2]
            keys.append([gen.cache_key(problem)])
            with trace.span("portfolio.race"):
                t0 = time.perf_counter()
                result = solve(problem, budget=budget)
                wall = time.perf_counter() - t0
            latencies.append(wall * 1e3)
            budgeted.append(min(wall, budget) * 1e3 if _stopped_by_budget(result) else 0.0)
            overruns.append((wall - budget) * 1e3)
            misses += wall > budget + GRACE_S
            portfolio = result.extra.get("portfolio", {})
            if gate.check(problem, result, bound=portfolio.get("lower_bound")):
                ratio = (result.extra.get("optimality_gap") or {}).get("ratio")
                if ratio is not None:
                    ratios.append(ratio)
            if trace.enabled:
                _probe(trace, problem, result, wall, budget)
            # Workers killed at the deadline are replaced, so their peaks
            # are read after every race, not once at the end.
            rss = max(rss, peak_rss_mb())
            pace.mark(3)
    pool_after = worker_pool_stats()
    # A race the budget ended spent its first B seconds on the user's
    # clock; only the rest is the program's own work and scales.
    scaled = [pace.scale(i, ms, fixed) for i, (ms, fixed) in enumerate(zip(latencies, budgeted))]
    out = {
        "latency_ms": scaled,
        "throughput_per_s": share(len(scaled), sum(scaled) / 1e3),
        "operations": len(latencies),
        "headline_cost": percentile(latencies, 50),
        "keys": keys,
        "rss_mb": rss,
        "kernel_ms": pace.median_ms,
        "report": {
            "certified_ratio_geomean": geomean(ratios),
            "budget_miss_share": share(misses, len(latencies)),
            "overrun_ms_p50": percentile(overruns, 50),
            "race_ms_p50": percentile(latencies, 50),
            "race_ms_p90": percentile(latencies, 90),
            "races_per_s": share(len(latencies), sum(latencies) / 1e3),
            "budget_ended_share": share(sum(b > 0 for b in budgeted), len(latencies)),
            "races": len(latencies),
        },
    }
    if trace.enabled:
        races = max(1, len(latencies))
        out["layers"] = {
            "api.problem.validate_us_p50": trace.p50("api.problem.validate", "us"),
            "core.canonical.form_us_p50": trace.p50("core.canonical.form", "us"),
            "api.serialization.encode_us_p50": trace.p50("api.serialization.encode", "us"),
            "api.serialization.decode_us_p50": trace.p50("api.serialization.decode", "us"),
            "api.serialization.envelope_bytes_p50": percentile(trace.samples["envelope_bytes"], 50),
            "bounds.lower_bound_ms_p50": trace.p50("bounds.lower_bound", "ms"),
            "core.list_heuristics.member_ms_p50": percentile(trace.samples.get("heuristic_ms", []), 50),
            "core.interval_dp.engine_ms_p50": percentile(trace.samples.get("exact_ms", []), 50),
            "portfolio.race.teardown_ms_p50": percentile(trace.samples.get("teardown_ms", []), 50),
            "portfolio.race.members_killed": trace.counters.get("members_killed", 0),
            "portfolio.race.exact_win_share": trace.counters.get("exact_wins", 0) / races,
            "runtime.pool.spawned": pool_after["spawned"] - pool_before["spawned"],
            "runtime.pool.killed": pool_after["killed"] - pool_before["killed"],
        }
        out["layers"].update(service_open.probe(ctx, gate))
    return out


def _probe(trace, problem, result, wall, budget) -> None:
    with trace.span("api.problem.validate"):
        Problem(objective=problem.objective, instance=problem.instance, alpha=problem.alpha)
    with trace.span("core.canonical.form"):
        canonical_form(problem.instance)
    with trace.span("bounds.lower_bound"):
        lower_bound_for(problem)
    with trace.span("api.serialization.encode"):
        text = to_json(result)
    with trace.span("api.serialization.decode"):
        from_json(text)
    trace.sample("envelope_bytes", len(text.encode("utf-8")))
    portfolio = result.extra["portfolio"]
    deadline_kill = False
    for member in portfolio["members"]:
        if member["wall_time"] is not None:
            kind = "exact_ms" if member["name"] in EXACT_MEMBERS else "heuristic_ms"
            trace.sample(kind, member["wall_time"] * 1e3)
        if member["state"] == "killed":
            trace.count("members_killed")
            deadline_kill |= member["kill_reason"] == "deadline"
    if portfolio["preemptive"] and deadline_kill:
        trace.sample("teardown_ms", (wall - budget) * 1e3)
    trace.count("exact_wins", portfolio["winner"] in EXACT_MEMBERS)
