"""``exact-cold``: one caller, ``solve(Problem(...))`` on distinct instances.

Closed loop.  Each repetition draws a block of fresh problems and points
the disk tier at a fresh directory, so every solve misses both cache tiers
and takes the write path: the interval-DP engine does nearly all the work.
Solve times are scaled to the reference host (:mod:`perfbench.pace`); the
report prints them unscaled too.
"""

from __future__ import annotations

import time

from repro.api import (
    Problem,
    clear_solve_cache,
    decomposition_stats,
    from_json,
    solve,
    solve_cache_stats,
    to_json,
)
from repro.core.canonical import canonical_form
from repro.core.multiproc_gap_dp import MultiprocessorGapSolver
from repro.core.multiproc_power_dp import MultiprocessorPowerSolver
from repro.runtime import DiskSolveCache, configure_disk_cache, get_disk_cache

from . import gen, startup, stream_dup
from .common import peak_rss_mb, percentile, share
from .pace import Pace

NAME = "exact-cold"
#: (kind, processors, jobs) of each problem of a block, cheapest group first.
#: Every block holds this mix and only the windows vary between seeds.
#: The groups are sized so that p50 falls in the middle of the 20
#: mid-sized problems and p90 in the middle of the 10 large ones: a
#: percentile on the boundary between two size classes would jump from
#: run to run.  Each of those two groups is a single size class, so the
#: median of its few hundred samples a run is steady.
MIX = (
    # 15 cheap: one in ten clustered (Hall pruning engages), one in ten
    # splittable (decomposition engages), five small uniform
    *(("clustered", p, n) for p, n in ((2, 24), (3, 28), (2, 32), (3, 36), (2, 40))),
    *(("splittable", p, n) for p, n in ((3, 24), (2, 28), (3, 32), (2, 36), (3, 40))),
    *(("uniform", 2, n) for n in (16, 18, 20, 22, 24)),
    # 20 mid-sized, alike in cost
    *(("uniform", 2, 30) for _ in range(10)),
    *(("uniform", 3, 21) for _ in range(10)),
    # 5 between
    *(("uniform", 2, n) for n in (37, 38, 39, 40)),
    ("uniform", 3, 25),
    # 10 large, several times slower than the rest
    *(("uniform", 3, 35) for _ in range(10)),
)
#: Problems per repetition (each repetition gets a fresh disk tier).
BLOCK = len(MIX)


def make_problem(rng, index: int) -> Problem:
    """The ``index``-th problem of a block; the objectives alternate."""
    kind, p, n = MIX[index % BLOCK]
    objective = ("gaps", "power")[index % 2]
    return gen.problem(objective, getattr(gen, kind)(rng, n, p))


def setup_s(ctx) -> float:
    return startup.library_setup_s(ctx, "exact")


def warm_up(ctx) -> None:
    """One untimed solve so the numpy/kernel import is not timed."""
    configure_disk_cache(ctx.work.fresh("warmup"))
    rng = ctx.inputs.rng(NAME, 0)
    solve(ctx.inputs.fresh(lambda: make_problem(rng, 0)))


def _bare_engine(problem: Problem):
    if problem.objective == "gaps":
        solver = MultiprocessorGapSolver(problem.instance)
    else:
        solver = MultiprocessorPowerSolver(problem.instance, alpha=problem.alpha)
    solver.solve()
    return solver.engine_metadata()["stats"]


class Layers:
    """Per-layer probes of the traced pass (all calls outside the timed solve)."""

    ENGINE_COUNTERS = ("states_computed", "memo_hits", "dominance_dropped", "hall_pruned",
                       "vector_nodes", "vector_fallback_nodes", "vector_splits")

    def __init__(self, ctx, trace) -> None:
        self.trace = trace
        self.probe_disk = DiskSolveCache(ctx.work.fresh("disk-probe"))
        self.facade_minus_engine = []
        self.engine_states = 0
        self.problems = 0
        self.cache = {"hits": 0, "misses": 0, "fresh_solves": 0}

    def before(self, problem: Problem) -> None:
        trace = self.trace
        with trace.span("api.problem.validate"):
            Problem(objective=problem.objective, instance=problem.instance, alpha=problem.alpha)
        with trace.span("core.canonical.form"):
            canonical_form(problem.instance)
        self.stats_before = solve_cache_stats()

    def after(self, problem: Problem, result, solve_s: float) -> None:
        trace = self.trace
        stats = solve_cache_stats()
        for key in self.cache:
            self.cache[key] += stats[key] - self.stats_before[key]
        self.problems += 1
        engine = (result.extra.get("engine") or {}).get("stats", {})
        for key in self.ENGINE_COUNTERS:
            trace.count("engine." + key, engine.get(key, 0))
        t0 = time.perf_counter()
        with trace.span("core.interval_dp.engine"):
            bare = _bare_engine(problem)
        engine_s = time.perf_counter() - t0
        self.engine_states += bare["states_computed"]
        trace.count("engine.bare_seconds", engine_s)
        self.facade_minus_engine.append((solve_s - engine_s) * 1e3)
        with trace.span("api.solvers.replay"):
            solve(problem)
        with trace.span("api.serialization.encode"):
            text = to_json(result)
        with trace.span("api.serialization.decode"):
            from_json(text)
        trace.sample("envelope_bytes", len(text.encode("utf-8")))
        key = ("perfbench", self.problems)
        assignment = tuple(sorted(
            (job, slot[1] if isinstance(slot, tuple) else slot)
            for job, slot in result.schedule.assignment.items()
        ))
        entry = (True, result.value, assignment, result.extra.get("engine"))
        with trace.span("runtime.diskcache.put"):
            self.probe_disk.put(key, entry)
        with trace.span("runtime.diskcache.get"):
            self.probe_disk.get(key)

    def metrics(self, decomposition: dict, disk: dict) -> dict:
        trace = self.trace
        c = trace.counters
        vector = c.get("engine.vector_nodes", 0)
        return {
            "api.problem.validate_us_p50": trace.p50("api.problem.validate", "us"),
            "core.canonical.form_us_p50": trace.p50("core.canonical.form", "us"),
            "api.serialization.encode_us_p50": trace.p50("api.serialization.encode", "us"),
            "api.serialization.decode_us_p50": trace.p50("api.serialization.decode", "us"),
            "api.serialization.envelope_bytes_p50": percentile(trace.samples.get("envelope_bytes", []), 50),
            "api.solvers.mem_hit_ratio": share(self.cache["hits"], self.cache["hits"] + self.cache["misses"]),
            "api.solvers.fresh_solves_per_problem": share(self.cache["fresh_solves"], self.problems),
            "api.solvers.replay_us_p50": trace.p50("api.solvers.replay", "us"),
            "runtime.diskcache.hits": disk["hits"],
            "runtime.diskcache.misses": disk["misses"],
            "runtime.diskcache.writes": disk["writes"],
            "runtime.diskcache.get_us_p50": trace.p50("runtime.diskcache.get", "us"),
            "runtime.diskcache.put_us_p50": trace.p50("runtime.diskcache.put", "us"),
            "api.decomposition.detect_ms": decomposition["detect_seconds"] * 1e3,
            "api.decomposition.decomposed_share": share(decomposition["decomposed"], self.problems),
            "api.decomposition.component_solves": decomposition["component_solves"],
            "api.decomposition.merge_fallbacks": decomposition["merge_fallbacks"],
            "core.interval_dp.engine_ms_p50": trace.p50("core.interval_dp.engine", "ms"),
            "core.interval_dp.facade_overhead_ms_p50": percentile(self.facade_minus_engine, 50),
            "core.interval_dp.states_computed": c.get("engine.states_computed", 0),
            "core.interval_dp.states_per_s": share(self.engine_states, c.get("engine.bare_seconds", 0)),
            "core.interval_dp.memo_hits": c.get("engine.memo_hits", 0),
            "core.interval_dp.dominance_dropped": c.get("engine.dominance_dropped", 0),
            "core.interval_dp.hall_pruned": c.get("engine.hall_pruned", 0),
            "core.vector_kernels.vector_node_share": share(vector, vector + c.get("engine.vector_fallback_nodes", 0)),
            "core.vector_kernels.vector_splits": c.get("engine.vector_splits", 0),
        }


def run_pass(ctx, trace, seconds: float, gate, limit=None) -> dict:
    latencies = []
    pace = Pace()
    layers = Layers(ctx, trace) if trace.enabled else None
    decomposition_before = decomposition_stats()
    disk_totals = {"hits": 0, "misses": 0, "writes": 0}
    keys = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and len(latencies) != limit:
        repetition = ctx.repetition()
        rng = ctx.inputs.rng(NAME, repetition)
        clear_solve_cache()
        configure_disk_cache(ctx.work.fresh("exact"))
        problems = [ctx.inputs.fresh(lambda: make_problem(rng, i)) for i in range(BLOCK)]
        keys.append([gen.cache_key(p) for p in problems])
        answered = []
        for problem in problems:
            if time.perf_counter() - start >= seconds or len(latencies) == limit:
                break
            if layers:
                layers.before(problem)
            with trace.span("solve"):
                t0 = time.perf_counter()
                result = solve(problem)
                elapsed = time.perf_counter() - t0
            latencies.append(elapsed * 1e3)
            answered.append((problem, result))
            if layers:
                layers.after(problem, result, elapsed)
            pace.mark()
        counters = get_disk_cache().counters()
        for key in disk_totals:
            disk_totals[key] += counters[key]
        for problem, result in answered:
            gate.check(problem, result)
    decomposition = {
        key: value - decomposition_before[key]
        for key, value in decomposition_stats().items()
        if isinstance(value, (int, float))
    }
    # One caller: every solve's wall time is the program's own work.
    scaled = [pace.scale(i, ms) for i, ms in enumerate(latencies)]
    out = {
        "latency_ms": scaled,
        "throughput_per_s": share(len(scaled), sum(scaled) / 1e3),
        "operations": len(latencies),
        "headline_cost": percentile(latencies, 50),
        "keys": keys,
        "rss_mb": peak_rss_mb(),
        "kernel_ms": pace.median_ms,
        "report": {
            "solve_ms_p50": percentile(latencies, 50),
            "solve_ms_p90": percentile(latencies, 90),
            "solves_per_s": share(len(latencies), sum(latencies) / 1e3),
            "solves": len(latencies),
        },
    }
    if layers:
        out["layers"] = layers.metrics(decomposition, disk_totals)
        out["layers"].update(stream_dup.pool_probe(ctx, gate))
    return out
