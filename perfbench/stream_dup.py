"""``stream-dup``: ``solve_stream`` batches full of isomorphic duplicates.

Closed loop, one caller.  Each repetition is one batch on the ``process``
backend (workers = nproc), split over consecutive sessions, with the disk
tier on a fresh directory.  About a quarter of the batch are distinct
small bases; the rest are shifted, job-permuted copies of them.  The
cache reads, in-flight dedupe, canonicalisation and pool dispatch do most
of the work; the engine does little.
"""

from __future__ import annotations

import pickle
import time

from repro.api import clear_solve_cache, from_json, solve_cache_stats, to_json
from repro.core.canonical import canonical_form
from repro.runtime import configure_disk_cache, get_disk_cache, solve_stream, worker_pool_stats

from . import gen, startup
from .common import peak_rss_mb, percentile, share

NAME = "stream-dup"
#: Distinct bases per batch; each gets ``COPIES`` isomorphic copies.
BASES = 48
COPIES = 3
#: Consecutive ``solve_stream`` sessions per batch.
SESSIONS = 3


#: Job counts of the bases, cycled.
SIZES = (8, 10, 12, 14, 16)


def make_base(rng, index: int):
    objective = ("gaps", "power")[index % 2]
    return gen.problem(objective, gen.uniform(rng, SIZES[index % len(SIZES)], 2))


def make_batch(ctx, repetition: int) -> list:
    rng = ctx.inputs.rng(NAME, repetition)
    bases = [ctx.inputs.fresh(lambda: make_base(rng, i)) for i in range(BASES)]
    batch = bases + [
        gen.isomorphic_copy(rng, base) for base in bases for _ in range(COPIES)
    ]
    rng.shuffle(batch)
    return batch


def sessions_of(batch: list) -> list:
    size = -(-len(batch) // SESSIONS)
    return [batch[i:i + size] for i in range(0, len(batch), size)]


def setup_s(ctx) -> float:
    return startup.library_setup_s(ctx, "stream")


def warm_up(ctx) -> None:
    """Fork the warm pool once so the first timed session does not pay for it."""
    configure_disk_cache(ctx.work.fresh("warmup"))
    rng = ctx.inputs.rng(NAME, 0)
    list(solve_stream([ctx.inputs.fresh(lambda: make_base(rng, 0))],
                      backend="process", workers=ctx.workers))


def stream(ctx, batch: list, backend: str, trace, latencies: list) -> tuple:
    """Run ``batch`` session by session; returns (results, wall seconds)."""
    results = []
    wall = 0.0
    for chunk in sessions_of(batch):
        with trace.span("runtime.stream.session"):
            t0 = time.perf_counter()
            for result in solve_stream(chunk, backend=backend, workers=ctx.workers):
                latencies.append((time.perf_counter() - t0) * 1e3)
                results.append(result)
            wall += time.perf_counter() - t0
    return results, wall


def _fresh_tiers(ctx) -> None:
    clear_solve_cache()
    configure_disk_cache(ctx.work.fresh("stream"))


def run_pass(ctx, trace, seconds: float, gate, limit=None) -> dict:
    latencies = []
    keys = []
    problems_done = 0
    wall = 0.0
    rss = 0.0
    layers = {"process_wall": 0.0, "serial_wall": 0.0, "tasks": 0, "fresh": 0,
              "hits": 0, "misses": 0, "disk": {"hits": 0, "misses": 0, "writes": 0}}
    pool_before = worker_pool_stats()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and problems_done != limit:
        batch = make_batch(ctx, ctx.repetition())
        keys.append([gen.cache_key(p) for p in batch])
        _fresh_tiers(ctx)
        results, elapsed = stream(ctx, batch, "process", trace, latencies)
        wall += elapsed
        problems_done += len(batch)
        rss = max(rss, peak_rss_mb())
        for problem, result in zip(batch, results):
            gate.check(problem, result)
        if trace.enabled:
            _probe(ctx, trace, batch, results, elapsed, layers)
    pool_after = worker_pool_stats()
    out = {
        "latency_ms": latencies,
        "throughput_per_s": share(problems_done, wall),
        "operations": problems_done,
        "headline_cost": share(wall, problems_done),
        "keys": keys,
        "rss_mb": rss,
        "report": {
            "problems_per_s": share(problems_done, wall),
            "problems": problems_done,
        },
    }
    if trace.enabled:
        tasks = layers["tasks"]
        out["layers"] = {
            "api.problem.validate_us_p50": trace.p50("api.problem.validate", "us"),
            "core.canonical.form_us_p50": trace.p50("core.canonical.form", "us"),
            "api.serialization.encode_us_p50": trace.p50("api.serialization.encode", "us"),
            "api.serialization.decode_us_p50": trace.p50("api.serialization.decode", "us"),
            "api.serialization.envelope_bytes_p50": percentile(trace.samples["envelope_bytes"], 50),
            "api.solvers.mem_hit_ratio": share(layers["hits"], layers["hits"] + layers["misses"]),
            "api.solvers.fresh_solves_per_problem": share(layers["fresh"], tasks),
            "api.solvers.replay_us_p50": trace.p50("api.solvers.replay", "us"),
            "runtime.diskcache.hits": layers["disk"]["hits"],
            "runtime.diskcache.misses": layers["disk"]["misses"],
            "runtime.diskcache.writes": layers["disk"]["writes"],
            "runtime.stream.dedupe_saved_share": 1.0 - share(layers["fresh"], tasks),
            "runtime.pool.spawned": pool_after["spawned"] - pool_before["spawned"],
            "runtime.pool.killed": pool_after["killed"] - pool_before["killed"],
            "runtime.pool.dispatch_us_per_task": share(
                layers["process_wall"] - layers["serial_wall"], tasks) * 1e6,
            "runtime.pool.pickled_bytes_p50": percentile(trace.samples["pickled_bytes"], 50),
        }
    return out


def _probe(ctx, trace, batch, results, process_wall, layers) -> None:
    """Layer probes: serial re-run of the batch for the parent-side counters."""
    from repro.api import Problem, solve

    for problem, result in zip(batch, results):
        with trace.span("api.problem.validate"):
            Problem(objective=problem.objective, instance=problem.instance, alpha=problem.alpha)
        with trace.span("core.canonical.form"):
            canonical_form(problem.instance)
        trace.sample("pickled_bytes", len(pickle.dumps(problem)) + len(pickle.dumps(result)))
        with trace.span("api.serialization.encode"):
            text = to_json(result)
        with trace.span("api.serialization.decode"):
            from_json(text)
        trace.sample("envelope_bytes", len(text.encode("utf-8")))
    # The same batch on the serial backend, against fresh tiers: its cache
    # counters live in this process, where pool workers' counters do not.
    _fresh_tiers(ctx)
    _results, serial_wall = stream(ctx, batch, "serial", trace, [])
    stats = solve_cache_stats()
    disk = get_disk_cache().counters()
    layers["serial_wall"] += serial_wall
    layers["process_wall"] += process_wall
    layers["tasks"] += len(batch)
    layers["fresh"] += stats["fresh_solves"]
    layers["hits"] += stats["hits"]
    layers["misses"] += stats["misses"]
    for key in layers["disk"]:
        layers["disk"][key] += disk[key]
    for problem in batch[:4]:
        with trace.span("api.solvers.replay"):
            solve(problem)


#: The per-layer metrics only this workload's traced pass produces.
POOL_LAYERS = (
    "runtime.stream.dedupe_saved_share",
    "runtime.pool.spawned",
    "runtime.pool.killed",
    "runtime.pool.dispatch_us_per_task",
    "runtime.pool.pickled_bytes_p50",
)


def pool_probe(ctx, gate, batches: int = 2) -> dict:
    """A short traced pass, for a gated workload's traced run to carry.

    This workload is not in ``BENCHMARK.json`` (its figures swing with
    the host's load), so the stream and pool layers it alone reaches are
    measured by a couple of its batches instead.
    """
    from .common import Trace

    warm_up(ctx)
    layers = run_pass(ctx, Trace(True), float("inf"), gate, limit=batches * BASES * (1 + COPIES))
    return {name: layers["layers"][name] for name in POOL_LAYERS}
