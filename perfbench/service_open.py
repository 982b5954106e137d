"""``service-open``: an open loop of HTTP requests against ``repro-sched serve``.

The server runs as a child process with the process backend, nproc
workers, a fresh disk tier and its default admission settings.  One
submitting thread follows a fixed ladder of rates, spreading requests
over eight client ids.  Most requests are small distinct problems, a
fifth are isomorphic re-submissions, and about 3% are medium-sized (kept
well away from 10%, where p90 would sit on the boundary between the two
size classes).

Latency runs from each request's *scheduled* send time to the server's
``finished_at``, so a stalled generator or server charges every later
request.  The job records are fetched only after each rung has drained.
"""

from __future__ import annotations

import threading
import time
import urllib.error

from repro.api import from_dict, from_json, to_json
from repro.core.canonical import canonical_form
from repro.service import ServiceClient, ServiceError

from . import gen, startup
from .common import Trace, peak_rss_mb, percentile, share

NAME = "service-open"
#: Offered rates (requests/s), lowest first; every rung sends the same count.
RUNGS = (10, 20, 40, 80, 160)
#: The rungs of the ``svc_ms_*.light`` and ``.heavy`` figures; the
#: end-to-end latency pools every rung up to ``HEAVY``.
LIGHT, HEAVY = 10, 40
#: A rung is sustained when its p90 stays within this limit and its last
#: quarter shows no growing backlog.
LIMIT_MS = 250.0
CLIENTS = 8
#: Every ``MEDIUM_EVERY``-th request is medium-sized (about 3%).
MEDIUM_EVERY = 32
#: Seconds a set-up job, or a rung after its last send, may take to drain.
DRAIN_TIMEOUT = 10.0


def make_rung(ctx, rng, count: int) -> list:
    problems = []
    smalls = []
    for i in range(count):
        objective = ("gaps", "power")[i % 2]
        if i % MEDIUM_EVERY == MEDIUM_EVERY // 2:
            problems.append(ctx.inputs.fresh(
                lambda: gen.problem(objective, gen.uniform(rng, rng.randint(24, 30), 2))))
        elif i % 5 == 4:
            problems.append(gen.isomorphic_copy(rng, rng.choice(smalls)))
        else:
            small = ctx.inputs.fresh(
                lambda: gen.problem(objective, gen.uniform(rng, rng.randint(8, 14), 2)))
            smalls.append(small)
            problems.append(small)
    return problems


def _tiny_jobs(ctx, count: int):
    """Submit ``count`` tiny fresh jobs and wait for the server to drain.

    One job is the set-up's first request; a burst of two per worker
    reaches every pool worker, so a stuck one shows before timing starts.
    """
    def serve(server) -> None:
        rng = ctx.inputs.rng(NAME, 0)
        client = ServiceClient(server.url, client_id="setup")
        for _ in range(count):
            client.submit(ctx.inputs.fresh(lambda: gen.problem("gaps", gen.uniform(rng, 8, 2))))
        if not server.wait_drained(DRAIN_TIMEOUT):
            raise startup.Wedged(f"{count} set-up job(s) never finished")
    return serve


def _on_wedge(ctx):
    return lambda reason: ctx.gate.lost(f"service wedged: {reason}")


def setup_s(ctx) -> float:
    ctx.server, elapsed = startup.service_setup_s(
        ctx, _tiny_jobs(ctx, 1), _tiny_jobs(ctx, 2 * ctx.workers), _on_wedge(ctx))
    return elapsed


def warm_up(ctx) -> None:
    """Nothing to warm: the set-up already served a first job on every server."""


class _BacklogSampler(threading.Thread):
    """Samples ``queue_depth`` from ``/v1/stats`` while a rung runs (traced pass)."""

    def __init__(self, server) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.stop_event = threading.Event()
        self.depths = [0]

    def run(self) -> None:
        while not self.stop_event.wait(0.05):
            try:
                self.depths.append(self.server.get("/v1/stats")["service"]["queue_depth"])
            except (urllib.error.URLError, OSError):
                pass


def _run_rung(server, rate, problems, trace, gate) -> dict:
    """Send one rung on schedule, let it drain, then read the job records."""
    clients = [ServiceClient(server.url, client_id=f"client-{k}") for k in range(CLIENTS)]
    sampler = None
    if trace.enabled:
        sampler = _BacklogSampler(server)
        sampler.start()
    epoch = time.time() - time.perf_counter()
    first = time.perf_counter() + 0.05
    sent = []  # (scheduled epoch, job id, problem)
    late_ms = 0.0
    for i, problem in enumerate(problems):
        due = first + i / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        late_ms = max(late_ms, (time.perf_counter() - due) * 1e3)
        try:
            with trace.span("service.server.submit"):
                job = clients[i % CLIENTS].submit(problem)
        except ServiceError as exc:
            gate.lost(f"submit refused: HTTP {exc.status}")
            continue
        sent.append((epoch + due, job, problem))
    drained = server.wait_drained(DRAIN_TIMEOUT)
    if sampler is not None:
        sampler.stop_event.set()
        sampler.join()
        trace.sample("backlog", max(sampler.depths))
    latencies = []
    finishes = []
    for due, job, problem in sent:
        record = server.get(f"/v1/jobs/{job}")
        if record["finished_at"] is None:
            gate.lost("timed out")
            continue
        payload = server.get(f"/v1/jobs/{job}/result")
        if payload.get("result") is None:
            gate.lost(f"job {record['state']}: {payload.get('error')}")
            continue
        result = from_dict(payload["result"])
        if gate.check(problem, result):
            latencies.append((record["finished_at"] - due) * 1e3)
            finishes.append(record["finished_at"])
        if trace.enabled:
            trace.sample("queue_wait_ms", (record["started_at"] - record["submitted_at"]) * 1e3)
            trace.sample("run_ms", (record["finished_at"] - record["started_at"]) * 1e3)
            with trace.span("api.serialization.encode"):
                text = to_json(result)
            with trace.span("api.serialization.decode"):
                from_json(text)
            trace.sample("envelope_bytes", len(text.encode("utf-8")))
            with trace.span("core.canonical.form"):
                canonical_form(problem.instance)
    tail = latencies[len(latencies) * 3 // 4:]
    sustained = (
        len(latencies) == len(problems)
        and percentile(latencies, 90) <= LIMIT_MS
        and percentile(tail, 50) <= LIMIT_MS
    )
    span = max(finishes) - (epoch + first) if finishes else 0.0
    return {
        "drained": drained,
        "latency_ms": latencies,
        "late_ms": late_ms,
        "sustained": sustained,
        "completed_per_s": share(len(finishes), span),
    }


def _counters(server) -> dict:
    """The cumulative ``/v1/stats`` counters the traced pass reports."""
    stats = server.get("/v1/stats")
    flat = {
        "service.daemon.rounds": stats["service"]["scheduler"]["rounds"],
        "service.admission.denied": sum(stats["service"]["admission"]["denied"].values()),
    }
    flat.update(("engine." + name, value) for name, value in stats["engine"].items())
    return flat


def _start(ctx, attempts: int = startup.SETUP_REPEATS):
    return startup.start_verified_server(
        ctx, _tiny_jobs(ctx, 1), _tiny_jobs(ctx, 2 * ctx.workers), _on_wedge(ctx), attempts)[0]


def run_pass(ctx, trace, seconds: float, gate, limit=None,
             start_attempts: int = startup.SETUP_REPEATS) -> dict:
    per_rung = limit // len(RUNGS) if limit else int(seconds / sum(1.0 / r for r in RUNGS))
    server, ctx.server = ctx.server or _start(ctx, start_attempts), None
    totals: dict = {}
    rungs = {}
    keys = []
    rss = 0.0

    def bank(server) -> None:
        for name, value in _counters(server).items():
            totals[name] = totals.get(name, 0) + value - before.get(name, 0)

    try:
        before = _counters(server)
        for rate in RUNGS:
            problems = make_rung(ctx, ctx.inputs.rng(NAME, ctx.repetition()), per_rung)
            keys.append([gen.cache_key(p) for p in problems])
            rungs[rate] = _run_rung(server, rate, problems, trace, gate)
            rss = max(rss, peak_rss_mb())
            if not rungs[rate]["drained"]:
                # A wedged server never recovers: its lost jobs are counted,
                # and the remaining rungs run on a fresh one.
                bank(server)
                server.stop()
                server = _start(ctx, start_attempts)
                before = _counters(server)
        bank(server)
    finally:
        server.stop()
    light = [ms for rate in RUNGS if rate <= HEAVY for ms in rungs[rate]["latency_ms"]]
    max_rps = max([rate for rate in RUNGS if rungs[rate]["sustained"]], default=0)
    out = {
        "latency_ms": light,
        "throughput_per_s": rungs[RUNGS[-1]]["completed_per_s"],
        "operations": per_rung * len(RUNGS),
        "headline_cost": percentile(light, 50),
        "keys": keys,
        "rss_mb": rss,
        "report": {
            "svc_max_rps": max_rps,
            "requests_per_rung": per_rung,
            "bench.generator_late_ms_max": max(r["late_ms"] for r in rungs.values()),
        },
    }
    for label, rate in (("light", LIGHT), ("heavy", HEAVY)):
        out["report"][f"svc_ms_p50.{label}"] = percentile(rungs[rate]["latency_ms"], 50)
        out["report"][f"svc_ms_p90.{label}"] = percentile(rungs[rate]["latency_ms"], 90)
    for rate in RUNGS:
        out["report"][f"svc_ms_p90@{rate}"] = percentile(rungs[rate]["latency_ms"], 90)
    if trace.enabled:
        vector = totals.get("engine.vector_nodes", 0)
        out["layers"] = {
            "api.serialization.encode_us_p50": trace.p50("api.serialization.encode", "us"),
            "api.serialization.decode_us_p50": trace.p50("api.serialization.decode", "us"),
            "api.serialization.envelope_bytes_p50": percentile(trace.samples["envelope_bytes"], 50),
            "core.canonical.form_us_p50": trace.p50("core.canonical.form", "us"),
            "core.interval_dp.states_computed": totals.get("engine.states_computed", 0),
            "core.interval_dp.memo_hits": totals.get("engine.memo_hits", 0),
            "core.interval_dp.dominance_dropped": totals.get("engine.dominance_dropped", 0),
            "core.interval_dp.hall_pruned": totals.get("engine.hall_pruned", 0),
            "core.vector_kernels.vector_node_share": share(
                vector, vector + totals.get("engine.vector_fallback_nodes", 0)),
            "core.vector_kernels.vector_splits": totals.get("engine.vector_splits", 0),
            "service.server.submit_ms_p50": trace.p50("service.server.submit", "ms"),
            "service.queue.wait_ms_p50": percentile(trace.samples["queue_wait_ms"], 50),
            "service.queue.wait_ms_p90": percentile(trace.samples["queue_wait_ms"], 90),
            "service.daemon.run_ms_p50": percentile(trace.samples["run_ms"], 50),
            "service.daemon.rounds": totals["service.daemon.rounds"],
            "service.stats.backlog_max": max(trace.samples["backlog"]),
            "service.admission.denied": totals["service.admission.denied"],
        }
    return out


#: What a gated workload's traced run takes from :func:`probe`.
PROBE_FIGURES = ("svc_ms_p50.heavy", "svc_ms_p90.heavy", "svc_max_rps",
                 "bench.generator_late_ms_max")
#: Seconds of the probe's ladder (about 30 requests a rung).
PROBE_SECONDS = 6.0
#: Server starts the probe tries before it gives up (each wedge is a failed
#: operation); this keeps the traced run well inside its time limit.
PROBE_START_ATTEMPTS = 3


def probe(ctx, gate) -> dict:
    """The service and serialisation layers, from a short traced ladder.

    This workload is not in ``BENCHMARK.json`` (an open loop on a shared
    host queues by more than any bound allows), so a gated workload's
    traced run carries the layers that only the service reaches.
    """
    try:
        out = run_pass(ctx, Trace(True), PROBE_SECONDS, gate,
                       start_attempts=PROBE_START_ATTEMPTS)
    except startup.Wedged:
        return {}  # the service layers read 0; the wedges count as failed
    layers = {
        name: value for name, value in out["layers"].items()
        if name.startswith(("service.", "api.serialization."))
    }
    layers.update((name, out["report"][name]) for name in PROBE_FIGURES)
    return layers
