"""Public-path benchmark: one workload per invocation, one JSON line out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20     # every workload, both passes

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice on fresh inputs: untraced for a third
of the time, then traced for as many operations, and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is the result object; the
lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (name, unit, better) of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
)

#: (name, unit, better) of every per-layer metric.  A workload that never
#: reaches a layer reports 0 for it.
PER_LAYER = (
    ("api.problem.validate_us_p50", "us", "lower"),
    ("api.serialization.encode_us_p50", "us", "lower"),
    ("api.serialization.decode_us_p50", "us", "lower"),
    ("api.serialization.envelope_bytes_p50", "bytes", "lower"),
    ("core.canonical.form_us_p50", "us", "lower"),
    ("core.canonical.distinct_share", "share", "higher"),
    ("api.solvers.mem_hit_ratio", "share", "higher"),
    ("api.solvers.fresh_solves_per_problem", "ratio", "lower"),
    ("api.solvers.replay_us_p50", "us", "lower"),
    ("runtime.diskcache.hits", "count", "higher"),
    ("runtime.diskcache.misses", "count", "lower"),
    ("runtime.diskcache.writes", "count", "lower"),
    ("runtime.diskcache.get_us_p50", "us", "lower"),
    ("runtime.diskcache.put_us_p50", "us", "lower"),
    ("runtime.stream.dedupe_saved_share", "share", "higher"),
    ("runtime.pool.spawned", "count", "lower"),
    ("runtime.pool.killed", "count", "lower"),
    ("runtime.pool.dispatch_us_per_task", "us", "lower"),
    ("runtime.pool.pickled_bytes_p50", "bytes", "lower"),
    ("api.decomposition.detect_ms", "ms", "lower"),
    ("api.decomposition.decomposed_share", "share", "higher"),
    ("api.decomposition.component_solves", "count", "lower"),
    ("api.decomposition.merge_fallbacks", "count", "lower"),
    ("core.interval_dp.engine_ms_p50", "ms", "lower"),
    ("core.interval_dp.facade_overhead_ms_p50", "ms", "lower"),
    ("core.interval_dp.states_computed", "count", "lower"),
    ("core.interval_dp.states_per_s", "1/s", "higher"),
    ("core.interval_dp.memo_hits", "count", "higher"),
    ("core.interval_dp.dominance_dropped", "count", "higher"),
    ("core.interval_dp.hall_pruned", "count", "higher"),
    ("core.vector_kernels.vector_node_share", "share", "higher"),
    ("core.vector_kernels.vector_splits", "count", "higher"),
    ("bounds.lower_bound_ms_p50", "ms", "lower"),
    ("core.list_heuristics.member_ms_p50", "ms", "lower"),
    ("portfolio.race.teardown_ms_p50", "ms", "lower"),
    ("portfolio.race.members_killed", "count", "lower"),
    ("portfolio.race.exact_win_share", "share", "higher"),
    ("verify.certificates.certify_ms_p50", "ms", "lower"),
    ("service.server.submit_ms_p50", "ms", "lower"),
    ("service.queue.wait_ms_p50", "ms", "lower"),
    ("service.queue.wait_ms_p90", "ms", "lower"),
    ("service.daemon.run_ms_p50", "ms", "lower"),
    ("service.daemon.rounds", "count", "lower"),
    ("service.stats.backlog_max", "count", "lower"),
    ("service.admission.denied", "count", "lower"),
    # workload-specific end-to-end figures, measured on the untraced pass
    ("svc_ms_p50.heavy", "ms", "lower"),
    ("svc_ms_p90.heavy", "ms", "lower"),
    ("svc_max_rps", "1/s", "higher"),
    ("certified_ratio_geomean", "ratio", "lower"),
    ("budget_miss_share", "share", "lower"),
    ("overrun_ms_p50", "ms", "lower"),
    ("bench.generator_late_ms_max", "ms", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.reference_kernel_ms", "ms", "lower"),
)

#: The end-to-end figures of the untraced pass that feed ``PER_LAYER``.
_UNTRACED_FIGURES = (
    "svc_ms_p50.heavy", "svc_ms_p90.heavy", "svc_max_rps",
    "certified_ratio_geomean", "budget_miss_share", "overrun_ms_p50",
    "bench.generator_late_ms_max",
)

WORKLOADS = ("exact-cold", "stream-dup", "service-open", "budget-race")
#: The workloads ``BENCHMARK.json`` lists.  ``stream-dup`` and
#: ``service-open`` still run on request, but their figures swing with the
#: host's load by more than any bound allows: the traced run of
#: ``exact-cold`` carries the stream and pool layers, and that of
#: ``budget-race`` the service layers.
GATED_WORKLOADS = ("exact-cold", "budget-race")


def _module(workload: str):
    return importlib.import_module("perfbench." + workload.replace("-", "_"))


class Context:
    """What one run shares across its passes: inputs, gate, scratch space."""

    def __init__(self, seed: int, work) -> None:
        from . import gen
        from .common import Gate

        self.root = ROOT
        self.work = work
        self.inputs = gen.Inputs(seed)
        self.gate = Gate()
        self.workers = len(os.sched_getaffinity(0))
        #: A service started during set-up, handed to the first pass.
        self.server = None
        self._repetition = 0

    def repetition(self) -> int:
        """The next repetition number; each draws fresh inputs."""
        self._repetition += 1
        return self._repetition


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.runtime import shutdown_worker_pool

    from .common import Trace, WorkDir, percentile
    from .pace import helper_kernel_ms, stop_helper

    module = _module(workload)
    work = WorkDir(ROOT)
    ctx = Context(seed, work)
    gate = ctx.gate
    try:
        setup = None if trace else module.setup_s(ctx)
        module.warm_up(ctx)
        untraced = module.run_pass(ctx, Trace(False), seconds / 3 if trace else seconds, gate)
        kernel_ms = untraced.get("kernel_ms") or helper_kernel_ms(20)
        rss = untraced["rss_mb"]
        if trace:
            # The traced pass repeats as many operations on fresh inputs, so
            # the overhead compares like with like; the probes it adds make
            # it slower, hence the larger share of the time.
            tracer = Trace(True)
            gate.trace = tracer
            traced = module.run_pass(
                ctx, tracer, 2 * seconds / 3, gate, limit=untraced["operations"]
            )
    finally:
        shutdown_worker_pool()
        stop_helper()
        work.close()
    report = dict(untraced["report"])
    report["failed_share"] = gate.failed / gate.attempted if gate.attempted else 0.0
    report["reference_kernel_ms"] = kernel_ms
    if not trace:
        report["setup_s"] = setup
        report["peak_rss_mb"] = rss
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": rss,
            "latency_ms_p50": percentile(untraced["latency_ms"], 50),
            "latency_ms_p90": percentile(untraced["latency_ms"], 90),
            "throughput_per_s": untraced["throughput_per_s"],
        }
        units = {name: unit for name, unit, _better in END_TO_END}
    else:
        metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
        metrics.update(traced["layers"])
        keys = [key for block in traced["keys"] for key in block]
        metrics["core.canonical.distinct_share"] = len(set(keys)) / len(keys)
        metrics["verify.certificates.certify_ms_p50"] = tracer.p50("verify.certificates.certify", "ms")
        for name in _UNTRACED_FIGURES:
            if name in untraced["report"]:
                metrics[name] = untraced["report"][name]
        metrics["bench.trace_overhead_share"] = (
            traced["headline_cost"] / untraced["headline_cost"] - 1.0
        )
        metrics["bench.reference_kernel_ms"] = kernel_ms
        units = {name: unit for name, unit, _better in PER_LAYER}
        unknown = set(metrics) - set(units)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {
        "report": report,
        "result": {
            "correct": gate.correct,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        },
        "issues": gate.issues,
    }


def _report_unit(name: str) -> str:
    """The unit of a report line, read off its name."""
    for marker, unit in (("_ms", "ms"), ("_mb", "MB"), ("share", "share"),
                         ("ratio", "ratio"), ("rps", "1/s"), ("per_s", "1/s"), ("_s", "s")):
        if marker in name:
            return unit
    return "count"


def _print_report(workload: str, outcome: dict) -> None:
    print(f"== {workload}")
    for name, value in sorted(outcome["report"].items()):
        print(f"  {name:<28} {value:.6g} {_report_unit(name)}")
    for issue in outcome["issues"]:
        print(f"  FAILED: {issue}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")


def _run_all(seconds: int, seed: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                cwd=ROOT,
            )
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both passes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.all:
        return _run_all(int(args.seconds), args.seed)
    if args.workload is None:
        parser.error("pass --workload NAME or --all")
    started = time.perf_counter()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(args.workload, outcome)
    print(f"  wall {time.perf_counter() - started:.1f}s")
    print(json.dumps(outcome["result"], sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    # Run as a script, this file is not yet the ``perfbench.run`` module
    # that the workloads' relative imports need; hand over to that module.
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    for variable in ("REPRO_BACKEND", "REPRO_CACHE_DIR"):
        os.environ.pop(variable, None)
    from perfbench.run import main as _main

    sys.exit(_main())
