"""Self-tests of the benchmark: its correctness gate, its inputs, its output.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.api import solve  # noqa: E402

from perfbench import exact_cold, gen, service_open, stream_dup  # noqa: E402
from perfbench.common import Gate  # noqa: E402
from perfbench.pace import REFERENCE_KERNEL_MS, Pace  # noqa: E402
from perfbench.run import END_TO_END, GATED_WORKLOADS, PER_LAYER, Context  # noqa: E402


class _NoWork:
    def fresh(self, label):  # pragma: no cover - generators never ask for scratch space
        raise AssertionError("input generation must not touch the disk")


def test_gate_counts_a_tampered_envelope_as_failed():
    problem = gen.problem("gaps", gen.uniform(gen.Inputs(0).rng("t", 0), 12, 2))
    result = solve(problem)
    gate = Gate()
    assert gate.check(problem, result)
    tampered = copy.deepcopy(result)
    tampered.value += 1
    assert not gate.check(problem, tampered)
    assert (gate.attempted, gate.failed, gate.correct) == (2, 1, False)


def test_gate_counts_a_lost_request_as_failed_but_not_incorrect():
    gate = Gate()
    gate.lost("HTTP 429")
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, True)


def test_pace_scales_only_the_programs_share_of_a_time():
    pace = Pace()
    pace.kernel_ms = [2 * REFERENCE_KERNEL_MS] * 3  # a host at half the reference speed
    assert pace.scale(1, 100.0) == 50.0
    # a race the budget ended after 250 ms: only the 50 ms after it scale
    assert pace.scale(1, 300.0, fixed_ms=250.0) == 275.0


def test_pace_follows_the_kernel_times_around_each_operation():
    pace = Pace()
    pace.kernel_ms = [REFERENCE_KERNEL_MS] * 10 + [2 * REFERENCE_KERNEL_MS] * 10
    assert pace.factor(0) == 1.0
    assert pace.factor(19) == 0.5


def _repetitions(workload: str, count: int = 3) -> list:
    """The key set of each of ``count`` repetitions, drawn as a run draws them."""
    ctx = Context(seed=7, work=_NoWork())
    blocks = []
    for _ in range(count):
        repetition = ctx.repetition()
        rng = ctx.inputs.rng(workload, repetition)
        if workload == exact_cold.NAME:
            problems = [
                ctx.inputs.fresh(lambda: exact_cold.make_problem(rng, i))
                for i in range(exact_cold.BLOCK)
            ]
        elif workload == stream_dup.NAME:
            problems = stream_dup.make_batch(ctx, repetition)
        else:
            problems = service_open.make_rung(ctx, rng, 40)
        blocks.append({gen.cache_key(p) for p in problems})
    return blocks


def test_no_canonical_key_repeats_across_repetitions():
    for workload in (exact_cold.NAME, stream_dup.NAME, service_open.NAME):
        blocks = _repetitions(workload)
        for i, block in enumerate(blocks):
            for other in blocks[i + 1:]:
                assert not block & other, workload


def test_duplicate_mix_matches_the_workload_descriptions():
    ctx = Context(seed=3, work=_NoWork())
    batch = stream_dup.make_batch(ctx, 1)
    keys = [gen.cache_key(p) for p in batch]
    assert len(set(keys)) / len(keys) == 1 / (1 + stream_dup.COPIES)
    rung = service_open.make_rung(ctx, ctx.inputs.rng(service_open.NAME, 1), 100)
    medium = sum(len(p.instance.jobs) >= 24 for p in rung)
    assert 2 <= medium <= 5  # about 3%, well away from 10%


def test_same_seed_gives_same_inputs():
    first = _repetitions(exact_cold.NAME, 2)
    assert first == _repetitions(exact_cold.NAME, 2)


def test_one_run_prints_the_result_object_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _better in END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(GATED_WORKLOADS)
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(catalog), key
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
