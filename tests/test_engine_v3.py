"""Differential and cache-correctness suite for the compiled (v4) engine.

The compiled kernel carries a byte-identity contract with the v2 scalar
evaluator (same costs bit-for-bit, same choices, same counters), so
everything here compares *exact* equality — never approximate: the façade
envelopes with the kernel loaded (v4) and made unavailable (v2), the v1
trampoline at engine level, hypothesis sweeps at p = 1..4 on both
objectives, fixed large cases the brute-force oracles cannot reach, the
kernel's node graph against v2's Python discovery, the release of the
kernel's buffers, the v2 fallback (also behind a hung compiler), the
disk-cache replay of engine metadata across a simulated process boundary,
and the kernel's build cache across real processes.

Tests that need the kernel skip on hosts without a C compiler; the
fallback tests run everywhere.
"""

import functools
import gc
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import MultiprocessorInstance, Problem, solve, to_json
from repro.api import clear_solve_cache, configure_solve_cache
from repro.core import combine_kernel
from repro.core.dp_profile import IntervalDecomposition
from repro.core.interval_dp import (
    BOTTOM_UP_ENGINE_VERSION,
    COMPILED_ENGINE_VERSION,
    ENGINE_VERSION,
    CompiledDPEngine,
    GapObjective,
    IntervalDPEngine,
    PowerObjective,
    TrampolineDPEngine,
    build_engine,
)
from repro.core.jobs import Job
from repro.generators import (
    random_multiprocessor_instance,
    random_one_interval_instance,
)
from repro.runtime import DiskSolveCache, configure_disk_cache
from repro.runtime.diskcache import cache_key_digest

kernel_loaded = combine_kernel.load() is not None
needs_kernel = pytest.mark.skipif(
    not kernel_loaded, reason="needs a C compiler for the combine kernel"
)

FAST = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def clean_engine_state():
    """Every test starts and ends with the disk tier off and a cold memory tier."""
    configure_disk_cache(None)
    configure_solve_cache(256)
    clear_solve_cache()
    yield
    configure_disk_cache(None)
    configure_solve_cache(256)
    clear_solve_cache()


def differential_workload(count=12):
    """Seeded mixed gap/power workload over both engine-backed shapes."""
    problems = []
    for seed in range(count):
        if seed % 2 == 0:
            instance = random_one_interval_instance(
                num_jobs=6, horizon=16, max_window=5, seed=seed
            )
        else:
            instance = random_multiprocessor_instance(
                num_jobs=8, num_processors=2, horizon=12, max_window=5, seed=seed
            )
        if seed % 3 == 0:
            problems.append(
                Problem(objective="power", instance=instance, alpha=1.0 + seed % 3)
            )
        else:
            problems.append(Problem(objective="gaps", instance=instance))
    return problems


def planted_instance(seed, num_jobs, num_processors, horizon, max_window):
    """Feasible by construction: every window contains a distinct planted slot."""
    rng = random.Random(seed)
    slots = [t for t in range(horizon) for _ in range(num_processors)]
    jobs = []
    for t in rng.sample(slots, num_jobs):
        width = rng.randint(1, max_window)
        release = max(0, t - rng.randint(0, width - 1))
        deadline = min(horizon - 1, release + width - 1)
        jobs.append(Job(release=release, deadline=max(deadline, t)))
    return MultiprocessorInstance(jobs, num_processors)


def envelope_and_engine_meta(problem):
    """Canonical envelope JSON with the engine-identity block split out.

    The engine block names the evaluator (version, stats), which *must*
    differ across engines in its version; everything else — status,
    value, schedule, exactness — must not.
    """
    result = solve(problem)
    data = json.loads(to_json(result))
    meta = data["extra"].pop("engine")
    return json.dumps(data, sort_keys=True), meta


def build_decomp(instance):
    return IntervalDecomposition(instance)


def engine_outcome(engine_cls, problem):
    """Run one evaluator class directly on a façade problem's instance."""
    instance = problem.instance
    if not isinstance(instance, MultiprocessorInstance):
        instance = instance.to_multiprocessor(1)
    p = instance.num_processors
    if problem.objective == "gaps":
        objective = GapObjective(p)
    else:
        objective = PowerObjective(p, problem.alpha)
    return engine_cls(build_decomp(instance), objective).solve()


def facade_sweep(problems):
    """Envelope/meta pairs through ``solve()`` with a cold memory tier."""
    clear_solve_cache()  # no evaluator may answer from another's cache
    pairs = [envelope_and_engine_meta(p) for p in problems]
    return [env for env, _meta in pairs], [meta for _env, meta in pairs]


def assert_identical(instance, make_objective, engines=(CompiledDPEngine,)):
    """Each engine matches v2 exactly: value repr, assignment, six counters.

    v1 is held to the value only: it evaluates lazily, so its counters
    differ by design and it may pick another optimum among ties.
    """
    reference = IntervalDPEngine(build_decomp(instance), make_objective())
    expected = reference.solve()
    for engine_cls in engines:
        engine = engine_cls(build_decomp(instance), make_objective())
        got = engine.solve()
        assert got.feasible == expected.feasible
        assert repr(got.value) == repr(expected.value)  # bit-identical, incl. floats
        if engine_cls is not TrampolineDPEngine:
            assert got.assignment == expected.assignment
            assert engine.stats.as_dict() == reference.stats.as_dict()
    return expected


# ---------------------------------------------------------------------------
# the differential workload: v4 == v2 == v1, byte for byte
# ---------------------------------------------------------------------------
class TestEnvelopeIdentity:
    def test_all_engines_agree_byte_for_byte(self, monkeypatch):
        problems = differential_workload()
        envelopes = {}
        metas = {}
        # v4 is what solve() runs when the kernel loads; making it
        # unavailable makes the same façade path run v2.
        if kernel_loaded:
            envelopes["v4"], metas["v4"] = facade_sweep(problems)
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        envelopes["v2"], metas["v2"] = facade_sweep(problems)
        assert all(meta["version"] == BOTTOM_UP_ENGINE_VERSION for meta in metas["v2"])
        # v1 has no façade route: compare it with v2 at engine level, where
        # value and assignment determine everything the envelope carries.
        for problem in problems:
            v1 = engine_outcome(TrampolineDPEngine, problem)
            v2 = engine_outcome(IntervalDPEngine, problem)
            assert v1.feasible == v2.feasible
            assert repr(v1.value) == repr(v2.value)
            assert v1.assignment == v2.assignment
        if kernel_loaded:
            assert envelopes["v4"] == envelopes["v2"]
            for v4_meta, v2_meta in zip(metas["v4"], metas["v2"]):
                assert v4_meta["version"] == COMPILED_ENGINE_VERSION
                assert v4_meta["stats"] == v2_meta["stats"]
                assert set(v4_meta) == set(v2_meta)

    def test_engine_meta_names_the_engine(self, monkeypatch):
        if kernel_loaded:
            _env, meta = envelope_and_engine_meta(differential_workload(1)[0])
            assert meta["version"] == COMPILED_ENGINE_VERSION
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        clear_solve_cache()
        _env, meta = envelope_and_engine_meta(differential_workload(1)[0])
        assert meta["version"] == BOTTOM_UP_ENGINE_VERSION
        assert set(meta) == {"name", "version", "objective", "stats"}


# ---------------------------------------------------------------------------
# hypothesis: random instances, p = 1..4, both objectives, v4 vs v2 vs v1
# ---------------------------------------------------------------------------
@needs_kernel
class TestPropertyIdentity:
    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_jobs=st.integers(min_value=1, max_value=9),
        num_processors=st.integers(min_value=1, max_value=4),
    )
    def test_gap_objective(self, seed, num_jobs, num_processors):
        instance = random_multiprocessor_instance(
            num_jobs=num_jobs,
            num_processors=num_processors,
            horizon=10,
            max_window=4,
            seed=seed,
        )
        assert_identical(
            instance,
            lambda: GapObjective(num_processors),
            engines=(CompiledDPEngine, TrampolineDPEngine),
        )

    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_jobs=st.integers(min_value=1, max_value=9),
        num_processors=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7, 0.1]),
    )
    def test_power_objective(self, seed, num_jobs, num_processors, alpha):
        instance = random_multiprocessor_instance(
            num_jobs=num_jobs,
            num_processors=num_processors,
            horizon=10,
            max_window=4,
            seed=seed,
        )
        assert_identical(
            instance,
            lambda: PowerObjective(num_processors, alpha),
            engines=(CompiledDPEngine, TrampolineDPEngine),
        )


# ---------------------------------------------------------------------------
# fixed cases beyond the brute-force oracles' reach
# ---------------------------------------------------------------------------
@needs_kernel
class TestLargeCases:
    @pytest.mark.parametrize(
        "num_jobs,num_processors,horizon,max_window",
        [(35, 3, 26, 26), (100, 3, 75, 18)],
        ids=["n35-p3", "n100-p3-narrow"],
    )
    @pytest.mark.parametrize("objective", ["gaps", "power"])
    def test_matches_v2(self, num_jobs, num_processors, horizon, max_window, objective):
        instance = planted_instance(7, num_jobs, num_processors, horizon, max_window)
        make = {
            "gaps": lambda: GapObjective(num_processors),
            "power": lambda: PowerObjective(num_processors, 2.5),
        }[objective]
        outcome = assert_identical(instance, make)
        assert outcome.feasible

    def test_times_beyond_64_bits(self):
        # The kernel never sees column times, only their indices.
        base = 10**20
        instance = MultiprocessorInstance.from_pairs(
            [(base, base + 2), (base + 1, base + 5), (3, 4), (base + 4, base + 4)],
            num_processors=2,
        )
        for make in (lambda: GapObjective(2), lambda: PowerObjective(2, 1.5)):
            assert assert_identical(instance, make).feasible

    def test_many_processors(self):
        # The kernel sizes everything from P = p + 1 at run time: no cap.
        instance = planted_instance(3, 40, 16, 5, 3)
        for make in (lambda: GapObjective(16), lambda: PowerObjective(16, 1.5)):
            assert assert_identical(instance, make).feasible


# ---------------------------------------------------------------------------
# the kernel's node graph against v2's Python discovery
# ---------------------------------------------------------------------------
def v2_node_graph(instance, objective):
    """``(i1, i2, k) -> (kind, q-mask, jmax, splits, right-end child)`` of v2.

    Only live nodes (a non-empty q-mask) are listed; splits are ``(t',
    left key, right key)`` in the engine's candidate-column order.
    """
    engine = IntervalDPEngine(build_decomp(instance), objective)
    engine._ensure_tables()
    keys = list(zip(engine._node_i1, engine._node_i2, engine._node_k))
    graph = {}
    for nid, key in enumerate(keys):
        if not engine._node_qmask[nid]:
            continue
        plan = engine._node_plan[nid]
        jmax = splits = right_end = None
        if plan is not None:
            jmax, plan_splits, right_end_id = plan
            splits = tuple((t, keys[left], keys[right]) for t, left, right, *_ in plan_splits)
            right_end = None if right_end_id is None else keys[right_end_id]
        graph[key] = (engine._node_kind[nid], engine._node_qmask[nid], jmax, splits, right_end)
    return graph


def v4_node_graph(instance, objective):
    """The same view of the node graph the kernel exports."""
    decomp = build_decomp(instance)
    engine = CompiledDPEngine(decomp, objective)
    engine._ensure_tables()
    run = engine._tables
    keys = [(run.i1[nid], run.i2[nid], run.k[nid]) for nid in range(run.num_nodes)]
    words = run.mask_words
    graph = {}
    for nid, key in enumerate(keys):
        mask = sum(run.mask[nid * words + w] << (64 * w) for w in range(words))
        if not mask:
            continue
        jmax = splits = right_end = None
        if run.kind[nid] == 3:  # branch
            jmax = decomp.deadline_order[run.jmax[nid]]
            splits = tuple(
                (decomp.columns[run.i2[run.split_left[s]]],
                 keys[run.split_left[s]], keys[run.split_right[s]])
                for s in range(run.split_lo[nid], run.split_hi[nid])
            )
            if run.right_end[nid] >= 0:
                right_end = keys[run.right_end[nid]]
        graph[key] = (run.kind[nid], mask, jmax, splits, right_end)
    return graph


def assert_same_node_graph(instance, make_objective):
    expected = v2_node_graph(instance, make_objective())
    assert expected
    assert v4_node_graph(instance, make_objective()) == expected


@needs_kernel
class TestNodeGraph:
    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_jobs=st.integers(min_value=1, max_value=12),
        num_processors=st.integers(min_value=1, max_value=4),
        objective=st.sampled_from(["gaps", "power"]),
    )
    def test_matches_v2_discovery(self, seed, num_jobs, num_processors, objective):
        # Unplanted windows: infeasible instances and Hall-pruned nodes too.
        rng = random.Random(seed)
        jobs = []
        for _ in range(num_jobs):
            release = rng.randrange(10)
            jobs.append(Job(release=release, deadline=min(9, release + rng.randrange(4))))
        instance = MultiprocessorInstance(jobs, num_processors)
        make = {
            "gaps": lambda: GapObjective(num_processors),
            "power": lambda: PowerObjective(num_processors, 1.5),
        }[objective]
        assert_same_node_graph(instance, make)

    @pytest.mark.parametrize(
        "num_jobs,num_processors,horizon,max_window",
        # n = 100 at window share 0.25 of a 75-column horizon; p = 16
        [(100, 3, 75, 18), (40, 16, 5, 3)],
        ids=["n100-p3-narrow", "n40-p16"],
    )
    @pytest.mark.parametrize("objective", ["gaps", "power"])
    def test_large_cases(self, num_jobs, num_processors, horizon, max_window, objective):
        instance = planted_instance(7, num_jobs, num_processors, horizon, max_window)
        make = {
            "gaps": lambda: GapObjective(num_processors),
            "power": lambda: PowerObjective(num_processors, 2.5),
        }[objective]
        assert_same_node_graph(instance, make)

    @pytest.mark.parametrize(
        "pairs,num_processors,feasible",
        [
            # a Hall-pruned node below a feasible root
            ([(0, 2), (7, 9), (4, 7), (5, 6), (2, 4), (2, 2),
              (4, 5), (4, 4), (1, 3), (7, 7), (5, 8), (5, 6)], 2, True),
            # three jobs due by column 1: the prefix count prunes the root
            ([(0, 1), (0, 1), (0, 1), (2, 6), (3, 6)], 1, False),
        ],
        ids=["below-root", "root-prefix"],
    )
    def test_hall_pruned_nodes(self, pairs, num_processors, feasible):
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=num_processors)
        make = functools.partial(GapObjective, num_processors)
        assert_same_node_graph(instance, make)
        outcome = assert_identical(instance, make)
        assert outcome.feasible == feasible
        assert outcome.stats.hall_pruned == 1


_OUT_OF_MEMORY = """
import json, resource, sys
from repro.core.dp_profile import IntervalDecomposition
from repro.core.interval_dp import CompiledDPEngine, GapObjective
from repro.core.jobs import Job, MultiprocessorInstance
jobs = [Job(release=t % 40, deadline=t % 40 + t % 7) for t in range(100)]
engine = CompiledDPEngine(IntervalDecomposition(MultiprocessorInstance(jobs, 5)), GapObjective(5))
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize")) * 1024
# about 8 MB of headroom; the kernel's tables for this instance need over 100 MB
resource.setrlimit(resource.RLIMIT_AS, (size + 8 * 2**20, resource.RLIM_INFINITY))
try:
    engine.solve()
    outcome = "solved"
except MemoryError:
    outcome = "MemoryError"
print(json.dumps({"outcome": outcome, "tables": engine._tables is not None}))
"""


@needs_kernel
class TestKernelBuffers:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status")
        or "asan" in os.environ.get("LD_PRELOAD", ""),
        reason="needs /proc and the libc allocator (ASan aborts instead of failing)",
    )
    def test_out_of_memory_raises_and_keeps_nothing(self):
        done = subprocess.run(
            [sys.executable, "-c", _OUT_OF_MEMORY],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"outcome": "MemoryError", "tables": False}

    def test_released_when_the_engine_is_dropped(self):
        instance = planted_instance(1, 20, 2, 14, 6)
        engine = CompiledDPEngine(build_decomp(instance), GapObjective(2))
        assert engine.solve().feasible
        run = engine._tables
        assert run.num_nodes > 0
        assert run.cost and run.win and run.plane and run.i1 and run.mask
        del engine
        gc.collect()
        assert run.num_nodes == 0
        assert not (run.cost or run.win or run.plane or run.i1 or run.mask)


# ---------------------------------------------------------------------------
# fallback: the kernel unavailable
# ---------------------------------------------------------------------------
class TestForcedFallback:
    def test_auto_degrades_to_v2_and_v3_is_refused(self, monkeypatch):
        # Without the kernel the automatic choice is the scalar v2 engine,
        # and the accelerated engine refuses to be built.
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        instance = random_multiprocessor_instance(
            num_jobs=8, num_processors=2, horizon=12, seed=3
        )
        for objective in (GapObjective(2), PowerObjective(2, 2.0)):
            engine = build_engine(build_decomp(instance), objective)
            assert type(engine) is IntervalDPEngine
            engine.solve()
            assert engine.metadata()["version"] == BOTTOM_UP_ENGINE_VERSION
        with pytest.raises(RuntimeError, match="unavailable"):
            CompiledDPEngine(build_decomp(instance), PowerObjective(2, 2.0))

    def test_scalar_path_is_exercised_and_identical(self, monkeypatch):
        instance = random_multiprocessor_instance(
            num_jobs=10, num_processors=2, horizon=14, seed=5
        )
        reference = IntervalDPEngine(build_decomp(instance), PowerObjective(2, 2.0))
        expected = reference.solve()
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        engine = build_engine(build_decomp(instance), PowerObjective(2, 2.0))
        outcome = engine.solve()
        assert type(engine) is IntervalDPEngine
        assert repr(outcome.value) == repr(expected.value)
        assert outcome.assignment == expected.assignment
        assert engine.stats.as_dict() == reference.stats.as_dict()

    def test_facade_answers_identically_without_kernel(self, monkeypatch):
        problems = differential_workload(6)
        with_kernel = [envelope_and_engine_meta(p)[0] for p in problems]
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        clear_solve_cache()
        without_kernel = [envelope_and_engine_meta(p)[0] for p in problems]
        assert without_kernel == with_kernel

    def test_missing_compiler_means_no_kernel(self, monkeypatch):
        monkeypatch.setenv("CC", "repro-no-such-compiler")
        assert combine_kernel._build_and_load() is None


_HUNG_BUILD = """
import json, sys, time
from repro.core import combine_kernel
from repro.core.dp_profile import IntervalDecomposition
from repro.core.interval_dp import GapObjective, build_engine
from repro.core.jobs import MultiprocessorInstance
combine_kernel._cache_dirs = lambda: [sys.argv[1]]
combine_kernel.COMPILE_TIMEOUT_S = 0.5
instance = MultiprocessorInstance.from_pairs([(0, 2), (1, 3)], num_processors=1)
start = time.monotonic()
engine = build_engine(IntervalDecomposition(instance), GapObjective(1))
print(json.dumps({"engine": type(engine).__name__, "seconds": time.monotonic() - start}))
"""


class TestHungCompiler:
    def test_hung_compiler_is_killed_and_v2_runs(self, tmp_path):
        compiler = tmp_path / "hung-cc"
        compiler.write_text("#!/bin/sh\nsleep 300\n")
        compiler.chmod(0o755)
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=SRC, CC=str(compiler))
        done = subprocess.run(
            [sys.executable, "-c", _HUNG_BUILD, str(cache)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["engine"] == "IntervalDPEngine"
        assert result["seconds"] < 10
        assert not [name for name in os.listdir(cache) if name.startswith(".combine-")]


# ---------------------------------------------------------------------------
# the kernel's build cache, across real processes
# ---------------------------------------------------------------------------
_LOADER = """
import json, sys
from repro.core import combine_kernel
combine_kernel._cache_dirs = lambda: [sys.argv[1]]
compiled = []
if sys.argv[2] == "no-compile":
    def _compile(*args):
        compiled.append(args)
        raise AssertionError("compiled although a cached build exists")
    combine_kernel._compile = _compile
print(json.dumps({"loaded": combine_kernel.load() is not None}))
"""


def _loader(directory, mode="build"):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", _LOADER, str(directory), mode],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out)


def _libraries(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".so"))


@needs_kernel
class TestBuildCache:
    def test_second_process_loads_without_compiling(self, tmp_path):
        assert _finish(_loader(tmp_path))["loaded"]
        [library] = _libraries(tmp_path)
        assert not library.startswith(".")
        assert _finish(_loader(tmp_path, "no-compile"))["loaded"]
        assert _libraries(tmp_path) == [library]

    def test_concurrent_first_builds_both_succeed(self, tmp_path):
        procs = [_loader(tmp_path), _loader(tmp_path)]
        assert all(_finish(proc)["loaded"] for proc in procs)
        # One published library, no temp files left behind.
        assert len(_libraries(tmp_path)) == 1
        assert _finish(_loader(tmp_path, "no-compile"))["loaded"]

    def test_truncated_library_is_rebuilt(self, tmp_path):
        assert _finish(_loader(tmp_path))["loaded"]
        [library] = _libraries(tmp_path)
        path = tmp_path / library
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(64)
        assert _finish(_loader(tmp_path))["loaded"]
        assert path.stat().st_size == size


# ---------------------------------------------------------------------------
# disk-cache correctness across the ENGINE_VERSION bump
# ---------------------------------------------------------------------------
class TestCacheCorrectness:
    def test_engine_version_bumped_for_v4(self):
        # The namespace bump is the disk-cache invalidation mechanism: any
        # pre-v4 install's entries become invisible, never replayed.
        assert ENGINE_VERSION == "4.0"

    def test_pre_v3_entries_are_cold_misses(self, tmp_path, monkeypatch):
        # Entries of the v2 (2.0) and numpy v3 (3.0) generations alike.
        for old_version in ("2.0", "3.0"):
            directory = str(tmp_path / old_version)
            key = (("gaps",), (2, (0, 5), ((0, 3), (1, 4))))
            entry = (
                True, 1, ((0, 1), (1, 3)),
                {"name": "interval-dp", "version": old_version},
            )
            # Write the entry as a pre-upgrade process would have: under the
            # old engine-version namespace and stamped with the old version.
            monkeypatch.setattr("repro.runtime.diskcache.ENGINE_VERSION", old_version)
            old = DiskSolveCache(directory)
            old.put(key, entry)
            assert old.get(key) == entry
            monkeypatch.undo()
            upgraded = DiskSolveCache(directory)
            assert upgraded.get(key) is None  # cold miss, not a stale replay
            stats = upgraded.stats()
            assert stats["entries"] == 0 and stats["stale_entries"] == 1
            # Same-version roundtrip still works in the new namespace.
            upgraded.put(key, entry)
            assert upgraded.get(key) == entry

    @needs_kernel
    def test_compiled_disk_hit_replays_engine_meta_verbatim(self, tmp_path, monkeypatch):
        configure_disk_cache(str(tmp_path))
        instance = random_multiprocessor_instance(
            num_jobs=12, num_processors=2, horizon=14, seed=9
        )
        problem = Problem(objective="power", instance=instance, alpha=2.0)
        first = solve(problem)
        meta = first.extra["engine"]
        assert meta["version"] == COMPILED_ENGINE_VERSION
        # Simulate a new process: drop the memory tier, keep the disk tier,
        # and make the kernel unavailable (so a fresh solve would run v2) —
        # a verbatim replay must still carry the original v4 metadata, not
        # the new process's evaluator.
        configure_solve_cache(0)
        configure_solve_cache(256)
        clear_solve_cache()
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        second = solve(problem)
        assert to_json(second) == to_json(first)
        assert second.extra["engine"] == meta

    @needs_kernel
    def test_v2_and_v3_share_cache_entries_safely(self, tmp_path, monkeypatch):
        # Byte-identity makes v2 and the compiled engine interchangeable
        # *within* the shared version namespace: a v2-populated entry
        # answers a compiled-engine solve with the identical envelope.
        configure_disk_cache(str(tmp_path))
        instance = random_one_interval_instance(
            num_jobs=8, horizon=16, max_window=5, seed=4
        )
        problem = Problem(objective="gaps", instance=instance)
        loaded = combine_kernel.load()
        monkeypatch.setattr(combine_kernel, "_loaded", None)
        first = solve(problem)
        configure_solve_cache(0)
        configure_solve_cache(256)
        clear_solve_cache()
        monkeypatch.setattr(combine_kernel, "_loaded", loaded)
        second = solve(problem)
        assert to_json(second) == to_json(first)

    def test_cache_key_digest_is_stable(self):
        key = (("power", 2.0), (1, (0, 3)))
        assert cache_key_digest(key) == cache_key_digest(key)
