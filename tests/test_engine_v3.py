"""Differential and cache-correctness suite for the v3 vectorized engine.

The v3 kernels carry a byte-identity contract with the v2 scalar evaluator
(same costs bit-for-bit, same choice tuples, same base stats counters), so
everything here compares *exact* equality — never approximate: the façade
envelopes with numpy on (v3) and masked out (v2), the v1 trampoline at
engine level, a hypothesis sweep over random instances with the power
kernels forced on (gap engines must never build one), the scalar fallback
with numpy masked out, and the disk-cache replay of v3 engine metadata
(including the kernel-engagement counters) across a simulated process
boundary.

Every test in this file runs on installs without numpy too: v3-specific
paths degrade to asserting the fallback (``build_engine`` returning the
scalar v2 evaluator) instead of being skipped wholesale.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import MultiprocessorInstance, Problem, solve, to_json
from repro.api import clear_solve_cache, configure_solve_cache
from repro.core import vector_kernels
from repro.core.dp_profile import IntervalDecomposition
from repro.core.interval_dp import (
    BOTTOM_UP_ENGINE_VERSION,
    ENGINE_VERSION,
    VECTOR_ENGINE_VERSION,
    GapObjective,
    IntervalDPEngine,
    PowerObjective,
    TrampolineDPEngine,
    VectorizedDPEngine,
    build_engine,
)
from repro.generators import (
    random_multiprocessor_instance,
    random_one_interval_instance,
)
from repro.runtime import DiskSolveCache, configure_disk_cache
from repro.runtime.diskcache import cache_key_digest

numpy_installed = vector_kernels.numpy_available()
needs_numpy = pytest.mark.skipif(not numpy_installed, reason="requires numpy")

FAST = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


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


def envelope_and_engine_meta(problem):
    """Canonical envelope JSON with the engine-identity block split out.

    The engine block names the evaluator (version, numpy, stats), which
    *must* differ across engines; everything else — status, value,
    schedule, exactness — must not.
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


# ---------------------------------------------------------------------------
# the differential workload: v3 == v2 == v1, byte for byte
# ---------------------------------------------------------------------------
class TestEnvelopeIdentity:
    def test_all_engines_agree_byte_for_byte(self, monkeypatch):
        problems = differential_workload()
        envelopes = {}
        metas = {}
        # v3 is what solve() runs when numpy imports; masking numpy out
        # makes the same façade path run v2.
        if numpy_installed:
            envelopes["v3"], metas["v3"] = facade_sweep(problems)
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        envelopes["v2"], metas["v2"] = facade_sweep(problems)
        assert all(meta["version"] == "2.0" for meta in metas["v2"])
        # v1 has no façade route: compare it with v2 at engine level, where
        # value and assignment determine everything the envelope carries.
        for problem in problems:
            v1 = engine_outcome(TrampolineDPEngine, problem)
            v2 = engine_outcome(IntervalDPEngine, problem)
            assert v1.feasible == v2.feasible
            assert repr(v1.value) == repr(v2.value)
            assert v1.assignment == v2.assignment
        if numpy_installed:
            assert envelopes["v3"] == envelopes["v2"]
            assert all(
                meta["version"] == VECTOR_ENGINE_VERSION for meta in metas["v3"]
            )
            # The kernels account work analytically: the base counters of a
            # v3 run match the scalar evaluator's exactly; only the
            # kernel-dispatch counters are extra.
            for v3_meta, v2_meta in zip(metas["v3"], metas["v2"]):
                v3_stats = dict(v3_meta["stats"])
                for key in ("vector_nodes", "vector_fallback_nodes", "vector_splits"):
                    v3_stats.pop(key)
                assert v3_stats == v2_meta["stats"]

    def test_engine_meta_names_the_engine(self, monkeypatch):
        if numpy_installed:
            _env, meta = envelope_and_engine_meta(differential_workload(1)[0])
            assert meta["version"] == VECTOR_ENGINE_VERSION
            assert meta["numpy"] == vector_kernels.numpy_version()
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        clear_solve_cache()
        _env, meta = envelope_and_engine_meta(differential_workload(1)[0])
        assert meta["version"] == BOTTOM_UP_ENGINE_VERSION
        assert "numpy" not in meta


# ---------------------------------------------------------------------------
# hypothesis: random instances, kernels forced on, both objectives
# ---------------------------------------------------------------------------
@needs_numpy
class TestPropertyIdentity:
    def assert_engines_identical(self, instance, objective_factory):
        p = instance.num_processors
        decomp_v2 = build_decomp(instance)
        decomp_v3 = build_decomp(instance)
        scalar = IntervalDPEngine(decomp_v2, objective_factory(p))
        # vector_min_work=0 forces the kernels even where the size
        # heuristic would fall back (and even at p = 1).
        vector = VectorizedDPEngine(
            decomp_v3, objective_factory(p), vector_min_work=0
        )
        a, b = scalar.solve(), vector.solve()
        assert a.feasible == b.feasible
        assert repr(a.value) == repr(b.value)  # bit-identical, incl. floats
        assert a.assignment == b.assignment
        v3_stats = vector.stats.as_dict()
        for key in ("vector_nodes", "vector_fallback_nodes", "vector_splits"):
            v3_stats.pop(key)
        assert v3_stats == scalar.stats.as_dict()
        return vector

    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_jobs=st.integers(min_value=1, max_value=9),
        num_processors=st.integers(min_value=1, max_value=3),
    )
    def test_gap_objective(self, seed, num_jobs, num_processors):
        instance = random_multiprocessor_instance(
            num_jobs=num_jobs,
            num_processors=num_processors,
            horizon=10,
            max_window=4,
            seed=seed,
        )
        vector = self.assert_engines_identical(instance, lambda p: GapObjective(p))
        # Gap tables are occupancy-labelled: no kernel is built even when
        # forced, so every branch node runs the scalar combine.
        assert vector._kernel is None
        assert vector.stats.vector_nodes == 0
        assert vector.stats.vector_splits == 0

    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_jobs=st.integers(min_value=1, max_value=9),
        num_processors=st.integers(min_value=1, max_value=3),
        alpha=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
    )
    def test_power_objective(self, seed, num_jobs, num_processors, alpha):
        instance = random_multiprocessor_instance(
            num_jobs=num_jobs,
            num_processors=num_processors,
            horizon=10,
            max_window=4,
            seed=seed,
        )
        vector = self.assert_engines_identical(
            instance, lambda p: PowerObjective(p, alpha)
        )
        # With the kernels forced on, every branch node that combines
        # split children goes through them — none may silently fall back
        # (tiny instances legitimately have no branch nodes at all).
        assert vector._kernel is not None
        assert vector.stats.vector_fallback_nodes == 0


# ---------------------------------------------------------------------------
# forced fallback: numpy masked out
# ---------------------------------------------------------------------------
class TestForcedFallback:
    def test_auto_degrades_to_v2_and_v3_is_refused(self, monkeypatch):
        # Without numpy the automatic choice is the scalar v2 engine, and
        # a directly constructed v3 engine refuses to build its kernel even
        # when forced.
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        assert not vector_kernels.numpy_available()
        instance = random_multiprocessor_instance(
            num_jobs=8, num_processors=2, horizon=12, seed=3
        )
        for objective in (GapObjective(2), PowerObjective(2, 2.0)):
            engine = build_engine(build_decomp(instance), objective)
            assert type(engine) is IntervalDPEngine
            engine.solve()
            assert engine.metadata()["version"] == BOTTOM_UP_ENGINE_VERSION
        forced = VectorizedDPEngine(
            build_decomp(instance), PowerObjective(2, 2.0), vector_min_work=0
        )
        assert forced._kernel is None

    def test_scalar_path_is_exercised_and_identical(self, monkeypatch):
        instance = random_multiprocessor_instance(
            num_jobs=10, num_processors=2, horizon=14, seed=5
        )
        decomp = build_decomp(instance)
        reference = IntervalDPEngine(build_decomp(instance), PowerObjective(2, 2.0))
        expected = reference.solve()
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        # A directly-constructed v3 evaluator without numpy must not crash:
        # it runs the whole solve on the inherited scalar path.
        engine = VectorizedDPEngine(decomp, PowerObjective(2, 2.0), vector_min_work=0)
        outcome = engine.solve()
        assert outcome.feasible == expected.feasible
        assert repr(outcome.value) == repr(expected.value)
        assert outcome.assignment == expected.assignment
        # Every branch node is accounted as a fallback (numpy unavailable),
        # none as kernel-combined; the base counters match the scalar
        # evaluator's exactly.
        assert engine.stats.vector_nodes == 0
        assert engine.stats.vector_splits == 0
        assert engine.stats.vector_fallback_nodes > 0
        v3_stats = engine.stats.as_dict()
        for key in ("vector_nodes", "vector_fallback_nodes", "vector_splits"):
            v3_stats.pop(key)
        assert v3_stats == reference.stats.as_dict()

    def test_facade_answers_identically_without_numpy(self, monkeypatch):
        problems = differential_workload(6)
        with_numpy = [envelope_and_engine_meta(p)[0] for p in problems]
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        clear_solve_cache()
        without_numpy = [envelope_and_engine_meta(p)[0] for p in problems]
        assert without_numpy == with_numpy


# ---------------------------------------------------------------------------
# disk-cache correctness across the ENGINE_VERSION bump
# ---------------------------------------------------------------------------
class TestCacheCorrectness:
    def test_engine_version_bumped_for_v3(self):
        # The namespace bump is the disk-cache invalidation mechanism: any
        # pre-v3 install's entries become invisible, never replayed.
        assert ENGINE_VERSION == "3.0"

    def test_pre_v3_entries_are_cold_misses(self, tmp_path, monkeypatch):
        key = (("gaps",), (2, (0, 5), ((0, 3), (1, 4))))
        entry = (True, 1, ((0, 1), (1, 3)), {"name": "interval-dp", "version": "2.0"})
        # Write the entry as a pre-upgrade process would have: under the
        # old engine-version namespace and stamped with the old version.
        monkeypatch.setattr("repro.runtime.diskcache.ENGINE_VERSION", "2.0")
        old = DiskSolveCache(str(tmp_path))
        old.put(key, entry)
        assert old.get(key) == entry
        monkeypatch.undo()
        upgraded = DiskSolveCache(str(tmp_path))
        assert upgraded.get(key) is None  # cold miss, not a stale replay
        stats = upgraded.stats()
        assert stats["entries"] == 0 and stats["stale_entries"] == 1
        # Same-version roundtrip still works in the new namespace.
        upgraded.put(key, entry)
        assert upgraded.get(key) == entry

    @needs_numpy
    def test_v3_disk_hit_replays_kernel_stats_verbatim(self, tmp_path, monkeypatch):
        configure_disk_cache(str(tmp_path))
        instance = random_multiprocessor_instance(
            num_jobs=12, num_processors=2, horizon=14, seed=9
        )
        problem = Problem(objective="power", instance=instance, alpha=2.0)
        first = solve(problem)
        meta = first.extra["engine"]
        assert meta["version"] == VECTOR_ENGINE_VERSION
        assert meta["numpy"] == vector_kernels.numpy_version()
        assert meta["stats"]["vector_nodes"] > 0  # the kernels really ran
        # Simulate a new process: drop the memory tier, keep the disk tier,
        # and mask numpy out (so a fresh solve would run v2) — a verbatim
        # replay must still carry the original v3 metadata, not the new
        # process's evaluator.
        configure_solve_cache(0)
        configure_solve_cache(256)
        clear_solve_cache()
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        second = solve(problem)
        assert to_json(second) == to_json(first)
        assert second.extra["engine"] == meta
        assert second.extra["engine"]["stats"]["vector_nodes"] == (
            meta["stats"]["vector_nodes"]
        )

    @needs_numpy
    def test_v2_and_v3_share_cache_entries_safely(self, tmp_path, monkeypatch):
        # Byte-identity makes the engines interchangeable *within* the
        # shared version namespace: a v2-populated entry answers a v3
        # solve with the identical envelope (modulo the replayed meta).
        configure_disk_cache(str(tmp_path))
        instance = random_one_interval_instance(
            num_jobs=8, horizon=16, max_window=5, seed=4
        )
        problem = Problem(objective="gaps", instance=instance)
        monkeypatch.setattr(vector_kernels, "_DISABLED", True)
        first = solve(problem)
        configure_solve_cache(0)
        configure_solve_cache(256)
        clear_solve_cache()
        monkeypatch.setattr(vector_kernels, "_DISABLED", False)
        second = solve(problem)
        assert to_json(second) == to_json(first)

    def test_cache_key_digest_is_stable(self):
        key = (("power", 2.0), (1, (0, 3)))
        assert cache_key_digest(key) == cache_key_digest(key)
