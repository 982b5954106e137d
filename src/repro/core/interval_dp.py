"""The unified interval dynamic-programming engine behind Theorems 1 and 2.

Both exact results of the paper — multiprocessor gap minimization
(Theorem 1) and multiprocessor power minimization (Theorem 2) — are the same
Baptiste-style interval dynamic program over the state space
``(t1, t2, k, q, b1, b2)``: schedule the ``k`` earliest-deadline jobs
released in the candidate-column interval ``[t1, t2]``, with ``q``
processors at column ``t2`` already taken by enclosing subproblems and
boundary parameters ``b1`` / ``b2`` at the two end columns.  The recursion
branches on the execution column ``t'`` of the latest-deadline job; jobs
released after ``t'`` form the right subproblem and the rest the left one.

What differs between the two theorems is only the *value algebra*:

* :class:`GapObjective` — the subproblem value is a vector indexed by the
  exact maximum column occupancy of the subinterval (so the root can apply
  the ``- used processors`` correction of Lemma 1 without losing
  optimality); boundary parameters count the subproblem's *own* jobs at the
  end columns and splits pay a run-start charge.
* :class:`PowerObjective` — the subproblem value is a scalar power cost;
  boundary parameters count *active* processors and splits pay the
  closed-form bridging charge ``min(stretch, alpha)`` per processor active
  on both sides of an idle stretch (Lemma 2).

Three evaluators share the objectives:

* :class:`IntervalDPEngine` (**v2**) evaluates **bottom-up**:
  a discovery pass walks the ``(t1, t2, k)`` node graph from the root,
  propagating the set of reachable ``q`` values per node, and the
  evaluation pass then processes nodes in increasing interval-length /
  job-count order.  Every node's ``(q, b1, b2)`` boundary variants live in
  one flat list indexed by the packed variant offset, so the hot combine
  loop reads child tables by direct list indexing — no generators, no
  suspension objects, and no dict hashing.  Node job sets are built
  incrementally (released-job lists extend their length-minus-one
  predecessor; split counts come from a two-pointer merge instead of
  per-column bisects).
* :class:`CompiledDPEngine` (**v4**) runs v2's discovery, leaf tables
  and evaluation pass — split combine, right-end merge and sealing, for
  both objectives — in one call of a compiled C kernel
  (:mod:`repro.core.combine_kernel`), which owns the node graph and dense
  per-node tables; the root scan and reconstruction stay in Python.
* :class:`TrampolineDPEngine` (**v1**, kept as a differential reference for
  the tests and the bench) evaluates lazily top-down through an explicit
  stack of suspended generators with a dict memo over packed integer state
  keys.

:func:`build_engine` picks the evaluator from the platform: v4 when the
kernel compiles (or is already cached), v2 otherwise.  The evaluators are
byte-identical in value, schedule and counters, so the choice never
changes an answer.

All engines share Hall-condition pre-pruning (a violated prefix/suffix
count proves every boundary variant of a node empty), dominance pruning of
the gap objective's occupancy vectors, and iterative schedule
reconstruction; all run in O(1) native stack depth.

The solvers in :mod:`repro.core.multiproc_gap_dp` and
:mod:`repro.core.multiproc_power_dp` are thin bindings of these objectives
onto an engine; :mod:`repro.verify` certifies engine results against brute
force and :mod:`repro.perf` measures both engines against each other and
against the frozen pre-engine solvers.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from . import combine_kernel
from .dp_profile import IntervalDecomposition
from .exceptions import InvalidInstanceError
from .jobs import MultiprocessorInstance
from .schedule import MultiprocessorSchedule

__all__ = [
    "ENGINE_NAME",
    "ENGINE_VERSION",
    "COMPILED_ENGINE_VERSION",
    "BOTTOM_UP_ENGINE_VERSION",
    "TRAMPOLINE_ENGINE_VERSION",
    "EngineStats",
    "EngineOutcome",
    "GapObjective",
    "PowerObjective",
    "IntervalDPEngine",
    "CompiledDPEngine",
    "TrampolineDPEngine",
    "build_engine",
    "staircase_schedule",
]

ENGINE_NAME = "interval-dp"
#: Version of the current engine generation.  This is what namespaces the
#: canonicalization and disk caches — bumping it silently invalidates every
#: previously cached entry (the compiled kernel is byte-identical to v2,
#: but a fresh namespace keeps upgrade semantics unambiguous and lets
#: replayed engine metadata always match the code that would recompute it).
ENGINE_VERSION = "4.0"
#: Version of the compiled-kernel evaluator.
COMPILED_ENGINE_VERSION = "4.0"
#: Version of the bottom-up, array-packed scalar evaluator.
BOTTOM_UP_ENGINE_VERSION = "2.0"
#: Version of the legacy generator-trampoline evaluator.
TRAMPOLINE_ENGINE_VERSION = "1.0"

_MISSING = object()
_INF = float("inf")

#: Node job-count below which the Hall pre-check is skipped (see _node_jobs).
_HALL_CHECK_MIN_JOBS = 4

# Choice records stored in the value tables; reconstruction replays them.
_EMPTY_CHOICE = ("empty",)


@dataclass
class EngineStats:
    """Counters describing one engine run (exposed as JSON-native ints).

    The evaluators fill the same counters with engine-appropriate
    meanings: ``states_computed`` counts DP states whose value table was
    materialised, ``memo_hits`` counts child-table reads served from
    already-computed storage (dict memo for v1, flat tables for v2 and
    v4), and ``peak_stack_depth`` is the deepest dependency chain the
    evaluation followed (suspension-stack depth for v1, longest node-DAG
    chain for v2 and v4); it is at least 1 whenever any state was computed.
    """

    states_computed: int = 0
    memo_hits: int = 0
    hall_pruned: int = 0
    dominance_dropped: int = 0
    plans_built: int = 0
    peak_stack_depth: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "states_computed": self.states_computed,
            "memo_hits": self.memo_hits,
            "hall_pruned": self.hall_pruned,
            "dominance_dropped": self.dominance_dropped,
            "plans_built": self.plans_built,
            "peak_stack_depth": self.peak_stack_depth,
        }


@dataclass
class EngineOutcome:
    """Raw outcome of one engine run: optimal value and a witnessing assignment."""

    feasible: bool
    value: Optional[float]
    assignment: Optional[Dict[int, int]]  # job index -> execution time
    stats: EngineStats


@dataclass(frozen=True)
class _SplitPlan:
    """Branch bookkeeping for one ``(i1, i2, k)`` node, shared by its boundary variants.

    ``splits`` holds one tuple per candidate column ``t' < t2`` of the
    latest-deadline job: ``(col_idx, t_prime, k_left, k_right, idx_next,
    adjacent, stretch, right_touches_t2)``.
    """

    jmax: int
    right_end: bool
    splits: Tuple[Tuple[int, int, int, int, int, bool, int, bool], ...]


def _hall_feasible(
    jobs, columns: List[int], p: int, node_jobs: Tuple[int, ...],
    releases: List[int], t1: int, t2: int,
) -> bool:
    """Necessary Hall-style feasibility of the node jobs on candidate columns.

    Checks prefix intervals ``[t1, d]`` over clipped deadlines and suffix
    intervals ``[r, t2]`` over releases (already inside the interval by
    construction) against capacity ``p`` per candidate column.  A violation
    proves the state (under *any* boundary parameters) admits no
    assignment, so the whole ``(q, b1, b2)`` family is pruned; passing
    proves nothing and the state is evaluated normally.
    """
    lo = bisect_left(columns, t1)
    hi = bisect_right(columns, t2)
    # Prefix: node jobs arrive in deadline order, so clipped deadlines are
    # non-decreasing and prefix counts are positional.
    for count, j in enumerate(node_jobs, start=1):
        d = jobs[j].deadline
        if d > t2:
            d = t2
        if count > p * (bisect_right(columns, d, lo, hi) - lo):
            return False
    # Suffix: same argument over releases, scanned from the right.
    for count, r in enumerate(reversed(releases), start=1):
        if count > p * (hi - bisect_left(columns, r, lo, hi)):
            return False
    return True


class GapObjective:
    """Value algebra of Theorem 1: gap count via occupancy-indexed vectors.

    Boundary parameters count the subproblem's own jobs at the end columns;
    the table maps each achievable exact maximum occupancy ``M`` to the
    cheapest run-start count, and the root applies ``+ b1 - M`` (first
    column's run-starts minus used processors).
    """

    name = "gaps"

    def __init__(self, num_processors: int) -> None:
        self.p = num_processors
        #: Size of the value-table label space (occupancies 0..p).
        self.num_labels = num_processors + 1
        self._charges: Dict = {}

    def invalid_state(self, k: int, q: int, b1: int, b2: int) -> bool:
        return b1 > k or b2 > k or q + b2 > self.p

    def pre_branch_invalid(self, k: int, b1: int, b2: int) -> bool:
        return b1 + b2 > k

    def single_column(self, k, q, b1, b2, node_jobs, t):
        # All k jobs execute at the single column; boundary counts must agree.
        if b1 != b2 or b1 != k:
            return ()
        if k == 0:
            return ((q, (0, _EMPTY_CHOICE)),)
        if k + q > self.p:
            return ()
        return ((k + q, (0, ("column", node_jobs, t))),)

    def empty_interval(self, q, b1, b2, t1, t2):
        if b1 != 0 or b2 != 0:
            return ()
        return ((q, (q, _EMPTY_CHOICE)),)

    def right_end_child(self, k, q, b1, b2):
        if b2 < 1 or q + 1 > self.p:
            return None
        return (q + 1, b1, b2 - 1)

    def left_boundary(self, b1: int, at_left_edge: bool) -> Optional[int]:
        # The latest-deadline job running at t1 counts toward the boundary.
        if at_left_edge:
            return b1 - 1 if b1 >= 1 else None
        return b1

    def left_b2_values(self) -> Iterable[int]:
        # Own jobs of the left child at t'; jmax occupies one more slot (q=1).
        return range(self.p)

    def right_b1_values(self, q: int, right_touches_t2: bool) -> Iterable[int]:
        extra = q if right_touches_t2 else 0
        return range(self.p - extra + 1)

    def charge_matrix(self, q, adjacent, stretch, right_touches_t2):
        # Run-starts at the first column of the right subproblem: busy slots
        # there not already busy at the previous column (jmax's column when
        # the columns are adjacent, an idle column otherwise).  The matrix is
        # indexed ``[left_b2][right_b1]`` and cached — it only depends on the
        # external occupancy carried over and the column adjacency.
        extra = q if right_touches_t2 else 0
        key = (extra, adjacent)
        matrix = self._charges.get(key)
        if matrix is None:
            matrix = [
                [
                    max(0, rb + extra - (lb + 1 if adjacent else 0))
                    for rb in range(self.p + 1)
                ]
                for lb in range(self.p + 1)
            ]
            self._charges[key] = matrix
        return matrix

    def grid_key(self, k: int) -> int:
        # Variant validity depends on k only through ``b1 > k``, ``b2 > k``
        # and ``b1 + b2 > k`` with ``b1, b2 <= p``, so every ``k >= 2p``
        # yields the same variant grid and can share one cache entry.
        return k if k < 2 * self.p else 2 * self.p

    def root_total(self, b1: int, label: int, cost: int) -> Optional[int]:
        if label <= 0:
            return None
        return b1 + cost - label

    def prune_table(self, table: Dict, stats: EngineStats) -> None:
        # Occupancy labels combine by max up the split tree and the final
        # max is subtracted exactly once at the root, so an entry's value in
        # any enclosing context is (its cost + context costs) - max(M, X)
        # for some context label X.  An entry (M2, c2) with 1 <= M2 < M1
        # therefore dominates (M1, c1) whenever c2 - M2 <= c1 - M1: for
        # X <= M2 the root-corrected values tie at worst, and for X > M2 the
        # lower-occupancy entry is strictly better (it never raises the
        # combined max).  M = 0 entries are exempt on both sides — they can
        # be unusable at the root (the max must be positive), so they
        # neither dominate nor get dominated safely.
        if len(table) < 2:
            return
        best_corrected = None
        for label in sorted(table):
            if label < 1:
                continue
            corrected = table[label][0] - label
            if best_corrected is not None and corrected >= best_corrected:
                del table[label]
                stats.dominance_dropped += 1
            else:
                best_corrected = corrected

    def prune_arrays(self, costs: List, choices: List, stats: EngineStats) -> None:
        # Dense-array form of prune_table: dominated labels are blanked to
        # +inf instead of deleted (same rule, same counters).
        best_corrected = None
        for label in range(1, len(costs)):
            cost = costs[label]
            if cost == _INF:
                continue
            corrected = cost - label
            if best_corrected is not None and corrected >= best_corrected:
                costs[label] = _INF
                choices[label] = None
                stats.dominance_dropped += 1
            else:
                best_corrected = corrected

    def zero_value(self):
        return 0


class PowerObjective:
    """Value algebra of Theorem 2: scalar power with the min(stretch, alpha) bridge.

    Boundary parameters count *active* processors at the end columns; idle
    stretches between consecutive candidate columns are folded into the
    closed-form bridging charge, which keeps the DP on the polynomial
    candidate-column set.
    """

    name = "power"
    #: Scalar value algebra: a single table label (0).
    num_labels = 1

    def __init__(self, num_processors: int, alpha: float) -> None:
        if alpha < 0:
            raise InvalidInstanceError(f"alpha must be non-negative, got {alpha}")
        self.p = num_processors
        self.alpha = float(alpha)
        self._charges: Dict = {}

    def bridge_charge(self, stretch: int, active_before: int, active_after: int) -> float:
        """Cost of the columns strictly between two boundary columns plus the right column.

        Each processor active on both sides either stays active through the
        stretch (cost ``stretch``) or sleeps and wakes (cost ``alpha``);
        processors newly active on the right pay a wake-up.  The active time
        of the right boundary column itself is included.
        """
        shared = active_before if active_before < active_after else active_after
        newly_active = active_after - active_before
        if newly_active < 0:
            newly_active = 0
        return (
            float(active_after)
            + shared * min(float(stretch), self.alpha)
            + newly_active * self.alpha
        )

    def invalid_state(self, k: int, q: int, b1: int, b2: int) -> bool:
        return q > b2

    def pre_branch_invalid(self, k: int, b1: int, b2: int) -> bool:
        return False

    def single_column(self, k, q, b1, b2, node_jobs, t):
        if b1 != b2 or k + q > b1:
            return ()
        if k == 0:
            return ((0, (0.0, _EMPTY_CHOICE)),)
        return ((0, (0.0, ("column", node_jobs, t))),)

    def empty_interval(self, q, b1, b2, t1, t2):
        return ((0, (self.bridge_charge(t2 - t1 - 1, b1, b2), _EMPTY_CHOICE)),)

    def right_end_child(self, k, q, b1, b2):
        if q + 1 > b2:
            return None
        return (q + 1, b1, b2)

    def left_boundary(self, b1: int, at_left_edge: bool) -> Optional[int]:
        return b1

    def left_b2_values(self) -> Iterable[int]:
        # Total active processors at jmax's column; at least jmax's own.
        return range(1, self.p + 1)

    def right_b1_values(self, q: int, right_touches_t2: bool) -> Iterable[int]:
        return range(self.p + 1)

    def charge_matrix(self, q, adjacent, stretch, right_touches_t2):
        # Bridging cost indexed ``[active_mid][active_next]``; it depends
        # only on the idle stretch length, so the matrix is cached per stretch.
        matrix = self._charges.get(stretch)
        if matrix is None:
            matrix = [
                [self.bridge_charge(stretch, lb, rb) for rb in range(self.p + 1)]
                for lb in range(self.p + 1)
            ]
            self._charges[stretch] = matrix
        return matrix

    def grid_key(self, k: int) -> int:
        # Power variant validity (``q > b2``) never reads k: one grid per qmask.
        return 0

    def root_total(self, b1: int, label: int, cost: float) -> float:
        # First-column active processors pay their active time plus a wake-up.
        return b1 * (1.0 + self.alpha) + cost

    def prune_table(self, table: Dict, stats: EngineStats) -> None:
        # Scalar tables hold a single label; nothing to prune.
        return None

    def prune_arrays(self, costs: List, choices: List, stats: EngineStats) -> None:
        return None

    def zero_value(self):
        return 0.0


# ---------------------------------------------------------------------------
# v2: bottom-up, array-packed evaluation
# ---------------------------------------------------------------------------

# Node kinds of the v2 node graph.
_PRUNED, _SINGLE, _EMPTY, _BRANCH = 0, 1, 2, 3


class IntervalDPEngine:
    """Bottom-up evaluator of the ``(t1, t2, k, q, b1, b2)`` interval DP (v2).

    Evaluation runs in two passes:

    1. **Discovery** walks the ``(i1, i2, k)`` *node* graph from the root,
       classifying each node (single-column, empty-interval, branch, or
       pruned), building split plans, and propagating the set of reachable
       ``q`` values per node as a bitmask (left children always see
       ``q = 1``, right children inherit the parent's ``q``, right-end
       children see ``q + 1``).  Expansion is demand-driven — a node is
       walked only when the first bit reaches it — so subtrees no
       enclosing subproblem can ask for are never built, and the table
       pass never materialises a boundary family nobody queries.
       Capacity-dead splits (left child exceeding ``p`` slots per column
       minus jmax's, right child exceeding raw column capacity) are
       dropped at plan time.
    2. **Evaluation** processes nodes in increasing ``(interval length,
       job count)`` order — every dependency of a node strictly precedes it
       — writing each node's ``(q, b1, b2)`` variants into one flat list
       indexed by the packed variant offset ``(q*P + b1)*P + b2``.  The
       combine loop reads child tables by direct list indexing and keeps
       per-variant values in dense label-indexed cost arrays, so the hot
       path contains no generators, no dict hashing, and no per-state
       suspension objects.

    Node job sets are built incrementally: the released-job list of
    ``[t1, t2]`` extends the list of ``[t1, t2 - 1]`` by a rank-order merge
    with the jobs released exactly at ``t2``, sorted node releases extend
    their ``k - 1`` predecessor by one insertion, and split counts come
    from a two-pointer sweep instead of a bisect per candidate column.

    Parameters
    ----------
    decomp:
        The shared :class:`~repro.core.dp_profile.IntervalDecomposition`
        (candidate columns and job-set queries).
    objective:
        A :class:`GapObjective` or :class:`PowerObjective` (or any object
        implementing the same value-algebra interface).
    """

    version = BOTTOM_UP_ENGINE_VERSION

    def __init__(self, decomp: IntervalDecomposition, objective) -> None:
        self.decomp = decomp
        self.objective = objective
        self.p = decomp.num_processors
        self.stats = EngineStats()
        self._C = len(decomp.columns)
        self._P = self.p + 1
        self._labels = objective.num_labels
        # Per-column job lists (deadline-rank order) and rank lookup, the
        # substrate of the incremental released-list construction.
        self._rank = {j: r for r, j in enumerate(decomp.deadline_order)}
        self._col_jobs: List[Tuple[int, ...]] = [() for _ in range(self._C)]
        by_col: Dict[int, List[int]] = {}
        for j in decomp.deadline_order:
            by_col.setdefault(decomp.jobs[j].release, []).append(j)
        for release, ids in by_col.items():
            idx = decomp.column_index.get(release)
            if idx is not None:
                self._col_jobs[idx] = tuple(ids)
        self._released_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._releases_cache: Dict[Tuple[int, int, int], List[int]] = {}
        self._grid_cache: Dict[Tuple[int, int], Tuple[List, List]] = {}
        # Node graph (filled by _ensure_tables).
        self._key_to_id: Dict[int, int] = {}
        self._node_i1: List[int] = []
        self._node_i2: List[int] = []
        self._node_k: List[int] = []
        self._node_kind: List[int] = []
        self._node_jobs_list: List[Optional[Tuple[int, ...]]] = []
        self._node_plan: List[Optional[Tuple]] = []
        self._node_qmask: List[int] = []
        self._node_expanded: List[bool] = []
        self._tables: Optional[List[Optional[List]]] = None
        self._root_id: Optional[int] = None

    # -- public API -------------------------------------------------------------
    def solve(self) -> EngineOutcome:
        """Evaluate the DP bottom-up and reconstruct an optimal assignment."""
        obj = self.objective
        if len(self.decomp.jobs) == 0:
            return EngineOutcome(
                feasible=True, value=obj.zero_value(), assignment={}, stats=self.stats
            )
        self._ensure_tables()
        best: Optional[Tuple[float, int, int]] = None  # (total, variant, label)
        P = self._P
        for b1 in range(P):
            base = b1 * P  # root variants have q = 0
            for b2 in range(P):
                for label, cost in self._entries(self._root_id, base + b2):
                    total = obj.root_total(b1, label, cost)
                    if total is None:
                        continue
                    if best is None or total < best[0]:
                        best = (total, base + b2, label)
        if best is None:
            return EngineOutcome(
                feasible=False, value=None, assignment=None, stats=self.stats
            )
        assignment = self._reconstruct(self._root_id, best[1], best[2])
        return EngineOutcome(
            feasible=True, value=best[0], assignment=assignment, stats=self.stats
        )

    def metadata(self) -> Dict:
        """JSON-native engine identification and pruning/memo statistics."""
        return {
            "name": ENGINE_NAME,
            "version": self.version,
            "objective": self.objective.name,
            "stats": self.stats.as_dict(),
        }

    def _entries(self, nid: int, vi: int):
        """Finite ``(label, cost)`` pairs of one sealed variant, labels ascending."""
        table = self._tables[nid]
        entry = None if table is None else table[vi]
        return () if entry is None else entry[2]

    def _choice(self, nid: int, vi: int, label: int):
        """The recorded choice of one sealed ``(variant, label)`` slot, or ``None``."""
        table = self._tables[nid]
        entry = None if table is None else table[vi]
        return None if entry is None else entry[1][label]

    # -- incremental node-job machinery ------------------------------------------
    def _released(self, i1: int, i2: int) -> Tuple[int, ...]:
        """Jobs released in columns ``[i1, i2]`` in deadline order.

        Built incrementally: the list for ``[i1, i2]`` extends the cached
        list for ``[i1, i2 - 1]`` by a rank-order merge with the jobs
        released exactly at column ``i2``, so no interval is ever rescanned
        from scratch.
        """
        cache = self._released_cache
        got = cache.get((i1, i2))
        if got is not None:
            return got
        j = i2
        while j > i1 and (i1, j - 1) not in cache:
            j -= 1
        if j == i1:
            current = self._col_jobs[i1]
            cache[(i1, i1)] = current
            j = i1 + 1
        else:
            current = cache[(i1, j - 1)]
        rank = self._rank
        col_jobs = self._col_jobs
        for idx in range(j, i2 + 1):
            newcomers = col_jobs[idx]
            if newcomers:
                merged: List[int] = []
                a, b = 0, 0
                la, lb = len(current), len(newcomers)
                while a < la and b < lb:
                    if rank[current[a]] <= rank[newcomers[b]]:
                        merged.append(current[a])
                        a += 1
                    else:
                        merged.append(newcomers[b])
                        b += 1
                merged.extend(current[a:])
                merged.extend(newcomers[b:])
                current = tuple(merged)
            cache[(i1, idx)] = current
        return current

    def _sorted_releases(self, i1: int, i2: int, k: int, node: Tuple[int, ...]) -> List[int]:
        """Ascending releases of the node jobs, extended from the ``k - 1`` node."""
        cache = self._releases_cache
        got = cache.get((i1, i2, k))
        if got is not None:
            return got
        prev = cache.get((i1, i2, k - 1)) if k > 1 else []
        jobs = self.decomp.jobs
        if prev is not None and len(prev) == k - 1:
            releases = list(prev)
            insort(releases, jobs[node[-1]].release)
        else:
            releases = sorted(jobs[j].release for j in node)
        cache[(i1, i2, k)] = releases
        return releases

    # -- discovery ---------------------------------------------------------------
    def _node_id(self, i1: int, i2: int, k: int) -> int:
        """Allocate (or look up) a node entry without expanding it.

        Expansion is demand-driven: a node is classified and its plan built
        only when the q-mask propagation first reaches it with a non-empty
        bitmask, so subtrees no enclosing subproblem can ask for (e.g.
        right-end chains whose shifted mask overflows past ``p``) are never
        walked at all.
        """
        key = (i1 * self._C + i2) * (len(self.decomp.jobs) + 1) + k
        nid = self._key_to_id.get(key)
        if nid is None:
            nid = len(self._node_i1)
            self._key_to_id[key] = nid
            self._node_i1.append(i1)
            self._node_i2.append(i2)
            self._node_k.append(k)
            self._node_kind.append(_PRUNED)
            self._node_jobs_list.append(None)
            self._node_plan.append(None)
            self._node_qmask.append(0)
            self._node_expanded.append(False)
        return nid

    def _expand(self, nid: int) -> None:
        """Classify one node and, for branch nodes, build its split plan."""
        decomp = self.decomp
        columns = decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        if k == 0:
            self._node_kind[nid] = _SINGLE if i1 == i2 else _EMPTY
            self._node_jobs_list[nid] = ()
            return
        released = self._released(i1, i2)
        if k > len(released) or k > self.p * (i2 - i1 + 1):
            return  # unreachable / over capacity: stays _PRUNED with no children
        node = released[:k]
        t1, t2 = columns[i1], columns[i2]
        releases = self._sorted_releases(i1, i2, k, node)
        if k >= _HALL_CHECK_MIN_JOBS and not _hall_feasible(
            decomp.jobs, columns, self.p, node, releases, t1, t2
        ):
            self.stats.hall_pruned += 1
            return
        self._node_jobs_list[nid] = node
        if i1 == i2:
            self._node_kind[nid] = _SINGLE
            return
        self._node_kind[nid] = _BRANCH
        jmax = node[-1]
        candidate_cols = decomp.candidate_columns_for_job(jmax, t1, t2)
        right_end = bool(candidate_cols) and candidate_cols[-1] == i2
        splits = []
        p = self.p
        ptr = 0  # two-pointer sweep: releases and candidate columns both ascend
        for ci in candidate_cols:
            t_prime = columns[ci]
            if t_prime == t2:
                continue
            while ptr < k and releases[ptr] <= t_prime:
                ptr += 1
            k_right = k - ptr
            k_left = k - 1 - k_right
            if k_left < 0:
                continue
            # Capacity gate: the left child always runs with q = 1 (jmax
            # occupies one slot at t'), so it is empty under every boundary
            # when its jobs exceed p per column minus that slot; likewise
            # the right child when its jobs exceed raw column capacity.
            # Dead splits never materialise their subtrees — the cheap
            # structural analogue of the lazy engine's left-gating.
            if k_left > p * (ci - i1 + 1) - 1:
                continue
            idx_next = ci + 1
            if k_right > p * (i2 - idx_next + 1):
                continue
            t_next = columns[idx_next]
            left_id = self._node_id(i1, ci, k_left)
            right_id = self._node_id(idx_next, i2, k_right)
            splits.append(
                (
                    t_prime,
                    left_id,
                    right_id,
                    t_next == t_prime + 1,
                    t_next - t_prime - 1,
                    idx_next == i2,
                )
            )
        right_end_id = self._node_id(i1, i2, k - 1) if right_end else None
        self._node_plan[nid] = (jmax, tuple(splits), right_end_id)
        self.stats.plans_built += 1

    def _ensure_tables(self) -> None:
        """Run demand-driven discovery and the dependency-ordered table pass once.

        Discovery and q-mask propagation are one interleaved worklist: a
        node is expanded (classified, plan built, children allocated) the
        first time a non-empty bitmask of reachable ``q`` values arrives,
        and each new bit flows onward through the already-built plan.
        Nodes that never receive a bit are never expanded — their subtrees
        do not exist as far as the table pass is concerned.
        """
        if self._tables is not None:
            return
        n = len(self.decomp.jobs)
        self._root_id = self._node_id(0, self._C - 1, n)
        masks = self._node_qmask
        kinds = self._node_kind
        plans = self._node_plan
        expanded = self._node_expanded
        full = (1 << self._P) - 1
        left_bit = 1 << 1  # left children are always evaluated with q = 1
        masks[self._root_id] = 1  # the root is queried with q = 0
        worklist: List[Tuple[int, int]] = [(self._root_id, 1)]
        while worklist:
            nid, bits = worklist.pop()
            if not expanded[nid]:
                expanded[nid] = True
                self._expand(nid)
            if kinds[nid] != _BRANCH:
                continue
            _jmax, splits, right_end_id = plans[nid]
            for _t_prime, left_id, right_id, _adj, _stretch, _rt2 in splits:
                add = left_bit & ~masks[left_id]
                if add:
                    masks[left_id] |= add
                    worklist.append((left_id, add))
                add = bits & ~masks[right_id]
                if add:
                    masks[right_id] |= add
                    worklist.append((right_id, add))
            if right_end_id is not None:
                shifted = (bits << 1) & full
                add = shifted & ~masks[right_end_id]
                if add:
                    masks[right_end_id] |= add
                    worklist.append((right_end_id, add))
        self._evaluate_all()

    # -- bottom-up evaluation -----------------------------------------------------
    def _evaluate_all(self) -> None:
        """Process every node in increasing (interval length, job count) order."""
        num = len(self._node_i1)
        i1s, i2s, ks = self._node_i1, self._node_i2, self._node_k
        order = sorted(range(num), key=lambda nid: (i2s[nid] - i1s[nid], ks[nid]))
        tables: List[Optional[List]] = [None] * num
        depths = [0] * num
        kinds = self._node_kind
        stats = self.stats
        peak = stats.peak_stack_depth
        for nid in order:
            if self._node_qmask[nid] == 0:
                continue
            kind = kinds[nid]
            if kind == _PRUNED:
                # A pruned node's boundary variants are all computed to be
                # empty; count them exactly as the lazy engine counted the
                # empty leaf tables it materialised for pruned states.
                q_count = bin(self._node_qmask[nid]).count("1")
                stats.states_computed += q_count * self._P * self._P
                depth = 1
            elif kind == _BRANCH:
                tables[nid] = self._branch_tables(nid, tables)
                _jmax, splits, right_end_id = self._node_plan[nid]
                depth = 0
                for _t, left_id, right_id, _adj, _stretch, _rt2 in splits:
                    if depths[left_id] > depth:
                        depth = depths[left_id]
                    if depths[right_id] > depth:
                        depth = depths[right_id]
                if right_end_id is not None and depths[right_end_id] > depth:
                    depth = depths[right_end_id]
                depth += 1
            else:
                tables[nid] = self._leaf_tables(nid, kind)
                depth = 1
            depths[nid] = depth
            if depth > peak:
                peak = depth
        stats.peak_stack_depth = peak
        self._tables = tables

    def _variant_grid(self, nid: int) -> Tuple[List[int], List[Tuple[int, int, List]]]:
        """Reachable ``q`` values and the valid variants grouped by ``(q, b2)``.

        Grids only depend on the node through ``(objective.grid_key(k),
        qmask)``, so they are cached per run and shared across nodes.
        """
        obj = self.objective
        k = self._node_k[nid]
        mask = self._node_qmask[nid]
        gk = getattr(obj, "grid_key", None)
        key = (gk(k) if gk is not None else k, mask)
        got = self._grid_cache.get(key)
        if got is not None:
            return got
        P = self._P
        q_list = [q for q in range(P) if mask >> q & 1]
        invalid = obj.invalid_state
        pre_invalid = obj.pre_branch_invalid
        groups: List[Tuple[int, int, List]] = []
        for q in q_list:
            for b2 in range(P):
                b1_list = []
                for b1 in range(P):
                    if invalid(k, q, b1, b2) or pre_invalid(k, b1, b2):
                        continue
                    b1_list.append((b1, (q * P + b1) * P + b2))
                if b1_list:
                    groups.append((q, b2, b1_list))
        got = (q_list, groups)
        self._grid_cache[key] = got
        return got

    def _seal(self, out: List, q_count: int) -> Optional[List]:
        """Prune, freeze sparse entry views, and count one node's tables."""
        obj = self.objective
        stats = self.stats
        L = self._labels
        any_entry = False
        if L == 1:
            # Scalar value algebra: nothing to prune, one possible entry.
            for vi, tbl in enumerate(out):
                if tbl is None:
                    continue
                c0 = tbl[0][0]
                if c0 != _INF:
                    out[vi] = (tbl[0], tbl[1], ((0, c0),))
                    any_entry = True
                else:
                    out[vi] = None
            stats.states_computed += q_count * self._P * self._P
            return out if any_entry else None
        for vi, tbl in enumerate(out):
            if tbl is None:
                continue
            costs, choices = tbl
            obj.prune_arrays(costs, choices, stats)
            entries = tuple(
                (label, costs[label]) for label in range(L) if costs[label] != _INF
            )
            if entries:
                out[vi] = (costs, choices, entries)
                any_entry = True
            else:
                out[vi] = None
        stats.states_computed += q_count * self._P * self._P
        return out if any_entry else None

    def _leaf_tables(self, nid: int, kind: int) -> Optional[List]:
        """Tables of a single-column or empty-interval node, all variants at once."""
        obj = self.objective
        P = self._P
        L = self._labels
        columns = self.decomp.columns
        k = self._node_k[nid]
        t1, t2 = columns[self._node_i1[nid]], columns[self._node_i2[nid]]
        mask = self._node_qmask[nid]
        out: List[Optional[Tuple]] = [None] * (P * P * P)
        for q in range(P):
            if not mask >> q & 1:
                continue
            for b1 in range(P):
                for b2 in range(P):
                    if obj.invalid_state(k, q, b1, b2):
                        continue
                    if kind == _SINGLE:
                        table = obj.single_column(
                            k, q, b1, b2, self._node_jobs_list[nid], t1
                        )
                    else:
                        table = obj.empty_interval(q, b1, b2, t1, t2)
                    if not table:
                        continue
                    costs = [_INF] * L
                    choices: List = [None] * L
                    for label, (cost, choice) in table:
                        costs[label] = cost
                        choices[label] = choice
                    out[(q * P + b1) * P + b2] = [costs, choices]
        return self._seal(out, bin(mask).count("1"))

    def _branch_tables(self, nid: int, tables: List) -> Optional[List]:
        """Tables of one branch node: combine child tables over every split."""
        obj = self.objective
        P = self._P
        columns = self.decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        t1, t2 = columns[i1], columns[i2]
        jmax, splits, right_end_id = self._node_plan[nid]
        q_list, groups = self._variant_grid(nid)
        out: List[Optional[List]] = [None] * (P * P * P)
        if not groups:
            return self._seal(out, len(q_list))
        L = self._labels
        scalar = L == 1
        left_range = list(obj.left_b2_values())
        left_boundary = obj.left_boundary
        lookups = 0
        for t_prime, left_id, right_id, adjacent, stretch, rt2 in splits:
            left_tables = tables[left_id]
            right_tables = tables[right_id]
            if left_tables is None or right_tables is None:
                continue
            at_edge = t_prime == t1
            # Left children always run with q = 1; prefetch their sparse
            # entry views once per split, shared by every parent variant.
            left_by_b1: List[List] = []
            for lb1 in range(P):
                base = (P + lb1) * P
                entries = []
                for lb2 in left_range:
                    e = left_tables[base + lb2]
                    if e is not None:
                        entries.append((lb2, e[2], base + lb2))
                left_by_b1.append(entries)
            lookups += P * len(left_range)
            for q, b2, b1_list in groups:
                right_range = obj.right_b1_values(q, rt2)
                rbase = q * P * P + b2
                right_entries = []
                for rb1 in right_range:
                    rvi = rbase + rb1 * P
                    e = right_tables[rvi]
                    if e is not None:
                        right_entries.append((rb1, e[2], rvi))
                lookups += len(right_range)
                if not right_entries:
                    continue
                charges = obj.charge_matrix(q, adjacent, stretch, rt2)
                if scalar:
                    # Scalar value algebra (power): the best right boundary
                    # for a given mid-boundary lb2 is independent of b1, so
                    # hoist the min over rb1 out of the b1 loop.
                    best_right = []
                    for lb2 in range(P):
                        charge_row = charges[lb2]
                        bv = _INF
                        brvi = -1
                        for rb1, r_entries, rvi in right_entries:
                            cost = charge_row[rb1] + r_entries[0][1]
                            if cost < bv:
                                bv = cost
                                brvi = rvi
                        best_right.append((bv, brvi))
                    for b1, vi in b1_list:
                        lb1 = left_boundary(b1, at_edge)
                        if lb1 is None:
                            continue
                        left_entries = left_by_b1[lb1]
                        if not left_entries:
                            continue
                        tbl = out[vi]
                        if tbl is None:
                            costs = [_INF]
                            choices: List = [None]
                            tbl = out[vi] = [costs, choices]
                        else:
                            costs, choices = tbl
                        for lb2, l_entries, lvi in left_entries:
                            bv, brvi = best_right[lb2]
                            cost = l_entries[0][1] + bv
                            if cost < costs[0]:
                                costs[0] = cost
                                choices[0] = (
                                    "split", jmax, t_prime,
                                    left_id, lvi, 0, right_id, brvi, 0,
                                )
                    continue
                for b1, vi in b1_list:
                    lb1 = left_boundary(b1, at_edge)
                    if lb1 is None:
                        continue
                    left_entries = left_by_b1[lb1]
                    if not left_entries:
                        continue
                    tbl = out[vi]
                    if tbl is None:
                        costs = [_INF] * L
                        choices = [None] * L
                        tbl = out[vi] = [costs, choices]
                    else:
                        costs, choices = tbl
                    for lb2, l_entries, lvi in left_entries:
                        charge_row = charges[lb2]
                        for rb1, r_entries, rvi in right_entries:
                            charge = charge_row[rb1]
                            for ll, cl in l_entries:
                                base_cost = cl + charge
                                for lr, cr in r_entries:
                                    lab = ll if ll >= lr else lr
                                    cost = base_cost + cr
                                    if cost < costs[lab]:
                                        costs[lab] = cost
                                        choices[lab] = (
                                            "split", jmax, t_prime,
                                            left_id, lvi, ll, right_id, rvi, lr,
                                        )
        # Case t' == t2: the latest-deadline job runs at the right boundary.
        if right_end_id is not None:
            child_tables = tables[right_end_id]
            if child_tables is not None:
                for q, b2, b1_list in groups:
                    for b1, vi in b1_list:
                        child = obj.right_end_child(k, q, b1, b2)
                        if child is None:
                            continue
                        cq, cb1, cb2 = child
                        cvi = (cq * P + cb1) * P + cb2
                        lookups += 1
                        e = child_tables[cvi]
                        if e is None:
                            continue
                        tbl = out[vi]
                        if tbl is None:
                            costs = [_INF] * L
                            choices = [None] * L
                            tbl = out[vi] = [costs, choices]
                        else:
                            costs, choices = tbl
                        for lab, cost in e[2]:
                            if cost < costs[lab]:
                                costs[lab] = cost
                                choices[lab] = (
                                    "right_end", right_end_id, cvi, lab, jmax, t2,
                                )
        self.stats.memo_hits += lookups
        return self._seal(out, len(q_list))

    # -- reconstruction ----------------------------------------------------------
    def _reconstruct(self, node_id: int, variant: int, label: int) -> Dict[int, int]:
        """Replay table choices into a ``job -> time`` assignment, iteratively."""
        assignment: Dict[int, int] = {}
        stack: List[Tuple[int, int, int]] = [(node_id, variant, label)]
        while stack:
            nid, vi, lab = stack.pop()
            choice = self._choice(nid, vi, lab)
            if choice is None:
                raise AssertionError("reconstruction reached a pruned table entry")
            tag = choice[0]
            if tag == "empty":
                continue
            if tag == "column":
                for job_idx in choice[1]:
                    assignment[job_idx] = choice[2]
                continue
            if tag == "right_end":
                _tag, child_id, child_vi, child_label, jmax, t2 = choice
                assignment[jmax] = t2
                stack.append((child_id, child_vi, child_label))
                continue
            if tag == "split":
                (_tag, jmax, t_prime, left_id, lvi, ll, right_id, rvi, lr) = choice
                assignment[jmax] = t_prime
                stack.append((left_id, lvi, ll))
                stack.append((right_id, rvi, lr))
                continue
            raise AssertionError(f"unknown reconstruction tag {tag!r}")
        return assignment


# ---------------------------------------------------------------------------
# v4: the whole DP pass in one compiled kernel
# ---------------------------------------------------------------------------
class CompiledDPEngine(IntervalDPEngine):
    """v4: the bottom-up evaluator compiled, from the instance to sealed tables.

    One call of the C kernel in ``combine.c`` does everything v2 does up
    to the root scan.  It runs v2's discovery: demand-driven expansion
    with q-mask propagation, the Hall pre-check, the capacity-gated split
    plans in candidate-column order and the right-end children.  It writes
    the leaf tables, then combines child tables over every split of every
    branch node, applies the ``t' == t2`` right-end merge and seals each
    node with the gap objective's dominance prune.  Tables are dense
    floats: one ``P * P * labels`` plane per node and reachable ``q``,
    with a parallel winner plane.

    The kernel reads the objective only through tables built here from
    the objective's own methods: leaf values per ``(k <= p, q, b1, b2)``
    and per idle stretch, boundary maps, variant grids and charge
    matrices.  So it serves both objectives, and it reproduces the scalar
    loop's visit order, tie breaks, float association and counters:
    values, schedules and stats are byte-identical to
    :class:`IntervalDPEngine`'s.

    The kernel owns the node graph and the tables; they are freed when the
    engine is collected.  Python keeps the root scan and reconstruction,
    which decodes the choices on the optimal path from the exported node
    arrays and winner planes and recomputes the jobs of the leaves on that
    path.  Gap values come back as ``int``, power values as ``float``.

    Raises :class:`RuntimeError` when the kernel is unavailable (no C
    compiler and no cached build); :func:`build_engine` then picks v2.
    """

    version = COMPILED_ENGINE_VERSION

    def __init__(self, decomp: IntervalDecomposition, objective) -> None:
        super().__init__(decomp, objective)
        self._kernel = combine_kernel.load()
        if self._kernel is None:
            raise RuntimeError("the compiled combine kernel is unavailable")
        # Gap tables hold integer costs; the kernel computes in doubles
        # (exactly, far below 2**53) and values convert back on the way out.
        self._value_type = type(objective.zero_value())
        left = list(objective.left_b2_values())
        if left != list(range(left[0], left[0] + len(left))):
            raise ValueError("left_b2_values must be a contiguous range")
        self._left_range = (left[0], left[0] + len(left))

    def _ensure_tables(self) -> None:
        """Run discovery, the leaf tables and evaluation in one kernel call."""
        if self._tables is not None:
            return
        decomp = self.decomp
        columns = decomp.columns
        release_col = array("q")
        deadline_col = array("q")
        for j in decomp.deadline_order:
            job = decomp.jobs[j]
            release_col.append(decomp.column_index.get(job.release, -1))
            deadline_col.append(bisect_right(columns, job.deadline) - 1)
        C = self._C
        arrays = dict(release_col=release_col, deadline_col=deadline_col)
        # A pruned root is all discovery finds, and it reads no table.
        if not self._root_pruned(release_col):
            # The idle stretch t2 - t1 - 1 of every column pair an
            # empty-interval node can span, as a row of the empty table.
            rows: Dict[int, int] = {}
            empty_row = array("q", [-1]) * (C * C)
            for i1, t1 in enumerate(columns):
                for i2 in range(i1 + 1, C):
                    empty_row[i1 * C + i2] = rows.setdefault(columns[i2] - t1 - 1, len(rows))
            arrays.update(self._algebra_tables(list(rows)), empty_row=empty_row)
        run = combine_kernel.DPRun(
            P=self._P,
            L=self._labels,
            lb2_lo=self._left_range[0],
            lb2_hi=self._left_range[1],
            C=C,
            n=len(decomp.jobs),
            hall_min_jobs=_HALL_CHECK_MIN_JOBS,
            # ``arrays`` keeps every input buffer alive across the call.
            **{name: buf.buffer_info()[0] for name, buf in arrays.items()},
        )
        status = self._kernel.dp_solve(run)
        if status == -1:
            raise MemoryError("the interval-DP kernel ran out of memory")
        if status != 0:
            raise RuntimeError("the kernel's root survived, but no tables were passed")
        weakref.finalize(self, self._kernel.dp_release, run)
        stats = self.stats
        stats.states_computed += run.states_computed
        stats.memo_hits += run.memo_hits
        stats.hall_pruned += run.hall_pruned
        stats.dominance_dropped += run.dominance_dropped
        stats.plans_built += run.plans_built
        if run.peak_depth > stats.peak_stack_depth:
            stats.peak_stack_depth = run.peak_depth
        self._root_id = 0
        self._tables = run

    def _root_pruned(self, release_col: array) -> bool:
        """Whether discovery prunes the root, by v2's capacity and Hall checks.

        The root holds every job; one released off the candidate columns
        leaves it short of jobs.
        """
        decomp = self.decomp
        n = len(decomp.jobs)
        if -1 in release_col or n > self.p * self._C:
            return True
        if n < _HALL_CHECK_MIN_JOBS:
            return False
        columns = decomp.columns
        releases = sorted(job.release for job in decomp.jobs)
        return not _hall_feasible(
            decomp.jobs, columns, self.p, decomp.deadline_order, releases,
            columns[0], columns[-1],
        )

    def _algebra_tables(self, stretches: List[int]) -> Dict[str, array]:
        """The objective's value algebra, tabulated for the kernel.

        Every table comes from the objective's own methods, so the kernel
        applies exactly the rules the scalar loop applies.  Variant grids
        (and right-end child variants) are built once per ``grid_key``
        class of the job counts ``1..n``; charge matrices once per
        candidate column of ``t'``, per "right child touches ``t2``" flag
        and per ``q``.  Leaf values never read the node jobs or the column
        times beyond the idle stretch, so single-column tables are built
        once per ``k <= p`` (a single column holds at most ``p`` jobs) and
        empty-interval tables once per idle stretch in ``stretches``, in
        that order.
        """
        obj = self.objective
        P, L = self._P, self._labels
        P3 = P * P * P
        n = len(self.decomp.jobs)
        variants = [
            (vi, q, b1, b2)
            for vi, (q, b1, b2) in enumerate(
                (q, b1, b2) for q in range(P) for b1 in range(P) for b2 in range(P)
            )
        ]
        left_b1 = array("q")
        right_b1_hi = array("q")
        for flag in (False, True):
            for b in range(P):
                lb1 = obj.left_boundary(b, flag)
                left_b1.append(-1 if lb1 is None else lb1)
                right_b1_hi.append(len(obj.right_b1_values(b, flag)))
        grid_key = getattr(obj, "grid_key", None)
        rows: Dict = {}
        grid_of_k = array("q", [0]) * (n + 1)
        valid = array("B")
        right_end_vi = array("q")
        for k in range(1, n + 1):
            key = grid_key(k) if grid_key is not None else k
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(rows)
                for _vi, q, b1, b2 in variants:
                    valid.append(
                        not (obj.invalid_state(k, q, b1, b2)
                             or obj.pre_branch_invalid(k, b1, b2))
                    )
                    child = obj.right_end_child(k, q, b1, b2)
                    right_end_vi.append(
                        -1 if child is None
                        else (child[0] * P + child[1]) * P + child[2]
                    )
            grid_of_k[k] = row
        columns = self.decomp.columns
        charges = array("d")
        charge_pos: Dict[int, int] = {}
        matrices = []  # keeps every matrix alive, so ids stay unique
        charge_of = array("q", [0]) * (len(columns) * 2 * P)
        for ci in range(len(columns) - 1):
            gap = columns[ci + 1] - columns[ci]
            for flag in (False, True):
                for q in range(P):
                    matrix = obj.charge_matrix(q, gap == 1, gap - 1, flag)
                    pos = charge_pos.get(id(matrix))
                    if pos is None:
                        pos = charge_pos[id(matrix)] = len(matrices)
                        matrices.append(matrix)
                        for row_values in matrix:
                            charges.extend(row_values)
                    charge_of[(ci * 2 + flag) * P + q] = pos
        invalid = obj.invalid_state
        single = array("d", [_INF]) * (P * P3 * L)
        for k in range(P):
            for vi, q, b1, b2 in variants:
                if not invalid(k, q, b1, b2):
                    for label, (value, _choice) in obj.single_column(k, q, b1, b2, (), None):
                        single[(k * P3 + vi) * L + label] = value
        empty = array("d", [_INF]) * (len(stretches) * P3 * L)
        live = [entry for entry in variants if not invalid(0, *entry[1:])]
        for row, stretch in enumerate(stretches):
            for vi, q, b1, b2 in live:
                for label, (value, _choice) in obj.empty_interval(q, b1, b2, 0, stretch + 1):
                    empty[(row * P3 + vi) * L + label] = value
        return dict(
            left_b1=left_b1,
            right_b1_hi=right_b1_hi,
            valid=valid,
            right_end_vi=right_end_vi,
            grid_of_k=grid_of_k,
            charges=charges,
            charge_of=charge_of,
            single=single,
            empty=empty,
        )

    def _slot(self, nid: int, vi: int, label: int) -> int:
        """Flat index of one ``(variant, label)`` slot, or ``-1``."""
        P = self._P
        q, rest = divmod(vi, P * P)
        off = self._tables.plane[nid * P + q]
        return -1 if off < 0 else off + rest * self._labels + label

    def _entries(self, nid: int, vi: int):
        slot = self._slot(nid, vi, 0)
        if slot < 0:
            return ()
        cost = self._tables.cost
        value_type = self._value_type
        return [
            (label, value_type(cost[slot + label]))
            for label in range(self._labels)
            if cost[slot + label] != _INF
        ]

    def _choice(self, nid: int, vi: int, label: int):
        run = self._tables
        slot = self._slot(nid, vi, label)
        if slot < 0 or run.cost[slot] == _INF:
            return None
        obj = self.objective
        columns = self.decomp.columns
        P, L = self._P, self._labels
        q, rest = divmod(vi, P * P)
        b1, b2 = divmod(rest, P)
        kind, i1, i2, k = run.kind[nid], run.i1[nid], run.i2[nid], run.k[nid]
        if kind != _BRANCH:
            if kind == _SINGLE:
                table = obj.single_column(
                    k, q, b1, b2, self._released(i1, i2)[:k], columns[i1]
                )
            else:
                table = obj.empty_interval(q, b1, b2, columns[i1], columns[i2])
            for lab, (_cost, choice) in table:
                if lab == label:
                    return choice
            return None
        jmax = self.decomp.deadline_order[run.jmax[nid]]
        code = run.win[slot]
        if code < 0:
            cq, cb1, cb2 = obj.right_end_child(k, q, b1, b2)
            return (
                "right_end", run.right_end[nid], (cq * P + cb1) * P + cb2, label,
                jmax, columns[i2],
            )
        code, lr = divmod(code, L)
        code, ll = divmod(code, L)
        code, rb1 = divmod(code, P)
        s, lb2 = divmod(code, P)
        split = run.split_lo[nid] + s
        left_id, right_id = run.split_left[split], run.split_right[split]
        ci = run.i2[left_id]
        lb1 = obj.left_boundary(b1, ci == i1)
        return (
            "split", jmax, columns[ci],
            left_id, (P + lb1) * P + lb2, ll,
            right_id, (q * P + rb1) * P + b2, lr,
        )


# ---------------------------------------------------------------------------
# v1: lazy top-down evaluation through a generator trampoline
# ---------------------------------------------------------------------------
class TrampolineDPEngine:
    """Lazy top-down evaluator of the interval DP (v1, generator trampoline).

    Kept as the differential reference for :class:`IntervalDPEngine` and as
    the measured "engine v1" column of ``repro-sched bench``.  States are
    evaluated by an explicit stack of suspended generators over a dict memo
    keyed by packed mixed-radix integers; see the module docstring for the
    shared state space and pruning machinery.
    """

    version = TRAMPOLINE_ENGINE_VERSION

    def __init__(self, decomp: IntervalDecomposition, objective) -> None:
        self.decomp = decomp
        self.objective = objective
        self.p = decomp.num_processors
        self.stats = EngineStats()
        self.memo: Dict[int, Dict] = {}
        self._node_cache: Dict[int, Optional[Tuple[int, ...]]] = {}
        self._plan_cache: Dict[int, _SplitPlan] = {}
        # Mixed-radix bases of the flat integer state keys.
        self._C = len(decomp.columns)
        self._n1 = len(decomp.jobs) + 1
        self._P = self.p + 1

    # -- public API -------------------------------------------------------------
    def solve(self) -> EngineOutcome:
        """Evaluate the DP at the root and reconstruct an optimal assignment."""
        obj = self.objective
        n = self._n1 - 1
        if n == 0:
            return EngineOutcome(
                feasible=True, value=obj.zero_value(), assignment={}, stats=self.stats
            )
        i2 = self._C - 1
        best: Optional[Tuple[float, int, int]] = None  # (total, root key, label)
        for b1 in range(self.p + 1):
            for b2 in range(self.p + 1):
                fields = (0, i2, n, 0, b1, b2)
                table = self.evaluate(fields)
                for label, entry in table:
                    total = obj.root_total(b1, label, entry[0])
                    if total is None:
                        continue
                    if best is None or total < best[0]:
                        best = (total, self._encode(*fields), label)
        if best is None:
            return EngineOutcome(
                feasible=False, value=None, assignment=None, stats=self.stats
            )
        assignment = self._reconstruct(best[1], best[2])
        return EngineOutcome(
            feasible=True, value=best[0], assignment=assignment, stats=self.stats
        )

    def metadata(self) -> Dict:
        """JSON-native engine identification and pruning/memo statistics."""
        return {
            "name": ENGINE_NAME,
            "version": self.version,
            "objective": self.objective.name,
            "stats": self.stats.as_dict(),
        }

    # -- state-key packing ------------------------------------------------------
    def _encode(self, i1: int, i2: int, k: int, q: int, b1: int, b2: int) -> int:
        P = self._P
        return ((((i1 * self._C + i2) * self._n1 + k) * P + q) * P + b1) * P + b2

    # -- iterative evaluation ---------------------------------------------------
    def evaluate(self, fields: Tuple[int, int, int, int, int, int]) -> Dict:
        """Evaluate one state (and, transitively, everything it depends on).

        The recursion is simulated by an explicit stack of suspended
        generators: each generator yields the child states it needs, the
        driver answers from the memo or pushes the child, and a finished
        generator's return value is memoised and sent to its parent.  Native
        stack depth stays O(1) no matter how deep the DP nests.
        """
        key = self._encode(*fields)
        memo = self.memo
        found = memo.get(key, _MISSING)
        if found is not _MISSING:
            self.stats.memo_hits += 1
            return found
        stats = self.stats
        # Any evaluation — even one answered inline by a leaf table —
        # examined at least one logical stack level; leaf- or Hall-pruned-
        # only runs previously reported a depth of 0.
        if stats.peak_stack_depth < 1:
            stats.peak_stack_depth = 1
        leaf = self._leaf_table(*fields)
        if leaf is not _MISSING:
            memo[key] = leaf
            stats.states_computed += 1
            return leaf
        stack: List[Tuple[int, object]] = [(key, self._state_gen(*fields))]
        send_value = None
        while stack:
            top_key, gen = stack[-1]
            try:
                child_key, child_fields = gen.send(send_value)
            except StopIteration as done:
                table = done.value if done.value is not None else ()
                memo[top_key] = table
                stats.states_computed += 1
                stack.pop()
                send_value = table
                continue
            # Terminal and structurally-invalid children are computed inline;
            # only genuine branch states pay for a suspended generator.
            table = self._leaf_table(*child_fields)
            if table is not _MISSING:
                memo[child_key] = table
                stats.states_computed += 1
                send_value = table
            else:
                stack.append((child_key, self._state_gen(*child_fields)))
                if len(stack) > stats.peak_stack_depth:
                    stats.peak_stack_depth = len(stack)
                send_value = None
        return memo[key]

    def _leaf_table(self, i1, i2, k, q, b1, b2):
        """Direct table for terminal/invalid states, or ``_MISSING`` for branch states."""
        obj = self.objective
        p = self.p
        if k < 0 or q < 0 or b1 < 0 or b2 < 0 or q > p or b1 > p or b2 > p:
            return ()
        if obj.invalid_state(k, q, b1, b2):
            return ()
        if i1 == i2:
            node = self._node_jobs(i1, i2, k)
            if node is None:
                return ()
            return obj.single_column(k, q, b1, b2, node[0], self.decomp.columns[i1])
        if k == 0:
            return obj.empty_interval(
                q, b1, b2, self.decomp.columns[i1], self.decomp.columns[i2]
            )
        if obj.pre_branch_invalid(k, b1, b2):
            return ()
        if self._node_jobs(i1, i2, k) is None:
            return ()
        return _MISSING

    def _state_gen(self, i1, i2, k, q, b1, b2):
        """Generator computing one *branch* state's table, yielding needed children.

        Only created for states :meth:`_leaf_table` classified as branch
        states, so structural guards have already passed and the node's job
        set is cached and non-``None``.  Tables are returned as immutable
        tuples of ``(label, (cost, choice))`` pairs: parents only ever
        iterate them, and freezing them avoids re-materialising dict views
        in the combination hot loop.
        """
        obj = self.objective
        columns = self.decomp.columns
        t1 = columns[i1]
        t2 = columns[i2]
        node_jobs, releases = self._node_jobs(i1, i2, k)
        plan = self._split_plan(i1, i2, k, node_jobs, releases, t1, t2)
        jmax = plan.jmax
        best: Dict = {}

        # The generator consults the memo directly and only yields states the
        # driver actually has to compute; right-child tables are prefetched
        # once per split instead of once per (left, right) boundary pair.
        # Memo hits are derived arithmetically (lookups minus misses) so the
        # hot loop carries no per-lookup counter updates.
        memo = self.memo
        lookups = 0
        misses = 0
        C, n1, P = self._C, self._n1, self._P
        base_i1 = i1 * C
        left_range = obj.left_b2_values()
        left_len = len(left_range)
        right_range_inner = obj.right_b1_values(q, False)
        right_range_touch = obj.right_b1_values(q, True)
        left_b1_edge = obj.left_boundary(b1, True)
        left_b1_inner = obj.left_boundary(b1, False)

        # Case t' < t2: split into left [t1, t'] and right [t_next, t2].
        for (ci, t_prime, k_left, k_right, idx_next, adjacent, stretch, rt2) in plan.splits:
            left_b1 = left_b1_edge if t_prime == t1 else left_b1_inner
            if left_b1 is None:
                continue
            left_base = ((((base_i1 + ci) * n1 + k_left) * P + 1) * P + left_b1) * P
            right_base = (((idx_next * C + i2) * n1 + k_right) * P + q) * P
            # Left subproblems gate the split: when every left boundary is
            # empty the right subtree is never materialised (matching the
            # laziness of a plain recursion), and when any is non-empty the
            # right children are fetched once and shared by all of them.
            lookups += left_len
            left_entries = []
            for left_b2 in left_range:
                left_key = left_base + left_b2
                left_table = memo.get(left_key, _MISSING)
                if left_table is _MISSING:
                    misses += 1
                    left_table = yield (
                        left_key,
                        (i1, ci, k_left, 1, left_b1, left_b2),
                    )
                if left_table:
                    left_entries.append((left_b2, left_key, left_table))
            if not left_entries:
                continue
            right_range = right_range_touch if rt2 else right_range_inner
            lookups += len(right_range)
            right_entries = []
            for right_b1 in right_range:
                right_key = (right_base + right_b1) * P + b2
                right_table = memo.get(right_key, _MISSING)
                if right_table is _MISSING:
                    misses += 1
                    right_table = yield (
                        right_key,
                        (idx_next, i2, k_right, q, right_b1, b2),
                    )
                if right_table:
                    right_entries.append((right_b1, right_key, right_table))
            if not right_entries:
                continue
            charges = obj.charge_matrix(q, adjacent, stretch, rt2)
            for left_b2, left_key, left_table in left_entries:
                charge_row = charges[left_b2]
                for right_b1, right_key, right_table in right_entries:
                    charge = charge_row[right_b1]
                    for label_l, entry_l in left_table:
                        cost_l = entry_l[0] + charge
                        for label_r, entry_r in right_table:
                            label = label_l if label_l >= label_r else label_r
                            cost = cost_l + entry_r[0]
                            cur = best.get(label)
                            if cur is None or cost < cur[0]:
                                best[label] = (
                                    cost,
                                    (
                                        "split",
                                        jmax,
                                        t_prime,
                                        left_key,
                                        label_l,
                                        right_key,
                                        label_r,
                                    ),
                                )

        # Case t' == t2: the latest-deadline job runs at the right boundary.
        if plan.right_end:
            child = obj.right_end_child(k, q, b1, b2)
            if child is not None:
                cq, cb1, cb2 = child
                child_key = (
                    (((base_i1 + i2) * n1 + (k - 1)) * P + cq) * P + cb1
                ) * P + cb2
                lookups += 1
                child_table = memo.get(child_key, _MISSING)
                if child_table is _MISSING:
                    misses += 1
                    child_table = yield (child_key, (i1, i2, k - 1, cq, cb1, cb2))
                for label, entry in child_table:
                    cur = best.get(label)
                    if cur is None or entry[0] < cur[0]:
                        best[label] = (
                            entry[0],
                            ("right_end", child_key, label, jmax, t2),
                        )

        self.stats.memo_hits += lookups - misses
        obj.prune_table(best, self.stats)
        return tuple(best.items())

    # -- per-(i1, i2, k) caches -------------------------------------------------
    def _node_jobs(self, i1: int, i2: int, k: int):
        """The node's ``(job set, sorted releases)``, or ``None`` when pruned.

        ``None`` covers both unreachable states (fewer than ``k`` jobs
        released in the interval) and Hall-pruned ones.  The sorted release
        list is shared between the Hall check and the split plan.
        """
        cache_key = (i1 * self._C + i2) * self._n1 + k
        cached = self._node_cache.get(cache_key, _MISSING)
        if cached is not _MISSING:
            return cached
        columns = self.decomp.columns
        t1, t2 = columns[i1], columns[i2]
        released = self.decomp.jobs_released_in(t1, t2)
        if k > len(released):
            result = None
        else:
            node = tuple(released[:k])
            jobs = self.decomp.jobs
            releases = sorted(jobs[j].release for j in node)
            result = (node, releases)
            # The Hall check costs O(k log C) per (i1, i2, k); below a few
            # jobs the states it could prune are cheaper than the check.
            if k >= _HALL_CHECK_MIN_JOBS and not _hall_feasible(
                jobs, columns, self.p, node, releases, t1, t2
            ):
                self.stats.hall_pruned += 1
                result = None
        self._node_cache[cache_key] = result
        return result

    def _split_plan(
        self,
        i1: int,
        i2: int,
        k: int,
        node_jobs: Tuple[int, ...],
        releases: List[int],
        t1: int,
        t2: int,
    ) -> _SplitPlan:
        """Branch bookkeeping for the node, computed once and shared."""
        cache_key = (i1 * self._C + i2) * self._n1 + k
        cached = self._plan_cache.get(cache_key)
        if cached is not None:
            return cached
        decomp = self.decomp
        columns = decomp.columns
        jmax = node_jobs[-1]
        candidate_cols = decomp.candidate_columns_for_job(jmax, t1, t2)
        right_end = bool(candidate_cols) and candidate_cols[-1] == i2
        splits = []
        for ci in candidate_cols:
            t_prime = columns[ci]
            if t_prime == t2:
                continue
            num_right = k - bisect_right(releases, t_prime)
            k_left = k - 1 - num_right
            if k_left < 0:
                continue
            idx_next = ci + 1
            t_next = columns[idx_next]
            splits.append(
                (
                    ci,
                    t_prime,
                    k_left,
                    num_right,
                    idx_next,
                    t_next == t_prime + 1,
                    t_next - t_prime - 1,
                    idx_next == i2,
                )
            )
        plan = _SplitPlan(jmax=jmax, right_end=right_end, splits=tuple(splits))
        self._plan_cache[cache_key] = plan
        self.stats.plans_built += 1
        return plan

    # -- reconstruction ----------------------------------------------------------
    def _reconstruct(self, key: int, label) -> Dict[int, int]:
        """Replay memoised decisions into a ``job -> time`` assignment, iteratively."""
        assignment: Dict[int, int] = {}
        stack: List[Tuple[int, object]] = [(key, label)]
        memo = self.memo
        while stack:
            state_key, state_label = stack.pop()
            choice = None
            for label, entry in memo[state_key]:
                if label == state_label:
                    choice = entry[1]
                    break
            if choice is None:
                raise AssertionError("reconstruction reached a pruned table entry")
            tag = choice[0]
            if tag == "empty":
                continue
            if tag == "column":
                for job_idx in choice[1]:
                    assignment[job_idx] = choice[2]
                continue
            if tag == "right_end":
                _tag, child_key, child_label, jmax, t2 = choice
                assignment[jmax] = t2
                stack.append((child_key, child_label))
                continue
            if tag == "split":
                _tag, jmax, t_prime, left_key, left_label, right_key, right_label = choice
                assignment[jmax] = t_prime
                stack.append((left_key, left_label))
                stack.append((right_key, right_label))
                continue
            raise AssertionError(f"unknown reconstruction tag {tag!r}")
        return assignment


def build_engine(decomp: IntervalDecomposition, objective):
    """Construct the evaluator this platform runs best.

    :class:`CompiledDPEngine` (v4) when the combine kernel loads, otherwise
    the scalar :class:`IntervalDPEngine` (v2) — the fallback for hosts
    without a C compiler.  Both produce byte-identical values, schedules
    and counters.
    """
    if combine_kernel.load() is not None:
        return CompiledDPEngine(decomp, objective)
    return IntervalDPEngine(decomp, objective)


def staircase_schedule(
    instance: MultiprocessorInstance, times: Dict[int, int]
) -> MultiprocessorSchedule:
    """Stack a ``job -> time`` assignment onto processors in staircase order."""
    by_time: Dict[int, List[int]] = {}
    for job_idx, t in times.items():
        by_time.setdefault(t, []).append(job_idx)
    assignment: Dict[int, Tuple[int, int]] = {}
    for t, job_indices in by_time.items():
        for level, job_idx in enumerate(sorted(job_indices), start=1):
            assignment[job_idx] = (level, t)
    schedule = MultiprocessorSchedule(instance=instance, assignment=assignment)
    schedule.validate()
    return schedule
