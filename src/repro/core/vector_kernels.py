"""Optional numpy min-plus kernels behind the vectorized v3 DP evaluator.

Every numpy touchpoint of :class:`repro.core.interval_dp.VectorizedDPEngine`
lives in this module so the rest of the engine stays importable on
installations without the ``repro-sched[speed]`` extra.  The import is
guarded: :func:`numpy_available` reports whether the kernels can run, and
``_DISABLED`` is a test hook — monkeypatch it to ``True`` to simulate a
numpy-less environment without uninstalling anything.

The kernels replace the split-combine part of the scalar v2 evaluator
(``IntervalDPEngine._branch_tables``) for **single-label** objectives —
the power objective of Theorem 2, whose tables are dense float planes.
The gap objective's occupancy-labelled tables stay on the scalar combine:
dominance pruning keeps them label-sparse, and a dense labelled kernel
measured 0.67-0.74x of the scalar loop (see docs/performance.md).  The
kernels carry a strict **byte-identity contract**: they must produce the
same sealed tables — same costs (including float bit patterns), same
choice tuples (same tie-breaking), and the same stats counters — as the
scalar loop they replace.  The contract is what lets v3 results replay
through the canonicalization/disk caches interchangeably with v2 and is
enforced by the differential suite in ``tests/test_engine_v3.py``.

Batching strategy: whole layers, slab outputs, lazy decode
----------------------------------------------------------
The scalar combine is a nested loop per node: ``split × (q, b2) group ×
b1 × lb2 × rb1``.  Per-node tensors are only a few thousand elements, so
per-node kernel dispatch loses to the scalar loop outright; the kernels
therefore batch an entire **interval-length layer** of the node DAG per
invocation: split children live on strictly shorter intervals
(``_expand`` never creates a same-length split child), so once layer
``< len`` is sealed, the split-combine of *every* node at length ``len``
is data-ready at once.  Only the ``t' == t2`` right-end merge reads a
same-length child (same interval, ``k - 1`` jobs); it stays scalar,
applied per node in the v2 ``(length, k)`` evaluation order by
:meth:`MinPlusKernel.finish_node`.

The dispatch- and Python-side constants are kept flat by a few rules:

* **Slot-pool mirrors.**  Dense child tables live in one preallocated
  pool array indexed by slot, so a whole layer's left-child and
  right-child planes are fetched with *one* fancy-index gather each —
  never one copy per child.  Kernel-sealed nodes register their own cost
  slab into the pool; leaf, scalar-fallback, and FIFO-evicted nodes are
  rebuilt from their sealed sparse entries on demand.
* **Bulk assembly.**  Charge matrices are deduped by identity into one
  small stack per layer; the bridge minima per ``(right child, q,
  charge)`` key are built by a constant number of stacked ufunc calls
  per layer.
* **Trimmed axes.**  The mid-boundary axis runs over
  ``objective.left_b2_values()`` only.  No masking of the boundary-range
  restrictions (``left_b2_values`` / ``right_b1_values``) is needed: the
  excluded variants are exactly the child states that are invalid or
  unreachable, i.e. already ``+inf`` in the dense mirrors — trimming the
  axis merely skips all-inf planes.
* **Slab outputs, lazy decode.**  Each staged node's result is a float64
  cost slab plus an int32 winner slab over ``(q, b1, b2, label)``,
  scattered straight out of the layer reduction; the cost slab doubles
  as the node's dense mirror for parent layers.  Invalid boundary
  variants are blanked with one cached boolean mask per ``(variant
  grid, q)``.  Sealed tables decode choice tuples lazily through
  :func:`decode_choice` — reconstruction touches one label per node on
  the optimal path, so eager choice materialization would dominate.

A *lane* is one ``(node, q, active split)`` triple; lanes of one layer
are concatenated with the lanes of each ``(node, q)`` pair contiguous —
one ``np.minimum.reduceat`` over those segments reduces the whole layer.
Layers larger than the chunk budget are processed in node-aligned chunks.

Exact tie-breaks without argmin over packed values
--------------------------------------------------
The scalar loop's winner per output state is the *first* strict minimum in
visit order ``(s, lb2, rb1)``.  Float values must keep their exact bit
patterns, so nothing is packed: the scalar loop hoists the best right
boundary per mid-boundary ``lb2`` out of the ``b1`` loop, and the kernel
builds that hoisted ``bridge = charge + right`` minimum (and its
first-occurrence argmin) for every key of the layer in one stacked pass,
preserving the scalar association order so sums are bit-identical.
Winning ``(s, lb2)`` rows are recovered with one vectorized ``where(value
== min) -> first row index`` pass per chunk.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised by the without-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the without-numpy CI leg
    _np = None

__all__ = [
    "numpy_available",
    "numpy_version",
    "MinPlusKernel",
]

#: Test hook: monkeypatch to ``True`` to make the kernels report numpy as
#: unavailable (forcing the scalar fallback) without touching the install.
_DISABLED = False

_INF = float("inf")

#: Element budget for the mirror slot pool (slot count adapts to P^3 * L).
_POOL_ELEMENTS = 4_194_304

#: Upper bound on broadcast-tensor elements per layer chunk; layers with
#: more lanes than fit are processed in node-aligned chunks.
_CHUNK_ELEMENTS = 2_000_000


def numpy_available() -> bool:
    """True when numpy imported and the kernels are not test-disabled."""
    return _np is not None and not _DISABLED


def numpy_version() -> Optional[str]:
    """The numpy version string, or ``None`` when kernels are unavailable."""
    if _np is None or _DISABLED:
        return None
    return str(_np.__version__)


class _Staged:
    """One staged branch node: slab outputs plus the lazy-decode context.

    ``slab`` is the float64 cost slab over ``(q, b1, b2, label)`` (also
    what gets registered as the node's dense mirror); ``rank`` the parallel
    int32 winner slab (node-local ``s * len(left range) + offset`` row;
    right-end winners are ``-(child variant index + 1)``).  ``finite``
    lists the flat variant indices with finite split-phase cost,
    ascending.  The remaining fields are the decode context read by
    :func:`decode_choice`.
    """

    __slots__ = (
        "kernel", "slab", "rank", "flat", "rankflat", "finite", "lookups",
        "q_list", "groups", "jmax", "active", "idx_maps", "right_end_id",
        "t2", "rm_idx", "brarg",
    )

    def __init__(
        self, kernel, lookups, q_list, groups, jmax, active, idx_maps,
        slab, rank, flat, rankflat,
    ):
        self.kernel = kernel
        self.lookups = lookups
        self.q_list = q_list
        self.groups = groups
        self.jmax = jmax
        self.active = active
        self.idx_maps = idx_maps
        self.right_end_id = None
        self.t2 = 0
        self.rm_idx: Dict[int, List[int]] = {}
        self.brarg = None
        # Views of the layer's one batch block (see layer_split_tables).
        self.slab = slab
        self.rank = rank
        self.flat = flat
        self.rankflat = rankflat
        self.finite: List[int] = []


def decode_choice(st: "_Staged", vi: int):
    """Decode the winning choice of one sealed kernel variant on demand.

    Kernel-sealed table entries carry ``(st, vi, entries)`` instead of a
    materialized label-indexed choice list — reconstruction touches one
    entry per path node, so choices decode lazily from the staged winner
    slabs here rather than allocating a view object per sealed variant.
    The kernels only run single-label objectives, so the choice is label 0's.
    """
    if st.flat[vi, 0] == _INF:
        return None
    w = int(st.rankflat[vi, 0])
    if w < 0:
        return ("right_end", st.right_end_id, -w - 1, 0, st.jmax, st.t2)
    k = st.kernel
    P = k.P
    s, off = divmod(w, k._mid_len)
    lb2 = k._mid_lo + off
    q, b1 = divmod(vi // P, P)
    b2 = vi - (q * P + b1) * P
    rb1 = int(st.brarg[st.rm_idx[q][s], b2, off])
    split = st.active[s]
    return (
        "split", st.jmax, split[0],
        split[1], (P + st.idx_maps[s][b1]) * P + lb2, 0,
        split[2], (q * P + rb1) * P + b2, 0,
    )


class _Layer:
    """Mutable assembly state for one interval-length layer of lanes."""

    __slots__ = (
        "lid_pos", "lid_list", "rm_pos", "rm_list", "cm_pos", "cm_list",
        "split_lid", "split_edge", "lane_split", "lane_rm",
        "seg_lane", "seg_qbase", "seg_mask", "nodes",
    )

    def __init__(self) -> None:
        self.lid_pos: Dict[int, int] = {}     # left child id -> stack position
        self.lid_list: List[int] = []
        self.rm_pos: Dict[Tuple, int] = {}    # bridge key -> stack position
        self.rm_list: List[Tuple] = []        # (right_id, q, charge stack pos)
        self.cm_pos: Dict[int, int] = {}      # id(charge matrix) -> stack pos
        self.cm_list: List[Any] = []          # charge matrices (refs pin ids)
        self.split_lid: List[int] = []        # per layer-split: left stack pos
        self.split_edge: List[int] = []       # per layer-split: 1 iff t' == t1
        self.lane_split: List[int] = []       # lane -> layer-split index
        self.lane_rm: List[int] = []          # lane -> bridge stack position
        self.seg_lane: List[int] = []         # segment -> first lane
        self.seg_qbase: List[int] = []        # segment -> q * P * P * L
        self.seg_mask: List[int] = []         # segment -> blank-template index
        #: (staged, seg_lo, seg_hi, lane_lo, lane_hi)
        self.nodes: List[Tuple] = []


class MinPlusKernel:
    """Vectorized split-combine for one single-label engine run (one ``p``).

    Exposes two entry points: :meth:`layer_split_tables` stages the split
    part of every qualifying branch node in one interval-length layer, and
    :meth:`finish_node` then finishes each staged node (right-end merge,
    memo accounting, sealing) in the scalar evaluation order, returning tables byte-identical to the scalar loop's.
    """

    def __init__(self, objective, num_processors: int) -> None:
        if not numpy_available():  # pragma: no cover - guarded by callers
            raise RuntimeError("MinPlusKernel requires numpy")
        if objective.num_labels != 1:  # pragma: no cover - guarded by callers
            raise RuntimeError("MinPlusKernel requires a single-label objective")
        self.objective = objective
        self.p = num_processors
        P = self.P = num_processors + 1
        L = self.L = 1
        # The trimmed mid-boundary axis: contiguous left_b2_values range.
        mids = list(objective.left_b2_values())
        self._mid_lo = mids[0]
        self._mid_len = len(mids)
        if mids != list(range(mids[0], mids[0] + len(mids))):
            raise RuntimeError(
                "vector kernels require a contiguous left_b2_values range"
            )
        # Boundary maps are node-independent: one per edge flag.
        lb = objective.left_boundary
        self._bmap_inner = tuple(lb(b1, False) for b1 in range(P))
        self._bmap_edge = tuple(lb(b1, True) for b1 in range(P))
        self._rows_by_edge = _np.asarray(
            [
                [P if v is None else v for v in self._bmap_inner],
                [P if v is None else v for v in self._bmap_edge],
            ],
            dtype=_np.intp,
        )
        # Mirror slot pool: dense (q, b1, b2, label) tables of sealed nodes,
        # gathered stack-at-a-time by slot index.  Slots recycle FIFO; the
        # pool starts small and grows with the largest layer seen.
        self._pool_slots = 256
        self._pool = _np.full((self._pool_slots, P, P, P, L), _INF)
        self._slot_of: Dict[int, int] = {}
        self._slot_owner: List[Optional[int]] = [None] * self._pool_slots
        self._slot_gen: List[int] = [-1] * self._pool_slots
        self._slot_next = 0
        self._gen = 0
        self._masks: Dict[Tuple, Tuple] = {}
        self._mask_templates: List[Any] = []
        self._grid_info: Dict[int, Tuple] = {}
        self._re_pairs: Dict[Tuple, List[Tuple[int, int]]] = {}
        #: Lane budget per chunk: the candidate tensor is ``P * P * n_mid``
        #: per lane; the doubled budget leaves room for its argmin companions.
        per_lane = P * P * max(1, 2 * self._mid_len)
        self._lane_chunk = max(1, _CHUNK_ELEMENTS // per_lane)

    # -- mirror pool ---------------------------------------------------------------
    def release_dense(self) -> None:
        """Drop every pooled mirror (reconstruction reads only sealed tables)."""
        self._pool = None
        self._slot_of.clear()
        self._slot_owner = []
        self._slot_gen = []

    def _ensure_slots(self, needed: int) -> None:
        """Grow the pool so one gather can pin ``needed`` slots at once.

        A layer gather records slot indices first and fancy-gathers last,
        so every mirror it touches must survive until the gather — the pool
        must hold them all simultaneously (generation pinning below keeps
        the FIFO from recycling them mid-gather).
        """
        if needed < self._pool_slots:
            return
        # Double past the requirement so cross-layer mirror reuse has
        # headroom and growth amortises.
        new_slots = 1 << (2 * needed).bit_length()
        new_pool = _np.full((new_slots,) + self._pool.shape[1:], _INF)
        new_pool[: self._pool_slots] = self._pool
        self._pool = new_pool
        grow = new_slots - self._pool_slots
        self._slot_owner.extend([None] * grow)
        self._slot_gen.extend([-1] * grow)
        self._pool_slots = new_slots

    def _alloc_slot(self, nid: int) -> int:
        """Claim the next FIFO slot for ``nid``, evicting its previous owner.

        Slots pinned by the in-flight gather (generation match) are skipped;
        :meth:`_ensure_slots` guarantees an unpinned slot exists.
        """
        while True:
            slot = self._slot_next
            self._slot_next = (slot + 1) % self._pool_slots
            if self._slot_gen[slot] != self._gen:
                break
        owner = self._slot_owner[slot]
        if owner is not None:
            self._slot_of.pop(owner, None)
        self._slot_owner[slot] = nid
        self._slot_of[nid] = slot
        return slot

    def _mirror_slot(self, nid: int, table: Optional[List]) -> int:
        """Pool slot holding the dense cost mirror of one sealed node.

        Kernel-sealed nodes were registered by :meth:`finish_node`; leaf,
        scalar-fallback, and FIFO-evicted nodes are rebuilt here from their
        sealed sparse entries (``+inf`` at empty/invalid/pruned variants —
        exactly the sealed view either evaluator produces).
        """
        slot = self._slot_of.get(nid)
        if slot is not None:
            self._slot_gen[slot] = self._gen
            return slot
        slot = self._alloc_slot(nid)
        self._slot_gen[slot] = self._gen
        flat = self._pool[slot].reshape(-1, self.L)
        flat[:] = _INF
        if table is not None:
            for vi, entry in enumerate(table):
                if entry is None:
                    continue
                row = flat[vi]
                for label, cost in entry[2]:
                    row[label] = cost
        return slot

    def _blank_template(self, groups, q: int) -> int:
        """Index of the boolean blank row for invalid ``(b1, b2)`` at one ``q``.

        The row is ``True`` at every ``(b1, b2, label)`` slot whose variant
        is *not* in the node's variant grid — the lane reduction computes
        dense ``b1`` axes, so structurally invalid variants must be blanked
        to ``+inf`` before sealing and mirroring.  Variant grids are cached
        per ``(grid key, qmask)`` by the engine, so keying on ``id(groups)``
        (ref pinned via the cached value) dedupes templates across the run.
        """
        key = (id(groups), q)
        got = self._masks.get(key)
        if got is None:
            P, L = self.P, self.L
            mask = _np.ones((P, P, L), dtype=bool)
            for gq, b2, b1_list in groups:
                if gq != q:
                    continue
                for b1, _vi in b1_list:
                    mask[b1, b2, :] = False
            pos = len(self._mask_templates)
            self._mask_templates.append(mask.reshape(-1))
            got = self._masks[key] = (groups, pos)
        return got[1]

    def _grid_accounting(self, groups) -> Tuple[Tuple[int, int], Tuple[int, ...]]:
        """Cached per-grid ``((inc_inner, inc_rt2), distinct_qs)``.

        The increments are the scalar loop's child-lookup count for one
        active split: one left prefetch (``P * len(left range)``) plus one
        right-range scan per ``(q, b2)`` group.  ``distinct_qs`` lists the
        grid's populated ``q`` values in group order.  Keyed on the cached
        groups object's identity (the value holds the ref, pinning the id).
        """
        got = self._grid_info.get(id(groups))
        if got is None:
            obj = self.objective
            count_q: Dict[int, int] = {}
            for q, _b2, _b1_list in groups:
                count_q[q] = count_q.get(q, 0) + 1
            prefetch = self.P * self._mid_len
            inc = []
            for rt2 in (False, True):
                total = prefetch
                for q, cnt in count_q.items():
                    total += cnt * len(obj.right_b1_values(q, rt2))
                inc.append(total)
            got = self._grid_info[id(groups)] = (
                groups, tuple(inc), tuple(count_q),
            )
        return got[1], got[2]

    # -- the layer entry point -----------------------------------------------------
    def layer_split_tables(self, engine, nids: List[int], tables: List) -> Dict:
        """Stage the split-combine of every given node of one length layer.

        Returns ``{nid: _Staged}`` with the split part already reduced into
        each node's cost/winner slabs (same costs and tie-breaks as the
        scalar split loop) and ``lookups`` carrying the scalar loop's
        child-read count for that part.  The right-end merge, ``memo_hits``
        accounting, and sealing happen in :meth:`finish_node`.
        """
        columns = engine.decomp.columns
        i1s = engine._node_i1
        i2s = engine._node_i2
        plans = engine._node_plan
        charge_matrix = self.objective.charge_matrix
        P, L = self.P, self.L
        staged: Dict[int, _Staged] = {}
        lay = _Layer()
        cm_memo: Dict[Tuple, int] = {}  # (q, adjacent, stretch, rt2) -> cm pos
        cm_pos_map = lay.cm_pos
        cm_list = lay.cm_list
        rm_pos = lay.rm_pos
        rm_list = lay.rm_list
        lane_split, lane_rm = lay.lane_split, lay.lane_rm
        # One slab/rank block per layer; each node's _Staged gets views.
        nb = len(nids)
        big_slab = _np.full((nb, P, P, P, L), _INF)
        big_rank = _np.zeros((nb, P, P, P, L), dtype=_np.int32)
        big_flat = big_slab.reshape(nb, P * P * P, L)
        big_rankflat = big_rank.reshape(nb, P * P * P, L)
        for ni, nid in enumerate(nids):
            q_list, groups = engine._variant_grid(nid)
            if not groups:
                staged[nid] = _Staged(
                    self, 0, q_list, groups, 0, (), (),
                    big_slab[ni], big_rank[ni],
                    big_flat[ni], big_rankflat[ni],
                )
                continue
            t1 = columns[i1s[nid]]
            jmax, splits, right_end_id = plans[nid]
            inc_by_rt2, grid_qs = self._grid_accounting(groups)
            # Active splits (both children materialised), in plan order.
            active: List[Tuple] = []
            idx_maps: List[Tuple] = []
            edges: List[int] = []
            lookups = 0
            for split in splits:
                if tables[split[1]] is None or tables[split[2]] is None:
                    continue
                lookups += inc_by_rt2[1 if split[5] else 0]
                active.append(split)
                at_edge = split[0] == t1
                idx_maps.append(self._bmap_edge if at_edge else self._bmap_inner)
                edges.append(1 if at_edge else 0)
            na = len(active)
            st = _Staged(
                self, lookups, q_list, groups, jmax, active, idx_maps,
                big_slab[ni], big_rank[ni],
                big_flat[ni], big_rankflat[ni],
            )
            st.right_end_id = right_end_id
            st.t2 = columns[i2s[nid]]
            staged[nid] = st
            if not active:
                continue
            seg_lo = len(lay.seg_lane)
            lane_lo = len(lane_split)
            lid_pos = lay.lid_pos
            split_base = len(lay.split_lid)
            for split in active:
                lid = split[1]
                pos = lid_pos.get(lid)
                if pos is None:
                    pos = len(lay.lid_list)
                    lid_pos[lid] = pos
                    lay.lid_list.append(lid)
                lay.split_lid.append(pos)
            lay.split_edge.extend(edges)
            srange = range(split_base, split_base + na)
            # Bridge keys per (q, s): dedupe the charge matrix by identity
            # first (objectives cache and reuse them), then the bridge row
            # by (right child, q, charge).
            for q in grid_qs:
                lay.seg_lane.append(len(lane_split))
                lay.seg_qbase.append(q * P * P * L)
                lay.seg_mask.append(self._blank_template(groups, q))
                key_row: List[int] = []
                for split in active:
                    ck = (q, split[3], split[4], split[5])
                    cpos = cm_memo.get(ck)
                    if cpos is None:
                        cm = charge_matrix(q, split[3], split[4], split[5])
                        cpos = cm_pos_map.get(id(cm))
                        if cpos is None:
                            cpos = len(cm_list)
                            cm_pos_map[id(cm)] = cpos
                            cm_list.append(cm)
                        cm_memo[ck] = cpos
                    key = (split[2], q, cpos)
                    pos = rm_pos.get(key)
                    if pos is None:
                        pos = len(rm_list)
                        rm_pos[key] = pos
                        rm_list.append(key)
                    key_row.append(pos)
                lane_rm.extend(key_row)
                lane_split.extend(srange)
                st.rm_idx[q] = key_row
            lay.nodes.append(
                (st, seg_lo, len(lay.seg_lane), lane_lo, len(lane_split))
            )
        if lay.nodes:
            self._run_layer(lay, tables)
        return staged

    # -- layer reduction -----------------------------------------------------------
    def _gather_stacks(self, lay: _Layer, tables: List):
        """Pool-gather the layer's left planes, right planes, and charges."""
        np = _np
        self._gen += 1
        self._ensure_slots(len(lay.lid_list) + len(lay.rm_list) + 1)
        lslots = np.fromiter(
            (self._mirror_slot(lid, tables[lid]) for lid in lay.lid_list),
            dtype=np.intp,
            count=len(lay.lid_list),
        )
        nk = len(lay.rm_list)
        rslots = np.empty(nk, dtype=np.intp)
        rqs = np.empty(nk, dtype=np.intp)
        cms = np.empty(nk, dtype=np.intp)
        for pos, (rid, q, cpos) in enumerate(lay.rm_list):
            rslots[pos] = self._mirror_slot(rid, tables[rid])
            rqs[pos] = q
            cms[pos] = cpos
        # Left children always run with q = 1; trim lb2 to the mid range.
        lo, n_mid = self._mid_lo, self._mid_len
        pool = self._pool
        LQ = pool[lslots, 1][:, :, lo: lo + n_mid]
        RQ = pool[rslots, rqs]
        # Charge stack, transposed to [rb1][lb2] then trimmed, so the
        # bridge reduction over rb1 lands contiguous (key, b2, mid, ...)
        # outputs.
        CMT = np.asarray(lay.cm_list, dtype=float).transpose(0, 2, 1)[
            :, :, lo: lo + n_mid
        ]
        return LQ, RQ, CMT[cms]

    def _run_layer(self, lay: _Layer, tables: List) -> None:
        """Bulk-build the layer's derived stacks, then reduce node-aligned chunks."""
        np = _np
        P, L = self.P, self.L
        n_mid = self._mid_len
        LQ, RQ, CHT = self._gather_stacks(lay, tables)
        nl = len(lay.lid_list)
        # Float64 throughout, no packing.  Bridge per key:
        # B[rb1, b2, mid] = charge[lb2][rb1] + right[rb1, b2]; reduce over
        # rb1 (first-occurrence argmin matches the scalar loop).
        B = CHT[:, :, None, :] + RQ[:, :, :, 0][:, :, :, None]
        BR = B.min(axis=1)
        brarg = B.argmin(axis=1).astype(np.int32)
        # Row P is the all-inf "no left boundary" pad row gathered for b1
        # values outside the left boundary map.
        LA = np.full((nl, P + 1, n_mid), _INF)
        LA[:, :P] = LQ[:, :, :, 0]
        lane_split = np.asarray(lay.lane_split, dtype=np.intp)
        lane_rm = np.asarray(lay.lane_rm, dtype=np.intp)
        split_lid = np.asarray(lay.split_lid, dtype=np.intp)
        split_rows = self._rows_by_edge[np.asarray(lay.split_edge, dtype=np.intp)]
        mask_stack = self._mask_templates
        nodes = lay.nodes
        num_nodes = len(nodes)
        seg_lane = lay.seg_lane
        seg_qbase = lay.seg_qbase
        seg_mask = lay.seg_mask
        at = 0
        while at < num_nodes:
            chunk_lane_lo = nodes[at][3]
            end = at + 1
            while (
                end < num_nodes
                and nodes[end][4] - chunk_lane_lo <= self._lane_chunk
            ):
                end += 1
            chunk = nodes[at:end]
            lane_hi = chunk[-1][4]
            seg_lo, seg_hi = chunk[0][1], chunk[-1][2]
            li = lane_split[chunk_lane_lo:lane_hi]
            ri = lane_rm[chunk_lane_lo:lane_hi]
            si = split_lid[li]
            rw = split_rows[li]
            starts = np.asarray(
                [lane - chunk_lane_lo for lane in seg_lane[seg_lo:seg_hi]],
                dtype=np.intp,
            )
            cost, rank = self._power_chunk(
                LA, BR, si, rw, ri, starts, lane_hi - chunk_lane_lo
            )
            # Blank structurally invalid variants, then extract the finite
            # coordinates and scatter each node's rows into its slabs.
            nsegs = seg_hi - seg_lo
            cost2 = cost.reshape(nsegs, -1)
            maskg = np.stack([mask_stack[m] for m in seg_mask[seg_lo:seg_hi]])
            cost2[maskg] = _INF
            qbase = np.asarray(seg_qbase[seg_lo:seg_hi], dtype=np.intp)
            rows, cols = np.nonzero(np.isfinite(cost2))
            coords = cols + qbase[rows]
            for st, node_seg_lo, node_seg_hi, _llo, _lhi in chunk:
                a, b = node_seg_lo - seg_lo, node_seg_hi - seg_lo
                ca = np.searchsorted(rows, a)
                cb = np.searchsorted(rows, b)
                st.finite = coords[ca:cb].tolist()
                q_arr = np.asarray(
                    [
                        qb // (P * P * L)
                        for qb in seg_qbase[node_seg_lo:node_seg_hi]
                    ],
                    dtype=np.intp,
                )
                st.slab[q_arr] = cost[a:b].reshape(-1, P, P, L)
                st.rank[q_arr] = rank[a:b].reshape(-1, P, P, L)
                st.brarg = brarg
            at = end

    def _power_chunk(self, LA, BR, si, rw, ri, starts, nlanes):
        """Float power reduction over one node-aligned chunk of lanes.

        Association order matches the scalar loop exactly (``bridge =
        charge + right`` inside the stacked ``BR`` minima, then ``left +
        bridge`` here), so sums are bit-identical.  The reduction runs in
        two stages matching the scalar visit order's lexicographic
        tie-break: first-occurrence ``argmin`` over the mid-boundary axis
        within each lane, then the first lane achieving each segment
        minimum (one equality pass over the lane minima — ``n_mid`` times
        smaller than the candidate tensor).  Both ``min`` stages select
        (never combine) values, so costs keep their exact bit patterns.
        Returns per-segment ``(cost, win)`` arrays shaped ``(nsegs, P, P,
        1)`` with node-local ``s * n_mid + offset`` winner codes.
        """
        np = _np
        P = self.P
        n_mid = self._mid_len
        A = LA[si[:, None], rw]
        # cand[lane, mid, b1, b2]: mid first so the per-lane argmin below
        # picks the first (visit-order) minimal mid boundary.
        cand = A.transpose(0, 2, 1)[:, :, :, None] + BR[ri].transpose(0, 2, 1)[
            :, :, None, :
        ]
        mid_arg = cand.argmin(axis=1)
        lane_min = np.take_along_axis(cand, mid_arg[:, None], axis=1)[:, 0]
        mins = np.minimum.reduceat(lane_min, starts, axis=0)
        counts = np.diff(np.append(starts, nlanes))
        laneidx = np.arange(nlanes, dtype=np.float32).reshape(-1, 1, 1)
        win_lane = np.minimum.reduceat(
            np.where(
                lane_min == np.repeat(mins, counts, axis=0),
                laneidx,
                np.float32(_INF),
            ),
            starts,
            axis=0,
        )
        with np.errstate(invalid="ignore"):
            lane_abs = win_lane.astype(np.intp)
        np.clip(lane_abs, 0, nlanes - 1, out=lane_abs)
        grid = np.indices((P, P))
        off = mid_arg[lane_abs, grid[0], grid[1]]
        s_local = lane_abs - starts[:, None, None]
        win = (s_local * n_mid + off).astype(np.int32)
        return mins[..., None], win[..., None]

    # -- per-node finish: merge, prune, seal ----------------------------------------
    def finish_node(self, engine, nid: int, tables: List, st: _Staged):
        """Right-end merge, memo accounting, and sealing of one staged node.

        Applied per node in the v2 ``(length, k)`` order — the ``t' == t2``
        child lives in the same layer with ``k - 1`` jobs, so it is sealed
        before any node that reads it.  The merge is the scalar loop's block
        applied over a plain-list mirror of the cost slab (same strict ``<``
        tie-breaks); with one label there is no dominance rule to apply.
        """
        obj = engine.objective
        P = self.P
        stats = engine.stats
        lookups = st.lookups
        flat = st.flat
        rows = flat.ravel().tolist()
        extra: List[int] = []
        right_end_id = st.right_end_id
        if right_end_id is not None:
            child_tables = tables[right_end_id]
            if child_tables is not None:
                k = engine._node_k[nid]
                # The (vi -> child vi) index map is a pure function of the
                # variant grid and k, shared by every node on that grid.
                pkey = (id(st.groups), k)
                pairs = self._re_pairs.get(pkey)
                if pairs is None:
                    pairs = []
                    for q, b2, b1_list in st.groups:
                        for b1, vi in b1_list:
                            child = obj.right_end_child(k, q, b1, b2)
                            if child is None:
                                continue
                            cq, cb1, cb2 = child
                            pairs.append((vi, (cq * P + cb1) * P + cb2))
                    self._re_pairs[pkey] = pairs
                lookups += len(pairs)
                ravel = rravel = None
                for vi, cvi in pairs:
                    e = child_tables[cvi]
                    if e is None:
                        continue
                    cost = e[2][0][1]
                    if cost < rows[vi]:
                        if rows[vi] == _INF:
                            extra.append(vi)
                        rows[vi] = cost
                        if ravel is None:
                            ravel = flat.reshape(-1)
                            rravel = st.rankflat.reshape(-1)
                        ravel[vi] = cost
                        rravel[vi] = -cvi - 1
        stats.memo_hits += lookups
        stats.states_computed += len(st.q_list) * P * P
        # Seal each finite variant directly (order is irrelevant here:
        # parents address the list by variant index).
        coords = st.finite
        if extra:
            coords = coords + extra
        out: List[Optional[Tuple]] = [None] * (P * P * P)
        for vi in coords:
            out[vi] = (st, vi, ((0, rows[vi]),))
        # The cost slab *is* the node's dense mirror for parent layers
        # (post-merge, invalid variants blanked).
        self._pool[self._alloc_slot(nid)] = st.slab
        return out if coords else None
