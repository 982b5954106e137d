/*
 * Compiled interval DP (see repro/core/interval_dp.py): one call goes
 * from the instance to sealed tables.
 *
 * dp_solve runs three passes over one dp_run:
 *   1. discovery walks the (i1, i2, k) node graph from the root exactly
 *      as IntervalDPEngine._ensure_tables does: demand-driven expansion,
 *      q-mask propagation (left children see q = 1, right children the
 *      parent's q, right-end children q + 1), the Hall pre-check, the
 *      capacity-gated split plans in candidate-column order and the
 *      right-end children.  The graph is a reachability fixpoint, so the
 *      worklist order changes neither the live node set nor a counter;
 *   2. the leaf tables of every single-column and empty-interval node are
 *      copied from the caller's tabulation of the objective;
 *   3. evaluation runs every live node in the scalar v2 evaluator's
 *      (interval length, job count) order: it combines the child tables
 *      of every branch node over all of its splits, applies the t' == t2
 *      right-end merge, seals each node with the occupancy dominance
 *      prune, and counts memo_hits / dominance_dropped exactly as
 *      IntervalDPEngine does.
 * The node graph and the tables stay in the dp_run until dp_release.
 *
 * The kernel knows nothing about either objective beyond what the caller
 * tabulates from the objective's own methods (leaf tables, boundary maps,
 * variant grids, charge matrices), plus two rules shared by both value
 * algebras: labels combine by max, and a label may be dominated by a
 * cheaper lower one (with one label, as for power, the prune is a no-op).
 *
 * Byte identity with the scalar loop rests on three rules:
 *   - the winner of every (variant, label) slot is the first strict
 *     minimum in the scalar loop's visit order: (split, lb2, rb1, ll, lr)
 *     for multi-label tables, and for single-label tables the best right
 *     boundary per lb2 hoisted out of the b1 loop, as the scalar loop does;
 *   - sums associate as the scalar loop's do: (left + charge) + right for
 *     multi-label tables, left + (charge + right) for single-label ones;
 *   - the build never contracts or reorders float operations
 *     (-ffp-contract=off, never -ffast-math).
 *
 * Tables: a node's (q, b1, b2, label) values live in one plane of
 * P * P * L doubles per reachable q; plane[node * P + q] is its offset
 * into cost/win, or -1.  win holds the winning choice of every finite
 * slot: -1 for the right-end merge, otherwise
 * (((split * P + lb2) * P + rb1) * L + ll) * L + lr with split counted
 * from the node's first split.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { KIND_PRUNED = 0, KIND_SINGLE = 1, KIND_EMPTY = 2, KIND_BRANCH = 3 };

/* Mirrored field for field by the ctypes Structure in combine_kernel.py. */
typedef struct {
    /* value algebra, tabulated from the objective */
    int64_t P, L;                    /* processors + 1, labels */
    int64_t lb2_lo, lb2_hi;          /* left_b2_values() as [lo, hi) */
    const int64_t *left_b1;          /* [2][P] left child b1 per (t' == t1, b1); -1: none */
    const int64_t *right_b1_hi;      /* [2][P] len(right_b1_values(q, touches t2)) */
    const unsigned char *valid;      /* [grids][P^3] branch variant grid */
    const int64_t *right_end_vi;     /* [grids][P^3] right-end child variant; -1: none */
    const int64_t *grid_of_k;        /* [n + 1] grid row per job count */
    const double *charges;           /* [matrices][P][P] charge[lb2][rb1] */
    const int64_t *charge_of;        /* [columns][2][P] matrix per (t' column, touches t2, q) */
    const double *single;            /* [P][P^3][L] single-column table per k <= p */
    const double *empty;             /* [rows][P^3][L] empty-interval table per idle stretch */
    /* instance */
    int64_t C, n, hall_min_jobs;
    const int64_t *empty_row;        /* [C][C] row of the stretch t2 - t1 - 1, i1 < i2 */
    const int64_t *release_col;      /* [n] per deadline rank: release column; -1: none */
    const int64_t *deadline_col;     /* [n] per deadline rank: last column <= deadline */
    /* node graph, owned until dp_release */
    int64_t num_nodes;               /* node 0 is the root */
    unsigned char *kind;
    int64_t *i1, *i2, *k;
    int64_t *jmax;                   /* deadline rank of a branch node's last job */
    int64_t *split_lo, *split_hi;    /* the node's splits [lo, hi), candidate order */
    int64_t *split_left, *split_right;
    int64_t *right_end;              /* right-end child per node; -1: none */
    int64_t mask_words;              /* (P + 63) / 64 */
    uint64_t *mask;                  /* [nodes][mask_words] reachable q; 0: never reached */
    /* tables, owned until dp_release */
    int64_t *plane;                  /* [nodes][P] */
    double *cost;
    int64_t *win;
    /* counters */
    int64_t states_computed, memo_hits, hall_pruned;
    int64_t dominance_dropped, plans_built, peak_depth;
} dp_run;

enum { EXPANDED = 1, QUEUED = 2 };

/* Discovery state beyond what dp_run keeps. */
typedef struct {
    int64_t W;                       /* q-mask words per node */
    int64_t cap;                     /* node capacity */
    unsigned char *flags;
    uint64_t *pending;               /* [cap][W] reached q not yet propagated */
    int64_t *stack;                  /* worklist, each node at most once */
    int64_t top;
    int64_t *slot;                   /* open-addressing node lookup; -1: free */
    int64_t slot_mask;
    int64_t num_splits, split_cap;
    uint64_t *bits, *shifted, *full; /* [W] scratch */
    int64_t *jobs;                   /* [n] node jobs by deadline rank */
    int64_t *hist;                   /* [C] node jobs per release column */
} graph;

/* Per-call working buffers of the evaluation pass, sized by P and L. */
typedef struct {
    int64_t *groups;                 /* [P] (q, b2) groups per q */
    double *best_cost;               /* [P] single-label: best right per lb2 */
    int64_t *best_rb1;               /* [P] ... and its rb1 */
    /* multi-label: the finite labels of each left row (lb1, lb2) of the
     * current split and of each right row rb1 of the current (q, b2),
     * ascending, so the inner loops skip pruned labels */
    int64_t *left_count, *left_label, *right_count, *right_label;
    double *left_cost, *right_cost;
    unsigned char *nonempty;         /* per node: some finite slot after sealing */
    int64_t *depth;                  /* per node: longest dependency chain */
} workspace;

/* realloc that leaves *buf intact on failure; 0 or -1. */
static int grow(void *buf, int64_t count, size_t elem)
{
    void **slot = (void **)buf;
    void *got = realloc(*slot, (size_t)(count > 0 ? count : 1) * elem);
    if (!got)
        return -1;
    *slot = got;
    return 0;
}

void dp_release(dp_run *r)
{
    free(r->kind);
    free(r->i1);
    free(r->i2);
    free(r->k);
    free(r->jmax);
    free(r->split_lo);
    free(r->split_hi);
    free(r->split_left);
    free(r->split_right);
    free(r->right_end);
    free(r->mask);
    free(r->plane);
    free(r->cost);
    free(r->win);
    r->kind = NULL;
    r->i1 = r->i2 = r->k = r->jmax = NULL;
    r->split_lo = r->split_hi = r->split_left = r->split_right = NULL;
    r->right_end = r->plane = r->win = NULL;
    r->mask = NULL;
    r->cost = NULL;
    r->num_nodes = 0;
}

static void graph_free(graph *g)
{
    free(g->flags);
    free(g->pending);
    free(g->stack);
    free(g->slot);
    free(g->bits);
    free(g->shifted);
    free(g->full);
    free(g->jobs);
    free(g->hist);
}

static int grow_nodes(dp_run *r, graph *g)
{
    const int64_t cap = g->cap ? 2 * g->cap : 64;
    if (grow(&r->kind, cap, 1) || grow(&r->i1, cap, 8) || grow(&r->i2, cap, 8)
        || grow(&r->k, cap, 8) || grow(&r->jmax, cap, 8) || grow(&r->split_lo, cap, 8)
        || grow(&r->split_hi, cap, 8) || grow(&r->right_end, cap, 8)
        || grow(&g->flags, cap, 1) || grow(&r->mask, cap * g->W, 8)
        || grow(&g->pending, cap * g->W, 8) || grow(&g->stack, cap, 8))
        return -1;
    g->cap = cap;
    return 0;
}

static uint64_t node_hash(const dp_run *r, int64_t i1, int64_t i2, int64_t k)
{
    uint64_t h = ((uint64_t)i1 * (uint64_t)r->C + (uint64_t)i2) * (uint64_t)(r->n + 1)
                 + (uint64_t)k;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
}

/* Double the lookup table (kept at most half full). */
static int rehash(dp_run *r, graph *g)
{
    const int64_t size = g->slot ? 2 * (g->slot_mask + 1) : 128;
    int64_t *slot = malloc(sizeof(int64_t) * size);
    if (!slot)
        return -1;
    for (int64_t s = 0; s < size; s++)
        slot[s] = -1;
    for (int64_t id = 0; id < r->num_nodes; id++) {
        uint64_t h = node_hash(r, r->i1[id], r->i2[id], r->k[id]) & (uint64_t)(size - 1);
        while (slot[h] >= 0)
            h = (h + 1) & (uint64_t)(size - 1);
        slot[h] = id;
    }
    free(g->slot);
    g->slot = slot;
    g->slot_mask = size - 1;
    return 0;
}

/* Look up (or allocate, unexpanded and unreached) node (i1, i2, k); -1: no memory. */
static int64_t node_id(dp_run *r, graph *g, int64_t i1, int64_t i2, int64_t k)
{
    if (2 * (r->num_nodes + 1) > g->slot_mask + 1 && rehash(r, g))
        return -1;
    uint64_t h = node_hash(r, i1, i2, k) & (uint64_t)g->slot_mask;
    for (;; h = (h + 1) & (uint64_t)g->slot_mask) {
        const int64_t id = g->slot[h];
        if (id < 0)
            break;
        if (r->i1[id] == i1 && r->i2[id] == i2 && r->k[id] == k)
            return id;
    }
    if (r->num_nodes == g->cap && grow_nodes(r, g))
        return -1;
    const int64_t id = r->num_nodes++;
    g->slot[h] = id;
    r->kind[id] = KIND_PRUNED;
    r->i1[id] = i1;
    r->i2[id] = i2;
    r->k[id] = k;
    r->jmax[id] = -1;
    r->split_lo[id] = r->split_hi[id] = 0;
    r->right_end[id] = -1;
    g->flags[id] = 0;
    for (int64_t w = 0; w < g->W; w++)
        r->mask[id * g->W + w] = g->pending[id * g->W + w] = 0;
    return id;
}

/* Add the q values in bits to a node's mask; newly reached ones are queued. */
static void offer(dp_run *r, graph *g, int64_t id, const uint64_t *bits)
{
    uint64_t *mask = r->mask + id * g->W, *pending = g->pending + id * g->W;
    int any = 0;
    for (int64_t w = 0; w < g->W; w++) {
        const uint64_t add = bits[w] & ~mask[w];
        mask[w] |= add;
        pending[w] |= add;
        any |= add != 0;
    }
    if (any && !(g->flags[id] & QUEUED)) {
        g->flags[id] |= QUEUED;
        g->stack[g->top++] = id;
    }
}

/* Necessary Hall condition of the node jobs on the columns [i1, i2]. */
static int hall_feasible(const dp_run *r, const graph *g, int64_t i1, int64_t i2, int64_t k)
{
    const int64_t p = r->P - 1;
    /* Prefix [t1, d] over clipped deadlines, in deadline order. */
    for (int64_t m = 1; m <= k; m++) {
        int64_t d = r->deadline_col[g->jobs[m - 1]];
        if (d > i2)
            d = i2;
        if (m > p * (d - i1 + 1))
            return 0;
    }
    /* Suffix [r, t2] over releases, scanned from the right. */
    int64_t count = 0;
    for (int64_t c = i2; c >= i1; c--) {
        count += g->hist[c - i1];
        if (g->hist[c - i1] && count > p * (i2 + 1 - c))
            return 0;
    }
    return 1;
}

/* Classify one node and, for branch nodes, build its split plan. */
static int expand(dp_run *r, graph *g, int64_t nid)
{
    const int64_t i1 = r->i1[nid], i2 = r->i2[nid], k = r->k[nid], p = r->P - 1;
    if (k == 0) {
        r->kind[nid] = i1 == i2 ? KIND_SINGLE : KIND_EMPTY;
        return 0;
    }
    /* The node jobs: the k earliest-deadline jobs released in [i1, i2]. */
    int64_t found = 0;
    for (int64_t j = 0; j < r->n && found < k; j++)
        if (r->release_col[j] >= i1 && r->release_col[j] <= i2)
            g->jobs[found++] = j;
    if (found < k || k > p * (i2 - i1 + 1))
        return 0;
    for (int64_t c = i1; c <= i2; c++)
        g->hist[c - i1] = 0;
    for (int64_t m = 0; m < k; m++)
        g->hist[r->release_col[g->jobs[m]] - i1]++;
    if (k >= r->hall_min_jobs && !hall_feasible(r, g, i1, i2, k)) {
        r->hall_pruned++;
        return 0;
    }
    if (i1 == i2) {
        r->kind[nid] = KIND_SINGLE;
        return 0;
    }
    r->kind[nid] = KIND_BRANCH;
    const int64_t jmax = g->jobs[k - 1];
    int64_t lo = r->release_col[jmax], hi = r->deadline_col[jmax];
    if (lo < i1)
        lo = i1;
    if (hi > i2)
        hi = i2;
    /* Releases at or before column ci: a running sum, as ci ascends. */
    int64_t released = 0;
    for (int64_t c = i1; c < lo; c++)
        released += g->hist[c - i1];
    const int64_t first = g->num_splits;
    for (int64_t ci = lo; ci <= hi && ci < i2; ci++) {
        released += g->hist[ci - i1];
        const int64_t k_right = k - released, k_left = k - 1 - k_right;
        if (k_left < 0)
            continue;
        /* Capacity gate: the left child always runs with q = 1 (jmax
         * occupies one slot at t'), the right child with raw capacity. */
        if (k_left > p * (ci - i1 + 1) - 1 || k_right > p * (i2 - ci))
            continue;
        const int64_t left = node_id(r, g, i1, ci, k_left);
        if (left < 0)
            return -1;
        const int64_t right = node_id(r, g, ci + 1, i2, k_right);
        if (right < 0)
            return -1;
        if (g->num_splits == g->split_cap) {
            const int64_t cap = g->split_cap ? 2 * g->split_cap : 256;
            if (grow(&r->split_left, cap, 8) || grow(&r->split_right, cap, 8))
                return -1;
            g->split_cap = cap;
        }
        r->split_left[g->num_splits] = left;
        r->split_right[g->num_splits++] = right;
    }
    r->split_lo[nid] = first;
    r->split_hi[nid] = g->num_splits;
    r->jmax[nid] = jmax;
    if (lo <= hi && hi == i2) {
        const int64_t child = node_id(r, g, i1, i2, k - 1);
        if (child < 0)
            return -1;
        r->right_end[nid] = child;
    }
    r->plans_built++;
    return 0;
}

/* Demand-driven discovery with q-mask propagation from the root (q = 0). */
static int discover(dp_run *r, graph *g)
{
    const int64_t W = g->W;
    if (grow_nodes(r, g) || rehash(r, g))
        return -1;
    g->bits = malloc(sizeof(uint64_t) * W);
    g->shifted = malloc(sizeof(uint64_t) * W);
    g->full = calloc((size_t)W, sizeof(uint64_t));
    g->jobs = malloc(sizeof(int64_t) * (r->n > 0 ? r->n : 1));
    g->hist = malloc(sizeof(int64_t) * r->C);
    if (!g->bits || !g->shifted || !g->full || !g->jobs || !g->hist)
        return -1;
    for (int64_t q = 0; q < r->P; q++)
        g->full[q / 64] |= (uint64_t)1 << (q % 64);
    const int64_t root = node_id(r, g, 0, r->C - 1, r->n);
    if (root < 0)
        return -1;
    for (int64_t w = 0; w < W; w++)
        g->bits[w] = w == 0;             /* the root is queried with q = 0 */
    offer(r, g, root, g->bits);
    while (g->top) {
        const int64_t nid = g->stack[--g->top];
        g->flags[nid] &= ~QUEUED;
        for (int64_t w = 0; w < W; w++) {
            g->bits[w] = g->pending[nid * W + w];
            g->pending[nid * W + w] = 0;
        }
        if (!(g->flags[nid] & EXPANDED)) {
            g->flags[nid] |= EXPANDED;
            if (expand(r, g, nid))
                return -1;
        }
        if (r->kind[nid] != KIND_BRANCH)
            continue;
        for (int64_t s = r->split_lo[nid]; s < r->split_hi[nid]; s++) {
            /* left children are always evaluated with q = 1 */
            for (int64_t w = 0; w < W; w++)
                g->shifted[w] = w == 0 ? 2 : 0;
            offer(r, g, r->split_left[s], g->shifted);
            offer(r, g, r->split_right[s], g->bits);
        }
        if (r->right_end[nid] >= 0) {
            for (int64_t w = W - 1; w >= 0; w--)
                g->shifted[w] = ((g->bits[w] << 1) | (w ? g->bits[w - 1] >> 63 : 0))
                                & g->full[w];
            offer(r, g, r->right_end[nid], g->shifted);
        }
    }
    return 0;
}

/* Live (reached) nodes in (interval length, job count) order: two stable
 * counting passes, by job count and then by length. */
static int64_t *evaluation_order(const dp_run *r, const graph *g, int64_t *num)
{
    const int64_t N = r->num_nodes;
    const int64_t buckets = (r->n + 1 > r->C ? r->n + 1 : r->C) + 1;
    int64_t *order = malloc(sizeof(int64_t) * (N ? N : 1));
    int64_t *tmp = malloc(sizeof(int64_t) * (N ? N : 1));
    int64_t *count = malloc(sizeof(int64_t) * buckets);
    if (!order || !tmp || !count) {
        free(order);
        free(tmp);
        free(count);
        return NULL;
    }
    int64_t live = 0;
    for (int64_t id = 0; id < N; id++)
        if (g->flags[id] & EXPANDED)
            tmp[live++] = id;
    for (int pass = 0; pass < 2; pass++) {
        const int64_t *src = pass ? order : tmp;
        int64_t *dst = pass ? tmp : order;
        memset(count, 0, sizeof(int64_t) * buckets);
        for (int64_t o = 0; o < live; o++) {
            const int64_t id = src[o];
            count[(pass ? r->i2[id] - r->i1[id] : r->k[id]) + 1]++;
        }
        for (int64_t b = 1; b < buckets; b++)
            count[b] += count[b - 1];
        for (int64_t o = 0; o < live; o++) {
            const int64_t id = src[o];
            dst[count[pass ? r->i2[id] - r->i1[id] : r->k[id]]++] = id;
        }
    }
    free(order);
    free(count);
    *num = live;
    return tmp;
}

/* Compact the finite labels of one row, ascending. */
static int64_t compact(const double *row, int64_t L, int64_t *label, double *cost)
{
    int64_t n = 0;
    for (int64_t lab = 0; lab < L; lab++)
        if (row[lab] != INFINITY) {
            label[n] = lab;
            cost[n++] = row[lab];
        }
    return n;
}

static void combine_node(dp_run *r, int64_t nid, workspace *w)
{
    int64_t *groups = w->groups;
    const unsigned char *nonempty = w->nonempty;
    const int64_t P = r->P, L = r->L, PP = P * P, P3 = PP * P;
    const int64_t grid = r->grid_of_k[r->k[nid]];
    const unsigned char *valid = r->valid + grid * P3;
    const int64_t *node_plane = r->plane + nid * P;
    const int64_t first = r->split_lo[nid], last = r->split_hi[nid];
    int64_t lookups = 0;

    /* (q, b2) groups with at least one valid b1: the scalar loop scans
     * the right child's b1 range once per group and split. */
    for (int64_t q = 0; q < P; q++) {
        groups[q] = 0;
        if (node_plane[q] < 0)
            continue;
        for (int64_t b2 = 0; b2 < P; b2++)
            for (int64_t b1 = 0; b1 < P; b1++)
                if (valid[(q * P + b1) * P + b2]) {
                    groups[q]++;
                    break;
                }
    }

    for (int64_t s = first; s < last; s++) {
        const int64_t left = r->split_left[s], right = r->split_right[s];
        if (!nonempty[left] || !nonempty[right])
            continue;
        const int64_t ci = r->i2[left];
        const int64_t edge = ci == r->i1[nid];
        const int64_t rt2 = r->i1[right] == r->i2[nid];
        const int64_t code = s - first;
        const int64_t left_off = r->plane[left * P + 1];
        int left_ready = 0;
        lookups += P * (r->lb2_hi - r->lb2_lo);
        for (int64_t q = 0; q < P; q++) {
            if (node_plane[q] < 0)
                continue;
            const int64_t rb1_hi = r->right_b1_hi[rt2 * P + q];
            lookups += groups[q] * rb1_hi;
            const int64_t right_off = r->plane[right * P + q];
            if (left_off < 0 || right_off < 0)
                continue;
            const double *lcost = r->cost + left_off;
            const double *rcost = r->cost + right_off;
            double *ocost = r->cost + node_plane[q];
            int64_t *owin = r->win + node_plane[q];
            const double *charge =
                r->charges + r->charge_of[(ci * 2 + rt2) * P + q] * PP;
            if (L > 1 && !left_ready) {
                for (int64_t row = 0; row < PP; row++)
                    w->left_count[row] = compact(lcost + row * L, L,
                                                 w->left_label + row * L,
                                                 w->left_cost + row * L);
                left_ready = 1;
            }
            for (int64_t b2 = 0; b2 < P; b2++) {
                int hoisted = 0;
                int right_ready = 0;
                for (int64_t b1 = 0; b1 < P; b1++) {
                    if (!valid[(q * P + b1) * P + b2])
                        continue;
                    const int64_t lb1 = r->left_b1[edge * P + b1];
                    if (lb1 < 0)
                        continue;
                    const int64_t slot = (b1 * P + b2) * L;
                    if (L == 1) {
                        if (!hoisted) {
                            /* Best right boundary per lb2, independent of b1. */
                            for (int64_t lb2 = 0; lb2 < P; lb2++) {
                                double bv = INFINITY;
                                int64_t arg = -1;
                                for (int64_t rb1 = 0; rb1 < rb1_hi; rb1++) {
                                    const double rc = rcost[rb1 * P + b2];
                                    if (rc == INFINITY)
                                        continue;
                                    const double c = charge[lb2 * P + rb1] + rc;
                                    if (c < bv) {
                                        bv = c;
                                        arg = rb1;
                                    }
                                }
                                w->best_cost[lb2] = bv;
                                w->best_rb1[lb2] = arg;
                            }
                            hoisted = 1;
                        }
                        for (int64_t lb2 = r->lb2_lo; lb2 < r->lb2_hi; lb2++) {
                            const double lc = lcost[lb1 * P + lb2];
                            if (lc == INFINITY || w->best_rb1[lb2] < 0)
                                continue;
                            const double c = lc + w->best_cost[lb2];
                            if (c < ocost[slot]) {
                                ocost[slot] = c;
                                owin[slot] = (code * P + lb2) * P + w->best_rb1[lb2];
                            }
                        }
                        continue;
                    }
                    if (!right_ready) {
                        for (int64_t rb1 = 0; rb1 < rb1_hi; rb1++)
                            w->right_count[rb1] = compact(rcost + (rb1 * P + b2) * L, L,
                                                          w->right_label + rb1 * L,
                                                          w->right_cost + rb1 * L);
                        right_ready = 1;
                    }
                    for (int64_t lb2 = r->lb2_lo; lb2 < r->lb2_hi; lb2++) {
                        const int64_t lrow = lb1 * P + lb2;
                        const int64_t nl = w->left_count[lrow];
                        const int64_t *llab = w->left_label + lrow * L;
                        const double *lval = w->left_cost + lrow * L;
                        for (int64_t rb1 = 0; rb1 < rb1_hi && nl; rb1++) {
                            const int64_t nr = w->right_count[rb1];
                            const int64_t *rlab = w->right_label + rb1 * L;
                            const double *rval = w->right_cost + rb1 * L;
                            const double ch = charge[lb2 * P + rb1];
                            const int64_t base_code = ((code * P + lb2) * P + rb1) * L;
                            for (int64_t i = 0; i < nl; i++) {
                                const int64_t ll = llab[i];
                                const double base = lval[i] + ch;
                                for (int64_t j = 0; j < nr; j++) {
                                    const int64_t lr = rlab[j];
                                    const int64_t lab = ll >= lr ? ll : lr;
                                    const double c = base + rval[j];
                                    if (c < ocost[slot + lab]) {
                                        ocost[slot + lab] = c;
                                        owin[slot + lab] = (base_code + ll) * L + lr;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /* t' == t2: the latest-deadline job runs at the right boundary. */
    const int64_t child = r->right_end[nid];
    if (child >= 0 && nonempty[child]) {
        const int64_t *child_vi = r->right_end_vi + grid * P3;
        for (int64_t q = 0; q < P; q++) {
            if (node_plane[q] < 0)
                continue;
            double *ocost = r->cost + node_plane[q];
            int64_t *owin = r->win + node_plane[q];
            for (int64_t rest = 0; rest < PP; rest++) {
                const int64_t vi = q * PP + rest;
                const int64_t cvi = child_vi[vi];
                if (!valid[vi] || cvi < 0)
                    continue;
                lookups++;
                const int64_t child_off = r->plane[child * P + cvi / PP];
                if (child_off < 0)
                    continue;
                const double *crow = r->cost + child_off + (cvi % PP) * L;
                for (int64_t lab = 0; lab < L; lab++) {
                    const double c = crow[lab];
                    if (c < ocost[rest * L + lab]) {
                        ocost[rest * L + lab] = c;
                        owin[rest * L + lab] = -1;
                    }
                }
            }
        }
    }
    r->memo_hits += lookups;
}

/* Occupancy dominance prune and the node's non-empty flag. */
static void seal_node(dp_run *r, int64_t nid, workspace *w)
{
    const int64_t P = r->P, L = r->L, PP = P * P;
    unsigned char any = 0;
    for (int64_t q = 0; q < P; q++) {
        const int64_t off = r->plane[nid * P + q];
        if (off < 0)
            continue;
        for (int64_t rest = 0; rest < PP; rest++) {
            double *row = r->cost + off + rest * L;
            int have_best = 0;
            double best = 0.0;
            for (int64_t lab = 1; lab < L; lab++) {
                if (row[lab] == INFINITY)
                    continue;
                const double corrected = row[lab] - (double)lab;
                if (have_best && corrected >= best) {
                    row[lab] = INFINITY;
                    r->dominance_dropped++;
                } else {
                    best = corrected;
                    have_best = 1;
                }
            }
            for (int64_t lab = 0; lab < L && !any; lab++)
                any = row[lab] != INFINITY;
        }
    }
    w->nonempty[nid] = any;
}

/* One plane per (live, unpruned node, reachable q), the leaf tables
 * copied in; 0, or -1 when out of memory. */
static int lay_out_tables(dp_run *r, const graph *g, const int64_t *order, int64_t live)
{
    const int64_t P = r->P, L = r->L, W = g->W, PP = P * P, stride = PP * L;
    r->plane = malloc(sizeof(int64_t) * P * (r->num_nodes ? r->num_nodes : 1));
    if (!r->plane)
        return -1;
    for (int64_t s = 0; s < P * r->num_nodes; s++)
        r->plane[s] = -1;
    int64_t size = 0;
    for (int64_t o = 0; o < live; o++) {
        const int64_t nid = order[o];
        for (int64_t q = 0; q < P; q++) {
            if (!(r->mask[nid * W + q / 64] >> (q % 64) & 1))
                continue;
            r->states_computed += PP;
            if (r->kind[nid] != KIND_PRUNED) {
                r->plane[nid * P + q] = size;
                size += stride;
            }
        }
    }
    r->cost = malloc(sizeof(double) * (size ? size : 1));
    r->win = calloc((size_t)(size ? size : 1), sizeof(int64_t));
    if (!r->cost || !r->win)
        return -1;
    for (int64_t s = 0; s < size; s++)
        r->cost[s] = INFINITY;
    for (int64_t o = 0; o < live; o++) {
        const int64_t nid = order[o];
        const double *table;
        if (r->kind[nid] == KIND_SINGLE)
            table = r->single + r->k[nid] * P * stride;
        else if (r->kind[nid] == KIND_EMPTY)
            table = r->empty + r->empty_row[r->i1[nid] * r->C + r->i2[nid]] * P * stride;
        else
            continue;
        for (int64_t q = 0; q < P; q++)
            if (r->plane[nid * P + q] >= 0)
                memcpy(r->cost + r->plane[nid * P + q], table + q * stride,
                       sizeof(double) * stride);
    }
    return 0;
}

/* Evaluate every live node, children first. */
static int evaluate(dp_run *r, const int64_t *order, int64_t live)
{
    const int64_t P = r->P, L = r->L, N = r->num_nodes ? r->num_nodes : 1;
    workspace w = {
        malloc(sizeof(int64_t) * P), malloc(sizeof(double) * P),
        malloc(sizeof(int64_t) * P),
        malloc(sizeof(int64_t) * P * P), malloc(sizeof(int64_t) * P * P * L),
        malloc(sizeof(int64_t) * P), malloc(sizeof(int64_t) * P * L),
        malloc(sizeof(double) * P * P * L), malloc(sizeof(double) * P * L),
        calloc((size_t)N, 1), calloc((size_t)N, sizeof(int64_t)),
    };
    int status = 0;
    if (!w.groups || !w.best_cost || !w.best_rb1 || !w.left_count || !w.left_label
        || !w.right_count || !w.right_label || !w.left_cost || !w.right_cost
        || !w.nonempty || !w.depth) {
        status = -1;
        goto done;
    }
    for (int64_t o = 0; o < live; o++) {
        const int64_t nid = order[o];
        int64_t d = 1;
        if (r->kind[nid] == KIND_BRANCH) {
            combine_node(r, nid, &w);
            d = 0;
            for (int64_t s = r->split_lo[nid]; s < r->split_hi[nid]; s++) {
                if (w.depth[r->split_left[s]] > d)
                    d = w.depth[r->split_left[s]];
                if (w.depth[r->split_right[s]] > d)
                    d = w.depth[r->split_right[s]];
            }
            if (r->right_end[nid] >= 0 && w.depth[r->right_end[nid]] > d)
                d = w.depth[r->right_end[nid]];
            d++;
        }
        if (r->kind[nid] != KIND_PRUNED)
            seal_node(r, nid, &w);
        w.depth[nid] = d;
        if (d > r->peak_depth)
            r->peak_depth = d;
    }
done:
    free(w.groups);
    free(w.best_cost);
    free(w.best_rb1);
    free(w.left_count);
    free(w.left_label);
    free(w.right_count);
    free(w.right_label);
    free(w.left_cost);
    free(w.right_cost);
    free(w.nonempty);
    free(w.depth);
    return status;
}

/* Discover, lay out and evaluate; 0, or with nothing left allocated -1
 * when out of memory and -2 when the root survives without tables. */
int dp_solve(dp_run *r)
{
    graph g;
    memset(&g, 0, sizeof(g));
    g.W = r->mask_words = (r->P + 63) / 64;
    r->num_nodes = 0;
    r->states_computed = r->memo_hits = r->hall_pruned = 0;
    r->dominance_dropped = r->plans_built = r->peak_depth = 0;
    r->kind = NULL;
    r->i1 = r->i2 = r->k = r->jmax = NULL;
    r->split_lo = r->split_hi = r->split_left = r->split_right = NULL;
    r->right_end = r->plane = r->win = NULL;
    r->mask = NULL;
    r->cost = NULL;
    int status = discover(r, &g);
    /* The caller may leave out the tables only when the root is pruned. */
    if (!status && !r->valid && r->kind[0] != KIND_PRUNED)
        status = -2;
    int64_t live = 0;
    int64_t *order = status ? NULL : evaluation_order(r, &g, &live);
    if (!status && !order)
        status = -1;
    if (!status)
        status = lay_out_tables(r, &g, order, live);
    graph_free(&g);
    if (!status)
        status = evaluate(r, order, live);
    free(order);
    if (status)
        dp_release(r);
    return status;
}
