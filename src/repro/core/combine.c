/*
 * Compiled evaluation pass of the interval DP (see repro/core/interval_dp.py).
 *
 * One call evaluates every live node of a discovered node graph in the
 * scalar v2 evaluator's (interval length, job count) order: it combines
 * the child tables of every branch node over all of its splits, applies
 * the t' == t2 right-end merge, seals each node with the occupancy
 * dominance prune, and counts memo_hits / dominance_dropped exactly as
 * IntervalDPEngine does.  Leaf tables are written by the caller.
 *
 * The kernel knows nothing about either objective beyond what the caller
 * tabulates from the objective's own methods (boundary maps, variant
 * grids, charge matrices), plus two rules shared by both value algebras:
 * labels combine by max, and a label may be dominated by a cheaper
 * lower one (with one label, as for power, the prune is a no-op).
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

enum { KIND_PRUNED = 0, KIND_BRANCH = 3 };

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
    /* node graph */
    int64_t num_order;
    const int64_t *order;            /* live nodes in evaluation order */
    const unsigned char *kind;
    const int64_t *i1, *i2, *k;
    const int64_t *split_lo;         /* [nodes + 1] first split of each node */
    const int64_t *split_left, *split_right;
    const int64_t *right_end;        /* right-end child per node; -1: none */
    /* tables */
    const int64_t *plane;            /* [nodes][P] */
    double *cost;
    int64_t *win;
    /* outputs */
    unsigned char *nonempty;         /* per node: some finite slot after sealing */
    int64_t *depth;                  /* per node: longest dependency chain */
    int64_t memo_hits, dominance_dropped, peak_depth;
} dp_run;

/* Per-call working buffers, sized by P and L. */
typedef struct {
    int64_t *groups;                 /* [P] (q, b2) groups per q */
    double *best_cost;               /* [P] single-label: best right per lb2 */
    int64_t *best_rb1;               /* [P] ... and its rb1 */
    /* multi-label: the finite labels of each left row (lb1, lb2) of the
     * current split and of each right row rb1 of the current (q, b2),
     * ascending, so the inner loops skip pruned labels */
    int64_t *left_count, *left_label, *right_count, *right_label;
    double *left_cost, *right_cost;
} workspace;

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
    const int64_t P = r->P, L = r->L, PP = P * P, P3 = PP * P;
    const int64_t grid = r->grid_of_k[r->k[nid]];
    const unsigned char *valid = r->valid + grid * P3;
    const int64_t *node_plane = r->plane + nid * P;
    const int64_t first = r->split_lo[nid], last = r->split_lo[nid + 1];
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
        if (!r->nonempty[left] || !r->nonempty[right])
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
    if (child >= 0 && r->nonempty[child]) {
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
static void seal_node(dp_run *r, int64_t nid)
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
    r->nonempty[nid] = any;
}

/* Evaluate every node of r->order; returns 0, or -1 when out of memory. */
int dp_evaluate(dp_run *r)
{
    const int64_t P = r->P, L = r->L;
    workspace w = {
        malloc(sizeof(int64_t) * P), malloc(sizeof(double) * P),
        malloc(sizeof(int64_t) * P),
        malloc(sizeof(int64_t) * P * P), malloc(sizeof(int64_t) * P * P * L),
        malloc(sizeof(int64_t) * P), malloc(sizeof(int64_t) * P * L),
        malloc(sizeof(double) * P * P * L), malloc(sizeof(double) * P * L),
    };
    int status = 0;
    if (!w.groups || !w.best_cost || !w.best_rb1 || !w.left_count || !w.left_label
        || !w.right_count || !w.right_label || !w.left_cost || !w.right_cost) {
        status = -1;
        goto done;
    }
    for (int64_t o = 0; o < r->num_order; o++) {
        const int64_t nid = r->order[o];
        int64_t d = 1;
        if (r->kind[nid] == KIND_BRANCH) {
            combine_node(r, nid, &w);
            d = 0;
            for (int64_t s = r->split_lo[nid]; s < r->split_lo[nid + 1]; s++) {
                if (r->depth[r->split_left[s]] > d)
                    d = r->depth[r->split_left[s]];
                if (r->depth[r->split_right[s]] > d)
                    d = r->depth[r->split_right[s]];
            }
            if (r->right_end[nid] >= 0 && r->depth[r->right_end[nid]] > d)
                d = r->depth[r->right_end[nid]];
            d++;
        }
        if (r->kind[nid] != KIND_PRUNED)
            seal_node(r, nid);
        r->depth[nid] = d;
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
    return status;
}
