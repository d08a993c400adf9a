"""ctypes/C implementation of the native kernels.

One embedded C translation unit, compiled on first use with whatever C
compiler the host offers (``$CC``, ``cc``, ``gcc``, ``clang``) and loaded
through :mod:`ctypes` — thin native kernels under a NumPy-facing API, with
no build system and no Python.h dependency.  When no compiler works, the
loader reports unavailable and the backend registry degrades to NumPy.

The TRW-S sweeps and ICM are *whole-sweep* entry points: one
foreign call walks every wavefront level of a plan, reading the plan's
one adjacency through a :class:`CPlan` struct that is filled once per
plan build.  The forward sweep walks each level's conditioning rows,
then its send rows; the backward sweep each node's conditioning rows in
backward-level order.  ICM keeps a dirty flag per node and visits only
nodes a neighbour's label change has flagged since their last visit,
adding each node's pairwise terms through the adjacency's permutation
(edge order).  The greedy refine init is one call too: it visits the
nodes in degree order through the same permutation.  So is the TRW-S
lower bound: one pass over the send rows extends every monotonic chain,
then one over the chains takes their minima.  When the caller passes a
per-level seconds array (tracing), the same loop times each level with
``CLOCK_MONOTONIC``; untraced calls pass ``NULL``.  Two more entry
points run once per edge set: ``repro_structure`` at every plan build
(a counting sort of the edge endpoints by node and two longest-path
level passes, then one pass per forward level that places its
conditioning and send rows and one that lists the backward node order,
written into a :class:`CStructure`), and ``repro_label_graph`` when the
plan's chains or components are first read (one pass over the rows for
the chains, union-find over the edge columns for the components); all
O(nodes + edges).

Two flags are load-bearing for the bit-parity gate:

- ``-ffp-contract=off``: stops the compiler fusing ``b*γ - m`` into an
  FMA, whose single rounding differs from NumPy's two-step result;
- ``-O3 -march=native`` plus explicit software prefetch of the gathered
  belief/message rows: the sweeps are latency-bound at 10k+ hosts
  (messages no longer fit in cache), and prefetching the next edges'
  rows is where most of the ≥5× bar comes from.

Compiled libraries are cached on disk under a content hash, so every
process after the first just ``dlopen``\\ s.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

__all__ = [
    "load_kernels", "CKernels", "CPlan", "CStructure", "KERNELS_C",
]

#: Stack workspace size in the C kernels; plans with more labels per node
#: fall back to the NumPy backend (the native guard checks this).
LMAX_LIMIT = 64

KERNELS_C = r"""
#define _POSIX_C_SOURCE 200809L
#include <stdint.h>
#include <math.h>
#include <string.h>
#include <time.h>

/* NumPy-matching reductions: NaN poisons min/max; argmin returns the
 * first NaN's index.  PF is the software-prefetch distance (edges). */
#define MINACC(best, v) do { if ((v) < (best) || isnan(v)) (best) = (v); } while (0)
#define PF 12
#define HOT static inline __attribute__((always_inline))

/* A plan's arrays (see MRFArrays.adjacency): each node's chain weight
 * gamma and label count (later labels are padding), the edge columns
 * (a slot's receiver), and the adjacency: one row per directed slot
 * (nbr, slot, cid), level-major in forward order with each level's
 * conditioning rows (lower neighbours) before its send rows (higher
 * neighbours); per node its degree, lower count and first conditioning
 * row; the forward node order and the backward one (nodes with lower
 * neighbours only), each with level offsets; and perm, every node's
 * rows in edge order, nodes in forward order. */
typedef struct {
    int64_t lmax, m, n_fwd, n_bwd;
    const double *cost;
    const double *unary;
    const double *gamma;
    const int64_t *counts;
    const int64_t *first, *second;
    const int64_t *nbr, *slot, *cid, *perm;
    const int64_t *nodes, *degree, *lower, *lower_start, *bwd_nodes;
    const int64_t *node_off, *bwd_off;
} plan_t;

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

HOT int64_t argmin_row(const double *row, const int64_t lmax)
{
    int64_t best = 0;
    double bv = row[0];
    for (int64_t r = 1; r < lmax; ++r) {
        const double v = row[r];
        if (v < bv || (isnan(v) && !isnan(bv))) { bv = v; best = r; }
    }
    return best;
}

/* Node v's sends on rows [r, r1), with gbel = its belief row times its
 * gamma: the block message update of each row.  Within one level
 * senders and receivers are disjoint, so v's belief row holds still
 * while it sends.  Prefetches run PF rows ahead, below `limit` (0 for
 * none: the backward sweep prefetches by node). */
HOT void send_rows(
    const plan_t *p, const int64_t lmax, const double *restrict gbel,
    int64_t r, const int64_t r1, const int64_t limit,
    double *restrict messages, double *restrict beliefs)
{
    const int64_t LL = lmax * lmax;
    const double *restrict cost = p->cost;
    double base_buf[64];
    double new_buf[64];
    for (; r < r1; ++r) {
        if (r + PF < limit) {
            const int64_t s = p->slot[r + PF];
            __builtin_prefetch(messages + (s ^ 1) * lmax, 0);
            __builtin_prefetch(messages + s * lmax, 1);
            __builtin_prefetch(beliefs + p->nbr[r + PF] * lmax, 1);
        }
        const int64_t s = p->slot[r], u = p->nbr[r];
        const double *m_in = messages + (s ^ 1) * lmax;
        for (int64_t k = 0; k < lmax; ++k)
            base_buf[k] = gbel[k] - m_in[k];
        const double *cm = cost + p->cid[r] * LL;
        for (int64_t c = 0; c < lmax; ++c)
            new_buf[c] = INFINITY;
        for (int64_t k = 0; k < lmax; ++k) {
            const double bk = base_buf[k];
            const double *row = cm + k * lmax;
            for (int64_t c = 0; c < lmax; ++c) {
                const double v = row[c] + bk;
                MINACC(new_buf[c], v);
            }
        }
        double rowmin = INFINITY;
        for (int64_t c = 0; c < lmax; ++c)
            MINACC(rowmin, new_buf[c]);
        const int64_t count = p->counts[u];
        double *mout = messages + s * lmax;
        double *bnbr = beliefs + u * lmax;
        for (int64_t c = 0; c < lmax; ++c) {
            const double nv = c >= count ? 0.0 : new_buf[c] - rowmin;
            bnbr[c] += nv - mout[c];
            mout[c] = nv;
        }
    }
}

/* Node v's words and its belief row, for a visit soon. */
HOT void prefetch_node(
    const plan_t *p, const int64_t lmax, const int64_t v,
    const double *beliefs)
{
    __builtin_prefetch(p->degree + v, 0);
    __builtin_prefetch(p->lower + v, 0);
    __builtin_prefetch(p->gamma + v, 0);
    __builtin_prefetch(beliefs + v * lmax, 0);
}

/* gbel = node v's belief row times its gamma. */
HOT void weigh_belief(
    const plan_t *p, const int64_t lmax, const int64_t v,
    const double *restrict beliefs, double *restrict gbel)
{
    const double g = p->gamma[v];
    const double *b = beliefs + v * lmax;
    for (int64_t k = 0; k < lmax; ++k)
        gbel[k] = b[k] * g;
}

/* Forward level l from row r on: label its nodes by sequential
 * conditioning on earlier levels (its conditioning rows, node by node),
 * then send on its send rows.  Returns the next level's first row. */
HOT int64_t forward_level(
    const plan_t *p, const int64_t lmax, const int64_t l, int64_t r,
    double *restrict messages, double *restrict beliefs,
    int64_t *restrict labels, double *restrict cond)
{
    const int64_t LL = lmax * lmax;
    const int64_t rows = 2 * p->m;
    const int64_t *nodes = p->nodes + p->node_off[l];
    const int64_t nn = p->node_off[l + 1] - p->node_off[l];
    for (int64_t i = 0; i < nn; ++i) {
        if (i + 4 < nn)
            prefetch_node(p, lmax, nodes[i + 4], beliefs);
        memcpy(cond + i * lmax, beliefs + nodes[i] * lmax,
               (size_t)lmax * sizeof(double));
    }
    for (int64_t i = 0; i < nn; ++i) {
        double *row = cond + i * lmax;
        const int64_t r1 = r + p->lower[nodes[i]];
        for (; r < r1; ++r) {
            if (r + PF < rows) {
                __builtin_prefetch(labels + p->nbr[r + PF], 0);
                __builtin_prefetch(messages + (p->slot[r + PF] ^ 1) * lmax, 0);
            }
            const int64_t lab = labels[p->nbr[r]];
            const double *cm = p->cost + p->cid[r] * LL + lab;
            const double *m_in = messages + (p->slot[r] ^ 1) * lmax;
            for (int64_t k = 0; k < lmax; ++k)
                row[k] += cm[k * lmax] - m_in[k];
        }
    }
    for (int64_t i = 0; i < nn; ++i)
        labels[nodes[i]] = argmin_row(cond + i * lmax, lmax);
    double gbel[64];
    for (int64_t i = 0; i < nn; ++i) {
        const int64_t v = nodes[i];
        const int64_t r1 = r + p->degree[v] - p->lower[v];
        if (r1 == r)
            continue;
        weigh_belief(p, lmax, v, beliefs, gbel);
        send_rows(p, lmax, gbel, r, r1, rows, messages, beliefs);
        r = r1;
    }
    return r;
}

HOT void forward_body(
    const plan_t *p, const int64_t lmax, double *messages, double *beliefs,
    int64_t *labels, double *cond, double *secs)
{
    int64_t r = 0;
    for (int64_t l = 0; l < p->n_fwd; ++l) {
        const double t0 = secs ? now() : 0.0;
        r = forward_level(p, lmax, l, r, messages, beliefs, labels, cond);
        if (secs)
            secs[l] += now() - t0;
    }
}

/* Each node of a backward level re-sends on its conditioning rows.  The
 * listed nodes' rows lie apart, so prefetches run by node, in three
 * stages: six nodes ahead the node's own words and belief row, three
 * ahead its rows, two ahead the message and belief rows they point at. */
HOT void backward_body(
    const plan_t *p, const int64_t lmax, double *messages, double *beliefs,
    double *secs)
{
    const int64_t listed = p->bwd_off[p->n_bwd];
    double gbel[64];
    for (int64_t l = 0; l < p->n_bwd; ++l) {
        const double t0 = secs ? now() : 0.0;
        for (int64_t k = p->bwd_off[l]; k < p->bwd_off[l + 1]; ++k) {
            if (k + 6 < listed) {
                const int64_t w = p->bwd_nodes[k + 6];
                __builtin_prefetch(p->lower_start + w, 0);
                __builtin_prefetch(p->lower + w, 0);
                __builtin_prefetch(p->gamma + w, 0);
                __builtin_prefetch(beliefs + w * lmax, 0);
            }
            if (k + 3 < listed) {
                const int64_t r = p->lower_start[p->bwd_nodes[k + 3]];
                __builtin_prefetch(p->slot + r, 0);
                __builtin_prefetch(p->nbr + r, 0);
                __builtin_prefetch(p->cid + r, 0);
            }
            if (k + 2 < listed) {
                const int64_t w = p->bwd_nodes[k + 2];
                const int64_t r = p->lower_start[w], r1 = r + p->lower[w];
                for (int64_t q = r; q < r1; ++q) {
                    const int64_t s = p->slot[q];
                    __builtin_prefetch(messages + (s ^ 1) * lmax, 0);
                    __builtin_prefetch(messages + s * lmax, 1);
                    __builtin_prefetch(beliefs + p->nbr[q] * lmax, 1);
                }
            }
            const int64_t v = p->bwd_nodes[k];
            const int64_t r = p->lower_start[v];
            weigh_belief(p, lmax, v, beliefs, gbel);
            send_rows(p, lmax, gbel, r, r + p->lower[v], 0, messages,
                      beliefs);
        }
        if (secs)
            secs[l] += now() - t0;
    }
}

/* Worklist ICM.  Each sweep walks the nodes in forward-level order, the
 * order of the Gauss-Seidel sweep (a level's nodes are never adjacent, so
 * one at a time is the level's block update).  A node is visited only
 * while it is dirty, and every node is at the start: a visit clears its
 * flag, takes the first argmin of its unary plus the pairwise columns of
 * every neighbour's current label (its rows through perm, edge order)
 * and, if its label changes, flags its neighbours.  A clean node's
 * conditioning row is the one of its last visit, whose argmin is its
 * current label, so skipping it changes nothing: after any number of
 * sweeps the labels are those of full sweeps.  Stops after a sweep that
 * changes nothing, or after max_sweeps.  `dirty` holds n bytes. */
HOT void icm_body(
    const plan_t *p, const int64_t lmax, const int64_t max_sweeps,
    int64_t *restrict current, unsigned char *restrict dirty)
{
    const int64_t LL = lmax * lmax;
    const int64_t n = p->node_off[p->n_fwd];
    double row[64];
    memset(dirty, 1, (size_t)n);
    for (int64_t sweep = 0; sweep < max_sweeps; ++sweep) {
        int changed = 0;
        int64_t j1 = 0;
        for (int64_t k = 0; k < n; ++k) {
            const int64_t v = p->nodes[k];
            const int64_t j0 = j1;
            j1 += p->degree[v];
            if (!dirty[v])
                continue;
            dirty[v] = 0;
            memcpy(row, p->unary + v * lmax, (size_t)lmax * sizeof(double));
            for (int64_t j = j0; j < j1; ++j) {
                const int64_t r = p->perm[j];
                const int64_t lab = current[p->nbr[r]];
                const double *cm = p->cost + p->cid[r] * LL + lab;
                for (int64_t q = 0; q < lmax; ++q)
                    row[q] += cm[q * lmax];
            }
            const int64_t best = argmin_row(row, lmax);
            if (best != current[v]) {
                changed = 1;
                current[v] = best;
                for (int64_t j = j0; j < j1; ++j)
                    dirty[p->nbr[p->perm[j]]] = 1;
            }
        }
        if (!changed)
            break;
    }
}

/* Degree-descending sequential greedy labelling.  Nodes are visited
 * most-connected first, ties in node order (a stable counting sort on
 * degree; `top` is the largest degree), and each takes the first argmin
 * of its unary plus the pairwise columns of its already-labelled
 * neighbours, added in edge order (its rows through perm).  A node's
 * label is -1 until it is visited, which is what marks a neighbour as
 * labelled.  `work` holds 2n + top + 2 int64: each node's first perm
 * entry (perm groups the rows by node in the forward node order), the
 * visiting order and the degree buckets. */
HOT void greedy_body(
    const plan_t *p, const int64_t lmax, const int64_t top,
    int64_t *restrict labels, int64_t *restrict work)
{
    const int64_t LL = lmax * lmax;
    const int64_t n = p->node_off[p->n_fwd];
    int64_t *start = work, *order = work + n, *bucket = work + 2 * n;
    double row[64];
    int64_t at = 0;
    for (int64_t k = 0; k < n; ++k) {
        start[p->nodes[k]] = at;
        at += p->degree[p->nodes[k]];
    }
    memset(bucket, 0, (size_t)(top + 2) * sizeof(int64_t));
    for (int64_t v = 0; v < n; ++v)
        ++bucket[top - p->degree[v] + 1];
    for (int64_t d = 0; d <= top; ++d)
        bucket[d + 1] += bucket[d];
    for (int64_t v = 0; v < n; ++v) {
        order[bucket[top - p->degree[v]]++] = v;
        labels[v] = -1;
    }
    for (int64_t k = 0; k < n; ++k) {
        const int64_t v = order[k];
        memcpy(row, p->unary + v * lmax, (size_t)lmax * sizeof(double));
        const int64_t j1 = start[v] + p->degree[v];
        for (int64_t j = start[v]; j < j1; ++j) {
            const int64_t r = p->perm[j];
            const int64_t lab = labels[p->nbr[r]];
            if (lab < 0)
                continue;
            const double *cm = p->cost + p->cid[r] * LL + lab;
            for (int64_t q = 0; q < lmax; ++q)
                row[q] += cm[q * lmax];
        }
        labels[v] = argmin_row(row, lmax);
    }
}

/* Unary plus every incoming message, added in slot order: TRW-S's
 * starting beliefs and the bound's shares.  Edge e's slot 2e is received
 * by second[e], then its slot 2e + 1 by first[e]. */
HOT void beliefs_body(
    const plan_t *p, const int64_t lmax, const double *restrict messages,
    double *restrict beliefs)
{
    const int64_t n = p->node_off[p->n_fwd];
    const int64_t m = p->m;
    memcpy(beliefs, p->unary, (size_t)(n * lmax) * sizeof(double));
    for (int64_t e = 0; e < m; ++e) {
        if (e + PF / 2 < m) {
            __builtin_prefetch(beliefs + p->second[e + PF / 2] * lmax, 1);
            __builtin_prefetch(beliefs + p->first[e + PF / 2] * lmax, 1);
        }
        double *row = beliefs + p->second[e] * lmax;
        const double *msg = messages + 2 * e * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += msg[r];
        row = beliefs + p->first[e] * lmax;
        msg += lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += msg[r];
    }
}

/* Where forward level l's send rows start: after its last node's
 * conditioning rows. */
static inline int64_t send_start(const plan_t *p, const int64_t l)
{
    const int64_t v = p->nodes[p->node_off[l + 1] - 1];
    return p->lower_start[v] + p->lower[v];
}

/* The TRW-S lower bound's chain minima (see MRFArrays.chains).  Node v's
 * share t_v = gamma_v * (unary_v + incoming messages in slot order); each
 * chain c keeps tail_c, its min-sum so far over the label of the node it
 * has reached, without that node's share (zero before its first edge).
 * Each send row, in row order, extends its chain: tail_c(y) = min_x
 * cost(x, y) + (tail_c + t_v - M_in)(x), minus M_out(y).  A chain's
 * previous send is a lower edge of its sender, sent at an earlier level,
 * so one pass in row order sees every chain's edges in order.  Chain c's
 * minimum is min_y tail_c(y) + t_end(y).  `share` is n x lmax and `tail`
 * n_chains x lmax of scratch. */
HOT void chain_body(
    const plan_t *p, const int64_t lmax, const int64_t *restrict chain,
    const int64_t n_chains, const int64_t *restrict ends,
    const double *restrict messages, double *restrict share,
    double *restrict tail, double *restrict mins)
{
    const int64_t LL = lmax * lmax;
    const int64_t n = p->node_off[p->n_fwd];
    const int64_t rows = 2 * p->m;
    double base_buf[64];
    double new_buf[64];
    memset(tail, 0, (size_t)(n_chains * lmax) * sizeof(double));
    beliefs_body(p, lmax, messages, share);
    for (int64_t v = 0; v < n; ++v) {
        const double g = p->gamma[v];
        for (int64_t r = 0; r < lmax; ++r)
            share[v * lmax + r] *= g;
    }
    int64_t e = 0;
    for (int64_t l = 0; l < p->n_fwd; ++l) {
        int64_t r = send_start(p, l);
        for (int64_t k = p->node_off[l]; k < p->node_off[l + 1]; ++k) {
            const int64_t v = p->nodes[k];
            const int64_t r1 = r + p->degree[v] - p->lower[v];
            const double *t = share + v * lmax;
            if (k + 2 < n)
                __builtin_prefetch(share + p->nodes[k + 2] * lmax, 0);
            for (; r < r1; ++r, ++e) {
                if (r + PF < rows) {
                    const int64_t s = p->slot[r + PF];
                    __builtin_prefetch(messages + (s ^ 1) * lmax, 0);
                    __builtin_prefetch(messages + s * lmax, 0);
                }
                if (e + PF < p->m)
                    __builtin_prefetch(tail + chain[e + PF] * lmax, 1);
                const int64_t s = p->slot[r];
                const double *m_in = messages + (s ^ 1) * lmax;
                double *cur = tail + chain[e] * lmax;
                for (int64_t q = 0; q < lmax; ++q)
                    base_buf[q] = (cur[q] + t[q]) - m_in[q];
                const double *cm = p->cost + p->cid[r] * LL;
                for (int64_t c = 0; c < lmax; ++c)
                    new_buf[c] = INFINITY;
                for (int64_t q = 0; q < lmax; ++q) {
                    const double bq = base_buf[q];
                    const double *row = cm + q * lmax;
                    for (int64_t c = 0; c < lmax; ++c) {
                        const double v = row[c] + bq;
                        MINACC(new_buf[c], v);
                    }
                }
                const double *m_out = messages + s * lmax;
                for (int64_t c = 0; c < lmax; ++c)
                    cur[c] = new_buf[c] - m_out[c];
            }
        }
    }
    for (int64_t c = 0; c < n_chains; ++c) {
        if (c + PF < n_chains)
            __builtin_prefetch(share + ends[c + PF] * lmax, 0);
        const double *t = share + ends[c] * lmax;
        const double *cur = tail + c * lmax;
        double best = INFINITY;
        for (int64_t y = 0; y < lmax; ++y) {
            const double v = cur[y] + t[y];
            MINACC(best, v);
        }
        mins[c] = best;
    }
}

/* The common label widths get constant-folded copies of each body. */
#define DISPATCH(call_4, call_6, call_8, call_n) \
    switch (p->lmax) {                           \
    case 4: call_4; break;                       \
    case 6: call_6; break;                       \
    case 8: call_8; break;                       \
    default: call_n; break;                      \
    }

void repro_trws_forward(
    const plan_t *p, double *messages, double *beliefs, int64_t *labels,
    double *cond, double *secs)
{
    DISPATCH(forward_body(p, 4, messages, beliefs, labels, cond, secs),
             forward_body(p, 6, messages, beliefs, labels, cond, secs),
             forward_body(p, 8, messages, beliefs, labels, cond, secs),
             forward_body(p, p->lmax, messages, beliefs, labels, cond, secs))
}

void repro_trws_backward(
    const plan_t *p, double *messages, double *beliefs, double *secs)
{
    DISPATCH(backward_body(p, 4, messages, beliefs, secs),
             backward_body(p, 6, messages, beliefs, secs),
             backward_body(p, 8, messages, beliefs, secs),
             backward_body(p, p->lmax, messages, beliefs, secs))
}

void repro_icm(const plan_t *p, int64_t max_sweeps, int64_t *current,
               unsigned char *dirty)
{
    DISPATCH(icm_body(p, 4, max_sweeps, current, dirty),
             icm_body(p, 6, max_sweeps, current, dirty),
             icm_body(p, 8, max_sweeps, current, dirty),
             icm_body(p, p->lmax, max_sweeps, current, dirty))
}

void repro_greedy(const plan_t *p, int64_t top, int64_t *labels,
                  int64_t *work)
{
    DISPATCH(greedy_body(p, 4, top, labels, work),
             greedy_body(p, 6, top, labels, work),
             greedy_body(p, 8, top, labels, work),
             greedy_body(p, p->lmax, top, labels, work))
}

void repro_chain_bound(
    const plan_t *p, const int64_t *chain, int64_t n_chains,
    const int64_t *ends, const double *messages, double *share,
    double *tail, double *mins)
{
    DISPATCH(chain_body(p, 4, chain, n_chains, ends, messages, share, tail,
                        mins),
             chain_body(p, 6, chain, n_chains, ends, messages, share, tail,
                        mins),
             chain_body(p, 8, chain, n_chains, ends, messages, share, tail,
                        mins),
             chain_body(p, p->lmax, chain, n_chains, ends, messages, share,
                        tail, mins))
}

/* The plan's graph labels (see MRFArrays.chains / components), O(n + m);
 * either output may be NULL.
 *
 * Chains: node v's conditioning rows and sends are each contiguous, in
 * the forward node order, each in edge order, and its k-th conditioning
 * row feeds its k-th send; a row with k >= #sends ends its chain.  One
 * pass in node order gives each edge a code, read at its receiver: the
 * send it feeds (>= 0, sends numbered in row order), or -1 - the id of the
 * chain it ends (ids in conditioning row order, then one per isolated
 * node); `code` is m int64 of scratch.  A send's successor is sent at a
 * later level, so one pass over the send rows in reverse gives every
 * send its chain.  `ends` needs room for m + n entries; the chain count
 * is returned.
 *
 * Components: union-find over the edges with the smaller root kept, so
 * every root is its component's smallest node; parents only point down,
 * so one ascending pass numbers the roots densely and gives every other
 * node its root's id. */
int64_t repro_label_graph(
    const plan_t *p, int64_t *chain, int64_t *ends, int64_t *comp,
    int64_t *code)
{
    const int64_t n = p->node_off[p->n_fwd];
    const int64_t m = p->m;
    int64_t n_chains = 0;
    if (chain) {
        int64_t sent = 0;
        for (int64_t k = 0; k < n; ++k) {
            const int64_t v = p->nodes[k];
            const int64_t lower = p->lower[v];
            const int64_t higher = p->degree[v] - lower;
            const int64_t *slot = p->slot + p->lower_start[v];
            for (int64_t q = 0; q < lower; ++q) {
                const int64_t e = slot[q] >> 1;
                if (q < higher) {
                    code[e] = sent + q;
                } else {
                    code[e] = -1 - n_chains;
                    ends[n_chains++] = v;
                }
            }
            sent += higher;
        }
        for (int64_t k = 0; k < n; ++k)
            if (p->degree[p->nodes[k]] == 0)
                ends[n_chains++] = p->nodes[k];
        int64_t e = m, stop = 2 * m;
        for (int64_t l = p->n_fwd - 1; l >= 0; --l) {
            const int64_t start = send_start(p, l);
            for (int64_t r = stop - 1; r >= start; --r) {
                const int64_t c = code[p->slot[r] >> 1];
                --e;
                chain[e] = c >= 0 ? chain[c] : -1 - c;
            }
            stop = p->lower_start[p->nodes[p->node_off[l]]];
        }
    }
    if (comp) {
        for (int64_t v = 0; v < n; ++v)
            comp[v] = v;
        for (int64_t e = 0; e < m; ++e) {
            int64_t a = p->first[e], b = p->second[e];
            while (comp[a] != a) {
                comp[a] = comp[comp[a]];
                a = comp[a];
            }
            while (comp[b] != b) {
                comp[b] = comp[comp[b]];
                b = comp[b];
            }
            if (a < b)
                comp[b] = a;
            else if (b < a)
                comp[a] = b;
        }
        int64_t count = 0;
        for (int64_t v = 0; v < n; ++v)
            comp[v] = comp[v] == v ? count++ : comp[comp[v]];
    }
    return n_chains;
}

/* The wavefront schedule of an edge set, in O(n + m).  Slot 2e is
 * first[e]'s endpoint of edge e and slot 2e+1 second[e]'s; a stable
 * counting sort groups the slots by node, so node v owns
 * group[off[v]:off[v+1]] in slot order.  Over that grouping, one pass in
 * index order gives each node's longest-path level above its
 * lower-numbered neighbours (flevel) and one in reverse order the level
 * above its higher-numbered ones (blevel).  Endpoints must lie in
 * [0, n) and differ; the plan build checks both. */
static void schedule(
    int64_t n, int64_t m, const int64_t *first, const int64_t *second,
    int64_t *group, int64_t *off, int64_t *flevel, int64_t *blevel)
{
    memset(off, 0, (size_t)(n + 1) * sizeof(int64_t));
    /* Zeroed so the branch-free level passes below read defined values
     * at the neighbours they then discard. */
    memset(flevel, 0, (size_t)n * sizeof(int64_t));
    memset(blevel, 0, (size_t)n * sizeof(int64_t));
    for (int64_t e = 0; e < m; ++e) {
        ++off[first[e] + 1];
        ++off[second[e] + 1];
    }
    for (int64_t v = 0; v < n; ++v)
        off[v + 1] += off[v];
    /* off[v] is v's cursor while placing, and ends at v's end. */
    for (int64_t e = 0; e < m; ++e) {
        group[off[first[e]]++] = 2 * e;
        group[off[second[e]]++] = 2 * e + 1;
    }
    for (int64_t v = n; v > 0; --v)
        off[v] = off[v - 1];
    off[0] = 0;
    for (int64_t v = 0; v < n; ++v) {
        int64_t level = 0;
        for (int64_t k = off[v]; k < off[v + 1]; ++k) {
            const int64_t s = group[k];
            const int64_t u = (s & 1) ? first[s >> 1] : second[s >> 1];
            const int64_t deeper = u < v ? flevel[u] + 1 : 0;
            level = deeper > level ? deeper : level;
        }
        flevel[v] = level;
    }
    for (int64_t v = n - 1; v >= 0; --v) {
        int64_t level = 0;
        for (int64_t k = off[v]; k < off[v + 1]; ++k) {
            const int64_t s = group[k];
            const int64_t u = (s & 1) ? first[s >> 1] : second[s >> 1];
            const int64_t deeper = u > v ? blevel[u] + 1 : 0;
            level = deeper > level ? deeper : level;
        }
        blevel[v] = level;
    }
}

/* Output arrays of repro_structure (see MRFArrays.adjacency): per-node
 * gamma, the rows and perm (2m each), the per-node arrays and the
 * backward node order (room for n), and both level offsets (room for
 * n + 1); n_fwd / n_bwd receive the level counts. */
typedef struct {
    double *gamma;
    int64_t *nbr, *slot, *cid, *perm;
    int64_t *nodes, *degree, *lower, *lower_start, *bwd_nodes;
    int64_t *node_off, *bwd_off;
    int64_t n_fwd, n_bwd;
} structure_t;

/* A stable counting sort of the nodes by level: order lists them
 * level-major, ascending within a level, level l owning
 * order[off[l]:off[l + 1]] (off needs n + 1 entries).  Returns the
 * number of levels. */
static int64_t level_order(
    const int64_t n, const int64_t *level, int64_t *order, int64_t *off)
{
    int64_t count = 0;
    for (int64_t v = 0; v < n; ++v)
        count = level[v] >= count ? level[v] + 1 : count;
    memset(off, 0, (size_t)(count + 1) * sizeof(int64_t));
    for (int64_t v = 0; v < n; ++v)
        ++off[level[v] + 1];
    for (int64_t l = 0; l < count; ++l)
        off[l + 1] += off[l];
    /* off[l] is level l's cursor while placing, and ends at its end. */
    for (int64_t v = 0; v < n; ++v)
        order[off[level[v]]++] = v;
    for (int64_t l = count; l > 0; --l)
        off[l] = off[l - 1];
    off[0] = 0;
    return count;
}

/* Node v's slots towards lower (up = 0) or higher (up = 1) neighbours,
 * in edge order, as rows from `row` on: each row's neighbour, slot and
 * cost id (cid[e] + stacked when v sends on the odd slot), and its place
 * in perm (v's entries start at at[v], in group order).  Returns the
 * next row. */
static int64_t place_rows(
    const int64_t v, const int up, int64_t row, const int64_t *group,
    const int64_t *off, const int64_t *at, const int64_t *first,
    const int64_t *second, const int64_t *cid, const int64_t stacked,
    structure_t *st)
{
    for (int64_t q = off[v]; q < off[v + 1]; ++q) {
        const int64_t s = group[q];
        const int64_t u = (s & 1) ? first[s >> 1] : second[s >> 1];
        if ((u > v) != up)
            continue;
        st->nbr[row] = u;
        st->slot[row] = s;
        st->cid[row] = cid[s >> 1] + stacked * (s & 1);
        st->perm[at[v] + q - off[v]] = row++;
    }
    return row;
}

/* The plan structure of an edge set, in O(n + m): the schedule's
 * endpoint grouping and levels, then per forward level one pass over its
 * nodes that places their conditioning rows and one that places their
 * send rows, and one pass in backward-level order that lists the nodes
 * with conditioning rows; backward levels without any are dropped.  Slot
 * s of edge e = s >> 1 carries first[e] -> second[e] when even and the
 * reverse when odd, and prices through cid[e] + stacked * (s & 1).
 * gamma is 1 / max(#higher, #lower neighbours), 1 without neighbours.
 * `work` holds 2m + 6n + 2 int64.  Endpoints must lie in [0, n) and
 * differ; the plan build checks both. */
void repro_structure(
    int64_t n, int64_t m, const int64_t *first, const int64_t *second,
    const int64_t *cid, int64_t stacked, structure_t *st, int64_t *work)
{
    int64_t *group = work, *off = group + 2 * m, *flevel = off + n + 1;
    int64_t *blevel = flevel + n, *at = blevel + n, *border = at + n;
    int64_t *boff = border + n;
    int64_t *nodes = st->nodes, *node_off = st->node_off;
    schedule(n, m, first, second, group, off, flevel, blevel);
    const int64_t n_fwd = level_order(n, flevel, nodes, node_off);
    int64_t placed = 0;
    for (int64_t k = 0; k < n; ++k) {
        const int64_t v = nodes[k];
        at[v] = placed;
        placed += off[v + 1] - off[v];
    }
    int64_t row = 0;
    for (int64_t l = 0; l < n_fwd; ++l) {
        for (int64_t k = node_off[l]; k < node_off[l + 1]; ++k) {
            const int64_t v = nodes[k];
            st->lower_start[v] = row;
            row = place_rows(v, 0, row, group, off, at, first, second, cid,
                             stacked, st);
            const int64_t degree = off[v + 1] - off[v];
            const int64_t below = row - st->lower_start[v];
            const int64_t above = degree - below;
            const int64_t chains = above > below ? above : below;
            st->degree[v] = degree;
            st->lower[v] = below;
            st->gamma[v] = chains > 0 ? 1.0 / (double)chains : 1.0;
        }
        for (int64_t k = node_off[l]; k < node_off[l + 1]; ++k)
            row = place_rows(nodes[k], 1, row, group, off, at, first, second,
                             cid, stacked, st);
    }
    const int64_t n_levels = level_order(n, blevel, border, boff);
    int64_t n_bwd = 0, kept = 0;
    for (int64_t l = 0; l < n_levels; ++l) {
        const int64_t level_start = kept;
        for (int64_t k = boff[l]; k < boff[l + 1]; ++k)
            if (st->lower[border[k]] > 0)
                st->bwd_nodes[kept++] = border[k];
        if (kept > level_start)
            st->bwd_off[n_bwd++] = level_start;
    }
    st->bwd_off[n_bwd] = kept;
    st->n_fwd = n_fwd;
    st->n_bwd = n_bwd;
}

void repro_bp_beliefs(
    const plan_t *p, const double *messages, double *beliefs)
{
    DISPATCH(beliefs_body(p, 4, messages, beliefs),
             beliefs_body(p, 6, messages, beliefs),
             beliefs_body(p, 8, messages, beliefs),
             beliefs_body(p, p->lmax, messages, beliefs))
}
"""

_BASE_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno"]

_lock = threading.Lock()
_cached: Optional["CKernels"] = None
_failed = False

_P = ctypes.c_void_p
_I64 = ctypes.c_int64


#: The int64 arrays ``repro_structure`` writes, in ``structure_t`` order,
#: with their lengths: one entry per row (directed slot) or node.
STRUCTURE_ARRAYS = (
    *((name, "row") for name in ("nbr", "slot", "cid", "perm")),
    *((name, "node") for name in (
        "nodes", "degree", "lower", "lower_start", "bwd_nodes",
    )),
)
#: Its level offsets, in ``structure_t`` order.
STRUCTURE_OFFSETS = ("node_off", "bwd_off")
#: The adjacency's fields, in ``plan_t`` (and ``structure_t``) order.
ADJACENCY_FIELDS = (
    *(name for name, _extent in STRUCTURE_ARRAYS), *STRUCTURE_OFFSETS,
)


class CPlan(ctypes.Structure):
    """Mirror of the C ``plan_t``: every pointer a sweep kernel reads."""

    _fields_ = [
        ("lmax", _I64), ("m", _I64), ("n_fwd", _I64), ("n_bwd", _I64),
        *((name, _P) for name in (
            "cost", "unary", "gamma", "counts", "first", "second",
            *ADJACENCY_FIELDS,
        )),
    ]


class CStructure(ctypes.Structure):
    """Mirror of the C ``structure_t``: the arrays ``repro_structure``
    writes, and the level counts it returns."""

    _fields_ = [
        ("gamma", _P),
        *((name, _P) for name, _extent in STRUCTURE_ARRAYS),
        *((name, _P) for name in STRUCTURE_OFFSETS),
        ("n_fwd", _I64), ("n_bwd", _I64),
    ]


#: (symbol, argument types, return type) of every exported kernel.
_SIGNATURES = (
    ("repro_trws_forward", [ctypes.POINTER(CPlan), _P, _P, _P, _P, _P], None),
    ("repro_trws_backward", [ctypes.POINTER(CPlan), _P, _P, _P], None),
    ("repro_icm", [ctypes.POINTER(CPlan), _I64, _P, _P], None),
    ("repro_greedy", [ctypes.POINTER(CPlan), _I64, _P, _P], None),
    ("repro_chain_bound",
     [ctypes.POINTER(CPlan), _P, _I64, _P, _P, _P, _P, _P], None),
    ("repro_structure",
     [_I64, _I64, _P, _P, _P, _I64, ctypes.POINTER(CStructure), _P], None),
    ("repro_label_graph", [ctypes.POINTER(CPlan), _P, _P, _P, _P], _I64),
    ("repro_bp_beliefs", [ctypes.POINTER(CPlan), _P, _P], None),
)


class CKernels:
    """The compiled kernel library with typed entry points.

    Attributes are the C functions themselves (``trws_forward``,
    ``trws_backward``, ``icm``, ``greedy``, ``chain_bound``,
    ``structure``, ``label_graph``, ``bp_beliefs``), taking
    raw addresses (``int`` or ``None`` for ``NULL``) for arrays and a
    ``POINTER(CPlan)`` for plans.
    Callers guarantee C-contiguous arrays of the documented dtypes.
    """

    kind = "cc"

    def __init__(self, path: Path) -> None:
        self.path = path
        self._lib = ctypes.CDLL(str(path))
        for symbol, argtypes, restype in _SIGNATURES:
            function = getattr(self._lib, symbol)
            function.argtypes = argtypes
            function.restype = restype
            setattr(self, symbol[len("repro_"):], function)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    try:
        tag = f"uid{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-posix
        tag = "shared"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{tag}"


def _compilers():
    explicit = os.environ.get("CC")
    candidates = [explicit] if explicit else []
    candidates += ["cc", "gcc", "clang"]
    return candidates


def _try_build(directory: Path, source: Path, target: Path) -> bool:
    for compiler in _compilers():
        for extra in (["-march=native"], []):
            tmp = directory / f".{target.name}.tmp{os.getpid()}"
            cmd = [compiler, *_BASE_FLAGS, *extra, str(source), "-o", str(tmp)]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, timeout=120, check=False
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0 and tmp.exists():
                os.replace(tmp, target)
                return True
            tmp.unlink(missing_ok=True)
    return False


def load_kernels() -> Optional[CKernels]:
    """Compile (once, disk-cached) and load the C kernels, or ``None``.

    Never raises: any compiler/loader failure marks the C path unavailable
    for the rest of the process and the registry falls back to NumPy.
    """
    global _cached, _failed
    if _cached is not None:
        return _cached
    if _failed:
        return None
    with _lock:
        if _cached is not None or _failed:
            return _cached
        try:
            digest = hashlib.sha256(
                ("|".join(_BASE_FLAGS) + KERNELS_C).encode()
            ).hexdigest()[:16]
            directory = _cache_dir()
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / f"libreprokernels-{digest}.so"
            if not target.exists():
                source = directory / f"kernels-{digest}.c"
                source.write_text(KERNELS_C)
                if not _try_build(directory, source, target):
                    _failed = True
                    return None
            _cached = CKernels(target)
        except Exception:
            _failed = True
            return None
    return _cached
