"""ctypes/C implementation of the native kernels.

One embedded C translation unit, compiled on first use with whatever C
compiler the host offers (``$CC``, ``cc``, ``gcc``, ``clang``) and loaded
through :mod:`ctypes` — thin native kernels under a NumPy-facing API, with
no build system and no Python.h dependency.  When no compiler works, the
loader reports unavailable and the backend registry degrades to NumPy.

The TRW-S sweeps and ICM are *whole-sweep* entry points: one
foreign call walks every wavefront level of a plan, reading the plan's
flat level-major arrays through a :class:`CPlan` struct that is filled
once per plan build.  ICM keeps a dirty flag per node and visits only
nodes a neighbour's label change has flagged since their last visit.
The greedy refine init is one call too: it visits
the nodes in degree order over the forward sweep's full-adjacency
arrays.  So is the TRW-S lower bound: one pass over the forward sends
extends every monotonic chain, then one over the chains takes their
minima.  When the caller passes a per-level seconds array
(tracing), the same loop times each level with ``CLOCK_MONOTONIC``;
untraced calls pass ``NULL``.  Three more entry points run once per edge
set: ``repro_structure`` at every plan build (``repro_schedule``'s
counting sort of the edge endpoints by node and its two longest-path
level passes, then one pass per sweep direction that writes the slot,
γ and level-major sweep arrays into a :class:`CStructure`), and
``repro_label_graph`` when the plan's chains or components are first
read (one pass over the forward sweep's arrays for the chains, union-find
for the components); all O(nodes + edges).

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
    "load_kernels", "CKernels", "CPlan", "CSends", "CStructure", "KERNELS_C",
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

/* One sweep direction's sends, level-major; level l owns [off[l], off[l+1]).
 * Send e writes slot out[e] and reads the opposite slot out[e] ^ 1. */
typedef struct {
    const int64_t *off;
    const int64_t *snd, *rcv, *out, *cid;
} sends_t;

/* A plan's sweep arrays (see MRFArrays.fwd_sweep / bwd_sweep), plus
 * each node's degree (the greedy init's visiting order), its chain
 * weight gamma, its label count (later labels are padding) and each
 * message slot's receiver (the beliefs). */
typedef struct {
    int64_t lmax, n_fwd, n_bwd;
    const double *cost;
    const double *unary;
    const int64_t *degree;
    const double *gamma;
    const int64_t *counts;
    const int64_t *receiver;
    const int64_t *node_off, *nodes;
    const int64_t *ext_off, *ext_seg, *ext_nbr, *ext_in, *ext_cid;
    const int64_t *all_off, *all_seg, *all_nbr, *all_cid;
    sends_t fwd, bwd;
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

/* Block message update of sends [begin, end); `limit` bounds prefetch. */
HOT void send_range(
    const plan_t *p, const int64_t lmax, const sends_t *s,
    const int64_t begin, const int64_t end, const int64_t limit,
    double *restrict messages, double *restrict beliefs)
{
    const int64_t LL = lmax * lmax;
    const double *restrict cost = p->cost;
    double base_buf[64];
    double new_buf[64];
    for (int64_t e = begin; e < end; ++e) {
        if (e + PF < limit) {
            __builtin_prefetch(beliefs + s->snd[e + PF] * lmax, 0);
            __builtin_prefetch(messages + (s->out[e + PF] ^ 1) * lmax, 0);
            __builtin_prefetch(messages + s->out[e + PF] * lmax, 1);
            __builtin_prefetch(beliefs + s->rcv[e + PF] * lmax, 1);
        }
        const double *b = beliefs + s->snd[e] * lmax;
        const double *m_in = messages + (s->out[e] ^ 1) * lmax;
        const double g = p->gamma[s->snd[e]];
        for (int64_t r = 0; r < lmax; ++r)
            base_buf[r] = b[r] * g - m_in[r];
        const double *cm = cost + s->cid[e] * LL;
        for (int64_t c = 0; c < lmax; ++c)
            new_buf[c] = INFINITY;
        for (int64_t r = 0; r < lmax; ++r) {
            const double br = base_buf[r];
            const double *row = cm + r * lmax;
            for (int64_t c = 0; c < lmax; ++c) {
                const double v = row[c] + br;
                MINACC(new_buf[c], v);
            }
        }
        double rowmin = INFINITY;
        for (int64_t c = 0; c < lmax; ++c)
            MINACC(rowmin, new_buf[c]);
        const int64_t count = p->counts[s->rcv[e]];
        double *mout = messages + s->out[e] * lmax;
        double *brcv = beliefs + s->rcv[e] * lmax;
        for (int64_t c = 0; c < lmax; ++c) {
            const double nv = c >= count ? 0.0 : new_buf[c] - rowmin;
            brcv[c] += nv - mout[c];
            mout[c] = nv;
        }
    }
}

/* Sequential-conditioning labels of forward level l. */
HOT void condition_level(
    const plan_t *p, const int64_t lmax, const int64_t l,
    const double *restrict beliefs, const double *restrict messages,
    int64_t *restrict labels, double *restrict cond)
{
    const int64_t LL = lmax * lmax;
    const int64_t *nodes = p->nodes + p->node_off[l];
    const int64_t nn = p->node_off[l + 1] - p->node_off[l];
    const int64_t j1 = p->ext_off[l + 1];
    for (int64_t i = 0; i < nn; ++i)
        memcpy(cond + i * lmax, beliefs + nodes[i] * lmax,
               (size_t)lmax * sizeof(double));
    for (int64_t j = p->ext_off[l]; j < j1; ++j) {
        if (j + PF < j1) {
            __builtin_prefetch(labels + p->ext_nbr[j + PF], 0);
            __builtin_prefetch(messages + p->ext_in[j + PF] * lmax, 0);
            __builtin_prefetch(cond + p->ext_seg[j + PF] * lmax, 1);
        }
        const int64_t lab = labels[p->ext_nbr[j]];
        const double *cm = p->cost + p->ext_cid[j] * LL + lab;
        const double *m_in = messages + p->ext_in[j] * lmax;
        double *row = cond + p->ext_seg[j] * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += cm[r * lmax] - m_in[r];
    }
    for (int64_t i = 0; i < nn; ++i)
        labels[nodes[i]] = argmin_row(cond + i * lmax, lmax);
}

HOT void forward_body(
    const plan_t *p, const int64_t lmax, double *messages, double *beliefs,
    int64_t *labels, double *cond, double *secs)
{
    const int64_t limit = p->fwd.off[p->n_fwd];
    for (int64_t l = 0; l < p->n_fwd; ++l) {
        const double t0 = secs ? now() : 0.0;
        condition_level(p, lmax, l, beliefs, messages, labels, cond);
        send_range(p, lmax, &p->fwd, p->fwd.off[l], p->fwd.off[l + 1],
                   limit, messages, beliefs);
        if (secs)
            secs[l] += now() - t0;
    }
}

HOT void backward_body(
    const plan_t *p, const int64_t lmax, double *messages, double *beliefs,
    double *secs)
{
    const int64_t limit = p->bwd.off[p->n_bwd];
    for (int64_t l = 0; l < p->n_bwd; ++l) {
        const double t0 = secs ? now() : 0.0;
        send_range(p, lmax, &p->bwd, p->bwd.off[l], p->bwd.off[l + 1],
                   limit, messages, beliefs);
        if (secs)
            secs[l] += now() - t0;
    }
}

/* Worklist ICM.  Each sweep walks the nodes in forward-level order, the
 * order of the Gauss-Seidel sweep (a level's nodes are never adjacent, so
 * one at a time is the level's block update).  A node is visited only
 * while it is dirty, and every node is at the start: a visit clears its
 * flag, takes the first argmin of its unary plus the pairwise columns of
 * every neighbour's current label (added in full-adjacency order) and, if
 * its label changes, flags its neighbours.  A clean node's conditioning
 * row is the one of its last visit, whose argmin is its current label, so
 * skipping it changes nothing: after any number of sweeps the labels are
 * those of full sweeps.  Stops after a sweep that changes nothing, or
 * after max_sweeps.  `dirty` holds n bytes. */
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
                const int64_t lab = current[p->all_nbr[j]];
                const double *cm = p->cost + p->all_cid[j] * LL + lab;
                for (int64_t r = 0; r < lmax; ++r)
                    row[r] += cm[r * lmax];
            }
            const int64_t best = argmin_row(row, lmax);
            if (best != current[v]) {
                changed = 1;
                current[v] = best;
                for (int64_t j = j0; j < j1; ++j)
                    dirty[p->all_nbr[j]] = 1;
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
 * neighbours, added in full-adjacency (edge) order.  A node's label is
 * -1 until it is visited, which is what marks a neighbour as labelled.
 * `work` holds 2n + top + 2 int64: each node's first full-adjacency row
 * (the rows are grouped by node in the level-major node order), the
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
            const int64_t lab = labels[p->all_nbr[j]];
            if (lab < 0)
                continue;
            const double *cm = p->cost + p->all_cid[j] * LL + lab;
            for (int64_t r = 0; r < lmax; ++r)
                row[r] += cm[r * lmax];
        }
        labels[v] = argmin_row(row, lmax);
    }
}

/* Unary plus every incoming message, added in slot order: TRW-S's
 * starting beliefs and the bound's shares. */
HOT void beliefs_body(
    const plan_t *p, const int64_t lmax, const double *restrict messages,
    double *restrict beliefs)
{
    const int64_t n = p->node_off[p->n_fwd];
    const int64_t slots = 2 * p->fwd.off[p->n_fwd];
    memcpy(beliefs, p->unary, (size_t)(n * lmax) * sizeof(double));
    for (int64_t s = 0; s < slots; ++s) {
        if (s + PF < slots)
            __builtin_prefetch(beliefs + p->receiver[s + PF] * lmax, 1);
        double *row = beliefs + p->receiver[s] * lmax;
        const double *m = messages + s * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += m[r];
    }
}

/* The TRW-S lower bound's chain minima (see MRFArrays.chains).  Node v's
 * share t_v = gamma_v * (unary_v + incoming messages in slot order); each
 * chain c keeps tail_c, its min-sum so far over the label of the node it
 * has reached, without that node's share (zero before its first edge).
 * Each forward send, in sweep order, extends its chain: tail_c(y) =
 * min_x cost(x, y) + (tail_c + t_v - M_in)(x), minus M_out(y).  A chain's
 * previous send is a lower edge of its sender, sent at an earlier level,
 * so one pass in sweep order sees every chain's edges in order.  Chain
 * c's minimum is min_y tail_c(y) + t_end(y).  `share` is n x lmax and
 * `tail` n_chains x lmax of scratch. */
HOT void chain_body(
    const plan_t *p, const int64_t lmax, const int64_t *restrict chain,
    const int64_t n_chains, const int64_t *restrict ends,
    const double *restrict messages, double *restrict share,
    double *restrict tail, double *restrict mins)
{
    const int64_t LL = lmax * lmax;
    const int64_t n = p->node_off[p->n_fwd];
    const int64_t m = p->fwd.off[p->n_fwd];
    const sends_t *s = &p->fwd;
    double base_buf[64];
    double new_buf[64];
    memset(tail, 0, (size_t)(n_chains * lmax) * sizeof(double));
    beliefs_body(p, lmax, messages, share);
    for (int64_t v = 0; v < n; ++v) {
        const double g = p->gamma[v];
        for (int64_t r = 0; r < lmax; ++r)
            share[v * lmax + r] *= g;
    }
    for (int64_t e = 0; e < m; ++e) {
        if (e + PF < m) {
            const int64_t f = e + PF;
            __builtin_prefetch(share + s->snd[f] * lmax, 0);
            __builtin_prefetch(messages + (s->out[f] ^ 1) * lmax, 0);
            __builtin_prefetch(messages + s->out[f] * lmax, 0);
            __builtin_prefetch(tail + chain[f] * lmax, 1);
        }
        const double *t = share + s->snd[e] * lmax;
        const double *m_in = messages + (s->out[e] ^ 1) * lmax;
        double *cur = tail + chain[e] * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            base_buf[r] = (cur[r] + t[r]) - m_in[r];
        const double *cm = p->cost + s->cid[e] * LL;
        for (int64_t c = 0; c < lmax; ++c)
            new_buf[c] = INFINITY;
        for (int64_t r = 0; r < lmax; ++r) {
            const double br = base_buf[r];
            const double *row = cm + r * lmax;
            for (int64_t c = 0; c < lmax; ++c) {
                const double v = row[c] + br;
                MINACC(new_buf[c], v);
            }
        }
        const double *m_out = messages + s->out[e] * lmax;
        for (int64_t c = 0; c < lmax; ++c)
            cur[c] = new_buf[c] - m_out[c];
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

/* The plan's graph labels (see MRFArrays.chains / components), O(n + m)
 * over the forward sweep's arrays; either output may be NULL.
 *
 * Chains: node v's sends and conditioning rows are contiguous, in the
 * sweep's node order, each in edge order, and its k-th conditioning row
 * feeds its k-th send; a row with k >= #sends ends its chain.  One pass in
 * node order gives each edge a code, read at its receiver: the send it
 * feeds (>= 0), or -1 - the id of the chain it ends (ids in conditioning
 * row order, then one per isolated node); `code` is m int64 of scratch.
 * A send's successor is sent at a later level, so one pass over the sends
 * in reverse sweep order gives every send its chain.  `ends` needs room
 * for m + n entries; the chain count is returned.
 *
 * Components: union-find over the forward sends with the smaller root
 * kept, so every root is its component's smallest node; parents only
 * point down, so one ascending pass numbers the roots densely and gives
 * every other node its root's id. */
int64_t repro_label_graph(
    const plan_t *p, int64_t *chain, int64_t *ends, int64_t *comp,
    int64_t *code)
{
    const int64_t n = p->node_off[p->n_fwd];
    const int64_t m = p->fwd.off[p->n_fwd];
    const sends_t *s = &p->fwd;
    int64_t n_chains = 0;
    if (chain) {
        int64_t at = 0, sent = 0, cond = 0;
        for (int64_t k = 0; k < n; ++k) {
            const int64_t v = p->nodes[k];
            const int64_t d = p->degree[v];
            int64_t higher = 0;
            for (int64_t j = at; j < at + d; ++j)
                higher += p->all_nbr[j] > v;
            const int64_t lower = d - higher;
            for (int64_t q = 0; q < lower; ++q) {
                const int64_t e = p->ext_in[cond + q] >> 1;
                if (q < higher) {
                    code[e] = sent + q;
                } else {
                    code[e] = -1 - n_chains;
                    ends[n_chains++] = v;
                }
            }
            at += d;
            sent += higher;
            cond += lower;
        }
        for (int64_t k = 0; k < n; ++k)
            if (p->degree[p->nodes[k]] == 0)
                ends[n_chains++] = p->nodes[k];
        for (int64_t e = m - 1; e >= 0; --e) {
            const int64_t c = code[s->out[e] >> 1];
            chain[e] = c >= 0 ? chain[c] : -1 - c;
        }
    }
    if (comp) {
        for (int64_t v = 0; v < n; ++v)
            comp[v] = v;
        for (int64_t e = 0; e < m; ++e) {
            int64_t a = s->snd[e], b = s->rcv[e];
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
void repro_schedule(
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

/* Output arrays of repro_structure (see MRFArrays._build_structure):
 * per-node gamma, degree and the forward sweep's node order, the slot
 * receivers, the forward sweep's conditioning (m) and full-adjacency (2m)
 * rows, both sweeps' sends (m each) and their level offsets, which need
 * room for n + 1 entries; n_fwd / n_bwd receive the level counts. */
typedef struct {
    double *gamma;
    int64_t *receiver, *degree, *nodes;
    int64_t *ext_seg, *ext_nbr, *ext_in, *ext_cid;
    int64_t *all_seg, *all_nbr, *all_cid;
    int64_t *fwd_snd, *fwd_rcv, *fwd_out, *fwd_cid;
    int64_t *bwd_snd, *bwd_rcv, *bwd_out, *bwd_cid;
    int64_t *node_off, *ext_off, *all_off, *fwd_off, *bwd_off;
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

/* The plan structure of an edge set, in O(n + m): repro_schedule's
 * endpoint grouping and levels, then one pass over the nodes in
 * forward-level order that writes every node's slots (its incident
 * edges in edge order) as full-adjacency rows, splitting them into sends
 * to higher-numbered neighbours and conditioning rows from lower-numbered
 * ones, and one pass in backward-level order that re-sends each node's
 * conditioning rows; backward levels without sends are dropped.  Slot s
 * of edge e = s >> 1 carries first[e] -> second[e] when even and the
 * reverse when odd, and prices through cid[e] + stacked * (s & 1).
 * gamma is 1 / max(#higher, #lower neighbours), 1 without neighbours.
 * `work` holds 2m + 7n + 2 int64.  Endpoints must lie in [0, n) and
 * differ; the plan build checks both. */
void repro_structure(
    int64_t n, int64_t m, const int64_t *first, const int64_t *second,
    const int64_t *cid, int64_t stacked, structure_t *st, int64_t *work)
{
    int64_t *group = work, *off = group + 2 * m, *flevel = off + n + 1;
    int64_t *blevel = flevel + n, *ext_start = blevel + n;
    int64_t *lower = ext_start + n, *border = lower + n, *boff = border + n;
    int64_t *receiver = st->receiver, *nodes = st->nodes;
    repro_schedule(n, m, first, second, group, off, flevel, blevel);
    for (int64_t e = 0; e < m; ++e) {
        receiver[2 * e] = second[e];
        receiver[2 * e + 1] = first[e];
    }
    const int64_t n_fwd = level_order(n, flevel, nodes, st->node_off);
    int64_t sent = 0, cond = 0, row = 0;
    for (int64_t l = 0; l < n_fwd; ++l) {
        st->fwd_off[l] = sent;
        st->ext_off[l] = cond;
        st->all_off[l] = row;
        const int64_t k0 = st->node_off[l];
        for (int64_t k = k0; k < st->node_off[l + 1]; ++k) {
            const int64_t v = nodes[k];
            const int64_t begin = cond;
            ext_start[v] = cond;
            for (int64_t q = off[v]; q < off[v + 1]; ++q) {
                const int64_t slot = group[q];
                const int64_t u = receiver[slot];
                const int64_t c = cid[slot >> 1] + stacked * (slot & 1);
                st->all_seg[row] = k - k0;
                st->all_nbr[row] = u;
                st->all_cid[row++] = c;
                if (u > v) {
                    st->fwd_snd[sent] = v;
                    st->fwd_rcv[sent] = u;
                    st->fwd_out[sent] = slot;
                    st->fwd_cid[sent++] = c;
                } else {
                    st->ext_seg[cond] = k - k0;
                    st->ext_nbr[cond] = u;
                    st->ext_in[cond] = slot ^ 1;
                    st->ext_cid[cond++] = c;
                }
            }
            const int64_t degree = off[v + 1] - off[v];
            const int64_t below = cond - begin, above = degree - below;
            const int64_t chains = above > below ? above : below;
            st->degree[v] = degree;
            st->gamma[v] = chains > 0 ? 1.0 / (double)chains : 1.0;
            lower[v] = below;
        }
    }
    st->fwd_off[n_fwd] = sent;
    st->ext_off[n_fwd] = cond;
    st->all_off[n_fwd] = row;
    const int64_t n_levels = level_order(n, blevel, border, boff);
    int64_t n_bwd = 0;
    sent = 0;
    for (int64_t l = 0; l < n_levels; ++l) {
        const int64_t level_start = sent;
        for (int64_t k = boff[l]; k < boff[l + 1]; ++k) {
            const int64_t v = border[k];
            const int64_t j1 = ext_start[v] + lower[v];
            for (int64_t j = ext_start[v]; j < j1; ++j) {
                st->bwd_snd[sent] = v;
                st->bwd_rcv[sent] = st->ext_nbr[j];
                st->bwd_out[sent] = st->ext_in[j] ^ 1;
                st->bwd_cid[sent++] = st->ext_cid[j];
            }
        }
        if (sent > level_start)
            st->bwd_off[n_bwd++] = level_start;
    }
    st->bwd_off[n_bwd] = sent;
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


class CSends(ctypes.Structure):
    """Mirror of the C ``sends_t``: one sweep direction's send arrays."""

    _fields_ = [(name, _P) for name in ("off", "snd", "rcv", "out", "cid")]


class CPlan(ctypes.Structure):
    """Mirror of the C ``plan_t``: every pointer a sweep kernel reads."""

    _fields_ = [
        ("lmax", _I64), ("n_fwd", _I64), ("n_bwd", _I64),
        *((name, _P) for name in (
            "cost", "unary", "degree", "gamma", "counts", "receiver",
            "node_off", "nodes",
            "ext_off", "ext_seg", "ext_nbr", "ext_in", "ext_cid",
            "all_off", "all_seg", "all_nbr", "all_cid",
        )),
        ("fwd", CSends), ("bwd", CSends),
    ]


#: The int64 arrays ``repro_structure`` writes, in ``structure_t`` order,
#: with their lengths: one entry per directed slot, edge or node.
STRUCTURE_ARRAYS = (
    ("receiver", "slot"), ("degree", "node"), ("nodes", "node"),
    *((name, "edge") for name in ("ext_seg", "ext_nbr", "ext_in", "ext_cid")),
    *((name, "slot") for name in ("all_seg", "all_nbr", "all_cid")),
    *((f"{sweep}_{name}", "edge")
      for sweep in ("fwd", "bwd") for name in ("snd", "rcv", "out", "cid")),
)
#: Its level offsets, in ``structure_t`` order.
STRUCTURE_OFFSETS = ("node_off", "ext_off", "all_off", "fwd_off", "bwd_off")


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
    ("repro_schedule", [_I64, _I64, _P, _P, _P, _P, _P, _P], None),
    ("repro_structure",
     [_I64, _I64, _P, _P, _P, _I64, ctypes.POINTER(CStructure), _P], None),
    ("repro_label_graph", [ctypes.POINTER(CPlan), _P, _P, _P, _P], _I64),
    ("repro_bp_beliefs", [ctypes.POINTER(CPlan), _P, _P], None),
)


class CKernels:
    """The compiled kernel library with typed entry points.

    Attributes are the C functions themselves (``trws_forward``,
    ``trws_backward``, ``icm``, ``greedy``, ``chain_bound``,
    ``schedule``, ``structure``, ``label_graph``, ``bp_beliefs``), taking
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
