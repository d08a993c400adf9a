"""ctypes/C implementation of the native kernels.

One embedded C translation unit, compiled on first use with whatever C
compiler the host offers (``$CC``, ``cc``, ``gcc``, ``clang``) and loaded
through :mod:`ctypes` — thin native kernels under a NumPy-facing API, with
no build system and no Python.h dependency.  When no compiler works, the
loader reports unavailable and the backend registry degrades to NumPy.

The TRW-S sweeps, ICM and the decode are *whole-sweep* entry points: one
foreign call walks every wavefront level of a plan, reading the plan's
flat level-major arrays through a :class:`CPlan` struct that is filled
once per plan build.  The greedy refine init is one call too: it visits
the nodes in degree order over the forward sweep's full-adjacency
arrays.  So is the TRW-S lower bound: one pass over the forward sends
extends every monotonic chain, then one over the chains takes their
minima.  When the caller passes a per-level seconds array
(tracing), the same loop times each level with ``CLOCK_MONOTONIC``;
untraced calls pass ``NULL``.  One more entry point, ``repro_schedule``,
runs at plan build: a counting sort of the edge endpoints by node and the
two longest-path level passes over it, O(nodes + edges).

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

__all__ = ["load_kernels", "CKernels", "CPlan", "CSends", "KERNELS_C"]

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

/* One sweep direction's sends, level-major; level l owns [off[l], off[l+1]). */
typedef struct {
    const int64_t *off;
    const int64_t *snd, *rcv, *out, *inn, *cid;
    const double *gam;
    const uint8_t *pad;
} sends_t;

/* A plan's sweep arrays (see MRFArrays.fwd_sweep / bwd_sweep), plus
 * each node's degree (the greedy init's visiting order), its chain
 * weight gamma and each message slot's receiver (the bound's shares). */
typedef struct {
    int64_t lmax, n_fwd, n_bwd;
    const double *cost;
    const double *unary;
    const int64_t *degree;
    const double *gamma;
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
    const int64_t lmax, const double *restrict cost, const sends_t *s,
    const int64_t begin, const int64_t end, const int64_t limit,
    double *restrict messages, double *restrict beliefs)
{
    const int64_t LL = lmax * lmax;
    double base_buf[64];
    double new_buf[64];
    for (int64_t e = begin; e < end; ++e) {
        if (e + PF < limit) {
            __builtin_prefetch(beliefs + s->snd[e + PF] * lmax, 0);
            __builtin_prefetch(messages + s->inn[e + PF] * lmax, 0);
            __builtin_prefetch(messages + s->out[e + PF] * lmax, 1);
            __builtin_prefetch(beliefs + s->rcv[e + PF] * lmax, 1);
        }
        const double *b = beliefs + s->snd[e] * lmax;
        const double *m_in = messages + s->inn[e] * lmax;
        const double g = s->gam[e];
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
        const uint8_t *ep = s->pad + e * lmax;
        double *mout = messages + s->out[e] * lmax;
        double *brcv = beliefs + s->rcv[e] * lmax;
        for (int64_t c = 0; c < lmax; ++c) {
            const double nv = ep[c] ? 0.0 : new_buf[c] - rowmin;
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

/* ICM step of forward level l on all neighbours; returns 1 if a label
 * changed.  Level nodes are never adjacent, so no write below is read
 * by this level's gathers. */
HOT int icm_level(
    const plan_t *p, const int64_t lmax, const int64_t l,
    int64_t *restrict current, double *restrict cond)
{
    const int64_t LL = lmax * lmax;
    const int64_t *nodes = p->nodes + p->node_off[l];
    const int64_t nn = p->node_off[l + 1] - p->node_off[l];
    const int64_t j1 = p->all_off[l + 1];
    for (int64_t i = 0; i < nn; ++i)
        memcpy(cond + i * lmax, p->unary + nodes[i] * lmax,
               (size_t)lmax * sizeof(double));
    for (int64_t j = p->all_off[l]; j < j1; ++j) {
        if (j + PF < j1)
            __builtin_prefetch(current + p->all_nbr[j + PF], 0);
        const int64_t lab = current[p->all_nbr[j]];
        const double *cm = p->cost + p->all_cid[j] * LL + lab;
        double *row = cond + p->all_seg[j] * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += cm[r * lmax];
    }
    int changed = 0;
    for (int64_t i = 0; i < nn; ++i) {
        const int64_t best = argmin_row(cond + i * lmax, lmax);
        changed |= best != current[nodes[i]];
        current[nodes[i]] = best;
    }
    return changed;
}

HOT void forward_body(
    const plan_t *p, const int64_t lmax, double *messages, double *beliefs,
    int64_t *labels, double *cond, double *secs)
{
    const int64_t limit = p->fwd.off[p->n_fwd];
    for (int64_t l = 0; l < p->n_fwd; ++l) {
        const double t0 = secs ? now() : 0.0;
        condition_level(p, lmax, l, beliefs, messages, labels, cond);
        send_range(lmax, p->cost, &p->fwd, p->fwd.off[l], p->fwd.off[l + 1],
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
        send_range(lmax, p->cost, &p->bwd, p->bwd.off[l], p->bwd.off[l + 1],
                   limit, messages, beliefs);
        if (secs)
            secs[l] += now() - t0;
    }
}

HOT void decode_body(
    const plan_t *p, const int64_t lmax, const double *beliefs,
    const double *messages, int64_t *labels, double *cond)
{
    for (int64_t l = 0; l < p->n_fwd; ++l)
        condition_level(p, lmax, l, beliefs, messages, labels, cond);
}

HOT void icm_body(
    const plan_t *p, const int64_t lmax, const int64_t max_sweeps,
    int64_t *current, double *cond)
{
    for (int64_t sweep = 0; sweep < max_sweeps; ++sweep) {
        int changed = 0;
        for (int64_t l = 0; l < p->n_fwd; ++l)
            changed |= icm_level(p, lmax, l, current, cond);
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
    memcpy(share, p->unary, (size_t)(n * lmax) * sizeof(double));
    for (int64_t k = 0; k < 2 * m; ++k) {
        if (k + PF < 2 * m)
            __builtin_prefetch(share + p->receiver[k + PF] * lmax, 1);
        double *row = share + p->receiver[k] * lmax;
        const double *msg = messages + k * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += msg[r];
    }
    for (int64_t v = 0; v < n; ++v) {
        const double g = p->gamma[v];
        for (int64_t r = 0; r < lmax; ++r)
            share[v * lmax + r] *= g;
    }
    for (int64_t e = 0; e < m; ++e) {
        if (e + PF < m) {
            const int64_t f = e + PF;
            __builtin_prefetch(share + s->snd[f] * lmax, 0);
            __builtin_prefetch(messages + s->inn[f] * lmax, 0);
            __builtin_prefetch(messages + s->out[f] * lmax, 0);
            __builtin_prefetch(tail + chain[f] * lmax, 1);
        }
        const double *t = share + s->snd[e] * lmax;
        const double *m_in = messages + s->inn[e] * lmax;
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

void repro_decode(
    const plan_t *p, const double *beliefs, const double *messages,
    int64_t *labels, double *cond)
{
    DISPATCH(decode_body(p, 4, beliefs, messages, labels, cond),
             decode_body(p, 6, beliefs, messages, labels, cond),
             decode_body(p, 8, beliefs, messages, labels, cond),
             decode_body(p, p->lmax, beliefs, messages, labels, cond))
}

void repro_icm(const plan_t *p, int64_t max_sweeps, int64_t *current,
               double *cond)
{
    DISPATCH(icm_body(p, 4, max_sweeps, current, cond),
             icm_body(p, 6, max_sweeps, current, cond),
             icm_body(p, 8, max_sweeps, current, cond),
             icm_body(p, p->lmax, max_sweeps, current, cond))
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

void repro_bp_beliefs(
    int64_t n, int64_t slots, int64_t lmax, const double *unary,
    const int64_t *slot_receiver, const double *messages, double *beliefs)
{
    memcpy(beliefs, unary, (size_t)(n * lmax) * sizeof(double));
    for (int64_t s = 0; s < slots; ++s) {
        if (s + PF < slots)
            __builtin_prefetch(beliefs + slot_receiver[s + PF] * lmax, 1);
        double *row = beliefs + slot_receiver[s] * lmax;
        const double *m = messages + s * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            row[r] += m[r];
    }
}

static inline double bp_round_body(
    int64_t slots, const int64_t lmax,
    const double *restrict cost,
    const int64_t *restrict slot_sender, const int64_t *restrict slot_reverse,
    const int64_t *restrict slot_cid, const uint8_t *restrict slot_pad,
    const double damping,
    const double *restrict beliefs, double *restrict messages,
    double *restrict new_msgs)
{
    const int64_t LL = lmax * lmax;
    double base_buf[64];
    for (int64_t s = 0; s < slots; ++s) {
        if (s + PF < slots) {
            __builtin_prefetch(beliefs + slot_sender[s + PF] * lmax, 0);
            __builtin_prefetch(messages + slot_reverse[s + PF] * lmax, 0);
        }
        const double *b = beliefs + slot_sender[s] * lmax;
        const double *m_rev = messages + slot_reverse[s] * lmax;
        for (int64_t r = 0; r < lmax; ++r)
            base_buf[r] = b[r] - m_rev[r];
        const double *cm = cost + slot_cid[s] * LL;
        double *nm = new_msgs + s * lmax;
        for (int64_t c = 0; c < lmax; ++c)
            nm[c] = INFINITY;
        for (int64_t r = 0; r < lmax; ++r) {
            const double br = base_buf[r];
            const double *row = cm + r * lmax;
            for (int64_t c = 0; c < lmax; ++c) {
                const double v = row[c] + br;
                MINACC(nm[c], v);
            }
        }
        double rowmin = INFINITY;
        for (int64_t c = 0; c < lmax; ++c)
            MINACC(rowmin, nm[c]);
        const uint8_t *ep = slot_pad + s * lmax;
        for (int64_t c = 0; c < lmax; ++c)
            nm[c] = ep[c] ? 0.0 : nm[c] - rowmin;
    }
    double max_change = 0.0;
    for (int64_t s = 0; s < slots; ++s) {
        double *m = messages + s * lmax;
        const double *nm = new_msgs + s * lmax;
        for (int64_t c = 0; c < lmax; ++c) {
            const double old = m[c];
            double nv = nm[c];
            if (damping > 0.0)
                nv = nv * (1.0 - damping) + old * damping;
            const double d = fabs(nv - old);
            if (d > max_change || isnan(d)) max_change = d;
            m[c] = nv;
        }
    }
    return max_change;
}

double repro_bp_round(
    int64_t slots, int64_t lmax, const double *cost,
    const int64_t *slot_sender, const int64_t *slot_reverse,
    const int64_t *slot_cid, const uint8_t *slot_pad, double damping,
    const double *beliefs, double *messages, double *new_msgs)
{
    if (lmax == 4)
        return bp_round_body(slots, 4, cost, slot_sender, slot_reverse,
                             slot_cid, slot_pad, damping, beliefs, messages,
                             new_msgs);
    if (lmax == 6)
        return bp_round_body(slots, 6, cost, slot_sender, slot_reverse,
                             slot_cid, slot_pad, damping, beliefs, messages,
                             new_msgs);
    if (lmax == 8)
        return bp_round_body(slots, 8, cost, slot_sender, slot_reverse,
                             slot_cid, slot_pad, damping, beliefs, messages,
                             new_msgs);
    return bp_round_body(slots, lmax, cost, slot_sender, slot_reverse,
                         slot_cid, slot_pad, damping, beliefs, messages,
                         new_msgs);
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

    _fields_ = [(name, _P) for name in (
        "off", "snd", "rcv", "out", "inn", "cid", "gam", "pad",
    )]


class CPlan(ctypes.Structure):
    """Mirror of the C ``plan_t``: every pointer a sweep kernel reads."""

    _fields_ = [
        ("lmax", _I64), ("n_fwd", _I64), ("n_bwd", _I64),
        *((name, _P) for name in (
            "cost", "unary", "degree", "gamma", "receiver", "node_off",
            "nodes",
            "ext_off", "ext_seg", "ext_nbr", "ext_in", "ext_cid",
            "all_off", "all_seg", "all_nbr", "all_cid",
        )),
        ("fwd", CSends), ("bwd", CSends),
    ]


#: (symbol, argument types, return type) of every exported kernel.
_SIGNATURES = (
    ("repro_trws_forward", [ctypes.POINTER(CPlan), _P, _P, _P, _P, _P], None),
    ("repro_trws_backward", [ctypes.POINTER(CPlan), _P, _P, _P], None),
    ("repro_decode", [ctypes.POINTER(CPlan), _P, _P, _P, _P], None),
    ("repro_icm", [ctypes.POINTER(CPlan), _I64, _P, _P], None),
    ("repro_greedy", [ctypes.POINTER(CPlan), _I64, _P, _P], None),
    ("repro_chain_bound",
     [ctypes.POINTER(CPlan), _P, _I64, _P, _P, _P, _P, _P], None),
    ("repro_schedule", [_I64, _I64, _P, _P, _P, _P, _P, _P], None),
    ("repro_bp_beliefs", [_I64, _I64, _I64, _P, _P, _P, _P], None),
    ("repro_bp_round",
     [_I64, _I64, _P, _P, _P, _P, _P, ctypes.c_double, _P, _P, _P],
     ctypes.c_double),
)


class CKernels:
    """The compiled kernel library with typed entry points.

    Attributes are the C functions themselves (``trws_forward``,
    ``trws_backward``, ``decode``, ``icm``, ``greedy``, ``chain_bound``,
    ``schedule``, ``bp_beliefs``, ``bp_round``), taking raw addresses (``int`` or
    ``None`` for ``NULL``) for arrays and a ``POINTER(CPlan)`` for plans.
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
