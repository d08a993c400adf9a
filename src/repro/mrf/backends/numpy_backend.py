"""The NumPy kernel backend — the reference implementation.

The sweep-level methods walk the plan's per-level views in a Python loop;
each level runs the vectorized block kernels the solvers used before the
backend registry existed (same operations, same order, same
``SolverScratch`` buffer names).  This backend *defines* the bit-level
contract every other backend is gated against.  Its schedule kernel is
the reference level loop: Kahn waves over the endpoint grouping, one
round of array calls per level.  Its greedy init is a Python loop over
the nodes, one array add per pairwise term.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mrf.backends.base import KernelBackend
from repro.mrf.vectorized import segment_rows

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Vectorized NumPy kernels (always available; the parity reference)."""

    name = "numpy"
    kind = "numpy"

    @property
    def available(self) -> bool:
        return True

    # ------------------------------------------------- sweep-level kernels

    def forward_sweep(
        self, plan, messages, beliefs, labels, scratch, level_seconds=None
    ):
        for index, level in enumerate(plan.fwd_levels):
            if level_seconds is not None:
                start = time.perf_counter()
            _condition(plan, level, beliefs, messages, labels, scratch)
            _send(plan, level, messages, beliefs, scratch)
            if level_seconds is not None:
                level_seconds[index] += time.perf_counter() - start
        return self

    def backward_sweep(
        self, plan, messages, beliefs, scratch, level_seconds=None
    ):
        for index, block in enumerate(plan.bwd_levels):
            if level_seconds is not None:
                start = time.perf_counter()
            _send(plan, block, messages, beliefs, scratch)
            if level_seconds is not None:
                level_seconds[index] += time.perf_counter() - start
        return self

    def icm(self, plan, current, max_sweeps, scratch):
        for _ in range(max_sweeps):
            changed = False
            for level in plan.fwd_levels:
                cond = scratch.array("icm_cond", (len(level.nodes), plan.lmax))
                plan.unary_inf.take(level.nodes, axis=0, out=cond, mode="clip")
                if len(level.all_nbr):
                    np.add.at(
                        cond,
                        level.all_seg,
                        plan.cost[level.all_cid, :, current[level.all_nbr]],
                    )
                best = np.argmin(cond, axis=1)
                if not np.array_equal(best, current[level.nodes]):
                    changed = True
                current[level.nodes] = best
            if not changed:
                break
        return self

    def decode(self, plan, beliefs, messages, labels, scratch):
        for level in plan.fwd_levels:
            _condition(plan, level, beliefs, messages, labels, scratch)
        return self

    def greedy(self, plan, labels, scratch):
        # The walk reads the forward sweep's full-adjacency arrays, which
        # already group every node's neighbours in edge order with cost
        # ids oriented rows = that node's labels.  Entries whose neighbour
        # comes later in the greedy order are dropped up front, so the
        # Python loop only visits the pairwise terms it adds, in order.
        n = plan.node_count
        if not n:
            return self
        block = plan.fwd_sweep.block
        nodes = block.nodes
        degree = np.bincount(block.all_nbr, minlength=n)
        # Most-connected first, ties in node order.
        order = np.argsort(-degree, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        # The node each full-adjacency entry belongs to.
        owner = np.repeat(nodes, degree[nodes])
        earlier = rank[block.all_nbr] < rank[owner]
        counts = np.bincount(owner[earlier], minlength=n)
        stop = np.empty(n, dtype=np.int64)
        stop[nodes] = np.cumsum(counts[nodes])
        start = (stop - counts).tolist()
        stop = stop.tolist()
        nbr = block.all_nbr[earlier].tolist()
        cid = block.all_cid[earlier].tolist()
        # Nodes without an earlier neighbour keep their unary argmin.
        chosen = plan.unary_inf.argmin(axis=1).tolist()
        unary, cost = plan.unary_inf, plan.cost
        for node in order.tolist():
            first, last = start[node], stop[node]
            if first == last:
                continue
            vector = unary[node] + cost[cid[first], :, chosen[nbr[first]]]
            for k in range(first + 1, last):
                vector += cost[cid[k], :, chosen[nbr[k]]]
            chosen[node] = int(vector.argmin())
        labels[:] = chosen
        return self

    # ----------------------------------------------------- per-call kernels

    def schedule(self, n, first, second):
        ends = np.empty(2 * len(first), dtype=np.int64)
        ends[0::2] = first
        ends[1::2] = second
        group = np.argsort(ends, kind="stable")
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=off[1:])
        owner = ends[group]
        nbr = ends[group ^ 1]
        up = nbr > owner
        down = ~up
        return (
            group, off,
            _waves(n, owner[up], nbr[up]), _waves(n, owner[down], nbr[down]),
        )

    def chain_bound(self, plan, messages, mins, scratch):
        chain, ends = plan.chains
        if not len(ends):
            return self
        lmax = plan.lmax
        # t = γ·(θ + Σ incoming), summed in slot order by the BP kernel.
        share = scratch.array("chain_share", (plan.node_count, lmax))
        self.bp_beliefs(plan, messages, share)
        np.multiply(share, plan.gamma[:, None], out=share)
        # Per chain, its min-sum so far over the label of the node it has
        # reached, without that node's share; zero before its first edge.
        # The DP walks the forward levels: no two sends of a level extend
        # the same chain, and a chain's previous send is at an earlier one.
        tail = scratch.zeros("chain_tail", (len(ends), lmax))
        offsets = plan.fwd_sweep.send_off
        for index, level in enumerate(plan.fwd_levels):
            k = len(level.snd)
            if not k:
                continue
            # The sweeps are idle during the bound: reuse their buffers.
            base = scratch.array("send_base", (k, lmax))
            tmp = scratch.array("send_tmp", (k, lmax))
            cost = scratch.array("send_cost", (k, lmax, lmax))
            new = scratch.array("send_new", (k, lmax))
            rows = chain[offsets[index] : offsets[index + 1]]
            tail.take(rows, axis=0, out=base, mode="clip")
            share.take(level.snd, axis=0, out=tmp, mode="clip")
            np.add(base, tmp, out=base)
            messages.take(level.inn, axis=0, out=tmp, mode="clip")
            np.subtract(base, tmp, out=base)
            plan.cost.take(level.cid, axis=0, out=cost, mode="clip")
            np.add(cost, base[:, :, None], out=cost)
            cost.min(axis=1, out=new)
            messages.take(level.out, axis=0, out=tmp, mode="clip")
            np.subtract(new, tmp, out=new)
            tail[rows] = new
        np.add(tail, share.take(ends, axis=0), out=tail)
        tail.min(axis=1, out=mins)
        return self

    # --------------------------------------------------------- BP kernels

    def bp_beliefs(self, plan, messages, beliefs):
        np.copyto(beliefs, plan.unary_inf)
        np.add.at(beliefs, plan.slot_receiver, messages)

    def bp_round(self, plan, messages, beliefs, damping, scratch):
        slots = 2 * plan.edge_count
        lmax = plan.lmax
        base = scratch.array("bp_base", (slots, lmax))
        diff = scratch.array("bp_diff", (slots, lmax))
        cost = scratch.array("bp_cost", (slots, lmax, lmax))
        updated = scratch.array("bp_new", (slots, lmax))
        rowmin = scratch.array("bp_rowmin", (slots, 1))
        beliefs.take(plan.slot_sender, axis=0, out=base, mode="clip")
        messages.take(plan.slot_reverse, axis=0, out=diff, mode="clip")
        np.subtract(base, diff, out=base)
        plan.cost.take(plan.slot_cid, axis=0, out=cost, mode="clip")
        np.add(cost, base[:, :, None], out=cost)
        cost.min(axis=1, out=updated)
        updated.min(axis=1, keepdims=True, out=rowmin)
        np.subtract(updated, rowmin, out=updated)
        np.copyto(updated, 0.0, where=plan.slot_pad)
        if damping > 0.0:
            np.multiply(updated, 1.0 - damping, out=updated)
            np.multiply(messages, damping, out=diff)
            np.add(updated, diff, out=updated)
        np.subtract(updated, messages, out=diff)
        np.abs(diff, out=diff)
        max_change = float(diff.max())
        np.copyto(messages, updated)
        return max_change


def _waves(n, tails, heads):
    """Longest-path levels of the DAG of arcs ``tails → heads`` (grouped
    by tail), one Kahn wave per level: a wave relaxes the arcs of the
    nodes whose last incoming arc fired in the wave before, so every arc
    is relaxed once."""
    level = np.zeros(n, dtype=np.int64)
    count = np.bincount(tails, minlength=n)
    start = np.cumsum(count) - count
    pending = np.bincount(heads, minlength=n)
    frontier = np.flatnonzero(pending == 0)
    first_ready = np.full(n, len(heads), dtype=np.int64)
    while len(frontier):
        counts = count[frontier]
        receivers = heads.take(segment_rows(start[frontier], counts))
        np.maximum.at(level, receivers, np.repeat(level[frontier] + 1, counts))
        np.subtract.at(pending, receivers, 1)
        ready = receivers[pending[receivers] == 0]
        # A node that took several arcs in this wave joins the next once.
        index = np.arange(len(ready))
        np.minimum.at(first_ready, ready, index)
        frontier = ready[first_ready[ready] == index]
    return level


def _send(plan, block, messages, beliefs, scratch):
    """One level's block message update; mutates messages and beliefs."""
    k = len(block.snd)
    if not k:
        return
    lmax = plan.lmax
    base = scratch.array("send_base", (k, lmax))
    tmp = scratch.array("send_tmp", (k, lmax))
    cost = scratch.array("send_cost", (k, lmax, lmax))
    new = scratch.array("send_new", (k, lmax))
    rowmin = scratch.array("send_rowmin", (k, 1))
    beliefs.take(block.snd, axis=0, out=base, mode="clip")
    np.multiply(base, block.gam, out=base)
    messages.take(block.inn, axis=0, out=tmp, mode="clip")
    np.subtract(base, tmp, out=base)
    plan.cost.take(block.cid, axis=0, out=cost, mode="clip")
    np.add(cost, base[:, :, None], out=cost)
    cost.min(axis=1, out=new)
    new.min(axis=1, keepdims=True, out=rowmin)
    np.subtract(new, rowmin, out=new)
    # Padded receiver labels came out +inf; store the 0 convention.
    np.copyto(new, 0.0, where=block.pad)
    messages.take(block.out, axis=0, out=tmp, mode="clip")
    np.subtract(new, tmp, out=tmp)
    np.add.at(beliefs, block.rcv, tmp)
    messages[block.out] = new


def _condition(plan, level, beliefs, messages, labels, scratch):
    """Label one level by sequential conditioning on earlier levels: each
    node takes the argmin of its belief with every earlier neighbour's
    message replaced by the pairwise column of that neighbour's label."""
    cond = scratch.array("cond", (len(level.nodes), plan.lmax))
    beliefs.take(level.nodes, axis=0, out=cond, mode="clip")
    if len(level.ext_nbr):
        np.add.at(
            cond,
            level.ext_seg,
            plan.cost[level.ext_cid, :, labels[level.ext_nbr]]
            - messages[level.ext_in],
        )
    labels[level.nodes] = np.argmin(cond, axis=1)
