"""The NumPy kernel backend — the reference implementation.

The sweep-level methods walk the plan's per-level views in a Python loop;
each level runs the vectorized block kernels the solvers used before the
backend registry existed (same operations, same order, same
``SolverScratch`` buffer names).  This backend *defines* the bit-level
contract every other backend is gated against.  Its schedule kernel is
the reference level loop: Kahn waves over the endpoint grouping, one
round of array calls per level; its structure kernel lays the sweep
arrays out by segment gathers of that grouping.  Its ICM runs every
sweep over every node.  Its greedy init is a Python loop over
the nodes, one array add per pairwise term.  Its graph labels are
pointer jumping over the forward sweep's rows (the chains) and
vectorised hooking (the components).
"""

from __future__ import annotations

import time

import numpy as np

from repro.mrf.backends.base import KernelBackend
from repro.mrf.vectorized import _SendBlock, _SweepCSR, _Wavefront

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

    def structure(self, n, first, second, cid, stacked):
        group, group_off, flevel, blevel = self.schedule(n, first, second)
        m = len(first)
        # Directed slots: slot 2e carries first→second of edge e, slot
        # 2e+1 the reverse.
        receiver = np.empty(2 * m, dtype=np.int64)
        receiver[0::2] = second
        receiver[1::2] = first
        degree = np.diff(group_off)
        # γ: TRW-S's monotonic-chain weights 1 / max(#forward, #backward
        # neighbours); a node's forward neighbours are the higher-numbered
        # ones.
        higher = np.bincount(np.minimum(first, second), minlength=n)
        lower = degree - higher
        chains = np.maximum(higher, lower)
        gamma = np.ones(n)
        gamma[chains > 0] = 1.0 / chains[chains > 0]

        # Flattened, level-major orderings.  Every node's rows of the
        # grouping are its incident edges in edge order (the adjacency
        # order of the per-node reference solvers), each as the slot the
        # node sends on.  The forward sweep gathers every node's rows in
        # forward-level order; the rows towards higher-numbered neighbours
        # are its sends, the others condition on earlier levels.
        # Temporaries are dropped as soon as they are used up, so the
        # build's peak stays near the finished plan's size.
        node_order, node_off = _level_order(flevel)
        counts = degree[node_order]
        slot = group.take(segment_rows(group_off[node_order], counts))
        del group
        owner = np.repeat(node_order, counts)
        nbr = receiver.take(slot)
        up = np.flatnonzero(nbr > owner)
        down = np.flatnonzero(nbr < owner)
        # Each node's position inside its level's (ascending) node slice.
        position = np.arange(n) - np.repeat(node_off[:-1], np.diff(node_off))
        all_seg = np.repeat(position, counts)
        # Cost ids oriented rows = the sender's labels (the transposed
        # entry when the sender is the second endpoint).
        all_cid = cid[slot >> 1]
        all_cid += stacked * (slot & 1)
        out = slot.take(up)
        snd = owner.take(up)
        rcv = nbr.take(up)
        ext_out = slot.take(down)
        ext_nbr = nbr.take(down)
        ext_cid = all_cid.take(down)
        del slot, owner
        all_off = _offsets(counts)[node_off]
        send_off = _offsets(higher[node_order])[node_off]
        fwd = _SweepCSR(
            block=_Wavefront(
                nodes=node_order,
                ext_seg=all_seg.take(down),
                ext_nbr=ext_nbr,
                ext_in=ext_out ^ 1,
                ext_cid=ext_cid,
                snd=snd,
                rcv=rcv,
                out=out,
                cid=all_cid.take(up),
                all_seg=all_seg,
                all_nbr=nbr,
                all_cid=all_cid,
            ),
            send_off=send_off,
            node_off=node_off,
            ext_off=all_off - send_off,
            all_off=all_off,
        )
        del up, down

        # The backward sweep sends the same rows as the conditioning
        # above, each node towards its lower-numbered neighbours, with the
        # nodes regrouped in backward-level order.
        ext_start = np.empty(n, dtype=np.int64)
        ext_start[node_order] = _offsets(lower[node_order])[:-1]
        node_order, node_off = _level_order(blevel)
        counts = lower[node_order]
        rows = segment_rows(ext_start[node_order], counts)
        bounds = _offsets(counts)[node_off]
        # Levels without sends are dropped: keep the starts of non-empty
        # levels, plus the end.
        nonempty = bounds[1:] > bounds[:-1]
        bwd = _SweepCSR(
            block=_SendBlock(
                snd=np.repeat(node_order, counts),
                rcv=ext_nbr.take(rows),
                out=ext_out.take(rows),
                cid=ext_cid.take(rows),
            ),
            send_off=np.concatenate((bounds[:-1][nonempty], bounds[-1:])),
        )
        return receiver, degree, gamma, fwd, bwd

    def label_graph(self, plan, chains, components):
        chain = ends = labels = None
        if chains:
            chain, ends = _chains(plan)
        if components:
            labels = _components(
                plan.node_count, plan.edge_first, plan.edge_second
            )
        return chain, ends, labels

    def chain_bound(self, plan, messages, mins, scratch):
        chain, ends = plan.chains
        if not len(ends):
            return self
        lmax = plan.lmax
        # t = γ·(θ + Σ incoming), summed in slot order by the beliefs kernel.
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
            inn = scratch.array("send_inn", (k,), np.int64)
            rows = chain[offsets[index] : offsets[index + 1]]
            tail.take(rows, axis=0, out=base, mode="clip")
            share.take(level.snd, axis=0, out=tmp, mode="clip")
            np.add(base, tmp, out=base)
            np.bitwise_xor(level.out, 1, out=inn)
            messages.take(inn, axis=0, out=tmp, mode="clip")
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

    def bp_beliefs(self, plan, messages, beliefs):
        np.copyto(beliefs, plan.unary_inf)
        np.add.at(beliefs, plan.slot_receiver, messages)


def segment_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The row ranges ``starts[i] : starts[i] + counts[i]``, back to back.

    >>> segment_rows(np.array([3, 0]), np.array([3, 2])).tolist()
    [3, 4, 5, 0, 1]
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, …]``: the CSR offsets of consecutive counts."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _level_order(level: np.ndarray):
    """The nodes level-major, ascending within a level, and the offsets
    of each level's slice of them."""
    return np.argsort(level, kind="stable"), _offsets(np.bincount(level))


def _chains(plan):
    """``(chain, ends)`` of :attr:`~repro.mrf.vectorized.MRFArrays.chains`
    by pointer jumping over the forward sweep's rows."""
    block = plan.fwd_sweep.block
    nodes = block.nodes
    m = len(block.snd)
    higher = np.bincount(
        np.minimum(plan.edge_first, plan.edge_second),
        minlength=plan.node_count,
    )[nodes]
    lower = plan.degree[nodes] - higher
    # Every node's sends and conditioning rows are contiguous, in the
    # same (level-major) node order, each in edge order; the k-th send of
    # a node is fed by its k-th conditioning row.  Temporaries are dropped
    # as soon as they are used up.
    rank = np.arange(m) - np.repeat(_offsets(higher)[:-1], higher)
    fed = np.flatnonzero(rank < np.repeat(lower, higher))
    feeder = block.ext_in[
        np.repeat(_offsets(lower)[:-1], higher)[fed] + rank[fed]
    ] >> 1
    del rank
    send_of = np.empty(m, dtype=np.int64)  # per edge
    send_of[block.out >> 1] = np.arange(m)
    # Each send's successor on its chain (itself at the chain's end);
    # pointer jumping then reaches every chain's last send.
    last = np.arange(m)
    last[send_of[feeder]] = fed
    del send_of, feeder, fed
    while True:
        jumped = last[last]
        if np.array_equal(jumped, last):
            break
        last = jumped
    del jumped
    rank = np.arange(len(block.ext_in)) - np.repeat(
        _offsets(lower)[:-1], lower
    )
    ending = rank >= np.repeat(higher, lower)
    del rank
    end_of = np.empty(m, dtype=np.int64)  # per edge
    end_of[block.ext_in[ending] >> 1] = np.arange(int(ending.sum()))
    last = block.out.take(last)
    last >>= 1
    ends = np.concatenate((
        np.repeat(nodes, lower)[ending],
        nodes[(lower == 0) & (higher == 0)],
    ))
    return end_of.take(last), ends


def _components(n, first, second):
    """Dense connected-component id per node, numbered by smallest node.

    Vectorised hooking: every round hooks each root to the smallest root
    across its cross-component edges, then pointer-jumps until every node
    points straight at its root.  Pointers only ever decrease, so a
    component's root is its smallest node, and edges inside one component
    drop out of the next round.  A chain in index order finishes in one
    round (hooking links the whole chain, jumping collapses it in
    log2(n) passes).
    """
    root = np.arange(n, dtype=np.int64)
    u = np.asarray(first, dtype=np.int64)
    v = np.asarray(second, dtype=np.int64)
    while len(u):
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            break
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root]


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
    gam = scratch.array("send_gam", (k, 1))
    inn = scratch.array("send_inn", (k,), np.int64)
    pad = scratch.array("send_pad", (k, lmax), np.bool_)
    beliefs.take(block.snd, axis=0, out=base, mode="clip")
    plan.gamma.take(block.snd, out=gam[:, 0], mode="clip")
    np.multiply(base, gam, out=base)
    np.bitwise_xor(block.out, 1, out=inn)  # the receiver → sender slot
    messages.take(inn, axis=0, out=tmp, mode="clip")
    np.subtract(base, tmp, out=base)
    plan.cost.take(block.cid, axis=0, out=cost, mode="clip")
    np.add(cost, base[:, :, None], out=cost)
    cost.min(axis=1, out=new)
    new.min(axis=1, keepdims=True, out=rowmin)
    np.subtract(new, rowmin, out=new)
    # Padded receiver labels came out +inf; store the 0 convention.
    plan._pad.take(block.rcv, axis=0, out=pad, mode="clip")
    np.copyto(new, 0.0, where=pad)
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
