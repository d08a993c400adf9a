"""The NumPy kernel backend — the reference implementation.

The sweep-level methods loop over the plan's wavefront levels in Python,
slicing each level's rows out of the adjacency; each level runs the
vectorized block kernels the solvers used before the backend registry
existed (same operations, same order, same ``SolverScratch`` buffer
names).  This backend *defines* the bit-level contract every other
backend is gated against.  Its structure kernel is the reference build:
the endpoints grouped by a stable argsort, the levels by Kahn waves over
that grouping (one round of array calls per level), and the rows placed
by segment gathers.  Its ICM runs every sweep over every node.  Its
greedy init is a Python loop over the nodes, one array add per pairwise
term.  Its graph labels are pointer jumping over the rows (the chains)
and vectorised hooking over the edge columns (the components).
"""

from __future__ import annotations

import time

import numpy as np

from repro.mrf.backends.base import KernelBackend
from repro.mrf.vectorized import Adjacency

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
        adj = plan.adjacency
        for index, (nodes, cond, send) in enumerate(_forward_levels(adj)):
            if level_seconds is not None:
                start = time.perf_counter()
            _condition(plan, nodes, cond, beliefs, messages, labels, scratch)
            if send.stop > send.start:
                senders = np.repeat(nodes, adj.degree[nodes] - adj.lower[nodes])
                _send(
                    plan, senders, adj.nbr[send], adj.slot[send],
                    adj.cid[send], messages, beliefs, scratch,
                )
            if level_seconds is not None:
                level_seconds[index] += time.perf_counter() - start
        return self

    def backward_sweep(
        self, plan, messages, beliefs, scratch, level_seconds=None
    ):
        # Each node re-sends on its conditioning rows, towards its
        # lower-numbered neighbours, in backward-level order.
        adj = plan.adjacency
        bounds = adj.bwd_off.tolist()
        for index in range(adj.backward_levels):
            if level_seconds is not None:
                start = time.perf_counter()
            nodes = adj.bwd_nodes[bounds[index] : bounds[index + 1]]
            counts = adj.lower[nodes]
            rows = segment_rows(adj.lower_start[nodes], counts)
            _send(
                plan, np.repeat(nodes, counts), adj.nbr[rows],
                adj.slot[rows], adj.cid[rows], messages, beliefs, scratch,
            )
            if level_seconds is not None:
                level_seconds[index] += time.perf_counter() - start
        return self

    def icm(self, plan, current, max_sweeps, scratch):
        # The permutation lists every node's rows in edge order, nodes in
        # forward order, so a level's slice of it spans the level's rows.
        adj = plan.adjacency
        levels = [
            (
                nodes,
                np.repeat(np.arange(len(nodes)), adj.degree[nodes]),
                adj.perm[cond.start : send.stop],
            )
            for nodes, cond, send in _forward_levels(adj)
        ]
        for _ in range(max_sweeps):
            changed = False
            for nodes, seg, rows in levels:
                cond = scratch.array("icm_cond", (len(nodes), plan.lmax))
                plan.unary_inf.take(nodes, axis=0, out=cond, mode="clip")
                if len(rows):
                    np.add.at(
                        cond,
                        seg,
                        plan.cost[adj.cid[rows], :, current[adj.nbr[rows]]],
                    )
                best = np.argmin(cond, axis=1)
                if not np.array_equal(best, current[nodes]):
                    changed = True
                current[nodes] = best
            if not changed:
                break
        return self

    def greedy(self, plan, labels, scratch):
        # The walk reads every node's rows through the permutation, which
        # lists each node's neighbours in edge order with cost ids
        # oriented rows = that node's labels.  Entries whose neighbour
        # comes later in the greedy order are dropped up front, so the
        # Python loop only visits the pairwise terms it adds, in order.
        n = plan.node_count
        if not n:
            return self
        adj = plan.adjacency
        nodes, degree = adj.nodes, adj.degree
        # Most-connected first, ties in node order.
        order = np.argsort(-degree, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        # The node each permutation entry belongs to, and its neighbour.
        owner = np.repeat(nodes, degree[nodes])
        neighbour = adj.nbr[adj.perm]
        earlier = rank[neighbour] < rank[owner]
        counts = np.bincount(owner[earlier], minlength=n)
        stop = np.empty(n, dtype=np.int64)
        stop[nodes] = np.cumsum(counts[nodes])
        start = (stop - counts).tolist()
        stop = stop.tolist()
        nbr = neighbour[earlier].tolist()
        cid = adj.cid[adj.perm[earlier]].tolist()
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

    def structure(self, n, first, second, cid, stacked):
        m = len(first)
        # The endpoint grouping: slot 2e is first[e]'s (it sends first →
        # second on it), 2e+1 second[e]'s; each node's slots in slot, so
        # edge, order.
        ends = np.empty(2 * m, dtype=np.int64)
        ends[0::2] = first
        ends[1::2] = second
        group = np.argsort(ends, kind="stable")
        group_off = _offsets(np.bincount(ends, minlength=n))
        degree = np.diff(group_off)
        # γ: TRW-S's monotonic-chain weights 1 / max(#forward, #backward
        # neighbours); a node's forward neighbours are the higher-numbered
        # ones.
        higher = np.bincount(np.minimum(first, second), minlength=n)
        lower = degree - higher
        chains = np.maximum(higher, lower)
        gamma = np.ones(n)
        gamma[chains > 0] = 1.0 / chains[chains > 0]
        owner = ends[group]
        nbr = ends[group ^ 1]
        up = nbr > owner
        down = ~up
        flevel = _waves(n, owner[up], nbr[up])
        blevel = _waves(n, owner[down], nbr[down])
        del owner, nbr, up, down

        # Every node's slots in edge order, nodes in forward-level order:
        # the permutation's order.  Temporaries are dropped as soon as they
        # are used up, so the build's peak stays near the finished plan's
        # size.
        nodes, node_off = _level_order(flevel)
        counts = degree[nodes]
        slot = group.take(segment_rows(group_off[nodes], counts))
        del group
        nbr = ends[slot ^ 1]
        up = nbr > ends[slot]
        del ends
        # Each entry's row: a level's conditioning rows (the entries
        # towards lower neighbours) come first, then its send rows, each
        # part in permutation order.  Below level l lie the sends of the
        # levels before it and the conditioning rows up to its own.
        level = np.repeat(flevel[nodes], counts)
        lower_before = _offsets(lower[nodes])[node_off]
        higher_before = _offsets(higher[nodes])[node_off]
        perm = np.where(
            up,
            lower_before[1:][level] + np.cumsum(up) - 1,
            higher_before[:-1][level] + np.cumsum(~up) - 1,
        )
        del level, up
        entry = np.empty(2 * m, dtype=np.int64)  # per row, its entry
        entry[perm] = np.arange(2 * m)
        nbr = nbr[entry]
        slot = slot[entry]
        del entry
        # Cost ids oriented rows = the sender's labels (the transposed
        # entry when the sender is the second endpoint).
        row_cid = cid[slot >> 1]
        row_cid += stacked * (slot & 1)
        lower_start = np.empty(n, dtype=np.int64)
        lower_start[nodes] = (
            np.repeat(higher_before[:-1], np.diff(node_off))
            + _offsets(lower[nodes])[:-1]
        )

        # The backward sweep walks the nodes with lower neighbours by
        # backward level; levels left without sends drop out.
        bwd_nodes, _ = _level_order(blevel)
        bwd_nodes = bwd_nodes[lower[bwd_nodes] > 0]
        sizes = np.bincount(blevel[bwd_nodes])
        adjacency = Adjacency(
            nbr=nbr, slot=slot, cid=row_cid, perm=perm, nodes=nodes,
            degree=degree, lower=lower, lower_start=lower_start,
            bwd_nodes=bwd_nodes, node_off=node_off,
            bwd_off=_offsets(sizes[sizes > 0]),
        )
        return gamma, adjacency

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
        adj = plan.adjacency
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
        sent = 0
        for nodes, _cond, send in _forward_levels(adj):
            k = send.stop - send.start
            if not k:
                continue
            # The sweeps are idle during the bound: reuse their buffers.
            base = scratch.array("send_base", (k, lmax))
            tmp = scratch.array("send_tmp", (k, lmax))
            cost = scratch.array("send_cost", (k, lmax, lmax))
            new = scratch.array("send_new", (k, lmax))
            inn = scratch.array("send_inn", (k,), np.int64)
            out = adj.slot[send]
            senders = np.repeat(nodes, adj.degree[nodes] - adj.lower[nodes])
            rows = chain[sent : sent + k]
            sent += k
            tail.take(rows, axis=0, out=base, mode="clip")
            share.take(senders, axis=0, out=tmp, mode="clip")
            np.add(base, tmp, out=base)
            np.bitwise_xor(out, 1, out=inn)
            messages.take(inn, axis=0, out=tmp, mode="clip")
            np.subtract(base, tmp, out=base)
            plan.cost.take(adj.cid[send], axis=0, out=cost, mode="clip")
            np.add(cost, base[:, :, None], out=cost)
            cost.min(axis=1, out=new)
            messages.take(out, axis=0, out=tmp, mode="clip")
            np.subtract(new, tmp, out=new)
            tail[rows] = new
        np.add(tail, share.take(ends, axis=0), out=tail)
        tail.min(axis=1, out=mins)
        return self

    def bp_beliefs(self, plan, messages, beliefs):
        # Slot 2e is received by edge e's second endpoint, 2e+1 by its
        # first.
        receiver = np.empty(2 * plan.edge_count, dtype=np.int64)
        receiver[0::2] = plan.edge_second
        receiver[1::2] = plan.edge_first
        np.copyto(beliefs, plan.unary_inf)
        np.add.at(beliefs, receiver, messages)


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


def _level_rows(adj: Adjacency):
    """Per forward level: where its rows start, where its send rows
    start, and where its rows end."""
    nodes, node_off = adj.nodes, adj.node_off
    bounds = _offsets(adj.degree[nodes])[node_off]
    split = bounds[:-1] + np.diff(_offsets(adj.lower[nodes])[node_off])
    return bounds[:-1], split, bounds[1:]


def _forward_levels(adj: Adjacency):
    """Per forward level: its nodes, and the slices of its conditioning
    rows and of its send rows."""
    nodes, node_off = adj.nodes, adj.node_off.tolist()
    starts, splits, stops = (a.tolist() for a in _level_rows(adj))
    for index, (start, split, stop) in enumerate(zip(starts, splits, stops)):
        yield (
            nodes[node_off[index] : node_off[index + 1]],
            slice(start, split),
            slice(split, stop),
        )


def _chains(plan):
    """``(chain, ends)`` of :attr:`~repro.mrf.vectorized.MRFArrays.chains`
    by pointer jumping over the adjacency's rows."""
    adj = plan.adjacency
    nodes = adj.nodes
    lower = adj.lower[nodes]
    higher = adj.degree[nodes] - lower
    # The conditioning and the send rows, each in row order: every
    # node's are contiguous, in the same (level-major) node order, each
    # in edge order; the k-th send of a node is fed by its k-th
    # conditioning row.  Temporaries are dropped as soon as they are used
    # up.
    starts, splits, stops = _level_rows(adj)
    cond_edge = adj.slot[segment_rows(starts, splits - starts)] >> 1
    send_edge = adj.slot[segment_rows(splits, stops - splits)] >> 1
    m = len(send_edge)
    rank = np.arange(m) - np.repeat(_offsets(higher)[:-1], higher)
    fed = np.flatnonzero(rank < np.repeat(lower, higher))
    feeder = cond_edge[
        np.repeat(_offsets(lower)[:-1], higher)[fed] + rank[fed]
    ]
    del rank
    send_of = np.empty(m, dtype=np.int64)  # per edge
    send_of[send_edge] = np.arange(m)
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
    rank = np.arange(len(cond_edge)) - np.repeat(_offsets(lower)[:-1], lower)
    ending = rank >= np.repeat(higher, lower)
    del rank
    end_of = np.empty(m, dtype=np.int64)  # per edge
    end_of[cond_edge[ending]] = np.arange(int(ending.sum()))
    ends = np.concatenate((
        np.repeat(nodes, lower)[ending],
        nodes[(lower == 0) & (higher == 0)],
    ))
    return end_of.take(send_edge.take(last)), ends


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


def _send(plan, senders, receivers, slots, cids, messages, beliefs, scratch):
    """One level's block message update, one message per row: from
    ``senders`` to ``receivers`` on ``slots``, priced through ``cids``;
    mutates messages and beliefs."""
    k = len(senders)
    lmax = plan.lmax
    base = scratch.array("send_base", (k, lmax))
    tmp = scratch.array("send_tmp", (k, lmax))
    cost = scratch.array("send_cost", (k, lmax, lmax))
    new = scratch.array("send_new", (k, lmax))
    rowmin = scratch.array("send_rowmin", (k, 1))
    gam = scratch.array("send_gam", (k, 1))
    inn = scratch.array("send_inn", (k,), np.int64)
    pad = scratch.array("send_pad", (k, lmax), np.bool_)
    beliefs.take(senders, axis=0, out=base, mode="clip")
    plan.gamma.take(senders, out=gam[:, 0], mode="clip")
    np.multiply(base, gam, out=base)
    np.bitwise_xor(slots, 1, out=inn)  # the receiver → sender slot
    messages.take(inn, axis=0, out=tmp, mode="clip")
    np.subtract(base, tmp, out=base)
    plan.cost.take(cids, axis=0, out=cost, mode="clip")
    np.add(cost, base[:, :, None], out=cost)
    cost.min(axis=1, out=new)
    new.min(axis=1, keepdims=True, out=rowmin)
    np.subtract(new, rowmin, out=new)
    # Padded receiver labels came out +inf; store the 0 convention.
    plan._pad.take(receivers, axis=0, out=pad, mode="clip")
    np.copyto(new, 0.0, where=pad)
    messages.take(slots, axis=0, out=tmp, mode="clip")
    np.subtract(new, tmp, out=tmp)
    np.add.at(beliefs, receivers, tmp)
    messages[slots] = new


def _condition(plan, nodes, rows, beliefs, messages, labels, scratch):
    """Label one level's ``nodes`` by sequential conditioning on earlier
    levels: each takes the argmin of its belief with every earlier
    neighbour's message replaced by the pairwise column of that
    neighbour's label (its conditioning ``rows``)."""
    adj = plan.adjacency
    cond = scratch.array("cond", (len(nodes), plan.lmax))
    beliefs.take(nodes, axis=0, out=cond, mode="clip")
    if rows.stop > rows.start:
        np.add.at(
            cond,
            np.repeat(np.arange(len(nodes)), adj.lower[nodes]),
            plan.cost[adj.cid[rows], :, labels[adj.nbr[rows]]]
            - messages[adj.slot[rows] ^ 1],
        )
    labels[nodes] = np.argmin(cond, axis=1)
