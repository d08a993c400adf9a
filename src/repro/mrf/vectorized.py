"""CSR-style array form of a :class:`~repro.mrf.graph.PairwiseMRF`.

The paper's optimizer is multi-threaded C++ with GPU-accelerated matrix
operations (Section VIII); this module is the array analogue every
``diversify()`` TRW-S/BP solve runs on — replicated-service estates and
general MRFs (heterogeneous label spaces, constraints, preferences) alike.
A :class:`MRFArrays` plan precomputes everything the message-passing
solvers need as flat arrays so that per-iteration work is block operations
instead of per-edge Python loops:

* **Label padding.**  Nodes have individual label counts; everything is
  padded to the maximum count ``lmax``.  The padding convention keeps the
  arithmetic exact and NaN-free: padded *belief* entries are ``+inf`` (never
  selected by a min/argmin), padded *message* entries are ``0`` (additive
  identity), padded *cost* entries are ``+inf``.
* **Shared cost stack.**  Edge cost matrices are shared by reference across
  edges of the same service; the stack keeps one padded copy per distinct
  matrix plus one per transposed orientation, and edges index into it, so
  memory stays O(nodes·L + edges + matrices·L²) exactly as before.
* **Wavefront levels.**  Sequential solvers (TRW-S sweeps, conditioned
  decoding, ICM) process node ``i`` after all lower-numbered neighbours.
  That dependency is a DAG whose topological *levels* — computed once —
  batch every node of a level into one block update, which is
  mathematically identical to the node-by-node order because nodes in one
  level are never adjacent (belief sums accumulate in level-major order,
  so numerically the agreement is to floating-point round-off).  Each
  sweep direction is stored as flat level-major arrays with per-level
  offsets (:attr:`MRFArrays.fwd_sweep` / :attr:`MRFArrays.bwd_sweep`), so
  a native kernel backend walks a whole sweep in one call; the NumPy
  backend loops over per-level views of the same arrays.
* **A linear build.**  :func:`wavefront_schedule` groups the ``2·edges``
  edge endpoints by node and computes both level arrays in one
  O(nodes + edges) kernel call; every sweep array and level offset is a
  segment gather of that grouping in level order, so a deep chain costs
  no more per edge than a wide estate.  Arrays only BP reads are built
  when BP first reads them.

Directed message slot layout matches the reference solvers: slot ``2e``
carries first→second of edge ``e`` (indexed by the second endpoint's
labels), slot ``2e+1`` the reverse.

Besides wrapping a finished :class:`~repro.mrf.graph.PairwiseMRF`, a plan
can be built straight from arrays (:meth:`MRFArrays.from_parts`) and
**delta-updated** afterwards — :meth:`MRFArrays.set_cost_matrix` rewrites
one cost-stack entry in place (similarity feeds change values, not
structure), :meth:`MRFArrays.set_unary` rewrites one node's hard-mask
unary (constraint pins/forbids), and :meth:`MRFArrays.replace_edges`
re-derives the directed slots, γ weights and wavefront levels from a
patched edge set while leaving every node array untouched.  This is what
lets :mod:`repro.stream` apply network churn and constraint events to a
live plan instead of rebuilding it from the Python-level MRF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.mrf.graph import PairwiseMRF

__all__ = [
    "MRFArrays",
    "SolverScratch",
    "connected_components",
    "wavefront_schedule",
]


class SolverScratch:
    """Reusable named work buffers for the solver kernels.

    The message-passing kernels allocate the same large temporaries every
    iteration — the (edges, L, L) cost gather of a send block, padded
    belief copies, message deltas.  A :class:`SolverScratch` keeps one
    flat, monotonically-grown buffer per (name, dtype) and hands out
    reshaped views, so a steady-state consumer (streaming warm re-solves,
    grid sweeps) stops churning the NumPy allocator:
    after the first solve of a given plan shape, iterations allocate
    nothing.

    Buffers are handed out by *name*; two live views of the same name
    alias, so every kernel uses distinct names for distinct roles.  A
    scratch is **not** thread-safe — concurrent solvers each need their
    own.  Passing ``scratch=None`` to a solver creates a private one per
    call, which still reuses buffers *across iterations* of that solve.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised ``shape`` view of the named buffer."""
        need = 1
        for extent in shape:
            need *= int(extent)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < need or buffer.dtype != dtype:
            buffer = np.empty(max(need, 1), dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:need].reshape(shape)

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`array`, but zero-filled."""
        view = self.array(name, shape, dtype)
        view.fill(0)
        return view


def wavefront_schedule(
    n: int, first: np.ndarray, second: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(grouping, group offsets, forward levels, backward levels) of an
    edge set over ``n`` nodes: the index-order schedule of TRW-S.

    The grouping lists the ``2·edges`` endpoint slots node by node (slot
    ``2e`` is ``first[e]``, ``2e+1`` is ``second[e]``; each node's slots
    in slot order), so node ``v`` sends on ``group[off[v]:off[v + 1]]``.
    Levels are longest-path DAG depths: the forward level of a node is one
    past the deepest lower-numbered neighbour, the backward level mirrors
    it over higher-numbered ones.  Nodes sharing a level are never
    adjacent, which is what lets level-major block updates reproduce the
    node-by-node schedule.  On a replicated-service estate every service's
    copy of a host lands in that host's level, so one level batches all
    services at once.

    The default kernel backend (see :meth:`~repro.mrf.backends.base.
    KernelBackend.schedule`) computes all four in O(nodes + edges); the
    endpoints are checked here first, because the native kernel indexes
    by them raw.

    >>> _, _, forward, backward = wavefront_schedule(
    ...     4, np.array([0, 1, 0]), np.array([1, 2, 3]))
    >>> forward.tolist(), backward.tolist()
    ([0, 1, 2, 1], [2, 1, 0, 0])
    """
    from repro.mrf.backends import resolve_backend

    bad = (first == second) | (np.minimum(first, second) < 0)
    bad |= np.maximum(first, second) >= n
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(
            f"edge {e} ({int(first[e])}, {int(second[e])}) needs two "
            f"distinct endpoints in [0, {n})"
        )
    return resolve_backend().schedule(n, first, second)


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


def _level_order(level: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes level-major, ascending within a level, and the offsets
    of each level's slice of them."""
    return np.argsort(level, kind="stable"), _offsets(np.bincount(level))


def connected_components(
    n: int, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Dense connected-component id per node, numbered by smallest node.

    Vectorised hooking: every round hooks each root to the smallest root
    across its cross-component edges, then pointer-jumps until every node
    points straight at its root.  Pointers only ever decrease, so a
    component's root is its smallest node, and edges inside one component
    drop out of the next round.  A chain in index order finishes in one
    round (hooking links the whole chain, jumping collapses it in
    log2(n) passes).

    >>> connected_components(5, np.array([3, 0]), np.array([4, 1])).tolist()
    [0, 0, 1, 2, 2]
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


@dataclass
class _SendBlock:
    """Flattened directed edges whose senders share one wavefront level."""

    snd: np.ndarray  # sender node per edge
    rcv: np.ndarray  # receiver node per edge
    out: np.ndarray  # message slot written (sender → receiver)
    inn: np.ndarray  # opposite slot on the same edge (receiver → sender)
    cid: np.ndarray  # cost-stack index, oriented rows = sender labels
    gam: np.ndarray  # (edges, 1) sender γ weights, pregathered
    pad: np.ndarray  # (edges, lmax) True at the receiver's padded labels


@dataclass
class _Wavefront(_SendBlock):
    """One forward level: its nodes, their conditioning edges to earlier
    levels (for label extraction / decoding / ICM) and their forward sends.
    """

    nodes: np.ndarray     # nodes in this level, ascending
    ext_seg: np.ndarray   # per backward edge: position of its node in `nodes`
    ext_nbr: np.ndarray   # per backward edge: the earlier neighbour
    ext_in: np.ndarray    # per backward edge: slot of the neighbour's message in
    ext_cid: np.ndarray   # per backward edge: cost id, rows = this node's labels
    all_seg: np.ndarray   # full-adjacency versions of the above (ICM uses
    all_nbr: np.ndarray   # every neighbour, not just earlier ones)
    all_cid: np.ndarray


_SEND_FIELDS = ("snd", "rcv", "out", "inn", "cid", "gam", "pad")


@dataclass
class _SweepCSR:
    """One sweep direction as flat level-major arrays plus level offsets.

    ``block`` holds every level's arrays back to back (a whole-sweep
    :class:`_SendBlock`, or a :class:`_Wavefront` for the forward sweep);
    level ``l`` of a family owns rows ``off[l]:off[l + 1]`` of it, where
    ``send_off`` indexes the send fields and ``node_off`` / ``ext_off`` /
    ``all_off`` the node, conditioning and full-adjacency fields (forward
    sweep only).  ``ext_seg``/``all_seg`` stay positions *within* the
    level's node slice.  Native kernels walk these arrays in one call;
    :meth:`levels` slices them into per-level views for the NumPy loop.
    """

    block: _SendBlock
    send_off: np.ndarray
    node_off: Optional[np.ndarray] = None
    ext_off: Optional[np.ndarray] = None
    all_off: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        """Number of levels."""
        return len(self.send_off) - 1

    def levels(self) -> List[_SendBlock]:
        """Per-level views (never copies) of the flat arrays."""
        block = self.block
        views = []
        for level in range(self.count):
            cut = slice(self.send_off[level], self.send_off[level + 1])
            fields = {name: getattr(block, name)[cut] for name in _SEND_FIELDS}
            if self.node_off is None:
                views.append(_SendBlock(**fields))
                continue
            nodes = slice(self.node_off[level], self.node_off[level + 1])
            ext = slice(self.ext_off[level], self.ext_off[level + 1])
            full = slice(self.all_off[level], self.all_off[level + 1])
            views.append(_Wavefront(
                nodes=block.nodes[nodes],
                ext_seg=block.ext_seg[ext],
                ext_nbr=block.ext_nbr[ext],
                ext_in=block.ext_in[ext],
                ext_cid=block.ext_cid[ext],
                all_seg=block.all_seg[full],
                all_nbr=block.all_nbr[full],
                all_cid=block.all_cid[full],
                **fields,
            ))
        return views


class MRFArrays:
    """Precomputed array plan for vectorized message passing on one MRF.

    Building the plan is a single O(nodes + edges) pass; solvers reuse it
    across all iterations.  See the module docstring for the padding and
    level-schedule conventions.
    """

    def __init__(self, mrf: PairwiseMRF) -> None:
        n = mrf.node_count
        m = mrf.edge_count
        unaries = [mrf.unary(i) for i in range(n)]

        # ---- dedup shared matrices (one stack entry per distinct object)
        stack_of: Dict[int, int] = {}
        matrices: List[np.ndarray] = []
        edge_first = np.empty(m, dtype=np.int64)
        edge_second = np.empty(m, dtype=np.int64)
        edge_cid = np.empty(m, dtype=np.int64)
        for e in range(m):
            i, j = mrf.edge(e)
            matrix = mrf.edge_cost(e)
            k = stack_of.get(id(matrix))
            if k is None:
                k = len(matrices)
                stack_of[id(matrix)] = k
                matrices.append(matrix)
            edge_first[e] = i
            edge_second[e] = j
            edge_cid[e] = k
        self._setup_nodes(unaries)
        self._setup_costs(matrices)
        self._build_structure(edge_first, edge_second, edge_cid)

    @classmethod
    def from_parts(
        cls,
        unaries: Sequence[np.ndarray],
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
        matrices: Sequence[np.ndarray],
        lmax: Optional[int] = None,
    ) -> "MRFArrays":
        """Build a plan straight from arrays, bypassing the MRF object.

        ``edge_cid[e]`` indexes ``matrices``; matrix rows correspond to the
        labels of ``edge_first[e]``.  ``lmax`` can force a label padding
        wider than the largest unary (so message arrays keep their width
        across delta updates that shrink the label space).
        """
        plan = cls.__new__(cls)
        plan._setup_nodes(unaries, lmax=lmax)
        plan._setup_costs(matrices)
        plan._build_structure(
            np.asarray(edge_first, dtype=np.int64),
            np.asarray(edge_second, dtype=np.int64),
            np.asarray(edge_cid, dtype=np.int64),
        )
        return plan

    @classmethod
    def from_dense(
        cls,
        unary: np.ndarray,
        label_counts: np.ndarray,
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
        matrices: Sequence[np.ndarray],
        lmax: Optional[int] = None,
    ) -> "MRFArrays":
        """Build a plan from an already-padded ``(n, lmax)`` unary stack.

        The zero-copy entry point of the network→plan compiler
        (:mod:`repro.core.compile`): ``unary`` must be zero at padded
        label slots (``from_parts``'s fill convention).  Everything else
        matches :meth:`from_parts`.
        """
        plan = cls.__new__(cls)
        plan._install_nodes(
            np.asarray(unary, dtype=float),
            np.asarray(label_counts, dtype=np.int64),
            lmax=lmax,
        )
        plan._setup_costs(matrices)
        plan._build_structure(
            np.asarray(edge_first, dtype=np.int64),
            np.asarray(edge_second, dtype=np.int64),
            np.asarray(edge_cid, dtype=np.int64),
        )
        return plan

    # ------------------------------------------------------- construction

    def _setup_nodes(
        self, unaries: Sequence[np.ndarray], lmax: Optional[int] = None
    ) -> None:
        n = len(unaries)
        counts = np.asarray([len(u) for u in unaries], dtype=np.int64)
        widest = int(counts.max()) if n else 0
        if lmax is None:
            lmax = widest
        elif lmax < widest:
            raise ValueError(f"lmax={lmax} below widest label space {widest}")
        unary = np.zeros((n, lmax))
        if n:
            # Row-major boolean assignment fills each row's leading
            # ``counts[i]`` slots in order — one copy for all nodes.
            unary[np.arange(lmax)[None, :] < counts[:, None]] = (
                np.concatenate(unaries)
            )
        self._install_nodes(unary, counts, lmax=lmax)

    def _install_nodes(
        self, unary: np.ndarray, counts: np.ndarray, lmax: Optional[int] = None
    ) -> None:
        """Adopt a padded unary stack (zeros outside the label masks)."""
        n = len(counts)
        self.node_count = n
        widest = int(counts.max()) if n else 0
        if lmax is None:
            lmax = widest
        elif lmax < widest:
            raise ValueError(f"lmax={lmax} below widest label space {widest}")
        if unary.shape != (n, lmax):
            padded = np.zeros((n, lmax))
            padded[:, : unary.shape[1]] = unary
            unary = padded
        self.label_counts = counts
        self.lmax = lmax
        self.mask = np.arange(lmax)[None, :] < counts[:, None]
        #: inverse mask, kept so kernels can pad without re-negating.
        self._pad = ~self.mask
        self._iota = np.arange(n, dtype=np.int64)
        self.unary = unary
        #: unaries with +inf padding — safe to argmin directly.
        self.unary_inf = np.where(self.mask, unary, np.inf)

    def _setup_costs(self, matrices: Sequence[np.ndarray]) -> None:
        """(Re)build the padded cost stack: one entry per distinct matrix
        plus one per transposed orientation."""
        stacked = len(matrices)
        lmax = self.lmax
        cost = np.full((2 * stacked, lmax, lmax), np.inf) if stacked else (
            np.zeros((0, lmax, lmax))
        )
        for k, matrix in enumerate(matrices):
            rows, cols = matrix.shape
            cost[k, :rows, :cols] = matrix
            cost[stacked + k, :cols, :rows] = matrix.T
        self.cost = cost
        self.stacked = stacked

    def set_cost_matrix(self, cid: int, matrix: np.ndarray) -> None:
        """Patch one cost-stack entry (and its transpose) in place.

        Value-only deltas — a similarity feed rescoring a product pair —
        land here: no slot, level or message state changes, so a
        warm-started solver continues from its previous fixed point.
        """
        if not 0 <= cid < self.stacked:
            raise ValueError(f"cost id {cid} out of range [0, {self.stacked})")
        rows, cols = matrix.shape
        self.cost[cid, :rows, :cols] = matrix
        self.cost[self.stacked + cid, :cols, :rows] = matrix.T

    def set_unary(self, node: int, vector: np.ndarray) -> None:
        """Patch one node's unary vector (and its +inf view) in place.

        The unary counterpart of :meth:`set_cost_matrix`: constraint
        deltas — a service pinned or a product forbidden mid-stream —
        rewrite a node's hard-mask unary without touching slots, levels or
        message state, so a warm-started solver continues from its
        previous fixed point.  ``vector`` must have exactly the node's
        label count; padded entries keep their 0 / +inf conventions.
        """
        count = int(self.label_counts[node])
        if len(vector) != count:
            raise ValueError(
                f"node {node} has {count} labels, got a vector of {len(vector)}"
            )
        self.unary[node, :count] = vector
        self.unary_inf[node, :count] = vector

    def replace_edges(
        self,
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
        matrices: Sequence[np.ndarray],
    ) -> None:
        """Swap in a patched edge set, keeping every node array.

        Re-derives the cost stack, directed slots, γ weights and wavefront
        levels from the new arrays — one O(nodes + edges) schedule kernel
        call plus segment gathers, orders of magnitude cheaper than
        rebuilding the Python-level MRF.  The caller owns the message-slot
        remapping (slot ``2e``/``2e+1`` follows edge ``e``'s position in
        the new arrays).
        """
        self._setup_costs(matrices)
        self._build_structure(
            np.asarray(edge_first, dtype=np.int64),
            np.asarray(edge_second, dtype=np.int64),
            np.asarray(edge_cid, dtype=np.int64),
        )

    def _build_structure(
        self,
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
    ) -> None:
        n = self.node_count
        m = len(edge_first)
        group, group_off, flevel, blevel = wavefront_schedule(
            n, edge_first, edge_second
        )
        self.edge_count = m
        self.edge_first = edge_first
        self.edge_second = edge_second
        self.edge_cid = edge_cid  # oriented rows = first endpoint

        # ---- directed slots: slot 2e carries first→second of edge e, slot
        # 2e+1 the reverse.  The BP-only slot arrays are built on first
        # read (see _bp_slots).
        receiver = np.empty(2 * m, dtype=np.int64)
        receiver[0::2] = edge_second
        receiver[1::2] = edge_first
        self.slot_receiver = receiver

        # ---- γ: TRW-S's monotonic-chain weights 1 / max(#forward,
        # #backward neighbours); a node's forward neighbours are the
        # higher-numbered ones.
        degree = np.diff(group_off)
        #: incident edges per node (the greedy init's visiting order).
        self.degree = degree
        higher = np.bincount(np.minimum(edge_first, edge_second), minlength=n)
        lower = degree - higher
        chains = np.maximum(higher, lower)
        gamma = np.ones(n)
        gamma[chains > 0] = 1.0 / chains[chains > 0]
        self.gamma = gamma

        # ---- flattened, level-major orderings.  Every node's rows of the
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
        all_cid = self._slot_cid(slot)
        out = slot.take(up)
        snd = owner.take(up)
        rcv = nbr.take(up)
        ext_out = slot.take(down)
        ext_nbr = nbr.take(down)
        ext_cid = all_cid.take(down)
        del slot, owner
        all_off = _offsets(counts)[node_off]
        send_off = _offsets(higher[node_order])[node_off]
        #: the forward sweep as flat level-major CSR arrays.
        self.fwd_sweep = _SweepCSR(
            block=_Wavefront(
                nodes=node_order,
                ext_seg=all_seg.take(down),
                ext_nbr=ext_nbr,
                ext_in=ext_out ^ 1,
                ext_cid=ext_cid,
                snd=snd,
                rcv=rcv,
                out=out,
                inn=out ^ 1,
                cid=all_cid.take(up),
                gam=gamma.take(snd)[:, None],
                pad=self._pad.take(rcv, axis=0),
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

        # ---- the backward sweep sends the same rows as the conditioning
        # above, each node towards its lower-numbered neighbours, with the
        # nodes regrouped in backward-level order.
        ext_start = np.empty(n, dtype=np.int64)
        ext_start[node_order] = _offsets(lower[node_order])[:-1]
        node_order, node_off = _level_order(blevel)
        counts = lower[node_order]
        rows = segment_rows(ext_start[node_order], counts)
        out = ext_out.take(rows)
        snd = np.repeat(node_order, counts)
        rcv = ext_nbr.take(rows)
        bounds = _offsets(counts)[node_off]
        # Levels without sends are dropped: keep the starts of non-empty
        # levels, plus the end.
        nonempty = bounds[1:] > bounds[:-1]
        #: the backward sweep (levels with sends only) as CSR arrays.
        self.bwd_sweep = _SweepCSR(
            block=_SendBlock(
                snd=snd,
                rcv=rcv,
                out=out,
                inn=out ^ 1,
                cid=ext_cid.take(rows),
                gam=gamma.take(snd)[:, None],
                pad=self._pad.take(rcv, axis=0),
            ),
            send_off=np.concatenate((bounds[:-1][nonempty], bounds[-1:])),
        )
        self._fwd_levels: Optional[List[_Wavefront]] = None
        self._bwd_levels: Optional[List[_SendBlock]] = None
        self._components: Optional[Tuple[np.ndarray, int]] = None
        self._bp: Optional[Tuple[np.ndarray, ...]] = None
        self._chains: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _slot_cid(self, slots: np.ndarray) -> np.ndarray:
        """Cost-stack ids of ``slots``, oriented rows = the sender's labels
        (the transposed entry when the sender is the second endpoint)."""
        cid = self.edge_cid[slots >> 1]
        cid += self.stacked * (slots & 1)
        return cid

    # --------------------------------------------------------- BP slots

    def _bp_slots(self) -> Tuple[np.ndarray, ...]:
        """(sender, reverse, cid, pad) per directed slot, built when the
        synchronous BP update first reads them and kept for the plan's
        edge set."""
        if self._bp is None:
            reverse = np.arange(2 * self.edge_count) ^ 1
            # A slot's sender receives on the opposite slot.  The padding
            # rows are pregathered (2·edges, lmax) so the BP update pads
            # without a fancy index per round.
            self._bp = (
                self.slot_receiver[reverse],
                reverse,
                self._slot_cid(reverse ^ 1),
                self._pad[self.slot_receiver],
            )
        return self._bp

    @property
    def slot_sender(self) -> np.ndarray:
        """Sending node per directed slot (BP)."""
        return self._bp_slots()[0]

    @property
    def slot_reverse(self) -> np.ndarray:
        """The opposite slot of the same edge, per slot (BP)."""
        return self._bp_slots()[1]

    @property
    def slot_cid(self) -> np.ndarray:
        """Cost id per slot, oriented rows = the sender's labels (BP)."""
        return self._bp_slots()[2]

    @property
    def slot_pad(self) -> np.ndarray:
        """(2·edges, lmax) True at the receiver's padded labels (BP)."""
        return self._bp_slots()[3]

    # ------------------------------------------------------------ levels

    @property
    def fwd_levels(self) -> List[_Wavefront]:
        """Per-level views of :attr:`fwd_sweep` (built on first use)."""
        if self._fwd_levels is None:
            self._fwd_levels = self.fwd_sweep.levels()
        return self._fwd_levels

    @property
    def bwd_levels(self) -> List[_SendBlock]:
        """Per-level views of :attr:`bwd_sweep` (built on first use)."""
        if self._bwd_levels is None:
            self._bwd_levels = self.bwd_sweep.levels()
        return self._bwd_levels

    # ------------------------------------------------------------ chains

    @property
    def chains(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(chain, ends)``: the monotonic chains of the TRW-S bound.

        Chains run in index order.  At node ``i`` the k-th lower-numbered
        edge continues into the k-th higher-numbered edge, both taken in
        edge order; a chain starts at a node with more higher than lower
        edges and ends at one with more lower than higher edges, so node
        ``i`` lies on ``max(#lower, #higher)`` = ``1 / gamma[i]`` chains
        and every edge on exactly one.  An isolated node is a chain of its
        own.

        Chains are numbered in the order of their ends: first those that
        end on an edge, in forward-sweep order of that edge's conditioning
        row, then the isolated nodes.  ``chain`` has one entry per
        forward-sweep send row, the chain the send extends; ``ends[c]`` is
        the node chain ``c`` ends at.  Built when the bound first reads
        them and kept for the plan's edge set.

        >>> plan = MRFArrays.from_parts(
        ...     [np.zeros(2)] * 4, np.array([0, 1, 0]), np.array([1, 2, 2]),
        ...     np.zeros(3, dtype=np.int64), [np.eye(2)])
        >>> chain, ends = plan.chains  # 0-1-2, the chord 0-2, node 3
        >>> chain.tolist(), ends.tolist()
        ([0, 1, 0], [2, 2, 3])
        """
        if self._chains is None:
            block = self.fwd_sweep.block
            nodes = block.nodes
            m = len(block.snd)
            higher = np.bincount(
                np.minimum(self.edge_first, self.edge_second),
                minlength=self.node_count,
            )[nodes]
            lower = self.degree[nodes] - higher
            # Every node's sends and conditioning rows are contiguous, in
            # the same (level-major) node order, each in edge order; the
            # k-th send of a node is fed by its k-th conditioning row.
            # Temporaries are dropped as soon as they are used up.
            rank = np.arange(m) - np.repeat(_offsets(higher)[:-1], higher)
            fed = np.flatnonzero(rank < np.repeat(lower, higher))
            feeder = block.ext_in[
                np.repeat(_offsets(lower)[:-1], higher)[fed] + rank[fed]
            ] >> 1
            del rank
            send_of = np.empty(m, dtype=np.int64)  # per edge
            send_of[block.out >> 1] = np.arange(m)
            # Each send's successor on its chain (itself at the chain's
            # end); pointer jumping then reaches every chain's last send.
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
            self._chains = (end_of.take(last), ends)
        return self._chains

    # ------------------------------------------------------------ components

    def _labelled_components(self) -> Tuple[np.ndarray, int]:
        """(component id per node, component count), labelled once per
        edge set by :func:`connected_components` and cached."""
        if self._components is None:
            labels = connected_components(
                self.node_count, self.edge_first, self.edge_second
            )
            count = int(labels.max()) + 1 if self.node_count else 0
            self._components = (labels, count)
        return self._components

    @property
    def components(self) -> np.ndarray:
        """Connected-component id per node, numbered by smallest node."""
        return self._labelled_components()[0]

    @property
    def component_count(self) -> int:
        """Number of connected components (isolated nodes count)."""
        return self._labelled_components()[1]

    def component_energies(self, labels: np.ndarray) -> np.ndarray:
        """E(x) split by connected component, one entry per component.

        Entry ``c`` sums the unaries of component ``c``'s nodes plus the
        costs of its edges.  A one-component plan returns
        ``[energy(labels)]``, the same summation bit for bit.
        """
        count = self.component_count
        if count == 1:
            return np.array([self.energy(labels)])
        components = self.components
        totals = np.bincount(
            components, weights=self.unary[self._iota, labels],
            minlength=count,
        )
        if self.edge_count:
            totals += np.bincount(
                components[self.edge_first],
                weights=self.cost[
                    self.edge_cid,
                    labels[self.edge_first],
                    labels[self.edge_second],
                ],
                minlength=count,
            )
        return totals

    # ------------------------------------------------------------ evaluation

    def zero_messages(self) -> np.ndarray:
        """A (2·edges, lmax) zero message array (zeros are also the correct
        value for padded label slots)."""
        return np.zeros((2 * self.edge_count, self.lmax))

    def padded_beliefs(self) -> np.ndarray:
        """Unaries with +inf at padded slots — the belief starting point."""
        return np.where(self.mask, self.unary, np.inf)

    def energy(self, labels: np.ndarray) -> float:
        """E(x) for an (n,) label array; equals ``mrf.energy`` up to
        floating-point summation order."""
        total = self.unary[self._iota, labels].sum()
        if self.edge_count:
            total += self.cost[
                self.edge_cid, labels[self.edge_first], labels[self.edge_second]
            ].sum()
        return float(total)

    def dual_bound(
        self,
        messages: np.ndarray,
        scratch: Optional[SolverScratch] = None,
        backend=None,
    ) -> float:
        """TRW-S's lower bound over monotonic chains (Kolmogorov 2006).

        The messages reparametrise the *original* costs: node ``i`` gets
        ``θ'_i = θ_i + Σ_j M_j→i`` and edge ``ij`` gets
        ``θ'_ij = θ_ij − M_i→j − M_j→i``, which leaves every labelling's
        energy unchanged.  Each chain of :attr:`chains` takes
        ``gamma[i]·θ'_i`` at its nodes and ``θ'_ij`` on its edges, so the
        chains' energies add up to ``E`` and the sum of their minima is a
        lower bound for any messages — tight on a forest once the messages
        have converged.  The kernel ``backend`` minimises each chain with
        one min-sum pass and writes the minima to a buffer from
        ``scratch``; the sum stays here, so every backend inherits NumPy's
        summation bit for bit.
        """
        from repro.mrf.backends import resolve_backend

        kernels = resolve_backend(backend)
        scratch = scratch if scratch is not None else SolverScratch()
        mins = scratch.array("chain_mins", (len(self.chains[1]),))
        kernels.chain_bound(self, messages, mins, scratch)
        return float(mins.sum())

    # ------------------------------------------------------------- decoding

    def decode(
        self,
        beliefs: np.ndarray,
        messages: np.ndarray,
        scratch: Optional[SolverScratch] = None,
        backend=None,
    ) -> np.ndarray:
        """Sequential-conditioning decode over the forward levels.

        Node ``i`` takes the argmin of its belief with every earlier
        neighbour's message replaced by the actual pairwise column — the
        same rule (and the same result) as the per-node reference decode,
        and the label extraction of the TRW-S forward sweep.
        """
        from repro.mrf.backends import resolve_backend

        kernels = resolve_backend(backend)
        scratch = scratch if scratch is not None else SolverScratch()
        labels = np.zeros(self.node_count, dtype=np.int64)
        kernels.decode(self, beliefs, messages, labels, scratch)
        return labels

    # ------------------------------------------------------------------ ICM

    def icm(
        self,
        labels: np.ndarray,
        max_sweeps: int = 100,
        scratch: Optional[SolverScratch] = None,
        backend=None,
    ) -> np.ndarray:
        """Iterated conditional modes on the plan (Gauss-Seidel order).

        Processes levels ascending so each node sees its lower-numbered
        neighbours' *new* labels and higher-numbered ones' old labels —
        exactly the node-by-node sweep of
        :class:`~repro.mrf.icm.ICMSolver`, stopped when a full sweep
        changes nothing.
        """
        from repro.mrf.backends import resolve_backend

        kernels = resolve_backend(backend)
        scratch = scratch if scratch is not None else SolverScratch()
        current = np.array(labels, dtype=np.int64)
        kernels.icm(self, current, max_sweeps, scratch)
        return current

    # --------------------------------------------------------------- greedy

    def greedy_labels(
        self,
        scratch: Optional[SolverScratch] = None,
        backend=None,
    ) -> np.ndarray:
        """Degree-descending sequential greedy labelling on the plan.

        The plan-level analogue of the MRF greedy used by the TRW-S refine
        stage: nodes are labelled from most- to least-connected (ties in
        node order), each taking the argmin of its unary plus the oriented
        pairwise costs to already-labelled neighbours.  Lets plan-only
        callers (the streaming engine) seed ICM without materialising a
        :class:`PairwiseMRF`.

        One call to the kernel ``backend`` (see
        :meth:`~repro.mrf.backends.base.KernelBackend.greedy`): the C
        kernel walks the forward sweep's full-adjacency arrays in degree
        order; the NumPy reference is a Python loop over the nodes.  Both
        add the pairwise terms in the same order and take the first
        minimum, so the labels are identical.  While tracing is enabled
        the call records a ``trws.greedy`` span with the node count and
        the backend that ran; disabled, that costs one branch.
        """
        from repro.mrf.backends import resolve_backend

        kernels = resolve_backend(backend)
        scratch = scratch if scratch is not None else SolverScratch()
        labels = np.zeros(self.node_count, dtype=np.int64)
        if not obs.enabled():
            kernels.greedy(self, labels, scratch)
            return labels
        with obs.span(
            "trws.greedy", cat="solve", nodes=self.node_count
        ) as greedy_span:
            executed = kernels.greedy(self, labels, scratch)
            greedy_span.add(backend=executed.describe())
        return labels
