"""CSR-style array form of a :class:`~repro.mrf.graph.PairwiseMRF`.

The paper's optimizer is multi-threaded C++ with GPU-accelerated matrix
operations (Section VIII); this module is the NumPy analogue for the
*general* MRF (heterogeneous label spaces, constraints, preferences — the
cases the replicated-service :mod:`repro.mrf.batched` fast path cannot
take).  A :class:`MRFArrays` plan precomputes everything the message-passing
solvers need as flat arrays so that per-iteration work is NumPy block
operations instead of per-edge Python loops:

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
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mrf.graph import PairwiseMRF

__all__ = [
    "MRFArrays",
    "SolverScratch",
    "SolverScratchPool",
    "wavefront_schedule",
]


class SolverScratch:
    """Reusable named work buffers for the solver kernels.

    The message-passing kernels allocate the same large temporaries every
    iteration — the (edges, L, L) cost gather of a send block, padded
    belief copies, message deltas.  A :class:`SolverScratch` keeps one
    flat, monotonically-grown buffer per (name, dtype) and hands out
    reshaped views, so a steady-state consumer (streaming warm re-solves,
    grid sweeps, per-shard workers) stops churning the NumPy allocator:
    after the first solve of a given plan shape, iterations allocate
    nothing.

    Buffers are handed out by *name*; two live views of the same name
    alias, so every kernel uses distinct names for distinct roles.  A
    scratch is **not** thread-safe — concurrent solvers each need their
    own (:class:`~repro.mrf.sharded.ShardedSolver` keeps one per worker
    thread).  Passing ``scratch=None`` to a solver creates a private one
    per call, which still reuses buffers *across iterations* of that
    solve.
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


class SolverScratchPool:
    """A check-out pool of :class:`SolverScratch` instances.

    Concurrent shard solves each need a private scratch, but tying
    scratches to *threads* (``threading.local``) loses all reuse when the
    consumer builds a fresh thread pool per solve — the streaming engine
    does exactly that, once per event.  Leasing from a pool instead keeps
    the buffers alive across pools: the pool grows to the peak concurrent
    lease count and no further, and a lease is exclusive for its duration,
    so the single-thread contract of :class:`SolverScratch` holds.
    """

    __slots__ = ("_idle",)

    def __init__(self) -> None:
        import queue

        self._idle: "queue.SimpleQueue[SolverScratch]" = queue.SimpleQueue()

    def acquire(self) -> SolverScratch:
        """A scratch no other live lease holds (created on demand)."""
        import queue

        try:
            return self._idle.get_nowait()
        except queue.Empty:
            return SolverScratch()

    def release(self, scratch: SolverScratch) -> None:
        """Return a scratch to the idle pool."""
        self._idle.put(scratch)


def wavefront_schedule(n: int, lo: np.ndarray, hi: np.ndarray):
    """(γ, forward levels, backward levels) of the index-order schedule.

    ``lo``/``hi`` are the per-edge endpoint arrays with ``lo < hi``.  The
    γ weights are TRW-S's monotonic-chain weights
    ``1 / max(#forward, #backward neighbours)``.  Levels are longest-path
    DAG depths: the forward level of a node is one past the deepest
    lower-numbered neighbour, the backward levels mirror it over
    higher-numbered ones (see ``_levels`` for the two size-dispatched
    exact implementations).  Nodes sharing a level are never adjacent,
    which is what lets level-major block updates reproduce the
    node-by-node schedule — both the general plan here and the
    replicated-service host-graph plan in :mod:`repro.mrf.batched`
    consume this one derivation.
    """
    m = len(lo)
    chains = np.maximum(
        np.bincount(lo, minlength=n) if m else np.zeros(n, dtype=np.int64),
        np.bincount(hi, minlength=n) if m else np.zeros(n, dtype=np.int64),
    )
    gamma = np.ones(n)
    gamma[chains > 0] = 1.0 / chains[chains > 0]

    def _levels(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Longest-path levels of the src→dst DAG.

        level[d] = 1 + max over edges (s→d) of level[s].  Two exact
        implementations with identical output, picked by size: small
        plans (shard sub-plans, case studies) run the 3-ops-per-round
        Jacobi fixpoint — minimal constant cost, O(edges · depth) total —
        while big plans run a Kahn wave propagation that relaxes each
        edge exactly once (a node's out-edges fire in the wave where its
        last incoming dependency resolved), O(edges + depth · overhead):
        on a 150k-edge estate the waves win 3×, on a 200-node chain shard
        the rounds win 3× — crossover is around a few thousand edges.
        """
        level = np.zeros(n, dtype=np.int64)
        if not m:
            return level
        if m <= 4096:
            while True:
                deeper = level.copy()
                np.maximum.at(deeper, dst, level[src] + 1)
                if np.array_equal(deeper, level):
                    return level
                level = deeper
        order = np.argsort(src, kind="stable")
        src_sorted = src[order]
        dst_sorted = dst[order]
        starts = np.searchsorted(src_sorted, np.arange(n + 1))
        indegree = np.bincount(dst, minlength=n)
        frontier = np.flatnonzero(indegree == 0)
        while len(frontier):
            counts = starts[frontier + 1] - starts[frontier]
            total = int(counts.sum())
            if not total:
                break
            base = np.repeat(starts[frontier], counts)
            offset = np.arange(total) - np.repeat(
                np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            )
            rows = base + offset
            senders = src_sorted[rows]
            receivers = dst_sorted[rows]
            np.maximum.at(level, receivers, level[senders] + 1)
            fired = np.bincount(receivers, minlength=n)
            indegree -= fired
            frontier = np.flatnonzero((indegree == 0) & (fired > 0))
        return level

    return gamma, _levels(lo, hi), _levels(hi, lo)


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
        for i in range(n):
            unary[i, : counts[i]] = unaries[i]
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
        levels from the new arrays — all NumPy lexsorts, orders of magnitude
        cheaper than rebuilding the Python-level MRF.  The caller owns the
        message-slot remapping (slot ``2e``/``2e+1`` follows edge ``e``'s
        position in the new arrays).
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
        stacked = self.stacked
        self.edge_count = m
        self.edge_first = edge_first
        self.edge_second = edge_second
        self.edge_cid = edge_cid  # oriented rows = first endpoint

        # ---- directed slots (for synchronous BP): slot 2e, 2e+1
        slots = 2 * m
        self.slot_sender = np.empty(slots, dtype=np.int64)
        self.slot_receiver = np.empty(slots, dtype=np.int64)
        self.slot_reverse = np.empty(slots, dtype=np.int64)
        self.slot_cid = np.empty(slots, dtype=np.int64)
        self.slot_sender[0::2] = edge_first
        self.slot_sender[1::2] = edge_second
        self.slot_receiver[0::2] = edge_second
        self.slot_receiver[1::2] = edge_first
        self.slot_reverse[0::2] = np.arange(1, slots, 2)
        self.slot_reverse[1::2] = np.arange(0, slots, 2)
        self.slot_cid[0::2] = edge_cid
        self.slot_cid[1::2] = stacked + edge_cid
        #: (2·edges, lmax) True at each receiving slot's padded labels —
        #: pregathered so the synchronous BP update pads without a fancy
        #: index per round.
        self.slot_pad = self._pad[self.slot_receiver]

        # ---- orientation by node order: every edge is a "forward" edge of
        # its lower endpoint and a "backward" edge of its higher one.
        lo = np.minimum(edge_first, edge_second)
        hi = np.maximum(edge_first, edge_second)
        first_is_lo = edge_first < edge_second
        e_ids = np.arange(m, dtype=np.int64)
        slot_lo2hi = np.where(first_is_lo, 2 * e_ids, 2 * e_ids + 1)
        slot_hi2lo = np.where(first_is_lo, 2 * e_ids + 1, 2 * e_ids)
        cid_rows_lo = np.where(first_is_lo, edge_cid, stacked + edge_cid)
        cid_rows_hi = np.where(first_is_lo, stacked + edge_cid, edge_cid)

        gamma, flevel, blevel = wavefront_schedule(n, lo, hi)
        self.gamma = gamma

        # ---- flattened, level-major orderings.  Secondary sort keys keep
        # each node's edges in edge-insertion order, matching the adjacency
        # order of the per-node reference solvers.
        def _bounds(levels_sorted: np.ndarray, count: int) -> np.ndarray:
            return np.searchsorted(levels_sorted, np.arange(count + 1))

        n_flevels = int(flevel.max()) + 1 if n else 0
        node_order = np.lexsort((np.arange(n, dtype=np.int64), flevel))
        node_bounds = _bounds(flevel[node_order], n_flevels)
        send_order = np.lexsort((e_ids, lo, flevel[lo]))
        send_bounds = _bounds(flevel[lo][send_order], n_flevels)
        ext_order = np.lexsort((e_ids, hi, flevel[hi]))
        ext_bounds = _bounds(flevel[hi][ext_order], n_flevels)
        a_node = np.concatenate([lo, hi])
        a_nbr = np.concatenate([hi, lo])
        a_cid = np.concatenate([cid_rows_lo, cid_rows_hi])
        a_eid = np.concatenate([e_ids, e_ids])
        all_order = np.lexsort((a_eid, a_node, flevel[a_node]))
        all_bounds = _bounds(flevel[a_node][all_order], n_flevels)
        # Each node's position inside its level's (ascending) node slice.
        rank = np.empty(n, dtype=np.int64)
        rank[node_order] = np.arange(n) - node_bounds[flevel[node_order]]

        fwd_lo = lo[send_order]
        fwd_hi = hi[send_order]
        #: the forward sweep as flat level-major CSR arrays.
        self.fwd_sweep = _SweepCSR(
            block=_Wavefront(
                nodes=node_order,
                ext_seg=rank[hi[ext_order]],
                ext_nbr=lo[ext_order],
                ext_in=slot_lo2hi[ext_order],
                ext_cid=cid_rows_hi[ext_order],
                snd=fwd_lo,
                rcv=fwd_hi,
                out=slot_lo2hi[send_order],
                inn=slot_hi2lo[send_order],
                cid=cid_rows_lo[send_order],
                gam=gamma[fwd_lo][:, None],
                pad=self._pad[fwd_hi],
                all_seg=rank[a_node[all_order]],
                all_nbr=a_nbr[all_order],
                all_cid=a_cid[all_order],
            ),
            send_off=send_bounds,
            node_off=node_bounds,
            ext_off=ext_bounds,
            all_off=all_bounds,
        )

        n_blevels = int(blevel.max()) + 1 if m else 0
        bsend_order = np.lexsort((e_ids, hi, blevel[hi]))
        bwd_hi = hi[bsend_order]
        bwd_lo = lo[bsend_order]
        bsend_bounds = _bounds(blevel[bwd_hi], n_blevels)
        # Levels without sends are dropped: keep the starts of non-empty
        # levels, plus the end.  (Not np.unique: its first call imports
        # numpy.ma, ~30 ms on every process's first plan build.)
        nonempty = bsend_bounds[1:] > bsend_bounds[:-1]
        #: the backward sweep (levels with sends only) as CSR arrays.
        self.bwd_sweep = _SweepCSR(
            block=_SendBlock(
                snd=bwd_hi,
                rcv=bwd_lo,
                out=slot_hi2lo[bsend_order],
                inn=slot_lo2hi[bsend_order],
                cid=cid_rows_hi[bsend_order],
                gam=gamma[bwd_hi][:, None],
                pad=self._pad[bwd_lo],
            ),
            send_off=np.concatenate(
                (bsend_bounds[:-1][nonempty], bsend_bounds[-1:])
            ),
        )
        self._fwd_levels: Optional[List[_Wavefront]] = None
        self._bwd_levels: Optional[List[_SendBlock]] = None

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

    # ------------------------------------------------------------- accessors

    def unary_vectors(self) -> List[np.ndarray]:
        """The unpadded per-node unary vectors (copies into from_parts form).

        ``unary_vectors()[i]`` has ``label_counts[i]`` entries — the exact
        inputs a rebuilt (or shard) plan needs.
        """
        return [
            self.unary[i, : self.label_counts[i]]
            for i in range(self.node_count)
        ]

    def matrix_stack(self) -> List[np.ndarray]:
        """The padded forward-orientation cost matrices, one per raw cid.

        Entries are ``(lmax, lmax)`` with ``+inf`` padding; feeding them
        back through :meth:`from_parts` with the same ``lmax`` reproduces
        the stack exactly, which is what the shard partitioner relies on.
        """
        return [self.cost[k] for k in range(self.stacked)]

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
        beliefs: np.ndarray,
        chunk: int = 8192,
        scratch: Optional[SolverScratch] = None,
        backend=None,
    ) -> float:
        """Reparametrisation lower bound ``Σ_i min θ'_i + Σ_ij min θ'_ij``
        (chunked over edges to cap peak memory; the chunk buffer comes from
        ``scratch`` so repeated bounds allocate nothing).  The per-edge
        minima come from the kernel ``backend`` (see
        :mod:`repro.mrf.backends`); the chunked summation stays here so
        every backend inherits NumPy's pairwise summation bit-for-bit."""
        from repro.mrf.backends import resolve_backend

        kernels = resolve_backend(backend)
        scratch = scratch if scratch is not None else SolverScratch()
        bound = float(beliefs.min(axis=1).sum())
        for start in range(0, self.edge_count, chunk):
            stop = min(start + chunk, self.edge_count)
            bound += float(
                kernels.bound_chunk_mins(
                    self, messages, start, stop, scratch
                ).sum()
            )
        return bound

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

    def greedy_labels(self) -> np.ndarray:
        """Degree-descending sequential greedy labelling on the plan.

        The plan-level analogue of the MRF greedy used by the TRW-S refine
        stage: nodes are labelled from most- to least-connected, each taking
        the argmin of its unary plus the oriented pairwise costs to
        already-labelled neighbours.  Lets plan-only callers (the streaming
        engine) seed ICM without materialising a :class:`PairwiseMRF`.
        """
        n = self.node_count
        incident: List[List[tuple]] = [[] for _ in range(n)]
        for e in range(self.edge_count):
            i = int(self.edge_first[e])
            j = int(self.edge_second[e])
            cid = int(self.edge_cid[e])
            incident[i].append((j, cid))
            incident[j].append((i, self.stacked + cid))
        order = sorted(range(n), key=lambda i: (-len(incident[i]), i))
        labels = np.zeros(n, dtype=np.int64)
        assigned = np.zeros(n, dtype=bool)
        for node in order:
            vector = self.unary_inf[node].copy()
            for neighbor, cid in incident[node]:
                if assigned[neighbor]:
                    vector += self.cost[cid, :, labels[neighbor]]
            labels[node] = int(np.argmin(vector))
            assigned[node] = True
        return labels
