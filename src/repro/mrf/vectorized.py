"""CSR-style array form of a :class:`~repro.mrf.graph.PairwiseMRF`.

The paper's optimizer is multi-threaded C++ with GPU-accelerated matrix
operations (Section VIII); this module is the array analogue every
``diversify()`` TRW-S solve runs on — replicated-service estates and
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
* **Wavefront levels.**  Sequential solvers (TRW-S sweeps and their
  conditioned labelling, ICM) process node ``i`` after all lower-numbered
  neighbours.
  That dependency is a DAG whose topological *levels* — computed once —
  batch every node of a level into one block update, which is
  mathematically identical to the node-by-node order because nodes in one
  level are never adjacent (belief sums accumulate in level-major order,
  so numerically the agreement is to floating-point round-off).
* **One adjacency.**  :attr:`MRFArrays.adjacency` (an
  :class:`Adjacency`) holds one row per directed slot — the neighbour,
  the slot the node sends on and the oriented cost id — laid out
  level-major in forward order, each level's conditioning rows (lower
  neighbours) before its send rows (higher neighbours).  Beside the rows
  it keeps per node the lower count and first conditioning row, the
  forward and backward node orders with their level offsets, and one
  permutation listing each node's rows in edge order.  The forward sweep
  walks each level's two blocks, the backward sweep each node's
  conditioning rows in backward-level order, and ICM and the greedy
  init the permutation, so a native kernel backend walks a whole sweep
  in one call; the NumPy backend loops over per-level slices of the same
  rows.
* **A linear build.**  One O(nodes + edges) call of the structure
  kernel groups the ``2·edges`` edge endpoints by node, computes both
  levels and writes the γ weights and the adjacency from that grouping,
  so a deep chain costs no more per edge than a wide estate.

Directed message slot layout matches the reference solvers: slot ``2e``
carries first→second of edge ``e`` (indexed by the second endpoint's
labels), slot ``2e+1`` the reverse, so a slot's opposite is ``slot ^ 1``
and its receiver is ``edge_second[e]`` or ``edge_first[e]``.  The plan
stores each fact once: what follows from a node (its γ weight, its
padding row) or from a slot (its opposite, its receiver) is read per
node or per slot by the kernels, never copied out per edge.

Besides wrapping a finished :class:`~repro.mrf.graph.PairwiseMRF`, a plan
can be built straight from arrays (:meth:`MRFArrays.from_dense` adopts a
padded unary stack, :meth:`MRFArrays.from_parts` pads per-node vectors) and
**delta-updated** afterwards — :meth:`MRFArrays.set_cost_matrix` rewrites
one cost-stack entry in place (similarity feeds change values, not
structure), :meth:`MRFArrays.set_unary` rewrites one node's hard-mask
unary (constraint pins/forbids), and :meth:`MRFArrays.replace_edges`
re-derives the γ weights and the adjacency from a
patched edge set (the same structure kernel call) while leaving every
node array untouched.  This is what
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
    "Adjacency",
    "MRFArrays",
    "SolverScratch",
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


def _check_endpoints(n: int, first: np.ndarray, second: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first edge whose endpoints are not
    two distinct nodes in ``[0, n)``."""
    bad = (first == second) | (np.minimum(first, second) < 0)
    bad |= np.maximum(first, second) >= n
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(
            f"edge {e} ({int(first[e])}, {int(second[e])}) needs two "
            f"distinct endpoints in [0, {n})"
        )


def _check_cost_ids(
    stacked: int, first: np.ndarray, second: np.ndarray, cid: np.ndarray
) -> None:
    """Raise ``ValueError`` naming the first edge whose cost id is not a
    matrix in ``[0, stacked)``."""
    if not len(cid) or 0 <= cid.min() <= cid.max() < stacked:
        return
    e = int(np.argmax((cid < 0) | (cid >= stacked)))
    raise ValueError(
        f"edge {e} ({int(first[e])}, {int(second[e])}) has cost id "
        f"{int(cid[e])} outside [0, {stacked})"
    )


def _padded_stack(
    unaries: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(unary, label_counts)``: per-node vectors as a zero-padded
    ``(n, lmax)`` stack, ``lmax`` the widest vector."""
    counts = np.asarray([len(u) for u in unaries], dtype=np.int64)
    unary = np.zeros((len(counts), int(counts.max(initial=0))))
    # Row-major boolean assignment fills each row's leading ``counts[i]``
    # slots in order — one copy for all nodes.
    mask = np.arange(unary.shape[1]) < counts[:, None]
    unary[mask] = np.concatenate([np.zeros(0), *unaries])
    return unary, counts


@dataclass(eq=False)
class Adjacency:
    """The plan's one adjacency: a row per directed slot, and the node
    orders the sweeps walk the rows in.

    Row ``r`` belongs to one node: ``nbr[r]`` is its neighbour, ``slot[r]``
    the slot the node sends on to it (the neighbour's message in is
    ``slot[r] ^ 1``) and ``cid[r]`` the cost id, oriented rows = the
    node's labels.  The rows are laid out level-major in forward-level
    order; each level holds its conditioning rows (every node's
    lower-numbered neighbours) before its send rows (every node's
    higher-numbered neighbours), nodes ascending and each node's rows in
    edge order.  So node ``v``'s conditioning rows are
    ``lower_start[v]`` onwards, ``lower[v]`` of them, and its sends
    follow the level's conditioning rows in node order,
    ``degree[v] - lower[v]`` of them.  The backward sweep re-sends each
    node's conditioning rows in backward-level order; ``bwd_nodes`` lists
    the nodes that have any, so levels without sends drop out.  ``perm``
    lists every node's rows in edge order, nodes in forward order: the
    order ICM and the greedy init add a node's pairwise terms in.
    """

    nbr: np.ndarray          # per row: the neighbour
    slot: np.ndarray         # per row: the slot the node sends on
    cid: np.ndarray          # per row: cost id, oriented rows = node labels
    perm: np.ndarray         # per node in forward order: its rows, edge order
    nodes: np.ndarray        # the nodes in forward-level order
    degree: np.ndarray       # per node: its rows
    lower: np.ndarray        # per node: its conditioning rows
    lower_start: np.ndarray  # per node: its first conditioning row
    bwd_nodes: np.ndarray    # nodes with lower neighbours, backward-level order
    node_off: np.ndarray     # forward level l owns nodes[node_off[l]:node_off[l + 1]]
    bwd_off: np.ndarray      # backward level l owns bwd_nodes[bwd_off[l]:bwd_off[l + 1]]

    @property
    def forward_levels(self) -> int:
        """Forward levels (every one holds nodes)."""
        return len(self.node_off) - 1

    @property
    def backward_levels(self) -> int:
        """Backward levels with sends (the others are dropped)."""
        return len(self.bwd_off) - 1


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
        self._install_nodes(*_padded_stack(unaries))
        self.replace_edges(edge_first, edge_second, edge_cid, matrices)

    @classmethod
    def from_parts(
        cls,
        unaries: Sequence[np.ndarray],
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
        matrices: Sequence[np.ndarray],
    ) -> "MRFArrays":
        """Build a plan straight from per-node unary vectors and arrays,
        bypassing the MRF object.

        ``edge_cid[e]`` indexes ``matrices``; matrix rows correspond to the
        labels of ``edge_first[e]``.  The labels are padded to the widest
        vector; :meth:`from_dense` takes a stack padded wider.
        """
        return cls.from_dense(
            *_padded_stack(unaries), edge_first, edge_second, edge_cid,
            matrices,
        )

    @classmethod
    def from_dense(
        cls,
        unary: np.ndarray,
        label_counts: np.ndarray,
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
        matrices: Sequence[np.ndarray],
    ) -> "MRFArrays":
        """Build a plan from a padded ``(n, lmax)`` unary stack.

        The stack's width is the plan's label padding ``lmax``, which may
        exceed the widest label count (message arrays then keep their
        width across deltas that shrink the label space).  ``unary`` must
        be zero at padded label slots and is adopted without a copy: the
        plan's :attr:`unary` is that very array, which the network→plan
        compiler (:mod:`repro.core.compile`) and the streaming engine
        rely on.  Everything else matches :meth:`from_parts`.
        """
        plan = cls.__new__(cls)
        plan._install_nodes(
            np.asarray(unary, dtype=float),
            np.asarray(label_counts, dtype=np.int64),
        )
        plan.replace_edges(edge_first, edge_second, edge_cid, matrices)
        return plan

    # ------------------------------------------------------- construction

    def _install_nodes(self, unary: np.ndarray, counts: np.ndarray) -> None:
        """Adopt a padded unary stack (zeros outside the label masks)."""
        n = len(counts)
        widest = int(counts.max()) if n else 0
        if unary.ndim != 2 or len(unary) != n or unary.shape[1] < widest:
            raise ValueError(
                f"unary stack of shape {unary.shape} does not hold {n} "
                f"nodes of up to {widest} labels"
            )
        lmax = unary.shape[1]
        self.node_count = n
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

        Re-derives the cost stack, γ weights and the adjacency from the
        new arrays — one O(nodes + edges) structure kernel call, orders of
        magnitude cheaper than rebuilding the Python-level MRF.  The
        caller owns the message-slot remapping (slot ``2e``/``2e+1``
        follows edge ``e``'s position in the new arrays).
        """
        self._setup_costs(matrices)
        self._build_structure(*(
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (edge_first, edge_second, edge_cid)
        ))

    def _build_structure(
        self,
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
    ) -> None:
        """Derive the γ weights and the adjacency of an edge set: one call
        of the default kernel backend (:meth:`~repro.mrf.backends.base.
        KernelBackend.structure`), after the endpoint and cost-id checks
        the native kernels rely on."""
        from repro.mrf.backends import resolve_backend

        n = self.node_count
        _check_endpoints(n, edge_first, edge_second)
        _check_cost_ids(self.stacked, edge_first, edge_second, edge_cid)
        self.edge_count = len(edge_first)
        self.edge_first = edge_first
        self.edge_second = edge_second
        self.edge_cid = edge_cid  # oriented rows = first endpoint
        self.gamma, self.adjacency = resolve_backend().structure(
            n, edge_first, edge_second, edge_cid, self.stacked
        )
        self._components: Optional[Tuple[np.ndarray, int]] = None
        self._chains: Optional[Tuple[np.ndarray, np.ndarray]] = None

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
        end on an edge, in row order of that edge's conditioning row, then
        the isolated nodes.  ``chain`` has one entry per send row of the
        adjacency, in row order, the chain the send extends; ``ends[c]`` is
        the node chain ``c`` ends at.  Built when the bound first reads
        them and kept for the plan's edge set, by one call of the default
        kernel backend (:meth:`~repro.mrf.backends.base.KernelBackend.
        label_graph`), which labels the components in the same pass unless
        they already are.

        >>> plan = MRFArrays.from_parts(
        ...     [np.zeros(2)] * 4, np.array([0, 1, 0]), np.array([1, 2, 2]),
        ...     np.zeros(3, dtype=np.int64), [np.eye(2)])
        >>> chain, ends = plan.chains  # 0-1-2, the chord 0-2, node 3
        >>> chain.tolist(), ends.tolist()
        ([0, 1, 0], [2, 2, 3])
        """
        if self._chains is None:
            self._label_graph(chains=True)
        return self._chains

    # ------------------------------------------------------------ components

    def _label_graph(self, chains: bool) -> None:
        """Label the edge set on the default kernel backend: the chains
        when asked for, and the components unless already labelled."""
        from repro.mrf.backends import resolve_backend

        chain, ends, labels = resolve_backend().label_graph(
            self, chains=chains, components=self._components is None
        )
        if chains:
            self._chains = (chain, ends)
        if labels is not None:
            count = int(labels.max()) + 1 if self.node_count else 0
            self._components = (labels, count)

    def _labelled_components(self) -> Tuple[np.ndarray, int]:
        """(component id per node, component count), labelled once per
        edge set (see :meth:`_label_graph`) and cached."""
        if self._components is None:
            self._label_graph(chains=False)
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
            components, weights=self._unary_terms(labels), minlength=count
        )
        if self.edge_count:
            totals += np.bincount(
                components[self.edge_first],
                weights=self._edge_terms(labels),
                minlength=count,
            )
        return totals

    # ------------------------------------------------------------ evaluation

    def zero_messages(self) -> np.ndarray:
        """A (2·edges, lmax) zero message array (zeros are also the correct
        value for padded label slots)."""
        return np.zeros((2 * self.edge_count, self.lmax))

    def energy(self, labels: np.ndarray) -> float:
        """E(x) for an (n,) label array; equals ``mrf.energy`` up to
        floating-point summation order."""
        total = self._unary_terms(labels).sum()
        if self.edge_count:
            total += self._edge_terms(labels).sum()
        return float(total)

    def _unary_terms(self, labels: np.ndarray) -> np.ndarray:
        """Every node's unary at its label, in node order: one flat
        ``take`` at ``node·lmax + label``."""
        flat = self._iota * self.lmax
        flat += labels
        return self.unary.reshape(-1).take(flat)

    def _edge_terms(self, labels: np.ndarray) -> np.ndarray:
        """Every edge's cost at its endpoints' labels, in edge order: one
        flat ``take`` at ``cid·lmax² + label(first)·lmax + label(second)``
        of the cost stack."""
        lmax = self.lmax
        flat = labels.take(self.edge_first)
        flat += self.edge_cid * lmax
        flat *= lmax
        flat += labels.take(self.edge_second)
        return self.cost.reshape(-1).take(flat)

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
        kernel walks each node's rows through the adjacency's permutation,
        nodes in degree order; the NumPy reference is a Python loop over
        the nodes.  Both
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
