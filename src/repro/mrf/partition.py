"""Component/zone partitioning of MRF plans — the shard layer.

The diversification MRF of a segmented network factors: products of
different services never share a pairwise cost, and zones with no
firewall-permitted path between them share no edges at all, so the field
decomposes into independent connected components.  Solving each component
separately is *exact* — energies, bounds and optima add — which makes
shards a free scaling axis: shard solves parallelise, converge on their own
schedules, and (in :mod:`repro.stream`) re-solve independently when churn
only touches one of them.

This module turns that decomposition into first-class objects:

* :func:`split_parts` / :func:`split_components` — partition raw plan parts
  (or a finished :class:`~repro.mrf.vectorized.MRFArrays`) into per-component
  :class:`Shard` sub-plans with node/edge/message-slot index maps;
* :class:`PlanPartition` — the shard list plus :meth:`~PlanPartition.stitch`
  (per-shard labels → global labelling) and message split/scatter helpers;
* :func:`zone_groups` — the optional zone-guided grouping: nodes of hosts in
  the same :class:`~repro.network.zones.ZonedNetwork` zone are pinned to one
  shard, so the many tiny per-service components of a zone solve as one
  scheduling unit instead of thousands of micro-tasks;
* :func:`cut_parts` / :func:`balanced_blocks` — the *edge-cut* partition
  behind dual decomposition (:mod:`repro.mrf.dual`): nodes are grouped into
  balanced blocks along a BFS order, every edge is owned by the block of its
  first endpoint, and the off-block endpoint of each cut edge is duplicated
  into the owning shard as a *ghost copy*.  Unlike component shards, cut
  shards are **not** independent — copies of a boundary node must agree for
  the stitched labelling to be feasible, which is exactly the consensus the
  dual solver's multiplier loop enforces.

Every shard sub-plan is built with the parent's label padding (``lmax``), so
the parent's directed-message array slices straight into shard message
arrays (rows ``2e``/``2e+1`` of edge ``e`` map through :attr:`Shard.slots`)
— the property the warm-started sharded streaming path relies on.  Shard
node/edge lists preserve ascending global order, hence the wavefront
schedule of a shard is the restriction of the monolithic schedule and a
shard solve continues a monolithic solve's message state exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mrf.vectorized import MRFArrays

__all__ = [
    "Shard",
    "PlanPartition",
    "MergedSolve",
    "merge_shard_results",
    "split_parts",
    "split_components",
    "zone_groups",
    "balanced_blocks",
    "BoundaryNode",
    "CutShard",
    "CutPartition",
    "cut_parts",
]


@dataclass(frozen=True)
class MergedSolve:
    """Summary reduction of independent shard solves.

    Components share no edges, so energies and dual bounds add; one
    non-finite bound (BP has none) poisons the total, the slowest shard
    sets the iteration count, and the merge converged iff every shard did.
    """

    energy: float
    lower_bound: float
    iterations: int
    converged: bool


def merge_shard_results(
    energies: Sequence[float],
    bounds: Sequence[float],
    iterations: Sequence[int],
    converged: Sequence[bool],
) -> MergedSolve:
    """The one shard-merge rule every consumer shares (see MergedSolve)."""
    return MergedSolve(
        energy=float(sum(energies)),
        lower_bound=(
            float("-inf")
            if any(not np.isfinite(b) for b in bounds)
            else float(sum(bounds))
        ),
        iterations=max(iterations, default=0),
        converged=all(converged),
    )


def _component_of(
    n: int,
    edge_first: Sequence[int],
    edge_second: Sequence[int],
    groups: Optional[Sequence[Optional[int]]] = None,
) -> np.ndarray:
    """Dense component ids per node (first-appearance order).

    Union-find with path halving over the edge list; ``groups`` optionally
    pins nodes sharing a group id (e.g. a zone) into one component even
    without connecting edges.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        """Root of ``x``, with path halving."""
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        """Merge the components of ``a`` and ``b`` (smaller root wins)."""
        ra, rb = find(a), find(b)
        if ra != rb:
            # Smaller index wins the root, keeping ids in node order.
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in zip(edge_first, edge_second):
        union(int(a), int(b))
    if groups is not None:
        anchor: Dict[int, int] = {}
        for node, gid in enumerate(groups):
            if gid is None:
                continue
            first = anchor.setdefault(int(gid), node)
            if first != node:
                union(first, node)

    component = np.empty(n, dtype=np.int64)
    ids: Dict[int, int] = {}
    for node in range(n):
        component[node] = ids.setdefault(find(node), len(ids))
    return component


class Shard:
    """One sub-plan of a partition, with its global index maps.

    Attributes:
        index: position in the partition (deterministic: shards are ordered
            by their smallest global node).
        nodes: global node ids of this shard, ascending.
        edges: global edge ids, ascending.
        slots: global directed-message rows in local slot order — local slot
            ``2j``/``2j+1`` of local edge ``j`` maps to global rows
            ``2·edges[j]``/``2·edges[j]+1``, so ``messages[slots]`` is the
            shard's message array.
        plan: the shard's own :class:`MRFArrays`, padded to the parent's
            ``lmax`` so message widths line up.  Built lazily on first
            access — the sharded streaming engine partitions on every
            solve but only materialises the *dirty* shards' plans, which
            is what keeps churn cost proportional to the touched component.
    """

    def __init__(
        self,
        index: int,
        nodes: np.ndarray,
        edges: np.ndarray,
        slots: np.ndarray,
        plan_factory,
    ) -> None:
        self.index = index
        self.nodes = nodes
        self.edges = edges
        self.slots = slots
        self._plan_factory = plan_factory
        self._plan: Optional[MRFArrays] = None

    @property
    def plan(self) -> MRFArrays:
        """The shard's :class:`MRFArrays` sub-plan (built lazily, cached)."""
        if self._plan is None:
            self._plan = self._plan_factory()
        return self._plan


class PlanPartition:
    """A node/edge partition of one plan into independent shards."""

    def __init__(
        self, shards: List[Shard], node_count: int, edge_count: int,
        shard_of: np.ndarray,
    ) -> None:
        self.shards = shards
        self.node_count = node_count
        self.edge_count = edge_count
        #: (node_count,) shard index per global node.
        self.shard_of = shard_of

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def stitch(self, labels_by_shard: Sequence[Sequence[int]]) -> np.ndarray:
        """Merge per-shard labellings into one global label array.

        The inverse of the node maps: entry ``i`` of shard ``s``'s labels
        lands at global node ``shards[s].nodes[i]``.  Solving shards
        independently is exact, so the stitched labelling's energy equals
        the sum of the shard energies.

        Raises:
            ValueError: when ``labels_by_shard`` does not line up with the
                partition — a missing/extra shard entry or a labelling of
                the wrong length.  (``zip`` used to truncate silently,
                which turned a dropped single-node shard — the degenerate
                product of an edge cut — into zeros in the stitched
                labelling.)  A bare scalar is accepted for a single-node
                shard: exact solvers naturally collapse those.
        """
        if len(labels_by_shard) != len(self.shards):
            raise ValueError(
                f"expected {len(self.shards)} shard labellings, "
                f"got {len(labels_by_shard)}"
            )
        labels = np.zeros(self.node_count, dtype=np.int64)
        for shard, sub in zip(self.shards, labels_by_shard):
            arr = np.asarray(sub, dtype=np.int64)
            if arr.ndim == 0:
                arr = arr.reshape(1)
            if arr.shape != (len(shard.nodes),):
                raise ValueError(
                    f"shard {shard.index} has {len(shard.nodes)} node(s), "
                    f"got a labelling of shape {arr.shape}"
                )
            labels[shard.nodes] = arr
        return labels

    def split_messages(self, messages: np.ndarray) -> List[np.ndarray]:
        """Per-shard copies of a global directed-message array."""
        return [messages[shard.slots] for shard in self.shards]

    def scatter_messages(
        self, shard_messages: Sequence[np.ndarray], messages: np.ndarray
    ) -> None:
        """Write per-shard message arrays back into the global array."""
        for shard, sub in zip(self.shards, shard_messages):
            messages[shard.slots] = sub


def split_parts(
    unaries: Sequence[np.ndarray],
    edge_first: np.ndarray,
    edge_second: np.ndarray,
    edge_cid: np.ndarray,
    matrices: Sequence[np.ndarray],
    lmax: Optional[int] = None,
    groups: Optional[Sequence[Optional[int]]] = None,
) -> PlanPartition:
    """Partition raw plan parts into per-connected-component sub-plans.

    Args:
        unaries / edge_first / edge_second / edge_cid / matrices: the plan
            parts, exactly as :meth:`MRFArrays.from_parts` takes them.
        lmax: label padding forced onto every shard (defaults to the widest
            unary) — pass the parent plan's ``lmax`` so message arrays
            slice across.
        groups: optional per-node group ids; nodes sharing a group id are
            pinned into one shard (see :func:`zone_groups`).  ``None``
            entries are unconstrained.

    Returns:
        A :class:`PlanPartition`; shards are ordered by smallest global
        node, nodes/edges ascending within each shard.

    Two disconnected anti-ferromagnetic pairs split into two shards, and
    :meth:`PlanPartition.stitch` maps the per-shard labellings back:

    >>> import numpy as np
    >>> unaries = [np.zeros(2) for _ in range(4)]
    >>> repel = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> partition = split_parts(
    ...     unaries, np.array([0, 2]), np.array([1, 3]),
    ...     np.array([0, 0]), [repel],
    ... )
    >>> len(partition)
    2
    >>> partition.stitch([[0, 1], [1, 0]]).tolist()
    [0, 1, 1, 0]
    """
    n = len(unaries)
    edge_first = np.asarray(edge_first, dtype=np.int64)
    edge_second = np.asarray(edge_second, dtype=np.int64)
    edge_cid = np.asarray(edge_cid, dtype=np.int64)
    if n == 0:
        return PlanPartition([], 0, 0, np.zeros(0, dtype=np.int64))

    shard_of = _component_of(n, edge_first, edge_second, groups)
    n_shards = int(shard_of.max()) + 1

    if lmax is None:
        lmax = max((len(u) for u in unaries), default=0)

    node_order = np.argsort(shard_of, kind="stable")
    node_bounds = np.searchsorted(
        shard_of[node_order], np.arange(n_shards + 1)
    )
    e_shard = shard_of[edge_first] if len(edge_first) else np.zeros(
        0, dtype=np.int64
    )
    edge_order = np.argsort(e_shard, kind="stable")
    edge_bounds = np.searchsorted(
        e_shard[edge_order], np.arange(n_shards + 1)
    )

    def plan_factory(nodes, local_first, local_second, local_cid, used):
        """Deferred shard-plan builder bound to one component's arrays."""
        def build() -> MRFArrays:
            """Materialise the shard's :class:`MRFArrays` sub-plan."""
            return MRFArrays.from_parts(
                [unaries[int(i)] for i in nodes],
                local_first,
                local_second,
                local_cid,
                [matrices[int(k)] for k in used],
                lmax=lmax,
            )

        return build

    shards: List[Shard] = []
    for s in range(n_shards):
        nodes = node_order[node_bounds[s] : node_bounds[s + 1]]
        edges = edge_order[edge_bounds[s] : edge_bounds[s + 1]]
        local_first = np.searchsorted(nodes, edge_first[edges])
        local_second = np.searchsorted(nodes, edge_second[edges])
        cids = edge_cid[edges]
        used = np.unique(cids)
        local_cid = np.searchsorted(used, cids)
        slots = np.empty(2 * len(edges), dtype=np.int64)
        slots[0::2] = 2 * edges
        slots[1::2] = 2 * edges + 1
        shards.append(
            Shard(
                index=s, nodes=nodes, edges=edges, slots=slots,
                plan_factory=plan_factory(
                    nodes, local_first, local_second, local_cid, used
                ),
            )
        )
    return PlanPartition(shards, n, len(edge_first), shard_of)


def split_components(
    plan: MRFArrays,
    groups: Optional[Sequence[Optional[int]]] = None,
) -> PlanPartition:
    """Partition a finished :class:`MRFArrays` plan (see :func:`split_parts`).

    The shard matrices are the parent's padded forward-orientation stack
    entries; padding rows/columns are ``+inf`` in both, so re-padding them
    into the shard stacks is exact.
    """
    return split_parts(
        plan.unary_vectors(),
        plan.edge_first,
        plan.edge_second,
        plan.edge_cid,
        plan.matrix_stack(),
        lmax=plan.lmax,
        groups=groups,
    )


def zone_groups(
    variables: Sequence[Tuple[str, str]], zoned
) -> List[Optional[int]]:
    """Per-node group ids from a :class:`~repro.network.zones.ZonedNetwork`.

    Maps every (host, service) variable to its host's zone index; hosts
    outside the zone model stay unconstrained (``None``).  Feeding this to
    :func:`split_parts`/:func:`split_components` merges each zone's many
    per-service micro-components into one shard — the right granularity
    when zones are the churn/failure domain.
    """
    ids = {zone.name: k for k, zone in enumerate(zoned.zones)}
    out: List[Optional[int]] = []
    for host, _service in variables:
        try:
            out.append(ids[zoned.zone_of(host)])
        except KeyError:
            out.append(None)
    return out


# ------------------------------------------------------ edge-cut partition


def balanced_blocks(
    n: int,
    edge_first: Sequence[int],
    edge_second: Sequence[int],
    parts: int,
) -> np.ndarray:
    """Balanced node→block assignment along a BFS order (edge-cut heuristic).

    Nodes are visited breadth-first from the smallest unvisited node and the
    visit order is chopped into ``parts`` near-equal contiguous chunks, so
    blocks are locality-preserving (BFS keeps neighbours close in the order,
    which keeps the cut small) and balanced within one node.  ``parts`` is
    clamped to ``[1, n]``; every block is non-empty.

    >>> balanced_blocks(4, [0, 1, 2], [1, 2, 3], 2).tolist()
    [0, 0, 1, 1]
    """
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    parts = max(1, min(int(parts), n))
    block = np.zeros(n, dtype=np.int64)
    if parts == 1:
        return block
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for a, b in zip(edge_first, edge_second):
        adjacency[int(a)].append(int(b))
        adjacency[int(b)].append(int(a))
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    position = 0
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            order[position] = node
            position += 1
            for neighbor in adjacency[node]:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    queue.append(neighbor)
    block[order] = np.minimum(
        np.arange(n, dtype=np.int64) * parts // n, parts - 1
    )
    return block


@dataclass(frozen=True)
class BoundaryNode:
    """One node duplicated across cut shards, with all its copy addresses.

    Attributes:
        node: the global node id.
        labels: the node's label count (copies share it — the consensus
            constraint and the Lagrange multipliers live in this space).
        copies: ``(shard index, local node index)`` of every copy, home
            shard first.  All copies must take the same label for a
            stitched labelling to be feasible.
    """

    node: int
    labels: int
    copies: Tuple[Tuple[int, int], ...]


class CutShard(Shard):
    """One shard of an edge-cut partition (see :func:`cut_parts`).

    Extends :class:`Shard` with the home/ghost distinction:

    Attributes:
        home: boolean mask aligned with :attr:`Shard.nodes` — True where
            the node's block is this shard (its unary's "home"), False for
            ghost copies duplicated in by a cut edge.  :meth:`CutPartition.
            stitch` reads labels from home copies only.
    """

    def __init__(self, home: np.ndarray, **kwargs) -> None:
        super().__init__(**kwargs)
        self.home = home


class CutPartition:
    """An edge-cut partition: balanced shards coupled on boundary nodes.

    Unlike :class:`PlanPartition`, shards share *nodes* (boundary copies)
    but never edges: every global edge lives in exactly one shard, and the
    home unary of a boundary node is split evenly across its copies — so
    for any labelling on which all copies agree, shard energies sum exactly
    to the global energy, and for *any* per-copy multipliers summing to
    zero the shard optima sum to a valid global lower bound.  That is the
    decomposition :class:`~repro.mrf.dual.DualDecompositionSolver` runs its
    subgradient loop over.
    """

    def __init__(
        self,
        shards: List[CutShard],
        node_count: int,
        edge_count: int,
        block: np.ndarray,
        cut_edges: np.ndarray,
        boundary: List[BoundaryNode],
    ) -> None:
        self.shards = shards
        self.node_count = node_count
        self.edge_count = edge_count
        #: (node_count,) block id per global node (= home shard index).
        self.block = block
        #: global edge ids whose endpoints live in different blocks.
        self.cut_edges = cut_edges
        #: the duplicated nodes, with every copy's (shard, local) address.
        self.boundary = boundary

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[CutShard]:
        return iter(self.shards)

    def stitch(self, labels_by_shard: Sequence[Sequence[int]]) -> np.ndarray:
        """Merge per-shard labellings, reading each node's *home* copy.

        Ghost copies are ignored: before consensus they may disagree with
        the home copy, and the home block is the deterministic tie-break.
        Length mismatches raise (see :meth:`PlanPartition.stitch`).
        """
        if len(labels_by_shard) != len(self.shards):
            raise ValueError(
                f"expected {len(self.shards)} shard labellings, "
                f"got {len(labels_by_shard)}"
            )
        labels = np.zeros(self.node_count, dtype=np.int64)
        for shard, sub in zip(self.shards, labels_by_shard):
            arr = np.asarray(sub, dtype=np.int64)
            if arr.ndim == 0:
                arr = arr.reshape(1)
            if arr.shape != (len(shard.nodes),):
                raise ValueError(
                    f"shard {shard.index} has {len(shard.nodes)} node(s), "
                    f"got a labelling of shape {arr.shape}"
                )
            labels[shard.nodes[shard.home]] = arr[shard.home]
        return labels

    def disagreements(
        self, labels_by_shard: Sequence[Sequence[int]]
    ) -> List[BoundaryNode]:
        """Boundary nodes whose copies currently take different labels."""
        out = []
        for entry in self.boundary:
            seen = {
                int(labels_by_shard[s][i]) for s, i in entry.copies
            }
            if len(seen) > 1:
                out.append(entry)
        return out


def cut_parts(
    unaries: Sequence[np.ndarray],
    edge_first: np.ndarray,
    edge_second: np.ndarray,
    edge_cid: np.ndarray,
    matrices: Sequence[np.ndarray],
    lmax: Optional[int] = None,
    parts: int = 2,
    blocks: Optional[Sequence[int]] = None,
) -> CutPartition:
    """Partition raw plan parts along a balanced edge cut.

    Nodes are grouped into ``parts`` balanced blocks (BFS chunking, see
    :func:`balanced_blocks`, or caller-supplied ``blocks``); each edge is
    owned by the block of its **first** endpoint, and for every cut edge
    the off-block second endpoint is duplicated into the owning shard as a
    ghost copy.  Each copy of a duplicated node carries ``1/k`` of the
    node's unary (``k`` copies), so consistent labellings preserve the
    global energy exactly and shard dual bounds sum to a valid global
    bound for any zero-sum multipliers — the invariants
    :class:`~repro.mrf.dual.DualDecompositionSolver` relies on.

    A degenerate cut (``parts`` close to the node count) can produce
    single-node shards with zero edges; they round-trip through shard
    plans and :meth:`CutPartition.stitch` like any other shard.

    Splitting a 4-node path into two blocks cuts one edge and ghosts its
    far endpoint into the first shard:

    >>> import numpy as np
    >>> unaries = [np.zeros(2) for _ in range(4)]
    >>> repel = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> partition = cut_parts(
    ...     unaries, np.array([0, 1, 2]), np.array([1, 2, 3]),
    ...     np.array([0, 0, 0]), [repel], parts=2,
    ... )
    >>> [shard.nodes.tolist() for shard in partition]
    [[0, 1, 2], [2, 3]]
    >>> partition.cut_edges.tolist()
    [1]
    >>> [entry.node for entry in partition.boundary]
    [2]
    """
    n = len(unaries)
    edge_first = np.asarray(edge_first, dtype=np.int64)
    edge_second = np.asarray(edge_second, dtype=np.int64)
    edge_cid = np.asarray(edge_cid, dtype=np.int64)
    m = len(edge_first)
    if n == 0:
        return CutPartition(
            [], 0, 0, np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64), [],
        )
    if blocks is None:
        block = balanced_blocks(n, edge_first, edge_second, parts)
    else:
        block = np.asarray(blocks, dtype=np.int64)
        if block.shape != (n,):
            raise ValueError(
                f"blocks must assign all {n} nodes, got shape {block.shape}"
            )
        # Re-label densely so empty block ids cannot yield empty shards.
        block = np.unique(block, return_inverse=True)[1].astype(np.int64)
    n_shards = int(block.max()) + 1
    if lmax is None:
        lmax = max((len(u) for u in unaries), default=0)

    owner = block[edge_first] if m else np.zeros(0, dtype=np.int64)
    cut_mask = (
        block[edge_first] != block[edge_second]
        if m
        else np.zeros(0, dtype=bool)
    )
    cut_edges = np.nonzero(cut_mask)[0]

    # Distinct (shard, ghost node) pairs, and per-node copy counts.
    copies = np.ones(n, dtype=np.int64)
    if len(cut_edges):
        pairs = np.unique(
            np.stack(
                [owner[cut_edges], edge_second[cut_edges]], axis=1
            ),
            axis=0,
        )
        np.add.at(copies, pairs[:, 1], 1)
    else:
        pairs = np.zeros((0, 2), dtype=np.int64)

    def plan_factory(members, local_first, local_second, local_cid, used):
        """Deferred shard-plan builder bound to one block's arrays."""
        def build() -> MRFArrays:
            """Materialise the cut shard's sub-plan (split unaries)."""
            return MRFArrays.from_parts(
                [
                    np.asarray(unaries[int(v)], dtype=float)
                    / copies[int(v)]
                    for v in members
                ],
                local_first,
                local_second,
                local_cid,
                [matrices[int(k)] for k in used],
                lmax=lmax,
            )

        return build

    shards: List[CutShard] = []
    for s in range(n_shards):
        home_nodes = np.nonzero(block == s)[0]
        ghosts = pairs[pairs[:, 0] == s, 1]
        nodes = np.union1d(home_nodes, ghosts)
        home = block[nodes] == s
        edges = np.nonzero(owner == s)[0]
        local_first = np.searchsorted(nodes, edge_first[edges])
        local_second = np.searchsorted(nodes, edge_second[edges])
        cids = edge_cid[edges]
        used = np.unique(cids)
        local_cid = np.searchsorted(used, cids)
        slots = np.empty(2 * len(edges), dtype=np.int64)
        slots[0::2] = 2 * edges
        slots[1::2] = 2 * edges + 1
        shards.append(
            CutShard(
                home=home,
                index=s, nodes=nodes, edges=edges, slots=slots,
                plan_factory=plan_factory(
                    nodes, local_first, local_second, local_cid, used
                ),
            )
        )

    boundary: List[BoundaryNode] = []
    ghosted: Dict[int, List[int]] = {}
    for s, v in pairs:
        ghosted.setdefault(int(v), []).append(int(s))
    for v in sorted(ghosted):
        home_shard = int(block[v])
        addresses = [
            (home_shard, int(np.searchsorted(shards[home_shard].nodes, v)))
        ]
        for s in ghosted[v]:
            addresses.append(
                (s, int(np.searchsorted(shards[s].nodes, v)))
            )
        boundary.append(
            BoundaryNode(
                node=int(v),
                labels=len(unaries[v]),
                copies=tuple(addresses),
            )
        )
    return CutPartition(shards, n, m, block, cut_edges, boundary)
