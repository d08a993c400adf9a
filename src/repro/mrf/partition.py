"""Edge-cut partitioning of MRF plans — the dual tier's shard layer.

:func:`cut_parts` / :func:`balanced_blocks` build the *edge-cut* partition
behind dual decomposition (:mod:`repro.mrf.dual`): nodes are grouped into
balanced blocks along a BFS order, every edge is owned by the block of its
first endpoint, and the off-block endpoint of each cut edge is duplicated
into the owning shard as a *ghost copy*.  Cut shards are **not**
independent — copies of a boundary node must agree for the stitched
labelling to be feasible, which is exactly the consensus the dual solver's
multiplier loop enforces.

Every shard sub-plan is built with the parent's label padding (``lmax``),
and shard node/edge lists preserve ascending global order, so a shard's
wavefront schedule is the restriction of the parent's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mrf.vectorized import MRFArrays

__all__ = [
    "balanced_blocks",
    "BoundaryNode",
    "CutShard",
    "CutPartition",
    "cut_parts",
]


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


class CutShard:
    """One shard of an edge-cut partition (see :func:`cut_parts`).

    Attributes:
        index: position in the partition (= the shard's block id).
        nodes: global node ids of this shard — home nodes and ghost
            copies — ascending.
        edges: global edge ids owned by this shard, ascending.
        home: boolean mask aligned with :attr:`nodes` — True where the
            node's block is this shard (its unary's "home"), False for
            ghost copies duplicated in by a cut edge.
            :meth:`CutPartition.stitch` reads labels from home copies only.
        plan: the shard's own :class:`MRFArrays`, padded to the parent's
            ``lmax``; built lazily on first access.
    """

    def __init__(
        self,
        index: int,
        nodes: np.ndarray,
        edges: np.ndarray,
        home: np.ndarray,
        plan_factory,
    ) -> None:
        self.index = index
        self.nodes = nodes
        self.edges = edges
        self.home = home
        self._plan_factory = plan_factory
        self._plan: Optional[MRFArrays] = None

    @property
    def plan(self) -> MRFArrays:
        """The shard's :class:`MRFArrays` sub-plan (built lazily, cached)."""
        if self._plan is None:
            self._plan = self._plan_factory()
        return self._plan


class CutPartition:
    """An edge-cut partition: balanced shards coupled on boundary nodes.

    Shards share *nodes* (boundary copies) but never edges: every global
    edge lives in exactly one shard, and the home unary of a boundary node
    is split evenly across its copies — so for any labelling on which all
    copies agree, shard energies sum exactly to the global energy, and for
    *any* per-copy multipliers summing to zero the shard optima sum to a
    valid global lower bound.  That is the decomposition :class:`~repro.mrf.dual.DualDecompositionSolver` runs its
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

        Raises:
            ValueError: when ``labels_by_shard`` does not line up with the
                partition — a missing/extra shard entry or a labelling of
                the wrong length (``zip`` would truncate silently, turning
                a dropped single-node shard into zeros).  A bare scalar is
                accepted for a single-node shard: exact solvers naturally
                collapse those.
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
        shards.append(
            CutShard(
                index=s, nodes=nodes, edges=edges, home=home,
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
