"""Pairwise MRF representation.

A :class:`PairwiseMRF` holds the energy function of Eq. 1 in the paper::

    E(x) = Σ_i θ_i(x_i)  +  Σ_(i,j)∈E θ_ij(x_i, x_j)

Nodes have individual label spaces (each (host, service) pair has its own
candidate-product range), unary costs are vectors, pairwise costs are
matrices.  Edge cost matrices may be shared between edges by reference —
every inter-host edge of one service reuses the same similarity-derived
matrix — which keeps large instances cheap.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["PairwiseMRF", "MRFError"]


class MRFError(ValueError):
    """Raised on malformed MRF construction or evaluation."""


class PairwiseMRF:
    """A discrete pairwise MRF with minimisation semantics.

    The energy of ``[0, 1]`` is the unaries 0 + 0 plus the edge cost 1:

    >>> mrf = PairwiseMRF()
    >>> a = mrf.add_node([0.0, 1.0])
    >>> b = mrf.add_node([1.0, 0.0])
    >>> mrf.add_edge(a, b, [[0.0, 1.0], [1.0, 0.0]])
    0
    >>> mrf.energy([0, 1])
    1.0
    """

    def __init__(self) -> None:
        self._unaries: List[np.ndarray] = []
        self._edges: List[Tuple[int, int]] = []
        self._edge_costs: List[np.ndarray] = []
        self._edge_index: Dict[Tuple[int, int], int] = {}
        # node -> list of (neighbor, edge_id) pairs, in insertion order.
        self._adjacency: List[List[Tuple[int, int]]] = []

    # ------------------------------------------------------------- building

    def add_node(self, unary: Sequence[float]) -> int:
        """Add a node with the given unary cost vector; returns its index."""
        costs = np.asarray(unary, dtype=float)
        if costs.ndim != 1 or costs.size == 0:
            raise MRFError("unary costs must be a non-empty 1-D vector")
        self._unaries.append(costs)
        self._adjacency.append([])
        return len(self._unaries) - 1

    def add_edge(self, i: int, j: int, costs) -> int:
        """Add an undirected edge with pairwise cost matrix θ_ij.

        ``costs[a, b]`` is the cost of node ``i`` taking label ``a`` and node
        ``j`` taking label ``b``.  The matrix is stored by reference when a
        float64 ndarray is passed, enabling sharing.  Returns the edge id.
        """
        self._require_node(i)
        self._require_node(j)
        if i == j:
            raise MRFError(f"self-edge at node {i}")
        if (min(i, j), max(i, j)) in self._edge_index:
            raise MRFError(f"edge ({i}, {j}) already exists")
        matrix = costs if isinstance(costs, np.ndarray) else np.asarray(costs, dtype=float)
        if matrix.dtype != np.float64:
            matrix = matrix.astype(float)
        expected = (self.label_count(i), self.label_count(j))
        if matrix.shape != expected:
            raise MRFError(
                f"edge ({i}, {j}) cost matrix shape {matrix.shape} != {expected}"
            )
        edge_id = len(self._edges)
        self._edges.append((i, j))
        self._edge_costs.append(matrix)
        self._edge_index[(min(i, j), max(i, j))] = edge_id
        self._adjacency[i].append((j, edge_id))
        self._adjacency[j].append((i, edge_id))
        return edge_id

    def add_unary(self, node: int, extra: Sequence[float]) -> None:
        """Accumulate extra unary cost onto a node (used by constraints)."""
        self._require_node(node)
        addition = np.asarray(extra, dtype=float)
        if addition.shape != self._unaries[node].shape:
            raise MRFError(
                f"extra unary shape {addition.shape} != {self._unaries[node].shape}"
            )
        self._unaries[node] = self._unaries[node] + addition

    # -------------------------------------------------------------- queries

    @property
    def node_count(self) -> int:
        """Number of variables."""
        return len(self._unaries)

    @property
    def edge_count(self) -> int:
        """Number of pairwise edges."""
        return len(self._edges)

    def label_count(self, node: int) -> int:
        """Label-space size of ``node``."""
        self._require_node(node)
        return self._unaries[node].size

    def unary(self, node: int) -> np.ndarray:
        """The unary cost vector θ_i (not a copy; treat as read-only)."""
        self._require_node(node)
        return self._unaries[node]

    def edge(self, edge_id: int) -> Tuple[int, int]:
        """The (first, second) endpoints of edge ``edge_id``."""
        return self._edges[edge_id]

    def edge_cost(self, edge_id: int) -> np.ndarray:
        """θ_ij oriented from the edge's first to second endpoint."""
        return self._edge_costs[edge_id]

    def edges(self) -> Iterable[Tuple[int, int, np.ndarray]]:
        """Iterate (i, j, θ_ij) triples."""
        for (i, j), cost in zip(self._edges, self._edge_costs):
            yield i, j, cost

    def neighbors(self, node: int) -> List[Tuple[int, int]]:
        """(neighbor, edge_id) pairs of ``node``, in insertion order."""
        self._require_node(node)
        return list(self._adjacency[node])

    def has_edge(self, i: int, j: int) -> bool:
        """True when nodes ``i`` and ``j`` share an edge."""
        return (min(i, j), max(i, j)) in self._edge_index

    def edge_id(self, i: int, j: int) -> int:
        """The edge id coupling ``i`` and ``j`` (KeyError when absent)."""
        return self._edge_index[(min(i, j), max(i, j))]

    def connected_components(self) -> List[List[int]]:
        """Node partition into connected components (deterministic order)."""
        seen = [False] * self.node_count
        components: List[List[int]] = []
        for start in range(self.node_count):
            if seen[start]:
                continue
            stack, component = [start], []
            seen[start] = True
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor, _ in self._adjacency[node]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        stack.append(neighbor)
            components.append(sorted(component))
        return components

    # ------------------------------------------------------------ evaluation

    def energy(self, labels: Sequence[int]) -> float:
        """E(x) for a full labelling."""
        if len(labels) != self.node_count:
            raise MRFError(
                f"labelling has {len(labels)} entries for {self.node_count} nodes"
            )
        total = 0.0
        for node, label in enumerate(labels):
            if not 0 <= label < self._unaries[node].size:
                raise MRFError(f"label {label} out of range at node {node}")
            total += float(self._unaries[node][label])
        for (i, j), cost in zip(self._edges, self._edge_costs):
            total += float(cost[labels[i], labels[j]])
        return total

    def trivial_lower_bound(self) -> float:
        """Σ_i min θ_i + Σ_ij min θ_ij — a cheap universal lower bound."""
        bound = sum(float(u.min()) for u in self._unaries)
        bound += sum(float(c.min()) for c in self._edge_costs)
        return bound

    def __repr__(self) -> str:
        return f"PairwiseMRF({self.node_count} nodes, {self.edge_count} edges)"

    # -------------------------------------------------------------- internal

    def _require_node(self, node: int) -> None:
        if not 0 <= node < len(self._unaries):
            raise MRFError(f"unknown node index {node}")
