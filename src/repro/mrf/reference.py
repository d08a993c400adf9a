"""Reference (per-node loop) implementations of TRW-S and loopy BP.

These are the original pure-Python solvers the repository shipped before the
message-passing core was vectorized.  They process one edge at a time with
small NumPy operations, which makes the update rule easy to audit against
Kolmogorov's TRW-S paper.  :class:`ReferenceTRWSSolver` is the ground truth
the vectorized :class:`~repro.mrf.trws.TRWSSolver` is tested against: on
every instance both must return the same energies and dual bounds (see
``tests/test_vectorized.py``).  :class:`ReferenceBPSolver` is the loopy BP
the paper weighs TRW-S against (Section V-C); TRW-S is the one production
message-passing solver, and ``benchmarks/bench_ablation_solvers.py``
reproduces that comparison with this solver.

They stay registered as ``"trws-ref"`` and ``"bp-ref"`` so benchmarks and
users can cross-check results, but they should not be used on large
workloads — they run an order of magnitude slower than the plan kernels.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolverResult
from repro.mrf.trws import solve_forest_plan
from repro.mrf.vectorized import MRFArrays

__all__ = ["ReferenceTRWSSolver", "ReferenceBPSolver"]


def _greedy_labels(mrf: PairwiseMRF) -> List[int]:
    """Degree-descending sequential greedy labelling (MRF-level reference).

    Nodes are labelled from most- to least-connected; each takes the label
    minimising its unary plus the pairwise cost to already-labelled
    neighbours — the weighted-colouring heuristic of O'Donnell & Sethu.
    The production solvers use the identical plan-level implementation
    (:meth:`~repro.mrf.vectorized.MRFArrays.greedy_labels`).
    """
    n = mrf.node_count
    order = sorted(range(n), key=lambda i: (-len(mrf.neighbors(i)), i))
    labels = [0] * n
    assigned = [False] * n
    for node in order:
        vector = mrf.unary(node).copy()
        for neighbor, edge_id in mrf.neighbors(node):
            if not assigned[neighbor]:
                continue
            first, _second = mrf.edge(edge_id)
            cost = mrf.edge_cost(edge_id)
            oriented = cost if first == node else cost.T
            vector = vector + oriented[:, labels[neighbor]]
        labels[node] = int(np.argmin(vector))
        assigned[node] = True
    return labels


def _component_energies(
    mrf: PairwiseMRF, labels: List[int], components: List[List[int]]
) -> List[float]:
    """E(x) split by connected component (MRF-level reference).

    Per component, the unaries of its nodes plus the costs of its edges;
    a single component returns ``[mrf.energy(labels)]``.  The production
    twin is :meth:`~repro.mrf.vectorized.MRFArrays.component_energies`.
    """
    if len(components) == 1:
        return [mrf.energy(labels)]
    component_of = [0] * mrf.node_count
    for c, nodes in enumerate(components):
        for node in nodes:
            component_of[node] = c
    unaries = [0.0] * len(components)
    pairs = [0.0] * len(components)
    for node, label in enumerate(labels):
        unaries[component_of[node]] += float(mrf.unary(node)[label])
    for i, j, cost in mrf.edges():
        pairs[component_of[i]] += float(cost[labels[i], labels[j]])
    return [u + p for u, p in zip(unaries, pairs)]


class ReferenceTRWSSolver:
    """Sequential TRW-S with per-node Python loops (the pre-vectorization
    implementation; see :class:`~repro.mrf.trws.TRWSSolver` for the
    algorithm documentation — both solvers perform the same updates).
    """

    name = "trws-ref"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-9,
        compute_bound: bool = True,
        refine: bool = True,
        tie_break_noise: float = 1e-4,
        seed: Optional[int] = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if tie_break_noise < 0:
            raise ValueError("tie_break_noise must be non-negative")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.compute_bound = compute_bound
        self.refine = refine
        self.tie_break_noise = tie_break_noise
        self.seed = seed if seed is not None else 0

    # ----------------------------------------------------------------- API

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run per-node reference TRW-S; see :class:`SolverResult`."""
        n = mrf.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        components = mrf.connected_components()
        if mrf.edge_count == mrf.node_count - len(components):
            # Forests share the production DP; only loopy graphs need the
            # per-node sweeps below as an independent oracle.
            result = solve_forest_plan(MRFArrays(mrf))
            result.solver = self.name
            return result

        links = self._build_links(mrf)
        chains = self._build_chains(mrf, links)
        messages = self._init_messages(mrf)
        if self.tie_break_noise > 0:
            rng = np.random.default_rng(self.seed)
            beliefs = [
                mrf.unary(i)
                + rng.uniform(0.0, self.tie_break_noise, mrf.label_count(i))
                for i in range(n)
            ]
        else:
            beliefs = [mrf.unary(i).copy() for i in range(n)]

        best_labels: Optional[List[int]] = None
        best_energy = float("inf")
        lower_bound = float("-inf")
        energy_trace: List[float] = []
        bound_trace: List[float] = []
        converged = False
        iterations = 0

        stalled = 0
        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            previous_energy = best_energy
            labels = self._forward_sweep(mrf, links, messages, beliefs)
            energy = mrf.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            self._backward_sweep(mrf, links, messages, beliefs)

            previous_bound = lower_bound
            if self.compute_bound:
                lower_bound = max(
                    lower_bound,
                    self._chain_bound(mrf, links, chains, messages),
                )
            energy_trace.append(best_energy)
            bound_trace.append(lower_bound)

            if self.compute_bound and np.isfinite(lower_bound):
                if best_energy - lower_bound <= self.tolerance:
                    converged = True
                    break
                stall_eps = max(self.tolerance, self.tie_break_noise)
                bound_stalled = (
                    np.isfinite(previous_bound)
                    and abs(lower_bound - previous_bound) <= stall_eps
                )
                energy_stalled = (
                    np.isfinite(previous_energy)
                    and abs(best_energy - previous_energy) <= stall_eps
                )
                stalled = stalled + 1 if (bound_stalled and energy_stalled) else 0
                if stalled >= 3:
                    converged = True
                    break

        assert best_labels is not None
        if self.refine:
            from repro.mrf.icm import ICMSolver

            candidates = [
                best_labels,
                [int(np.argmin(mrf.unary(i))) for i in range(n)],
                _greedy_labels(mrf),
            ]
            # Best candidate per connected component (strict <, in
            # candidate order), as in the vectorized refine.
            best_parts = _component_energies(mrf, best_labels, components)
            best_labels = list(best_labels)
            picked = False
            for candidate in candidates:
                polished = ICMSolver(initial=candidate).solve(mrf)
                energies = _component_energies(
                    mrf, polished.labels, components
                )
                for c, nodes in enumerate(components):
                    if energies[c] < best_parts[c]:
                        best_parts[c] = energies[c]
                        for node in nodes:
                            best_labels[node] = polished.labels[node]
                        picked = True
            if picked:
                best_energy = mrf.energy(best_labels)
            if self.compute_bound and best_energy - lower_bound <= self.tolerance:
                converged = True
        return SolverResult(
            labels=best_labels,
            energy=best_energy,
            lower_bound=lower_bound,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
            bound_trace=bound_trace,
        )

    # ------------------------------------------------------------- internals

    @staticmethod
    def _build_links(mrf: PairwiseMRF):
        """Per-node adjacency split into forward/backward neighbours.

        Entries are (neighbor, out_message_index, in_message_index,
        cost oriented with rows = this node's labels).
        """
        links = []
        for i in range(mrf.node_count):
            forward: List[Tuple[int, int, int, np.ndarray]] = []
            backward: List[Tuple[int, int, int, np.ndarray]] = []
            for j, edge_id in mrf.neighbors(i):
                first, _second = mrf.edge(edge_id)
                cost = mrf.edge_cost(edge_id)
                if first == i:
                    oriented = cost
                    out_index, in_index = 2 * edge_id, 2 * edge_id + 1
                else:
                    oriented = cost.T
                    out_index, in_index = 2 * edge_id + 1, 2 * edge_id
                entry = (j, out_index, in_index, oriented)
                if j > i:
                    forward.append(entry)
                else:
                    backward.append(entry)
            chains = max(len(forward), len(backward))
            gamma = 1.0 / chains if chains else 1.0
            links.append((forward, backward, gamma))
        return links

    @staticmethod
    def _init_messages(mrf: PairwiseMRF) -> List[np.ndarray]:
        """Zero messages; slot 2e is first→second of edge e, 2e+1 reverse."""
        messages: List[np.ndarray] = []
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            messages.append(np.zeros(mrf.label_count(j)))
            messages.append(np.zeros(mrf.label_count(i)))
        return messages

    def _forward_sweep(self, mrf, links, messages, beliefs) -> List[int]:
        labels = [0] * mrf.node_count
        for i in range(mrf.node_count):
            forward, backward, gamma = links[i]
            belief = beliefs[i]

            conditioned = belief.copy()
            for j, _out, in_index, oriented in backward:
                conditioned -= messages[in_index]
                conditioned += oriented[:, labels[j]]
            labels[i] = int(np.argmin(conditioned))

            if forward:
                weighted = gamma * belief
                for j, out_index, in_index, oriented in forward:
                    base = weighted - messages[in_index]
                    new_message = (base[:, None] + oriented).min(axis=0)
                    new_message -= new_message.min()
                    beliefs[j] += new_message - messages[out_index]
                    messages[out_index] = new_message
        return labels

    def _backward_sweep(self, mrf, links, messages, beliefs) -> None:
        for i in range(mrf.node_count - 1, -1, -1):
            _forward, backward, gamma = links[i]
            if not backward:
                continue
            weighted = gamma * beliefs[i]
            for j, out_index, in_index, oriented in backward:
                base = weighted - messages[in_index]
                new_message = (base[:, None] + oriented).min(axis=0)
                new_message -= new_message.min()
                beliefs[j] += new_message - messages[out_index]
                messages[out_index] = new_message

    @staticmethod
    def _build_chains(mrf: PairwiseMRF, links) -> List[List[Tuple[int, int]]]:
        """The monotonic chains of the TRW-S bound, as explicit lists.

        Each chain is a list of ``(node, edge)`` steps in index order: its
        first node with edge ``-1``, then each next node with the edge that
        reaches it.  At every node the k-th lower-numbered edge continues
        into the k-th higher-numbered one (both in edge order); a lower
        edge without a partner ends its chain, a higher edge without one
        starts a chain, and an isolated node is a chain of its own.
        """
        chains: List[List[Tuple[int, int]]] = []
        chain_of: dict = {}  # edge id -> index of the chain it lies on
        for i in range(mrf.node_count):
            forward, backward, _gamma = links[i]
            arriving = [chain_of[out_index // 2] for _j, out_index, _i, _c in backward]
            if not forward and not backward:
                chains.append([(i, -1)])
            for k, (j, out_index, _in, _cost) in enumerate(forward):
                if k < len(arriving):
                    chain = arriving[k]
                else:
                    chain = len(chains)
                    chains.append([(i, -1)])
                chains[chain].append((j, out_index // 2))
                chain_of[out_index // 2] = chain
        return chains

    @staticmethod
    def _chain_bound(mrf, links, chains, messages) -> float:
        """Sum of the chains' minima, each by min-sum DP along the chain.

        Node ``i`` gives each of its chains ``γ_i·(θ_i + Σ_j M_j→i)``,
        from the original unaries; edge ``ij`` gives its chain
        ``θ_ij − M_i→j − M_j→i``.
        """
        incoming = [mrf.unary(i).copy() for i in range(mrf.node_count)]
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            incoming[j] = incoming[j] + messages[2 * edge_id]
            incoming[i] = incoming[i] + messages[2 * edge_id + 1]
        share = [links[i][2] * incoming[i] for i in range(mrf.node_count)]
        bound = 0.0
        for chain in chains:
            node, _edge = chain[0]
            vector = share[node]
            for successor, edge_id in chain[1:]:
                first, _second = mrf.edge(edge_id)
                cost = mrf.edge_cost(edge_id)
                # Rows = the lower endpoint (the chain's current node).
                if first == node:
                    reduced = (
                        cost
                        - messages[2 * edge_id + 1][:, None]
                        - messages[2 * edge_id][None, :]
                    )
                else:
                    reduced = (
                        cost.T
                        - messages[2 * edge_id][:, None]
                        - messages[2 * edge_id + 1][None, :]
                    )
                vector = (vector[:, None] + reduced).min(axis=0) + share[successor]
                node = successor
            bound += float(vector.min())
        return bound


class ReferenceBPSolver:
    """Damped synchronous min-sum loopy BP with per-edge Python loops: the
    paper's alternative to TRW-S, kept as its Section V-C comparator.
    """

    name = "bp-ref"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        damping: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run per-node reference loopy BP; see :class:`SolverResult`."""
        n = mrf.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, iterations=0, converged=True, solver=self.name
            )

        # messages[2e] flows first→second of edge e; messages[2e+1] reverse.
        messages: List[np.ndarray] = []
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            messages.append(np.zeros(mrf.label_count(j)))
            messages.append(np.zeros(mrf.label_count(i)))

        # Per-node incoming message slots: (in_index, out_index, oriented cost).
        incoming = [[] for _ in range(n)]
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            cost = mrf.edge_cost(edge_id)
            incoming[j].append((2 * edge_id, 2 * edge_id + 1, cost.T))
            incoming[i].append((2 * edge_id + 1, 2 * edge_id, cost))

        best_labels: Optional[List[int]] = None
        best_energy = float("inf")
        energy_trace: List[float] = []
        converged = False
        iterations = 0

        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            beliefs = [mrf.unary(i).copy() for i in range(n)]
            for node in range(n):
                for in_index, _out, _cost in incoming[node]:
                    beliefs[node] += messages[in_index]

            # Synchronous update of every directed message.
            new_messages = [None] * len(messages)
            max_change = 0.0
            for node in range(n):
                for in_index, out_index, oriented in incoming[node]:
                    base = beliefs[node] - messages[in_index]
                    updated = (base[:, None] + oriented).min(axis=0)
                    updated -= updated.min()
                    if self.damping > 0.0:
                        updated = (
                            self.damping * messages[out_index]
                            + (1.0 - self.damping) * updated
                        )
                    change = float(np.max(np.abs(updated - messages[out_index])))
                    max_change = max(max_change, change)
                    new_messages[out_index] = updated
            for index, updated in enumerate(new_messages):
                if updated is not None:
                    messages[index] = updated

            labels = self._decode(mrf, incoming, messages, beliefs)
            energy = mrf.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            energy_trace.append(best_energy)

            if max_change <= self.tolerance:
                converged = True
                break

        assert best_labels is not None
        return SolverResult(
            labels=best_labels,
            energy=best_energy,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
        )

    @staticmethod
    def _decode(mrf, incoming, messages, beliefs) -> List[int]:
        """Sequential-conditioning decoding of the current beliefs."""
        labels = [0] * mrf.node_count
        decoded = [False] * mrf.node_count
        for node in range(mrf.node_count):
            vector = beliefs[node].copy()
            for in_index, _out, oriented in incoming[node]:
                i, j = mrf.edge(in_index // 2)
                sender = i if in_index % 2 == 0 else j
                if decoded[sender]:
                    vector -= messages[in_index]
                    vector += oriented[:, labels[sender]]
            labels[node] = int(np.argmin(vector))
            decoded[node] = True
        return labels
