"""Simulated-annealing MAP solver.

A stochastic baseline complementing ICM: Metropolis single-variable moves
under a geometric cooling schedule.  Slower than message passing but immune
to the deterministic local optima ICM falls into, which makes it a useful
cross-check on medium instances and a third point for the solver ablation.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

import numpy as np

from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolverResult, register_solver

__all__ = ["SimulatedAnnealingSolver"]


class SimulatedAnnealingSolver:
    """Metropolis annealing over single-node label moves.

    Args:
        max_iterations: number of full sweeps (each sweep proposes one move
            per node).
        start_temperature / end_temperature: geometric cooling endpoints.
        seed: PRNG seed.  Runs are deterministic given the seed, so the
            default 0 makes repeated default solves identical, like the
            seeded tie-break noise of TRW-S; ``None`` draws fresh
            entropy.
        initial: optional starting labelling (defaults to unary argmin).
    """

    name = "anneal"

    def __init__(
        self,
        max_iterations: int = 300,
        start_temperature: float = 1.0,
        end_temperature: float = 1e-3,
        seed: Optional[int] = 0,
        initial: Optional[Sequence[int]] = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if start_temperature <= 0 or end_temperature <= 0:
            raise ValueError("temperatures must be positive")
        if end_temperature > start_temperature:
            raise ValueError("end_temperature must not exceed start_temperature")
        self.max_iterations = max_iterations
        self.start_temperature = start_temperature
        self.end_temperature = end_temperature
        self.seed = seed
        self.initial = initial

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run simulated annealing on ``mrf``; see :class:`SolverResult`."""
        n = mrf.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, iterations=0, converged=True, solver=self.name
            )
        rng = random.Random(self.seed)
        if self.initial is not None:
            if len(self.initial) != n:
                raise ValueError(
                    f"initial labelling has {len(self.initial)} entries for {n} nodes"
                )
            labels = [int(x) for x in self.initial]
        else:
            labels = [int(np.argmin(mrf.unary(i))) for i in range(n)]

        # Oriented cost views per node for O(degree) move deltas.
        oriented = [[] for _ in range(n)]
        for edge_id in range(mrf.edge_count):
            i, j = mrf.edge(edge_id)
            cost = mrf.edge_cost(edge_id)
            oriented[i].append((j, cost))
            oriented[j].append((i, cost.T))

        def move_delta(node: int, new_label: int) -> float:
            """Energy change of relabelling ``node`` to ``new_label``."""
            old_label = labels[node]
            delta = float(mrf.unary(node)[new_label] - mrf.unary(node)[old_label])
            for neighbor, cost in oriented[node]:
                delta += float(
                    cost[new_label, labels[neighbor]]
                    - cost[old_label, labels[neighbor]]
                )
            return delta

        energy = mrf.energy(labels)
        best_labels = list(labels)
        best_energy = energy
        cooling = (self.end_temperature / self.start_temperature) ** (
            1.0 / max(self.max_iterations - 1, 1)
        )
        temperature = self.start_temperature
        energy_trace: List[float] = []

        for _ in range(self.max_iterations):
            for node in range(n):
                count = mrf.label_count(node)
                if count < 2:
                    continue
                proposal = rng.randrange(count - 1)
                if proposal >= labels[node]:
                    proposal += 1  # uniform over the other labels
                delta = move_delta(node, proposal)
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    labels[node] = proposal
                    energy += delta
                    if energy < best_energy - 1e-12:
                        best_energy = energy
                        best_labels = list(labels)
            energy_trace.append(best_energy)
            temperature *= cooling

        # Guard against float drift in the incremental energy bookkeeping.
        best_energy = mrf.energy(best_labels)
        return SolverResult(
            labels=best_labels,
            energy=best_energy,
            iterations=self.max_iterations,
            converged=True,
            solver=self.name,
            energy_trace=energy_trace,
        )


register_solver("anneal", SimulatedAnnealingSolver)
