"""Lagrangian dual decomposition across an edge-cut of one component.

Connected components share no edges, so the monolithic solve already
treats them independently (its refine stage picks the best candidate per
component); a real estate's giant connected component offers no such
split.  This module cuts *arbitrary* connected plans with the classic
dual-decomposition construction over the edge cut of
:func:`repro.mrf.partition.cut_parts`:

* the plan's nodes are split into balanced blocks and every cut edge
  drags a **ghost copy** of its far endpoint into the owning shard, the
  home unary split evenly across the copies — so shard energies sum
  exactly to the global energy on any labelling where all copies agree;
* each copy ``c`` of a duplicated node carries a Lagrange multiplier
  vector ``λ_c`` added to its (split) unary.  The multipliers always sum
  to zero across a node's copies, so for **any** such λ the sum of the
  shard minima is a valid lower bound on the global optimum — each shard
  solve is certified by its own TRW-S dual (forest shards by the exact
  min-sum DP), and the certificates add;
* a projected-subgradient outer loop solves every shard once per round
  (serially, in shard order), stitches the home labels into a primal
  candidate (polished by plan-level ICM), and moves the multipliers of
  disagreeing copies toward consensus with a Polyak step —
  ``λ_c += α·(onehot(x_c) − mean-onehot)``, which preserves the zero-sum
  invariant and vanishes exactly at consensus.

The loop terminates on copy consensus, on a relative duality gap below
``gap_tolerance`` (the gap between the best primal energy and the best
certified bound — the quantity :attr:`DualSolveResult.duality_gap`
reports), or after ``max_rounds``.  Because the bound is certified every
round, the final result is *self-validating*: ``energy − lower_bound``
brackets how far from optimal the returned labelling can possibly be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.mrf.graph import PairwiseMRF
from repro.mrf.partition import CutPartition, CutShard, cut_parts
from repro.mrf.sharded import _solve_plan, solve_plan
from repro.mrf.solvers import SolverResult
from repro.mrf.trws import TRWSSolver, is_forest_plan
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["DualSolveResult", "DualDecompositionSolver"]


@dataclass
class DualSolveResult(SolverResult):
    """A :class:`~repro.mrf.solvers.SolverResult` plus the dual-loop story.

    Attributes:
        rounds: outer subgradient rounds executed (0 = monolithic
            fallback, e.g. a plan with no cut edges).
        duality_gap: ``energy − lower_bound`` of the returned labelling
            vs the best certified dual bound — the optimality bracket.
        consensus: True when every boundary copy agreed in some round
            (the decomposition reached a globally consistent labelling
            on its own, without the gap tolerance).
        parts: shard count of the cut partition actually used.
        cut_edge_count: edges crossing the cut (0 = fallback path).
    """

    rounds: int = 0
    duality_gap: float = float("inf")
    consensus: bool = False
    parts: int = 1
    cut_edge_count: int = 0


class DualDecompositionSolver:
    """TRW-S over a balanced edge cut, coupled by Lagrange multipliers.

    Registered as ``"trws-dual"``.  The construction requires certified
    per-shard lower bounds, so the base solver is fixed to TRW-S (forest
    shards dispatch to the exact min-sum DP every round — their subproblem
    bound is the subproblem optimum).

    Args:
        parts: target shard count for the balanced edge cut (clamped to
            the node count; 1 falls back to the monolithic solver).
        max_rounds: outer subgradient round budget.
        gap_tolerance: stop when ``(best energy − best bound)`` falls to
            this fraction of ``max(1, |best energy|)``.
        step_scale: multiplier on the Polyak step
            ``(best energy − dual value) / ‖subgradient‖²``.
        seed: base tie-breaking seed; shard ``i`` solves with ``seed + i``.
        **solver_options: forwarded to every per-shard
            :class:`~repro.mrf.trws.TRWSSolver` (checked here, so an
            unknown option fails at construction).

    Results are deterministic: shard seeds derive from shard identity and
    multiplier updates read the round's full labelling.
    """

    name = "trws-dual"

    def __init__(
        self,
        parts: int = 4,
        max_rounds: int = 40,
        gap_tolerance: float = 1e-6,
        step_scale: float = 1.0,
        seed: Optional[int] = None,
        solver: str = "trws",
        **solver_options: Any,
    ) -> None:
        if solver != "trws":
            raise ValueError(
                "dual decomposition requires certified shard bounds; "
                f"only solver='trws' is supported, got {solver!r}"
            )
        if parts < 1:
            raise ValueError("parts must be >= 1")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if gap_tolerance < 0:
            raise ValueError("gap_tolerance must be >= 0")
        self.parts = int(parts)
        self.max_rounds = int(max_rounds)
        self.gap_tolerance = float(gap_tolerance)
        self.step_scale = float(step_scale)
        self.seed = 0 if seed is None else int(seed)
        self.solver_options = dict(solver_options)
        # The outer loop is driven by certified shard bounds; without them
        # the dual value is -inf and no step size exists — so the bound
        # pass is mandatory here even where callers (e.g. the scalability
        # sweeps) disable it for plain timing runs.
        self.solver_options["compute_bound"] = True
        TRWSSolver(**self.solver_options)

    # ----------------------------------------------------------------- API

    def solve(self, mrf: PairwiseMRF) -> DualSolveResult:
        """Cut + solve a :class:`PairwiseMRF` (registry protocol)."""
        if mrf.node_count == 0:
            return DualSolveResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name, duality_gap=0.0,
                consensus=True, parts=0,
            )
        return self.solve_arrays(MRFArrays(mrf))

    def solve_arrays(
        self,
        plan: MRFArrays,
        partition: Optional[CutPartition] = None,
    ) -> DualSolveResult:
        """Solve a prebuilt plan by dual decomposition.

        Pass a prebuilt ``partition`` (from
        :func:`~repro.mrf.partition.cut_parts`) to pin the cut — e.g. a
        caller-chosen block assignment; it must partition exactly this
        plan.  Without one, a balanced BFS cut into :attr:`parts` blocks
        is derived from the plan's own arrays.
        """
        if plan.node_count == 0:
            return DualSolveResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name, duality_gap=0.0,
                consensus=True, parts=0,
            )
        if partition is None:
            partition = cut_parts(
                plan.unary_vectors(),
                plan.edge_first,
                plan.edge_second,
                plan.edge_cid,
                plan.matrix_stack(),
                lmax=plan.lmax,
                parts=self.parts,
            )
        if len(partition) <= 1 or len(partition.cut_edges) == 0:
            return self._monolithic(plan, partition)
        with obs.span(
            "dual.solve", cat="dual",
            parts=len(partition), cut_edges=len(partition.cut_edges),
        ):
            return self._iterate(plan, partition)

    # ------------------------------------------------------- fallback path

    def _monolithic(
        self, plan: MRFArrays, partition: CutPartition
    ) -> DualSolveResult:
        """No usable cut — run the standard monolithic dispatch."""
        result = solve_plan(
            plan, solver="trws", seed=self.seed, **self.solver_options
        )
        return DualSolveResult(
            labels=result.labels,
            energy=result.energy,
            lower_bound=result.lower_bound,
            iterations=result.iterations,
            converged=result.converged,
            solver=self.name,
            energy_trace=result.energy_trace,
            bound_trace=result.bound_trace,
            rounds=0,
            duality_gap=result.optimality_gap,
            consensus=True,
            parts=max(1, len(partition)),
            cut_edge_count=0,
        )

    # ------------------------------------------------------ the outer loop

    def _iterate(
        self, plan: MRFArrays, partition: CutPartition
    ) -> DualSolveResult:
        shards = partition.shards
        # Forest shards re-solve exactly (min-sum DP) every round; loopy
        # shards keep one persistent warm message array across rounds.
        messages: List[Optional[np.ndarray]] = [
            None
            if is_forest_plan(shard.plan)
            else np.zeros((2 * len(shard.edges), plan.lmax))
            for shard in shards
        ]

        # Multiplier state: per boundary node, base split unary (what the
        # shard plans were built with) and a zero-sum (copies, labels)
        # multiplier block.
        unary_vectors = plan.unary_vectors()
        base: Dict[int, np.ndarray] = {}
        lam: Dict[int, np.ndarray] = {}
        for entry in partition.boundary:
            base[entry.node] = np.asarray(
                unary_vectors[entry.node], dtype=float
            ) / len(entry.copies)
            lam[entry.node] = np.zeros((len(entry.copies), entry.labels))

        best_labels: Optional[np.ndarray] = None
        best_energy = float("inf")
        best_bound = float("-inf")
        energy_trace: List[float] = []
        bound_trace: List[float] = []
        iterations = 0
        consensus = False
        converged = False
        rounds = 0

        scratch = SolverScratch()
        updates = self._boundary_updates(partition, base, lam)
        for rounds in range(1, self.max_rounds + 1):
            with obs.span("dual.round", cat="dual", round=rounds):
                solved = [
                    self._solve_shard(shard, updates[i], messages[i], scratch)
                    for i, shard in enumerate(shards)
                ]
            labels_by_shard = [
                np.asarray(r.labels, dtype=np.int64) for r in solved
            ]
            dual_value = float(sum(r.lower_bound for r in solved))
            iterations += int(sum(r.iterations for r in solved))
            best_bound = max(best_bound, dual_value)

            stitched = partition.stitch(labels_by_shard)
            polished = plan.icm(stitched, scratch=scratch)
            energy = plan.energy(polished)
            if energy < best_energy:
                best_energy = energy
                best_labels = polished
            energy_trace.append(best_energy)
            bound_trace.append(dual_value)

            if not partition.disagreements(labels_by_shard):
                consensus = True
                converged = True
                break
            gap = best_energy - best_bound
            if gap <= self.gap_tolerance * max(1.0, abs(best_energy)):
                converged = True
                break
            if rounds == self.max_rounds:
                break
            self._subgradient_step(
                partition, lam, labels_by_shard, best_energy, dual_value
            )
            updates = self._boundary_updates(partition, base, lam)

        assert best_labels is not None
        return DualSolveResult(
            labels=[int(x) for x in best_labels],
            energy=best_energy,
            lower_bound=best_bound,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
            bound_trace=bound_trace,
            rounds=rounds,
            duality_gap=best_energy - best_bound,
            consensus=consensus,
            parts=len(partition),
            cut_edge_count=len(partition.cut_edges),
        )

    # ------------------------------------------------- multiplier algebra

    def _boundary_updates(
        self,
        partition: CutPartition,
        base: Dict[int, np.ndarray],
        lam: Dict[int, np.ndarray],
    ) -> List[Dict[int, np.ndarray]]:
        """Effective boundary unaries per shard: ``base/k + λ_copy``."""
        updates: List[Dict[int, np.ndarray]] = [
            {} for _ in range(len(partition))
        ]
        for entry in partition.boundary:
            block = lam[entry.node]
            for c, (s, i) in enumerate(entry.copies):
                updates[s][i] = base[entry.node] + block[c]
        return updates

    def _subgradient_step(
        self,
        partition: CutPartition,
        lam: Dict[int, np.ndarray],
        labels_by_shard: Sequence[np.ndarray],
        best_energy: float,
        dual_value: float,
    ) -> None:
        """One projected-subgradient move with a Polyak step size.

        The subgradient at a boundary node is, per copy,
        ``onehot(x_copy) − mean-onehot`` — it sums to zero over the
        copies (the projection onto the zero-sum multiplier space is
        built in) and vanishes exactly where copies agree, so agreeing
        nodes are left untouched.
        """
        grads: List[Tuple[int, np.ndarray]] = []
        norm2 = 0.0
        for entry in partition.boundary:
            k = len(entry.copies)
            onehots = np.zeros((k, entry.labels))
            for c, (s, i) in enumerate(entry.copies):
                onehots[c, int(labels_by_shard[s][i])] = 1.0
            grad = onehots - onehots.mean(axis=0)
            if np.any(grad):
                grads.append((entry.node, grad))
                norm2 += float((grad * grad).sum())
        if norm2 <= 0.0 or not np.isfinite(dual_value):
            return
        step = self.step_scale * max(best_energy - dual_value, 1e-12) / norm2
        for node, grad in grads:
            lam[node] += step * grad

    # ---------------------------------------------------------- shard solve

    def _solve_shard(
        self,
        shard: CutShard,
        boundary: Dict[int, np.ndarray],
        messages: Optional[np.ndarray],
        scratch: SolverScratch,
    ) -> SolverResult:
        """Patch one shard's boundary unaries and re-solve it.

        The shard plan is built once per solve; only its boundary unaries
        change between rounds.  Loopy shards warm-start from ``messages``
        (updated in place), forest shards re-solve exactly.
        """
        for local, vector in boundary.items():
            shard.plan.set_unary(int(local), vector)
        return _solve_plan(
            shard.plan,
            "trws",
            self.solver_options,
            self.seed + shard.index,
            messages,
            False,
            scratch=scratch,
        )
