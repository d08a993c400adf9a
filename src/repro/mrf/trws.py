"""Sequential tree-reweighted message passing (TRW-S), vectorized.

This is the optimiser the paper uses for MAP inference on its diversification
MRF (Section V-C), following Kolmogorov's sequential TRW scheme:

* nodes are processed in a fixed order; each full iteration is a forward
  sweep (messages to later neighbours) and a backward sweep (messages to
  earlier neighbours),
* node ``i`` averages its reparametrised unary with weight
  ``γ_i = 1 / max(|earlier neighbours|, |later neighbours|)``, the
  monotonic-chain decomposition weight,
* a labelling is extracted during every forward sweep with Kolmogorov's
  sequential-conditioning rule, and the best labelling seen is returned,
* a valid dual **lower bound** is computed from the current
  reparametrisation after every backward sweep:
  ``Σ_i min θ'_i + Σ_ij min θ'_ij`` where θ' is the message-reparametrised
  energy (which preserves E exactly, so the bound is always ≤ the optimum).

The solver certifies global optimality whenever ``energy == lower_bound``
(common on the tree-like and weakly-coupled instances of the case study,
matching the paper's "guaranteed to give an optimal MAP solution in most
cases").

Implementation: the sweeps run on the CSR-style array plan of
:class:`~repro.mrf.vectorized.MRFArrays`.  Sequential node order is
preserved through the plan's wavefront levels — nodes whose lower-numbered
dependencies are all satisfied form one level and are updated in a single
block operation, which computes the updates of the node-by-node schedule
(nodes in a level are never adjacent; belief sums accumulate in a
different order, so agreement is to floating-point round-off, not
bit-for-bit).  Each sweep is one call into the kernel backend
(:mod:`repro.mrf.backends`), which walks every level itself.  The
per-node loop implementation this replaces is kept as
:class:`~repro.mrf.reference.ReferenceTRWSSolver` (``"trws-ref"``); the two
return the same energies and bounds, the vectorized one an order of
magnitude faster (see ``benchmarks/bench_vectorized_speedup.py``).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.mrf.backends import KernelBackend, resolve_backend
from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolverResult, SolveStats
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["TRWSSolver"]


class TRWSSolver:
    """TRW-S MAP solver for :class:`~repro.mrf.graph.PairwiseMRF`.

    Args:
        max_iterations: forward+backward sweep budget.
        tolerance: convergence threshold on the lower-bound improvement and
            on the primal-dual gap.
        compute_bound: disable to skip the per-iteration dual bound (saves
            one O(E·L²) pass per iteration on large scalability runs).
        refine: polish the best extracted labelling with ICM coordinate
            descent before returning.  On flat-unary instances the message
            fixed point can be fully symmetric (the LP relaxation is
            fractional), where one extraction pass leaves easy single-node
            improvements on the table; the standard remedy is an ICM
            post-pass (cf. OpenGM's TRWS+ICM pipeline).
        backend: kernel backend running the sweep primitives — a
            :class:`~repro.mrf.backends.KernelBackend`, a registry name
            (``"numpy"`` / ``"native"``), ``"auto"`` or ``None`` (consult
            ``REPRO_BACKEND``, then auto-detect).  Backends are
            bit-for-bit identical, so this only changes speed; see
            ``docs/kernels.md``.
        tie_break_noise: scale of the random unary perturbation used to
            break label-symmetry.  The diversification problem has flat
            unaries (``Pr_const``) and cost matrices whose columns all
            contain zeros, making the all-zero message state a degenerate
            fixed point; an ε-perturbation far below any real cost
            difference restores informative messages.  Energies and
            labellings are always evaluated against the *original* costs;
            the dual bound is corrected by the total perturbation so it
            remains a valid bound for the original problem.
        seed: seeds the tie-breaking perturbation (deterministic default).
    """

    name = "trws"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-9,
        compute_bound: bool = True,
        refine: bool = True,
        backend: Union[KernelBackend, str, None] = None,
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
        self.backend = backend
        self.tie_break_noise = tie_break_noise
        self.seed = seed if seed is not None else 0

    # ----------------------------------------------------------------- API

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run TRW-S and return the best labelling found plus the dual bound.

        Forests are dispatched to an exact min-sum dynamic program (TRW-S is
        exact on trees; the DP realises that guarantee directly and returns
        a tight bound).  Loopy graphs run the iterative message passing.
        """
        n = mrf.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        if _is_forest(mrf):
            labels = _solve_forest(mrf)
            energy = mrf.energy(labels)
            return SolverResult(
                labels=labels, energy=energy, lower_bound=energy,
                iterations=1, converged=True, solver=self.name,
                energy_trace=[energy], bound_trace=[energy],
            )

        plan = MRFArrays(mrf)
        extra_inits = ()
        if self.refine:  # the greedy labelling only feeds the refine stage
            extra_inits = (plan.greedy_labels(),)
        return self.solve_arrays(plan, extra_inits=extra_inits)

    def solve_arrays(
        self,
        plan: MRFArrays,
        messages: Optional[np.ndarray] = None,
        extra_inits: Sequence[np.ndarray] = (),
        default_inits: bool = True,
        scratch: Optional[SolverScratch] = None,
        backend: Union[KernelBackend, str, None] = None,
    ) -> SolverResult:
        """Run TRW-S on a prebuilt array plan, optionally warm-started.

        Args:
            plan: the array plan (built once, reusable across solves).
            messages: a caller-owned ``(2·edges, lmax)`` directed message
                array to start from — the warm-start hook of the streaming
                engine.  Zeros are the cold start; the array is updated **in
                place**, so after the call it holds the new fixed-point
                state for the next warm start.  ``None`` allocates a fresh
                cold-start array.
            extra_inits: additional primal labellings handed to the ICM
                refine stage (e.g. the previous solution of an incremental
                re-solve, or a greedy construction).
            default_inits: include the unary-argmin labelling among the
                refine candidates (the cold default).  Warm re-solves with
                a near-optimal ``extra_inits`` turn it off — the constant
                init never beats the previous optimum there and costs an
                ICM run per solve.
            scratch: a reusable :class:`SolverScratch` holding the sweep
                work buffers.  Steady-state callers (streaming re-solves,
                per-shard workers, grid sweeps) pass one in so repeated
                solves allocate nothing; ``None`` keeps a private scratch
                for this call (still allocation-free *across iterations*).
            backend: kernel backend for this solve; overrides the
                constructor's choice (same accepted values).  All
                backends are bit-for-bit identical.

        Beliefs are reconstructed from the messages (``θ_i + Σ M_{j→i}``
        plus the tie-breaking perturbation), preserving the TRW-S belief
        invariant, and any message state yields a valid dual bound — so a
        warm start can only save iterations, never corrupt the result.

        While tracing is enabled (:func:`repro.obs.enabled`) the solve
        records a ``trws.solve`` span with nested per-iteration events and
        attaches a :class:`~repro.mrf.solvers.SolveStats` to the result;
        disabled, this wrapper costs one branch per solve.
        """
        kernels = resolve_backend(
            backend if backend is not None else self.backend
        )
        if not obs.enabled():
            return self._solve_arrays(
                plan, messages, extra_inits, default_inits, scratch, kernels,
                None,
            )
        stats = SolveStats(backend=kernels.describe())
        start = time.perf_counter()
        with obs.span(
            "trws.solve", cat="solve",
            nodes=plan.node_count, edges=plan.edge_count,
        ) as solve_span:
            result = self._solve_arrays(
                plan, messages, extra_inits, default_inits, scratch, kernels,
                stats,
            )
            stats.total_seconds = time.perf_counter() - start
            result.stats = stats
            solve_span.add(
                backend=stats.backend,
                iterations=result.iterations,
                energy=result.energy,
                bound=result.lower_bound,
                converged=result.converged,
            )
        return result

    def _solve_arrays(
        self,
        plan: MRFArrays,
        messages: Optional[np.ndarray],
        extra_inits: Sequence[np.ndarray],
        default_inits: bool,
        scratch: Optional[SolverScratch],
        kernels: KernelBackend,
        stats: Optional[SolveStats],
    ) -> SolverResult:
        """The sweep loop behind :meth:`solve_arrays`; ``stats`` collects
        per-phase telemetry when tracing is on (``None`` disables it)."""
        collect = stats is not None
        setup_start = time.perf_counter() if collect else 0.0
        n = plan.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name, stats=stats,
            )
        scratch = scratch if scratch is not None else SolverScratch()
        if messages is None:
            messages = scratch.zeros(
                "trws_messages", (2 * plan.edge_count, plan.lmax)
            )
        beliefs = scratch.array("trws_beliefs", (n, plan.lmax))
        np.copyto(beliefs, plan.unary_inf)
        if plan.edge_count:
            np.add.at(beliefs, plan.slot_receiver, messages)
        bound_slack = 0.0
        if self.tie_break_noise > 0:
            # One batched draw yields the same value stream as the
            # reference solver's per-node draws (uniform doubles consume
            # one 64-bit word each, in order), so both perturb identically
            # and their traces stay comparable.
            rng = np.random.default_rng(self.seed)
            total = int(plan.label_counts.sum())
            flat = rng.uniform(0.0, self.tie_break_noise, total)
            beliefs[plan.mask] += flat
            starts = np.concatenate(
                ([0], np.cumsum(plan.label_counts[:-1]))
            )
            bound_slack = float(np.maximum.reduceat(flat, starts).sum())

        best_labels: Optional[np.ndarray] = None
        best_energy = float("inf")
        lower_bound = float("-inf")
        energy_trace: List[float] = []
        bound_trace: List[float] = []
        converged = False
        iterations = 0
        trace = obs.current_trace() if collect else None
        fwd_seconds = bwd_seconds = None
        if collect:
            stats.setup_seconds = time.perf_counter() - setup_start
            fwd_seconds = np.zeros(plan.fwd_sweep.count)
            bwd_seconds = np.zeros(plan.bwd_sweep.count)

        stalled = 0
        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            previous_energy = best_energy
            if collect:
                iter_wall_ns = time.time_ns()
                iter_start = mark = time.perf_counter()
            # Forward sweep: per level, label by sequential conditioning
            # (θ_i + Σ_{j<i} θ_ij(x_j, ·) + Σ_{j>i} M_{j→i}), then send to
            # later neighbours.  One backend call walks every level.
            labels = np.zeros(n, dtype=np.int64)
            executed = kernels.forward_sweep(
                plan, messages, beliefs, labels, scratch, fwd_seconds
            )
            if collect:
                stats.backend = executed.describe()
                now = time.perf_counter()
                stats.forward_seconds += now - mark
                mark = now
            energy = plan.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            if collect:
                now = time.perf_counter()
                stats.energy_seconds += now - mark
                mark = now
            kernels.backward_sweep(
                plan, messages, beliefs, scratch, bwd_seconds
            )
            if collect:
                now = time.perf_counter()
                stats.backward_seconds += now - mark
                mark = now

            previous_bound = lower_bound
            if self.compute_bound:
                # The bound holds for the perturbed problem; subtracting the
                # total perturbation makes it valid for the original one.
                lower_bound = max(
                    lower_bound,
                    plan.dual_bound(
                        messages, beliefs, scratch=scratch, backend=kernels
                    )
                    - bound_slack,
                )
            energy_trace.append(best_energy)
            bound_trace.append(lower_bound)
            if collect:
                now = time.perf_counter()
                stats.bound_seconds += now - mark
                stats.iteration_seconds.append(now - iter_start)
                trace.record(
                    "trws.iteration", "solve",
                    ts=iter_wall_ns / 1000.0,
                    dur=(now - iter_start) * 1e6,
                    args={
                        "i": iteration,
                        "energy": best_energy,
                        "bound": lower_bound,
                    },
                )

            if self.compute_bound and np.isfinite(lower_bound):
                if best_energy - lower_bound <= self.tolerance:
                    converged = True
                    break
                # Converged when neither the dual bound nor the primal has
                # moved for a few consecutive iterations (the bound alone can
                # plateau while the labelling still improves).  The stall
                # threshold absorbs the tie-breaking perturbation's jitter.
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
        if collect:
            stats.fwd_level_seconds = fwd_seconds.tolist()
            stats.bwd_level_seconds = bwd_seconds.tolist()
            refine_start = time.perf_counter()
        if self.refine:
            # Polish several primal starting points and keep the best: the
            # message-passing extraction, the unary argmin, and the caller's
            # extra inits — solve() passes a degree-ordered sequential
            # greedy (which dominates greedy colouring baselines by
            # construction), warm-started re-solves pass the previous
            # solution.  On instances where the LP relaxation is
            # uninformative the extraction basin can be mediocre; the extra
            # inits cost a few cheap ICM sweeps.
            candidates = [best_labels]
            if default_inits:
                candidates.append(np.argmin(plan.unary_inf, axis=1))
            candidates.extend(extra_inits)
            # Dedupe: a warm re-solve's extraction frequently equals the
            # previous solution it was seeded with; one ICM run suffices.
            distinct: List[np.ndarray] = []
            for candidate in candidates:
                if not any(np.array_equal(candidate, kept) for kept in distinct):
                    distinct.append(candidate)
            for candidate in distinct:
                polished = plan.icm(candidate, scratch=scratch, backend=kernels)
                polished_energy = plan.energy(polished)
                if polished_energy < best_energy:
                    best_labels = polished
                    best_energy = polished_energy
            if self.compute_bound and best_energy - lower_bound <= self.tolerance:
                converged = True
        if collect:
            stats.refine_seconds = time.perf_counter() - refine_start
        return SolverResult(
            labels=[int(x) for x in best_labels],
            energy=best_energy,
            lower_bound=lower_bound,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
            bound_trace=bound_trace,
            stats=stats,
        )


def _is_forest(mrf: PairwiseMRF) -> bool:
    """True when the MRF graph contains no cycle (per-component check)."""
    components = mrf.connected_components()
    node_component = {}
    for index, component in enumerate(components):
        for node in component:
            node_component[node] = index
    edge_counts = [0] * len(components)
    for edge_id in range(mrf.edge_count):
        i, _ = mrf.edge(edge_id)
        edge_counts[node_component[i]] += 1
    return all(
        edge_counts[index] == len(component) - 1
        for index, component in enumerate(components)
    )


def _solve_forest(mrf: PairwiseMRF) -> List[int]:
    """Exact min-sum dynamic programming on a forest.

    Each component is rooted at its smallest node; messages flow leaves →
    root carrying min-marginals, then an argmin backtrack assigns labels.
    """
    labels = [-1] * mrf.node_count
    visited = [False] * mrf.node_count
    for root in range(mrf.node_count):
        if visited[root]:
            continue
        # Build a DFS order of the component rooted at `root`.
        order: List[Tuple[int, int]] = []  # (node, parent)
        stack = [(root, -1)]
        visited[root] = True
        while stack:
            node, parent = stack.pop()
            order.append((node, parent))
            for neighbor, _ in mrf.neighbors(node):
                if not visited[neighbor]:
                    visited[neighbor] = True
                    stack.append((neighbor, node))

        # Upward sweep (children before parents = reversed DFS order).
        upward: dict = {}   # node -> message vector added to its parent
        choice: dict = {}   # node -> argmin table over parent labels
        accumulated = {node: mrf.unary(node).copy() for node, _ in order}
        for node, parent in reversed(order):
            if parent < 0:
                continue
            edge_id = mrf.edge_id(parent, node)
            first, _second = mrf.edge(edge_id)
            cost = mrf.edge_cost(edge_id)
            oriented = cost if first == parent else cost.T  # rows = parent
            totals = oriented + accumulated[node][None, :]
            choice[node] = np.argmin(totals, axis=1)
            upward[node] = totals.min(axis=1)
            accumulated[parent] += upward[node]

        # Downward argmin backtrack.
        labels[root] = int(np.argmin(accumulated[root]))
        for node, parent in order:
            if parent >= 0:
                labels[node] = int(choice[node][labels[parent]])
    return labels


# The degree-descending greedy init lives on the plan now
# (:meth:`MRFArrays.greedy_labels`) so the monolithic solve, the sharded
# solver and the streaming engine all share one implementation.
