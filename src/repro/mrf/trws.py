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
* after every backward sweep the **lower bound** TRW-S maximises is
  computed from the messages and the original costs: the energy is split
  over monotonic chains (node ``i`` lies on ``1 / γ_i`` of them and gives
  each ``γ_i·θ'_i``; each edge lies on one and gives it ``θ'_ij``, where
  θ' is the message-reparametrised energy, which preserves E exactly), and
  the chains' minima, one min-sum pass each, add up to a bound that is
  always ≤ the optimum (:meth:`~repro.mrf.vectorized.MRFArrays.dual_bound`).

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.mrf.backends import KernelBackend, resolve_backend
from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolverResult, SolveStats
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["TRWSSolver", "is_forest_plan", "solve_forest_plan"]


class TRWSSolver:
    """TRW-S MAP solver for :class:`~repro.mrf.graph.PairwiseMRF`.

    Args:
        max_iterations: forward+backward sweep budget.
        tolerance: convergence threshold on the lower-bound improvement and
            on the primal-dual gap.
        compute_bound: disable to skip the per-iteration lower bound (saves
            one O(E·L²) pass per iteration on large scalability runs).
        refine: polish the best extracted labelling with ICM coordinate
            descent before returning.  On flat-unary instances the message
            fixed point can be fully symmetric (the LP relaxation is
            fractional), where one extraction pass leaves easy single-node
            improvements on the table; the standard remedy is an ICM
            post-pass (cf. OpenGM's TRWS+ICM pipeline).  Several starting
            labellings are polished and the best one is kept *per
            connected component* — components share no edges, so the
            stitched pick is never worse than any single candidate.
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
            difference restores informative messages.  The perturbation
            only steers the messages: energies, labellings and the lower
            bound are always evaluated against the *original* costs, so
            the bound stays valid for the original problem.
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
        """Run TRW-S and return the best labelling found plus its lower bound.

        The MRF is converted to its array plan and cold-solved by
        :meth:`solve_plan`.
        """
        if mrf.node_count == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        return self.solve_plan(MRFArrays(mrf))

    def solve_plan(
        self, plan: MRFArrays, scratch: Optional[SolverScratch] = None
    ) -> SolverResult:
        """Cold-solve one array plan: the dispatch of every whole-plan solve.

        Forests are dispatched to an exact min-sum dynamic program
        (:func:`solve_forest_plan`: TRW-S is exact on trees; the DP
        realises that guarantee directly and returns a tight bound).
        Loopy plans run the iterative message passing, with the
        degree-descending greedy labelling among the refine inits.
        ``scratch`` is passed on as in :meth:`solve_arrays`.
        """
        if is_forest_plan(plan):
            return solve_forest_plan(plan)
        extra_inits = ()
        if self.refine:  # the greedy labelling only feeds the refine stage
            extra_inits = (
                plan.greedy_labels(scratch=scratch, backend=self.backend),
            )
        return self.solve_arrays(plan, extra_inits=extra_inits, scratch=scratch)

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
                re-solve, or a greedy construction).  The result's
                ``polished_inits`` hands back each one's ICM polish.
            default_inits: include the unary-argmin labelling among the
                refine candidates (the cold default).  Warm re-solves with
                a near-optimal ``extra_inits`` turn it off — the constant
                init never beats the previous optimum there and costs an
                ICM run per solve.
            scratch: a reusable :class:`SolverScratch` holding the sweep
                work buffers.  Steady-state callers (streaming re-solves,
                grid sweeps) pass one in so repeated
                solves allocate nothing; ``None`` keeps a private scratch
                for this call (still allocation-free *across iterations*).
            backend: kernel backend for this solve; overrides the
                constructor's choice (same accepted values).  All
                backends are bit-for-bit identical.

        Beliefs are reconstructed from the messages (``θ_i + Σ M_{j→i}``
        plus the tie-breaking perturbation), preserving the TRW-S belief
        invariant, and any message state yields a valid lower bound — so a
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
        # Starting beliefs: unary + every incoming message, added in slot
        # order (the beliefs kernel computes exactly that).
        beliefs = scratch.array("trws_beliefs", (n, plan.lmax))
        kernels.bp_beliefs(plan, messages, beliefs)
        if self.tie_break_noise > 0:
            # One batched draw yields the same value stream as the
            # reference solver's per-node draws (uniform doubles consume
            # one 64-bit word each, in order), so both perturb identically
            # and their traces stay comparable.
            rng = np.random.default_rng(self.seed)
            total = int(plan.label_counts.sum())
            beliefs[plan.mask] += rng.uniform(0.0, self.tie_break_noise, total)

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
            fwd_seconds = np.zeros(plan.adjacency.forward_levels)
            bwd_seconds = np.zeros(plan.adjacency.backward_levels)

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
                lower_bound = max(
                    lower_bound,
                    plan.dual_bound(messages, scratch=scratch, backend=kernels),
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
                # Converged when neither the lower bound nor the primal has
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
        polished_inits: List[np.ndarray] = []
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
            # ``slots`` maps each candidate to its distinct copy.
            distinct: List[np.ndarray] = []
            slots: List[int] = []
            for candidate in candidates:
                for slot, kept in enumerate(distinct):
                    if np.array_equal(candidate, kept):
                        break
                else:
                    slot = len(distinct)
                    distinct.append(candidate)
                slots.append(slot)
            # Components share no edges, so the best candidate is picked
            # per connected component (strict <, in candidate order); on
            # a one-component plan this is the plain best-of-candidates.
            best_parts = plan.component_energies(best_labels)
            picked = False
            # Only the extra inits' polishes are handed back; keep no other.
            init_slots = slots[len(candidates) - len(extra_inits):]
            polishes: Dict[int, np.ndarray] = {}
            for slot, candidate in enumerate(distinct):
                polished = plan.icm(candidate, scratch=scratch, backend=kernels)
                if slot in init_slots:
                    polishes[slot] = polished
                energies = plan.component_energies(polished)
                better = energies < best_parts
                if better.any():
                    best_labels = np.where(
                        better[plan.components], polished, best_labels
                    )
                    best_parts = np.where(better, energies, best_parts)
                    picked = True
            polished_inits = [polishes[slot] for slot in init_slots]
            if picked:
                best_energy = plan.energy(best_labels)
            if self.compute_bound and best_energy - lower_bound <= self.tolerance:
                converged = True
        if collect:
            stats.refine_seconds = time.perf_counter() - refine_start
        return SolverResult(
            labels=best_labels.tolist(),
            energy=best_energy,
            lower_bound=lower_bound,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
            bound_trace=bound_trace,
            stats=stats,
            polished_inits=polished_inits,
        )


def is_forest_plan(plan: MRFArrays) -> bool:
    """True when the plan's graph is cycle-free.

    A graph is a forest iff ``edges == nodes - components`` (every edge
    joins two previously-unconnected nodes); the component count is the
    plan's cached labelling.
    """
    return plan.edge_count == plan.node_count - plan.component_count


def solve_forest_plan(plan: MRFArrays) -> SolverResult:
    """Solve a forest plan exactly; the result's bound equals its energy.

    While tracing is enabled the DP records a ``trws.forest`` span and
    the result carries a :class:`~repro.mrf.solvers.SolveStats`, like an
    iterative solve.
    """
    collect = obs.enabled()
    start = time.perf_counter() if collect else 0.0
    with obs.span("trws.forest", cat="solve", nodes=plan.node_count):
        labels = _solve_forest_arrays(plan)
        energy = plan.energy(labels)
    stats = (
        SolveStats(total_seconds=time.perf_counter() - start)
        if collect
        else None
    )
    return SolverResult(
        labels=labels.tolist(),
        energy=energy,
        lower_bound=energy,
        iterations=1,
        converged=True,
        solver=TRWSSolver.name,
        energy_trace=[energy],
        bound_trace=[energy],
        stats=stats,
    )


def _solve_forest_arrays(plan: MRFArrays) -> np.ndarray:
    """Exact min-sum dynamic programming on a forest plan.

    Each component is rooted at its smallest node, min-marginal messages
    flow leaves → root, and an argmin backtrack assigns labels.  The
    ``+inf`` padding convention keeps every reduction exact (padded
    labels never win an argmin).
    """
    n = plan.node_count
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for e in range(plan.edge_count):
        i = int(plan.edge_first[e])
        j = int(plan.edge_second[e])
        cid = int(plan.edge_cid[e])
        adjacency[i].append((j, cid))                 # rows = i's labels
        adjacency[j].append((i, plan.stacked + cid))  # rows = j's labels
    labels = np.zeros(n, dtype=np.int64)
    visited = [False] * n
    for root in range(n):
        if visited[root]:
            continue
        order: List[Tuple[int, int, int]] = []  # (node, parent, cid rows=parent)
        stack = [(root, -1, -1)]
        visited[root] = True
        while stack:
            node, up_parent, up_cid = stack.pop()
            order.append((node, up_parent, up_cid))
            for neighbor, cid in adjacency[node]:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    # cid rows = node's labels; the parent→child orientation.
                    stack.append((neighbor, node, cid))
        accumulated = {node: plan.unary_inf[node].copy() for node, _p, _c in order}
        choice: Dict[int, np.ndarray] = {}
        for node, up_parent, up_cid in reversed(order):
            if up_parent < 0:
                continue
            totals = plan.cost[up_cid] + accumulated[node][None, :]
            choice[node] = np.argmin(totals, axis=1)
            accumulated[up_parent] += totals.min(axis=1)
        labels[root] = int(np.argmin(accumulated[root]))
        for node, up_parent, _up_cid in order:
            if up_parent >= 0:
                labels[node] = int(choice[node][labels[up_parent]])
    return labels

