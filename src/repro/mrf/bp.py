"""Loopy min-sum belief propagation, vectorized.

The paper discusses BP as the standard alternative to graph cuts for its
energy form, and adopts TRW-S because BP "might not converge" on many
instances (Section V-C).  We implement damped synchronous min-sum BP both as
a comparison baseline and so the reproduction can demonstrate that claim
empirically (see ``benchmarks/bench_ablation_solvers.py``).

Synchronous BP vectorizes perfectly: every directed message depends only on
the previous round, so one round is a single block operation over all
``2·edges`` slots of the :class:`~repro.mrf.vectorized.MRFArrays` plan.
Only the sequential-conditioning decode is order-dependent, and it runs on
the plan's wavefront levels.  The per-edge loop implementation this
replaces is kept as :class:`~repro.mrf.reference.ReferenceBPSolver`
(``"bp-ref"``); both compute identical message updates.
"""

from __future__ import annotations

import time
from typing import List, Optional, Union

import numpy as np

from repro import obs
from repro.mrf.backends import KernelBackend, resolve_backend
from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolverResult, SolveStats
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["LoopyBPSolver"]


class LoopyBPSolver:
    """Damped synchronous min-sum loopy BP.

    Args:
        max_iterations: synchronous update rounds.
        tolerance: convergence threshold on the max message change.
        damping: convex mixing factor of old/new messages in [0, 1);
            0 is undamped BP, values around 0.5 stabilise loopy graphs.
        backend: kernel backend running the round/decode primitives — a
            :class:`~repro.mrf.backends.KernelBackend`, a registry name
            (``"numpy"`` / ``"native"``), ``"auto"`` or ``None`` (consult
            ``REPRO_BACKEND``, then auto-detect).  Backends are
            bit-for-bit identical; see ``docs/kernels.md``.
        seed: stored but unused by the (deterministic) updates — kept so
            the uniform constructor signature survives the per-shard
            reseeding of :class:`~repro.mrf.sharded.ShardedSolver`.
    """

    name = "bp"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        damping: float = 0.5,
        backend: Union[KernelBackend, str, None] = None,
        seed: Optional[int] = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping
        self.backend = backend
        self.seed = seed if seed is not None else 0

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Run loopy BP on ``mrf`` (array plan built on the fly)."""
        return self.solve_arrays(MRFArrays(mrf))

    def solve_arrays(
        self,
        plan: MRFArrays,
        messages: Optional[np.ndarray] = None,
        scratch: Optional[SolverScratch] = None,
        backend: Union[KernelBackend, str, None] = None,
    ) -> SolverResult:
        """Run BP on a prebuilt array plan, optionally warm-started.

        ``messages`` is a caller-owned ``(2·edges, lmax)`` directed message
        array (zeros = cold start), updated **in place** every round so the
        caller keeps the post-solve state for the next warm start.  A
        near-fixed-point start just makes the first max-change small, so
        convergence costs a round or two instead of a full schedule.

        ``scratch`` holds the round buffers (the big one is the
        ``(2·edges, L, L)`` cost gather of the synchronous update); pass a
        shared :class:`SolverScratch` so repeated solves allocate nothing.

        While tracing is enabled (:func:`repro.obs.enabled`) the solve
        records a ``bp.solve`` span with nested per-iteration events and
        attaches a :class:`~repro.mrf.solvers.SolveStats` to the result;
        disabled, this wrapper costs one branch per solve.
        """
        kernels = resolve_backend(
            backend if backend is not None else self.backend
        )
        if not obs.enabled():
            return self._solve_arrays(plan, messages, scratch, kernels, None)
        stats = SolveStats(backend=kernels.describe())
        start = time.perf_counter()
        with obs.span(
            "bp.solve", cat="solve",
            nodes=plan.node_count, edges=plan.edge_count,
        ) as solve_span:
            result = self._solve_arrays(plan, messages, scratch, kernels, stats)
            stats.total_seconds = time.perf_counter() - start
            result.stats = stats
            solve_span.add(
                backend=stats.backend,
                iterations=result.iterations,
                energy=result.energy,
                converged=result.converged,
            )
        return result

    def _solve_arrays(
        self,
        plan: MRFArrays,
        messages: Optional[np.ndarray],
        scratch: Optional[SolverScratch],
        kernels: KernelBackend,
        stats: Optional[SolveStats],
    ) -> SolverResult:
        """The BP round loop behind :meth:`solve_arrays`; ``stats`` collects
        per-phase telemetry when tracing is on (``None`` disables it)."""
        collect = stats is not None
        setup_start = time.perf_counter() if collect else 0.0
        n = plan.node_count
        if n == 0:
            return SolverResult(
                labels=[], energy=0.0, iterations=0, converged=True,
                solver=self.name, stats=stats,
            )

        scratch = scratch if scratch is not None else SolverScratch()
        slots = 2 * plan.edge_count
        lmax = plan.lmax
        if messages is None:
            messages = scratch.zeros("bp_messages", (slots, lmax))
        beliefs = scratch.array("bp_beliefs", (n, lmax))

        best_labels: Optional[np.ndarray] = None
        best_energy = float("inf")
        energy_trace: List[float] = []
        converged = False
        iterations = 0
        trace = obs.current_trace() if collect else None
        if collect:
            stats.setup_seconds = time.perf_counter() - setup_start

        for iteration in range(self.max_iterations):
            iterations = iteration + 1
            if collect:
                iter_wall_ns = time.time_ns()
                iter_start = mark = time.perf_counter()
            # Beliefs B_i = θ_i + Σ_j M_{j→i} from the previous round.
            kernels.bp_beliefs(plan, messages, beliefs)

            # Synchronous update of every directed message: exclude what
            # came in on the same edge, then min-reduce over sender labels.
            if plan.edge_count:
                max_change = kernels.bp_round(
                    plan, messages, beliefs, self.damping, scratch
                )
            else:
                max_change = 0.0
            if collect:
                now = time.perf_counter()
                stats.forward_seconds += now - mark
                mark = now

            # Decode against the pre-update beliefs and the new messages,
            # matching the reference solver's update/decode interleaving.
            labels = np.zeros(n, dtype=np.int64)
            executed = kernels.decode(plan, beliefs, messages, labels, scratch)
            if collect:
                stats.backend = executed.describe()
            energy = plan.energy(labels)
            if energy < best_energy:
                best_energy = energy
                best_labels = labels
            energy_trace.append(best_energy)
            if collect:
                now = time.perf_counter()
                stats.energy_seconds += now - mark
                stats.iteration_seconds.append(now - iter_start)
                trace.record(
                    "bp.iteration", "solve",
                    ts=iter_wall_ns / 1000.0,
                    dur=(now - iter_start) * 1e6,
                    args={
                        "i": iteration,
                        "energy": best_energy,
                        "max_change": max_change,
                    },
                )

            if max_change <= self.tolerance:
                converged = True
                break

        assert best_labels is not None
        return SolverResult(
            labels=[int(x) for x in best_labels],
            energy=best_energy,
            iterations=iterations,
            converged=converged,
            solver=self.name,
            energy_trace=energy_trace,
            stats=stats,
        )
