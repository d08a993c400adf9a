"""Per-shard MAP solving over partitioned plans.

:class:`ShardedSolver` routes the message-passing solvers
(:class:`~repro.mrf.trws.TRWSSolver`, :class:`~repro.mrf.bp.LoopyBPSolver`)
through the component partition of :mod:`repro.mrf.partition` and solves
the shards one after another, in shard order.  Components share no edges,
so the decomposition is exact: shard energies, dual bounds and optima
simply add, and the stitched labelling of per-shard optima is a global
optimum.

Sharding wins without any parallelism: every shard runs its *own*
convergence schedule.  The monolithic solver sweeps the whole network
until its slowest component stalls — easy components pay the hard one's
iteration count — while shard solves stop individually, and the ICM refine
stage confines its sweeps to the component it is polishing.  Forest shards
skip message passing entirely: TRW-S is exact on trees, and the per-shard
dispatch realises that guarantee with one min-sum dynamic program over the
shard arrays (:func:`~repro.mrf.trws.solve_forest_plan`, which a
monolithic ``solve_arrays`` over a mixed plan cannot take).  Shard seeds
derive from shard identity, so results never depend on anything but the
partition.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.mrf.bp import LoopyBPSolver
from repro.mrf.graph import PairwiseMRF
from repro.mrf.partition import (
    PlanPartition,
    merge_shard_results,
    split_components,
)
from repro.mrf.solvers import SolverResult
from repro.mrf.trws import TRWSSolver, is_forest_plan, solve_forest_plan
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["ShardedSolver", "solve_plan"]

_FACTORIES = {"trws": TRWSSolver, "bp": LoopyBPSolver}


class ShardedSolver:
    """Solve a plan as independent shards, one after another.

    Args:
        solver: base message-passing solver, ``"trws"`` or ``"bp"``.
        seed: base tie-breaking seed; shard ``i`` solves with ``seed + i``
            so replicated components do not tie-break in lockstep.
        **solver_options: forwarded to every per-shard solver constructor.
    """

    name = "sharded"

    def __init__(
        self,
        solver: str = "trws",
        seed: Optional[int] = None,
        **solver_options: Any,
    ) -> None:
        if solver not in _FACTORIES:
            raise ValueError(
                f"sharded solving supports {sorted(_FACTORIES)}, got {solver!r}"
            )
        self.solver_name = solver
        self.seed = 0 if seed is None else int(seed)
        self.solver_options = dict(solver_options)
        self.name = f"{solver}-sharded"

    # ----------------------------------------------------------------- API

    def solve(self, mrf: PairwiseMRF) -> SolverResult:
        """Partition + solve a :class:`PairwiseMRF` (registry protocol)."""
        if mrf.node_count == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        return self.solve_arrays(MRFArrays(mrf))

    def solve_arrays(
        self,
        plan: MRFArrays,
        messages: Optional[np.ndarray] = None,
        extra_inits: Sequence[np.ndarray] = (),
        default_inits: bool = True,
        partition: Optional[PlanPartition] = None,
    ) -> SolverResult:
        """Solve a prebuilt plan shard-by-shard.

        Mirrors the monolithic ``solve_arrays`` contract: ``messages`` is
        the caller-owned global directed-message array (updated in place —
        shard slices are scattered back), ``extra_inits`` are global
        labellings sliced per shard for the TRW-S refine stage.  Pass a
        prebuilt ``partition`` (e.g. zone-grouped via
        :func:`~repro.mrf.partition.zone_groups`) to skip the component
        scan; it must partition exactly this plan.
        """
        if plan.node_count == 0:
            return SolverResult(
                labels=[], energy=0.0, lower_bound=0.0, iterations=0,
                converged=True, solver=self.name,
            )
        if partition is None:
            partition = split_components(plan)
        greedy = (
            self.solver_name == "trws"
            and messages is None
            and self.solver_options.get("refine", True)
        )
        scratch = SolverScratch()
        results: List[SolverResult] = []
        shard_messages: List[Optional[np.ndarray]] = []
        batch_span = obs.span("shard.batch", cat="shard", shards=len(partition))
        with batch_span:
            for shard in partition:
                sub = messages[shard.slots] if messages is not None else None
                inits = tuple(
                    np.asarray(init, dtype=np.int64)[shard.nodes]
                    for init in extra_inits
                )
                with obs.span(
                    "shard.solve", cat="shard",
                    shard=int(shard.index), nodes=len(shard.nodes),
                ) as shard_span:
                    result = _solve_plan(
                        shard.plan,
                        self.solver_name,
                        self.solver_options,
                        self.seed + shard.index,
                        sub,
                        inits,
                        default_inits,
                        greedy,
                        scratch=scratch,
                    )
                    shard_span.add(
                        energy=result.energy, iterations=result.iterations
                    )
                results.append(result)
                shard_messages.append(sub)
            if obs.enabled():
                # Per-shard skew: every shard result carries SolveStats
                # while tracing is on.
                seconds = [
                    r.stats.total_seconds for r in results if r.stats is not None
                ]
                if seconds:
                    batch_span.add(
                        shard_seconds_max=max(seconds),
                        shard_seconds_min=min(seconds),
                        shard_seconds_mean=sum(seconds) / len(seconds),
                    )
        if messages is not None:
            partition.scatter_messages(shard_messages, messages)
        return self._merge(partition, results)

    # -------------------------------------------------------------- merging

    def _merge(
        self, partition: PlanPartition, results: List[SolverResult]
    ) -> SolverResult:
        labels = partition.stitch([r.labels for r in results])
        merged = merge_shard_results(
            [r.energy for r in results],
            [r.lower_bound for r in results],
            [r.iterations for r in results],
            [r.converged for r in results],
        )
        return SolverResult(
            labels=[int(x) for x in labels],
            energy=merged.energy,
            lower_bound=merged.lower_bound,
            iterations=merged.iterations,
            converged=merged.converged,
            solver=self.name,
        )


def solve_plan(
    plan: MRFArrays,
    solver: str = "trws",
    seed: Optional[int] = None,
    scratch: Optional[SolverScratch] = None,
    **solver_options: Any,
) -> SolverResult:
    """Cold-solve one array plan with the standard dispatch.

    The public plan-level entry point (used by the compiled
    :func:`~repro.core.diversify.diversify` path): forest plans take the
    exact min-sum DP, loopy plans run the configured message-passing
    solver with the degree-descending greedy refine init — exactly the
    dispatch of ``TRWSSolver.solve`` on the equivalent ``PairwiseMRF``.

    A two-node plan with an agreement penalty solves to disagreeing
    labels at zero energy (one edge, no cycle — the exact forest DP):

    >>> import numpy as np
    >>> from repro.mrf.vectorized import MRFArrays
    >>> agree = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> plan = MRFArrays.from_parts(
    ...     [np.zeros(2), np.zeros(2)],
    ...     np.array([0]), np.array([1]), np.array([0]), [agree],
    ... )
    >>> result = solve_plan(plan)
    >>> result.energy
    0.0
    >>> result.labels[0] != result.labels[1]
    True
    """
    options = dict(solver_options)
    greedy = solver == "trws" and options.get("refine", True)
    return _solve_plan(
        plan,
        solver,
        options,
        0 if seed is None else int(seed),
        None,
        (),
        True,
        greedy,
        scratch=scratch,
    )


def _solve_plan(
    plan: MRFArrays,
    solver_name: str,
    options: Dict[str, Any],
    seed: int,
    messages: Optional[np.ndarray],
    inits: Tuple[np.ndarray, ...],
    default_inits: bool,
    greedy: bool,
    scratch: Optional[SolverScratch] = None,
) -> SolverResult:
    """Solve one plan — the core every plan-level solve shares.

    Cold TRW-S shards whose graph is a forest dispatch to the exact
    min-sum DP (deterministic, certified, non-iterative); everything else
    runs the configured message-passing solver.  Warm starts (``messages``
    given) always take the message-passing path so the caller keeps a
    reusable fixed-point state.  The solver is built first on every path,
    so an unknown or invalid option raises even where the DP ignores it.
    """
    solver = _FACTORIES[solver_name](**{**options, "seed": seed})
    if solver_name == "trws" and messages is None and is_forest_plan(plan):
        return solve_forest_plan(plan)
    if solver_name == "trws":
        if greedy:
            inits = tuple(inits) + (plan.greedy_labels(),)
        return solver.solve_arrays(
            plan, messages=messages, extra_inits=inits,
            default_inits=default_inits, scratch=scratch,
        )
    return solver.solve_arrays(plan, messages=messages, scratch=scratch)
