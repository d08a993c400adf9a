"""The plan-level cold solve every TRW-S ``diversify()`` runs.

:func:`solve_plan` builds a :class:`~repro.mrf.trws.TRWSSolver` and
cold-solves one array plan with
:meth:`~repro.mrf.trws.TRWSSolver.solve_plan`: forest plans go to the
exact min-sum DP, loopy plans to the sweeps with the degree-descending
greedy among the refine inits.  The refine stage keeps the best candidate
per connected component, so a plan of independent components solves as
well as its components would one by one — without a partition or a shard
loop.  It is the one production solve path per plan; the module keeps its
name because the end-to-end benchmark's layer tracer wraps
``repro.mrf.sharded.solve_plan``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mrf.solvers import SolverResult
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["solve_plan"]


def solve_plan(
    plan: MRFArrays,
    seed: Optional[int] = None,
    scratch: Optional[SolverScratch] = None,
    **solver_options: Any,
) -> SolverResult:
    """Cold-solve one array plan with TRW-S.

    The public plan-level entry point (used by
    :func:`~repro.core.diversify.diversify`).  It runs
    :meth:`TRWSSolver.solve_plan <repro.mrf.trws.TRWSSolver.solve_plan>`,
    the dispatch ``TRWSSolver.solve`` runs on the equivalent
    ``PairwiseMRF``.  The solver is built first, so an unknown or invalid
    option raises even where the forest DP ignores it.

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
    solver = TRWSSolver(
        **{**solver_options, "seed": 0 if seed is None else int(seed)}
    )
    return solver.solve_plan(plan, scratch=scratch)
