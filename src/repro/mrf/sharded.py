"""The plan-level cold solve every compiled ``diversify()`` runs.

:func:`solve_plan` is the standard dispatch over one array plan: forest
plans take the exact min-sum DP, loopy plans run the configured
message-passing solver (TRW-S with the degree-descending greedy among its
refine inits, or BP).  The TRW-S refine stage keeps the best candidate per
connected component, so a plan of independent components solves as well
as its components would one by one — without a partition or a shard
loop.  The dual-decomposition tier (:mod:`repro.mrf.dual`) solves its cut
shards through the same core.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.mrf.bp import LoopyBPSolver
from repro.mrf.solvers import SolverResult
from repro.mrf.trws import TRWSSolver, is_forest_plan, solve_forest_plan
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = ["solve_plan"]

_FACTORIES = {"trws": TRWSSolver, "bp": LoopyBPSolver}


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
        greedy,
        scratch=scratch,
    )


def _solve_plan(
    plan: MRFArrays,
    solver_name: str,
    options: Dict[str, Any],
    seed: int,
    messages: Optional[np.ndarray],
    greedy: bool,
    scratch: Optional[SolverScratch] = None,
) -> SolverResult:
    """Solve one plan — the core every plan-level solve shares.

    Cold TRW-S plans whose graph is a forest dispatch to the exact
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
        inits = (
            (plan.greedy_labels(scratch=scratch, backend=solver.backend),)
            if greedy else ()
        )
        return solver.solve_arrays(
            plan, messages=messages, extra_inits=inits, scratch=scratch,
        )
    return solver.solve_arrays(plan, messages=messages, scratch=scratch)
