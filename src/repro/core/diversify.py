"""Top-level diversification API (paper Definition 5).

:func:`diversify` computes the optimal product assignment α̂ for a network —
or the constrained optimum α̂_C when a constraint set is given — by
compiling the MRF of Section V and running a MAP solver (TRW-S by default).
The result bundles the decoded assignment with optimisation diagnostics
(energy, lower bound, certificate of optimality) and
diversity-oriented summary statistics.

Every solve compiles the network once, **directly into an array plan**
(:func:`~repro.core.compile.compile_plan`), without materialising per-edge
Python objects — which is what keeps cold plan builds off the critical
path of the 1000-6000-host sweeps.  TRW-S solves the plan with
:func:`~repro.mrf.sharded.solve_plan`; the other solvers (``icm``,
``exact``, ``anneal`` and the ``*-ref`` oracles) solve the
:class:`~repro.mrf.graph.PairwiseMRF` read off the same plan
(:meth:`~repro.core.compile.CompiledPlan.to_mrf`).

The similarity summary (``similarity_total``, ``mean_edge_similarity``)
is one gather over arrays the compiler already built — the
similarity-edge endpoints, each node's product ids and the product
similarity matrix (:class:`~repro.core.compile.SimilarityEdges`) — rather
than a second walk over the network's links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.core.compile import compile_plan
from repro.mrf.solvers import SolverResult, get_solver
from repro.network.assignment import ProductAssignment
from repro.network.constraints import ConstraintSet, ConstraintViolation
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

__all__ = ["DiversificationResult", "diversify"]

@dataclass
class DiversificationResult:
    """Outcome of :func:`diversify`.

    Attributes:
        assignment: the decoded product assignment (always complete).
        energy: MRF energy of the assignment (the paper's E(N), Eq. 1).
        lower_bound: lower bound on the optimal energy when the solver
            provides one (TRW-S's monotonic-chain bound).
        certified_optimal: True when energy == lower_bound (global optimum).
        satisfied: True when every constraint holds in the assignment;
            False signals an infeasible constraint set (the solver then
            returns the least-violating assignment).
        violations: the concrete violations when ``satisfied`` is False.
        similarity_total: Σ over links and shared services of the assigned
            products' similarity — the paper's pairwise cost (Eq. 3),
            unweighted.  Lower is more diverse.
        mean_edge_similarity: ``similarity_total`` averaged over the
            (link, shared-service) pairs; 0.0 means perfectly diversified.
        solver_result: raw solver output (traces, iterations, ...).
    """

    assignment: ProductAssignment
    energy: float
    lower_bound: float
    certified_optimal: bool
    satisfied: bool
    violations: List[ConstraintViolation]
    similarity_total: float
    mean_edge_similarity: float
    solver_result: SolverResult

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        status = "certified optimal" if self.certified_optimal else "best found"
        feasibility = (
            "all constraints satisfied"
            if self.satisfied
            else f"{len(self.violations)} constraint violation(s)"
        )
        return (
            f"{status}: energy={self.energy:.6f} "
            f"(lower bound {self.lower_bound:.6f}), {feasibility}; "
            f"total edge similarity {self.similarity_total:.4f}, "
            f"mean {self.mean_edge_similarity:.4f} over coupled edges; "
            f"solver={self.solver_result.solver} "
            f"({self.solver_result.iterations} iterations, "
            f"converged={self.solver_result.converged})"
        )


def diversify(
    network: Network,
    similarity: SimilarityTable,
    constraints: Optional[ConstraintSet] = None,
    solver: str = "trws",
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
    service_weights: Optional[Mapping[str, float]] = None,
    **solver_options,
) -> DiversificationResult:
    """Compute the (constrained) optimal diversification of a network.

    Args:
        network: the network to diversify.
        similarity: vulnerability-similarity table over the product names.
        constraints: legacy/policy/combination constraints (Definition 4).
        solver: registered solver name — ``"trws"`` (default), ``"icm"``,
            ``"exact"``, ``"anneal"``, ``"trws-ref"`` or ``"bp-ref"``.
        unary_constant: the paper's ``Pr_const`` per-label base cost.
        pairwise_weight: λ scaling of the similarity penalty.
        preferences: soft (host, service, product) → cost adjustments.
        service_weights: per-service criticality multipliers of the
            similarity penalty (see :func:`repro.core.costs.build_mrf`).
        **solver_options: forwarded to the solver constructor
            (e.g. ``max_iterations=50``).

    Returns:
        A :class:`DiversificationResult` with the assignment α̂ (or α̂_C).

    >>> from repro.network import chain_network
    >>> from repro.nvd import SimilarityTable
    >>> net = chain_network(3)
    >>> table = SimilarityTable(products=["p0", "p1"])
    >>> result = diversify(net, table)
    >>> result.solver_result.solver
    'trws'
    >>> result.certified_optimal
    True
    >>> round(result.energy, 2)
    0.03
    """
    constraint_set = constraints or ConstraintSet()
    compiled = compile_plan(
        network,
        similarity,
        constraints=constraint_set,
        unary_constant=unary_constant,
        pairwise_weight=pairwise_weight,
        preferences=preferences,
        service_weights=service_weights,
    )
    if solver == "trws":
        # Imported at call time from the module path the end-to-end
        # benchmark's layer tracer wraps.
        from repro.mrf.sharded import solve_plan

        # TRW-S takes ``TRWSSolver.solve_plan`` (forest DP for forests,
        # greedy refine init otherwise), the dispatch ``TRWSSolver.solve``
        # runs on the equivalent MRF.
        solver_result = solve_plan(compiled.plan, **solver_options)
    else:
        solver_result = get_solver(solver, **solver_options).solve(
            compiled.to_mrf()
        )
    assignment = compiled.labels_to_assignment(network, solver_result.labels)
    violations = constraint_set.violations(assignment, network)
    edges = compiled.parts.similarity_edges
    similarity_total, mean_similarity = edges.summary(solver_result.labels)

    return DiversificationResult(
        assignment=assignment,
        energy=solver_result.energy,
        lower_bound=solver_result.lower_bound,
        certified_optimal=solver_result.is_certified_optimal(tolerance=1e-6),
        satisfied=not violations,
        violations=violations,
        similarity_total=similarity_total,
        mean_edge_similarity=mean_similarity,
        solver_result=solver_result,
    )

