"""Top-level diversification API (paper Definition 5).

:func:`diversify` computes the optimal product assignment α̂ for a network —
or the constrained optimum α̂_C when a constraint set is given — by
compiling the MRF of Section V and running a MAP solver (TRW-S by default).
The result bundles the decoded assignment with optimisation diagnostics
(energy, dual lower bound, certificate of optimality) and
diversity-oriented summary statistics.

TRW-S and BP solves compile the network **directly into an array plan**
(:mod:`repro.core.compile`) — byte-identical to the classic
``build_mrf`` + ``MRFArrays`` pipeline but without materialising per-edge
Python objects, which is what keeps cold plan builds off the critical path
of the 1000-6000-host sweeps — and solve it with
:func:`~repro.mrf.sharded.solve_plan` (or the dual-decomposition solver
for ``shards="cut"``).  Solvers without a plan-level API take the
``build_mrf`` object pipeline.

The similarity summary (``similarity_total``, ``mean_edge_similarity``)
is one gather over arrays the compiler already built — the
similarity-edge endpoints, each node's product ids and the product
similarity matrix (:class:`~repro.core.compile.SimilarityEdges`) — rather
than a second walk over the network's links; object-pipeline solves
summarise with the same arrays, indexed once for the summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.core.compile import CompiledPlan, compile_plan, similarity_edges
from repro.core.costs import build_mrf
from repro.mrf.solvers import SolverResult, get_solver
from repro.network.assignment import ProductAssignment
from repro.network.constraints import ConstraintSet, ConstraintViolation
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

__all__ = ["DiversificationResult", "SHARD_MODES", "diversify"]

#: Solvers with a plan-level (``solve_arrays``) API — the ones the direct
#: compiler path can drive without a :class:`PairwiseMRF`.
_PLAN_SOLVERS = ("trws", "bp")

#: The values ``diversify(shards=...)`` accepts besides ``None``.
SHARD_MODES = ("cut",)


@dataclass
class DiversificationResult:
    """Outcome of :func:`diversify`.

    Attributes:
        assignment: the decoded product assignment (always complete).
        energy: MRF energy of the assignment (the paper's E(N), Eq. 1).
        lower_bound: dual lower bound when the solver provides one.
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
    shards: Optional[str] = None,
    **solver_options,
) -> DiversificationResult:
    """Compute the (constrained) optimal diversification of a network.

    Args:
        network: the network to diversify.
        similarity: vulnerability-similarity table over the product names.
        constraints: legacy/policy/combination constraints (Definition 4).
        solver: registered solver name — ``"trws"`` (default), ``"bp"``,
            ``"icm"`` or ``"exact"``.
        unary_constant: the paper's ``Pr_const`` per-label base cost.
        pairwise_weight: λ scaling of the similarity penalty.
        preferences: soft (host, service, product) → cost adjustments.
        service_weights: per-service criticality multipliers of the
            similarity penalty (see :func:`repro.core.costs.build_mrf`).
        shards: ``None`` (default) keeps the monolithic solve, whose
            TRW-S refine stage already picks the best candidate per
            connected component.  ``"cut"`` routes through Lagrangian
            dual decomposition
            (:class:`~repro.mrf.dual.DualDecompositionSolver`): a
            balanced edge cut splits even a single giant connected
            component, coupled shards iterate to agreement, and the
            result carries a certified duality gap instead of the exact
            guarantee (``"trws"`` only — any other solver raises; tune
            via ``parts=``, ``max_rounds=``, ``gap_tolerance=``).
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
    _check_shards(shards, solver)
    constraint_set = constraints or ConstraintSet()
    if solver in _PLAN_SOLVERS:
        compiled = compile_plan(
            network,
            similarity,
            constraints=constraint_set,
            unary_constant=unary_constant,
            pairwise_weight=pairwise_weight,
            preferences=preferences,
            service_weights=service_weights,
        )
        solver_result = _solve_compiled(
            compiled, solver, shards, solver_options
        )
        assignment = compiled.labels_to_assignment(
            network, solver_result.labels
        )
        edges = compiled.similarity_edges
    else:
        build = build_mrf(
            network,
            similarity,
            constraints=constraint_set,
            unary_constant=unary_constant,
            pairwise_weight=pairwise_weight,
            preferences=preferences,
            service_weights=service_weights,
        )
        solver_result = get_solver(solver, **solver_options).solve(build.mrf)
        assignment = build.labels_to_assignment(network, solver_result.labels)
        edges = similarity_edges(network, similarity)

    violations = constraint_set.violations(assignment, network)
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


def _check_shards(shards: Optional[str], solver: str) -> None:
    """Reject a ``shards`` value the solve cannot honour.

    ``shards`` must be ``None`` or a shard mode, and ``"cut"`` needs
    certified TRW-S shard bounds, so any other solver raises instead of
    silently solving unsharded.
    """
    if shards is not None and shards not in SHARD_MODES:
        raise ValueError(f"shards must be None or 'cut', got {shards!r}")
    if shards == "cut" and solver != "trws":
        raise ValueError(
            "dual decomposition requires certified shard bounds; "
            f"only solver='trws' is supported, got {solver!r}"
        )


def _solve_compiled(
    compiled: CompiledPlan,
    solver: str,
    shards: Optional[str],
    solver_options: Mapping,
) -> SolverResult:
    """Solve a compiled plan — monolithic, or cut-sharded.

    The monolithic dispatch (forest DP for cold TRW-S forests, greedy
    refine init otherwise) mirrors ``TRWSSolver.solve`` on the equivalent
    MRF, so compiled and Python-built solves return identical labellings.
    ``solve_plan`` is imported at call time from :mod:`repro.mrf.sharded`,
    the module path the end-to-end benchmark's layer tracer wraps.
    """
    from repro.mrf.sharded import solve_plan

    if shards == "cut":
        from repro.mrf.dual import DualDecompositionSolver

        return DualDecompositionSolver(
            solver=solver, **solver_options
        ).solve_arrays(compiled.plan)
    return solve_plan(compiled.plan, solver=solver, **solver_options)

