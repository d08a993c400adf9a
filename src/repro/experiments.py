"""Experiment drivers regenerating every table and figure of the paper.

Each public function here corresponds to one evaluation artefact (see the
experiment index in DESIGN.md); the benchmark suite and the examples are
thin wrappers over these drivers so the numbers printed anywhere in the
repository come from a single implementation.

Calibration: the infection-rate parameters default to ``p_avg=0.1``,
``p_max=0.9`` (DESIGN.md substitution #4).  The motivational example uses
``p_avg=0`` / ``p_max=1`` — in Fig. 1 the paper equates the infection rate
with the similarity itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.casestudy.stuxnet import CaseStudy, stuxnet_case_study
from repro.core.baselines import mono_assignment, random_assignment
from repro.core.diversify import DiversificationResult, diversify
from repro.metrics.bayes import compromise_probability
from repro.metrics.diversity import DiversityReport, diversity_metric
from repro.metrics.mttc import MTTCResult, mean_time_to_compromise
from repro.network.assignment import ProductAssignment
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.topologies import (
    MOTIVATIONAL_DIVERSIFIED,
    MOTIVATIONAL_ENTRY,
    MOTIVATIONAL_TARGET,
    motivational_network,
)
from repro.runner import Job, run_jobs
from repro.sim.attacker import make_attacker
from repro.sim.malware import InfectionModel

__all__ = [
    "fig1_motivational",
    "fig4_assignments",
    "case_study_assignments",
    "table5_diversity",
    "table6_mttc",
    "ScalabilityCell",
    "scalability_cell",
    "scalability_sweep",
    "table7_rows",
    "table8_rows",
    "table9_rows",
]

#: Default infection-rate calibration for the case-study experiments.  The
#: small p_max keeps edge probabilities away from saturation, so the metric
#: distinguishes assignments across the whole network instead of being
#: dominated by the undiversifiable legacy OT zone (see DESIGN.md,
#: substitution #4).
P_AVG = 0.1
P_MAX = 0.3


# ---------------------------------------------------------------- Figure 1


def fig1_motivational() -> Dict[str, float]:
    """Target-compromise probabilities of the three Fig. 1 panels.

    Panel (a): diversified single-label hosts, no shared vulnerabilities.
    Panel (b): same, but the two products have similarity 0.5.
    Panel (c): multi-label hosts — a second zero-day for the ``square``
    product gives the attacker a better vector on the first two hops.

    Returns:
        ``{"a": P, "b": P, "c": P}`` — expected ``{0.0, 0.125, 0.5}``.
    """
    from repro.nvd.similarity import SimilarityTable

    results: Dict[str, float] = {}
    for panel, (multi_label, similarity_value) in {
        "a": (False, 0.0),
        "b": (False, 0.5),
        "c": (True, 0.5),
    }.items():
        network = motivational_network(multi_label=multi_label)
        table = SimilarityTable(products=["circle", "triangle", "square"])
        if similarity_value > 0:
            table.set("circle", "triangle", similarity_value)
        assignment = ProductAssignment(network)
        for host, product in MOTIVATIONAL_DIVERSIFIED.items():
            assignment.assign(host, "svc", product)
        if multi_label:
            for host in ("entry", "m1", "m2"):
                assignment.assign(host, "svc2", "square")
        model = InfectionModel(
            similarity=table,
            p_avg=0.0,
            p_max=1.0,
            attacker=make_attacker("sophisticated"),
        )
        results[panel] = compromise_probability(
            network, assignment, model, MOTIVATIONAL_ENTRY, MOTIVATIONAL_TARGET
        )
    return results


# ---------------------------------------------------------------- Figure 4


def fig4_assignments(
    case: Optional[CaseStudy] = None,
    solver: str = "trws",
    **solver_options,
) -> Dict[str, DiversificationResult]:
    """The three optimal assignments of the paper's Fig. 4.

    Returns ``{"optimal": α̂, "host_constrained": α̂_C1,
    "product_constrained": α̂_C2}``.
    """
    case = case or stuxnet_case_study()
    return {
        "optimal": diversify(
            case.network, case.similarity, solver=solver, **solver_options
        ),
        "host_constrained": diversify(
            case.network,
            case.similarity,
            constraints=case.c1,
            solver=solver,
            **solver_options,
        ),
        "product_constrained": diversify(
            case.network,
            case.similarity,
            constraints=case.c2,
            solver=solver,
            **solver_options,
        ),
    }


def case_study_assignments(
    case: Optional[CaseStudy] = None,
    seed: int = 11,
    solver: str = "trws",
    **solver_options,
) -> Dict[str, ProductAssignment]:
    """The five assignments evaluated in Tables V and VI.

    α̂, α̂_C1, α̂_C2 from the optimiser plus the random (α_r) and
    mono-culture (α_m) baselines.  Keys follow the paper's labels.
    """
    case = case or stuxnet_case_study()
    optimal = fig4_assignments(case, solver=solver, **solver_options)
    return {
        "optimal": optimal["optimal"].assignment,
        "host_constrained": optimal["host_constrained"].assignment,
        "product_constrained": optimal["product_constrained"].assignment,
        "random": random_assignment(case.network, seed=seed),
        "mono": mono_assignment(case.network),
    }


# ----------------------------------------------------------------- Table V


def table5_diversity(
    case: Optional[CaseStudy] = None,
    entry: str = "c4",
    target: Optional[str] = None,
    p_avg: float = P_AVG,
    p_max: float = P_MAX,
    seed: int = 11,
    random_seeds: Sequence[int] = (3, 7, 11, 19, 23),
) -> Dict[str, DiversityReport]:
    """Diversity metric d_bn for the five assignments (paper Table V).

    Entry c4 with prior 1.0, target t5, uniform exploit choice — the
    protocol of Section VII-C1.  The paper evaluates one concrete random
    assignment; to avoid seed lottery we report the random row as the mean
    compromise probability over ``random_seeds`` draws (a single-seed row
    can be obtained with ``random_seeds=(s,)``).
    """
    case = case or stuxnet_case_study()
    target = target or case.target
    assignments = case_study_assignments(case, seed=seed)

    def evaluate(assignment: ProductAssignment) -> DiversityReport:
        """Diversity metric of one assignment (shared sweep settings)."""
        return diversity_metric(
            case.network,
            assignment,
            case.similarity,
            entry=entry,
            target=target,
            p_avg=p_avg,
            p_max=p_max,
            attacker="uniform",
        )

    reports = {
        label: evaluate(assignment)
        for label, assignment in assignments.items()
        if label != "random"
    }
    random_reports = [
        evaluate(random_assignment(case.network, seed=s)) for s in random_seeds
    ]
    p_with = sum(r.p_with for r in random_reports) / len(random_reports)
    p_without = random_reports[0].p_without
    reports["random"] = DiversityReport(
        p_with=p_with,
        p_without=p_without,
        d_bn=min(1.0, p_without / p_with) if p_with > 0 else 1.0,
        entry=entry,
        target=target,
    )
    # Preserve the paper's row order.
    order = ["optimal", "host_constrained", "product_constrained", "random", "mono"]
    return {label: reports[label] for label in order}


# ---------------------------------------------------------------- Table VI


def table6_mttc(
    case: Optional[CaseStudy] = None,
    runs: int = 1000,
    max_ticks: int = 400,
    p_avg: float = P_AVG,
    p_max: float = P_MAX,
    seed: int = 11,
    labels: Sequence[str] = ("optimal", "host_constrained", "product_constrained", "mono"),
    workers: Optional[int] = None,
) -> Dict[Tuple[str, str], MTTCResult]:
    """MTTC for each (assignment, entry point) cell (paper Table VI).

    Five entry points, sophisticated attacker, ``runs`` simulations per
    cell (the paper uses 1,000).  Each (assignment, entry) cell is an
    independent :class:`~repro.runner.Job` carrying its own seed —
    ``workers`` spreads the 20-cell grid over processes and a parallel run
    produces exactly the serial table (the per-cell seeds are unchanged
    from the pre-runner implementation).
    """
    case = case or stuxnet_case_study()
    assignments = case_study_assignments(case, seed=seed)
    jobs = [
        Job(
            key=(label, entry),
            fn=mean_time_to_compromise,
            kwargs=dict(
                network=case.network,
                assignment=assignments[label],
                similarity=case.similarity,
                entry=entry,
                target=case.target,
                runs=runs,
                max_ticks=max_ticks,
                p_avg=p_avg,
                p_max=p_max,
                attacker="sophisticated",
                seed=seed * 1000 + position,
            ),
        )
        for label in labels
        for position, entry in enumerate(case.entries)
    ]
    return run_jobs(jobs, workers=workers)


# ------------------------------------------------------- Tables VII/VIII/IX


@dataclass(frozen=True)
class ScalabilityCell:
    """One timing measurement of the scalability study.

    Attributes:
        config: the workload parameters.
        seconds: wall-clock optimisation time (MRF build + solve).
        energy: achieved energy (sanity: finite and reproducible).
        edges: actual host-graph edge count.
    """

    config: RandomNetworkConfig
    seconds: float
    energy: float
    edges: int

    def row(self) -> str:
        """One formatted row of the scalability table."""
        return (
            f"hosts={self.config.hosts:<6} deg={self.config.degree:<3} "
            f"serv={self.config.services:<3} edges={self.edges:<7} "
            f"time={self.seconds:8.3f}s"
        )


def scalability_cell(
    config: RandomNetworkConfig,
    solver: str = "trws",
    max_iterations: int = 8,
    compute_bound: bool = False,
) -> ScalabilityCell:
    """Time one optimisation run on a random workload.

    The timer covers MRF construction plus solving — the paper's
    "computational time of optimizing networks".  The TRW-S lower bound is
    off by default: the paper's timing runs report time-to-solution, and
    the bound costs one extra pass over the edges per iteration.
    """
    network = random_network(config)
    similarity = random_similarity(config)
    start = time.perf_counter()
    result = diversify(
        network,
        similarity,
        solver=solver,
        max_iterations=max_iterations,
        compute_bound=compute_bound,
    )
    elapsed = time.perf_counter() - start
    return ScalabilityCell(
        config=config,
        seconds=elapsed,
        energy=result.energy,
        edges=network.edge_count(),
    )


def scalability_sweep(
    configs: Dict[Tuple[str, int], RandomNetworkConfig],
    workers: Optional[int] = None,
    **cell_options,
) -> Dict[Tuple[str, int], ScalabilityCell]:
    """Run one :func:`scalability_cell` per grid point, optionally parallel.

    The shared engine behind Tables VII-IX: each cell is an independent
    :class:`~repro.runner.Job` (the workload's randomness is pinned by its
    ``RandomNetworkConfig.seed``), executed serially or over a process pool
    — energies and edge counts are identical either way, only wall-clock
    timings vary with machine load.  :func:`~repro.runner.run_jobs` picks
    the pool's chunk size itself (about four chunks per worker).
    """
    jobs = [
        Job(key=key, fn=scalability_cell, kwargs=dict(config=config, **cell_options))
        for key, config in configs.items()
    ]
    return run_jobs(jobs, workers=workers)


def table7_rows(
    host_counts: Sequence[int] = (100, 200, 400, 600, 800, 1000),
    densities: Sequence[Tuple[str, int, int]] = (
        ("mid-density", 20, 15),
        ("high-density", 40, 25),
    ),
    seed: int = 0,
    workers: Optional[int] = None,
    **cell_options,
) -> Dict[Tuple[str, int], ScalabilityCell]:
    """Runtime vs #hosts at the paper's two density settings (Table VII).

    The paper sweeps 100 → 6000 hosts; the default here stops at 1000 to
    stay laptop-friendly — pass a larger ``host_counts`` to extend, and
    ``workers`` to spread the cells over processes.
    """
    configs = {
        (label, hosts): RandomNetworkConfig(
            hosts=hosts, degree=degree, services=services, seed=seed
        )
        for label, degree, services in densities
        for hosts in host_counts
    }
    return scalability_sweep(configs, workers=workers, **cell_options)


def table8_rows(
    degrees: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    scales: Sequence[Tuple[str, int, int]] = (("mid-scale", 1000, 15),),
    seed: int = 0,
    workers: Optional[int] = None,
    **cell_options,
) -> Dict[Tuple[str, int], ScalabilityCell]:
    """Runtime vs degree at fixed host count (Table VIII).

    The paper's second row is ("large-scale", 6000, 25); include it in
    ``scales`` for a full-size run.
    """
    configs = {
        (label, degree): RandomNetworkConfig(
            hosts=hosts, degree=degree, services=services, seed=seed
        )
        for label, hosts, services in scales
        for degree in degrees
    }
    return scalability_sweep(configs, workers=workers, **cell_options)


def table9_rows(
    service_counts: Sequence[int] = (5, 10, 15, 20, 25, 30),
    scales: Sequence[Tuple[str, int, int]] = (("mid-scale", 1000, 20),),
    seed: int = 0,
    workers: Optional[int] = None,
    **cell_options,
) -> Dict[Tuple[str, int], ScalabilityCell]:
    """Runtime vs services per host (Table IX).

    The paper's second row is ("large-scale", 6000, 40).
    """
    configs = {
        (label, services): RandomNetworkConfig(
            hosts=hosts, degree=degree, services=services, seed=seed
        )
        for label, hosts, degree in scales
        for services in service_counts
    }
    return scalability_sweep(configs, workers=workers, **cell_options)
