"""Tests for the TRW-S primal-refinement machinery.

Covers the engineering additions documented in DESIGN.md decision 3:
tie-breaking noise, the multi-init ICM polish, and the MRF-level greedy
labelling — on MRFs and on compiled replicated-service networks.
"""

import numpy as np
import pytest

from repro.core.compile import compile_plan
from repro.core.costs import assignment_energy, build_mrf
from repro.core.diversify import diversify
from repro.mrf.graph import PairwiseMRF
from repro.mrf.reference import _greedy_labels
from repro.mrf.sharded import solve_plan
from repro.mrf.trws import TRWSSolver, is_forest_plan
from repro.mrf.vectorized import MRFArrays
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.topologies import chain_network
from repro.nvd.similarity import SimilarityTable

from helpers import make_random_mrf


def flat_workload(seed, hosts=12, degree=3, services=2):
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        similarity_density=0.5, seed=seed,
    )
    return random_network(config), random_similarity(config)


def chain_chord_workload(hosts=40, seed=0):
    """A chain with overlapping long chords and per-host preferences."""
    products = ("p0", "p1", "p2", "p3")
    network = chain_network(hosts, services={"scada": products})
    for i in range(0, hosts - 10, 4):
        network.add_link(f"h{i}", f"h{i + 6}")
    table = SimilarityTable(products=list(products))
    rng = np.random.default_rng(seed)
    for i, a in enumerate(products):
        for b in products[i + 1:]:
            table.set(a, b, float(np.round(rng.uniform(0.05, 0.8), 3)))
    preferences = {
        (f"h{h}", "scada", product): float(np.round(rng.uniform(0, 1), 3))
        for h in range(hosts)
        for product in products
    }
    return network, table, preferences


def greedy_case(case):
    """(MRF, plan of the same field) for the greedy parity test."""
    if case == "replicated":
        network, similarity = flat_workload(seed=5, hosts=30, services=3)
        return (
            build_mrf(network, similarity).mrf,
            compile_plan(network, similarity).plan,
        )
    if case == "chain-chord":
        network, table, preferences = chain_chord_workload()
        return (
            build_mrf(network, table, preferences=preferences).mrf,
            compile_plan(network, table, preferences=preferences).plan,
        )
    mrf = make_random_mrf(nodes=10, edge_probability=0.5, max_labels=4,
                          seed=case)
    return mrf, MRFArrays(mrf)


class TestGreedyLabels:
    def test_greedy_respects_label_ranges(self):
        mrf = make_random_mrf(nodes=8, edge_probability=0.5, max_labels=3, seed=1)
        labels = _greedy_labels(mrf)
        assert len(labels) == 8
        for node, label in enumerate(labels):
            assert 0 <= label < mrf.label_count(node)

    def test_greedy_two_node_antichain(self):
        mrf = PairwiseMRF()
        a = mrf.add_node([0.0, 0.0])
        b = mrf.add_node([0.0, 0.0])
        mrf.add_edge(a, b, np.eye(2))
        labels = _greedy_labels(mrf)
        assert labels[0] != labels[1]

    def test_greedy_prefers_low_unary_on_isolated(self):
        mrf = PairwiseMRF()
        mrf.add_node([2.0, 0.0, 1.0])
        assert _greedy_labels(mrf) == [1]

    @pytest.mark.parametrize(
        "case", [0, 1, 2, 3, "replicated", "chain-chord"]
    )
    def test_plan_level_greedy_matches_mrf_level(self, case):
        # The production solvers construct the greedy init on the plan
        # (MRFArrays.greedy_labels); it must reproduce the MRF-level
        # reference exactly.
        mrf, plan = greedy_case(case)
        plan_labels = plan.greedy_labels()
        assert plan_labels.dtype == np.int64
        assert [int(x) for x in plan_labels] == _greedy_labels(mrf)


class TestRefinementEffect:
    @pytest.mark.parametrize("seed", range(5))
    def test_refined_never_worse_than_unrefined(self, seed):
        mrf = make_random_mrf(nodes=10, edge_probability=0.4, max_labels=3, seed=seed)
        unrefined = TRWSSolver(max_iterations=20, refine=False, seed=0).solve(mrf)
        refined = TRWSSolver(max_iterations=20, refine=True, seed=0).solve(mrf)
        assert refined.energy <= unrefined.energy + 1e-9

    def test_refined_result_is_single_flip_optimal(self):
        mrf = make_random_mrf(nodes=10, edge_probability=0.4, max_labels=3, seed=3)
        result = TRWSSolver(max_iterations=20).solve(mrf)
        for node in range(mrf.node_count):
            for label in range(mrf.label_count(node)):
                flipped = list(result.labels)
                flipped[node] = label
                assert mrf.energy(flipped) >= result.energy - 1e-9

    def test_noise_zero_still_valid(self):
        mrf = make_random_mrf(nodes=8, edge_probability=0.5, max_labels=3, seed=2)
        result = TRWSSolver(max_iterations=20, tie_break_noise=0.0).solve(mrf)
        assert result.energy == pytest.approx(mrf.energy(result.labels))

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            TRWSSolver(tie_break_noise=-1.0)

    def test_energy_reported_against_original_costs(self):
        # Large noise must not leak into the reported energy.
        mrf = make_random_mrf(nodes=8, edge_probability=0.5, max_labels=3, seed=4)
        result = TRWSSolver(max_iterations=20, tie_break_noise=0.5).solve(mrf)
        assert result.energy == pytest.approx(mrf.energy(result.labels))

    def test_bound_still_valid_under_noise(self):
        from repro.mrf.exact import ExactSolver

        mrf = make_random_mrf(nodes=6, edge_probability=0.6, max_labels=3, seed=5)
        exact = ExactSolver().solve(mrf)
        for noise in (1e-4, 1e-2, 0.3):
            result = TRWSSolver(max_iterations=30, tie_break_noise=noise).solve(mrf)
            assert result.lower_bound <= exact.energy + 1e-9


class TestReplicatedRefinement:
    """The refine stage on replicated-service networks (plan path)."""

    def test_refined_never_worse_than_unrefined(self):
        network, similarity = flat_workload(seed=10)
        plan = compile_plan(network, similarity).plan
        assert not is_forest_plan(plan)
        unrefined = solve_plan(plan, max_iterations=15, refine=False)
        refined = solve_plan(plan, max_iterations=15, refine=True)
        assert refined.energy <= unrefined.energy + 1e-9

    def test_single_flip_optimal(self):
        network, similarity = flat_workload(seed=11)
        result = diversify(network, similarity, max_iterations=15)
        base = assignment_energy(network, similarity, result.assignment)
        assert base == pytest.approx(result.energy, abs=1e-9)
        for host in network.hosts:
            for service in network.services_of(host):
                for product in network.candidates(host, service):
                    flipped = result.assignment.copy()
                    flipped.assign(host, service, product)
                    assert assignment_energy(
                        network, similarity, flipped
                    ) >= base - 1e-9

    def test_beats_greedy_baseline(self):
        from repro.core import greedy_assignment

        for seed in range(5):
            network, similarity = flat_workload(seed=seed)
            optimal = diversify(network, similarity, max_iterations=25)
            greedy = greedy_assignment(network, similarity)
            assert optimal.energy <= assignment_energy(
                network, similarity, greedy
            ) + 1e-9
