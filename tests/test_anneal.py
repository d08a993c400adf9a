"""Tests for the simulated-annealing solver (repro.mrf.anneal)."""

import pytest

from repro.mrf.anneal import SimulatedAnnealingSolver
from repro.mrf.exact import ExactSolver
from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import available_solvers, get_solver

from helpers import make_random_mrf


class TestConstruction:
    def test_registered(self):
        assert "anneal" in available_solvers()
        assert isinstance(get_solver("anneal"), SimulatedAnnealingSolver)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iterations=0),
            dict(start_temperature=0.0),
            dict(end_temperature=-1.0),
            dict(start_temperature=0.1, end_temperature=0.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulatedAnnealingSolver(**kwargs)


class TestSolving:
    def test_empty(self):
        result = SimulatedAnnealingSolver().solve(PairwiseMRF())
        assert result.labels == [] and result.converged

    def test_single_node(self):
        mrf = PairwiseMRF()
        mrf.add_node([2.0, 0.5, 1.0])
        result = SimulatedAnnealingSolver(max_iterations=20, seed=0).solve(mrf)
        assert result.labels == [1]

    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_exact_on_small_instances(self, seed):
        mrf = make_random_mrf(nodes=6, edge_probability=0.5, max_labels=3, seed=seed)
        exact = ExactSolver().solve(mrf)
        result = SimulatedAnnealingSolver(max_iterations=400, seed=seed).solve(mrf)
        assert result.energy >= exact.energy - 1e-9
        assert result.energy <= exact.energy + 0.5

    def test_deterministic_per_seed(self):
        mrf = make_random_mrf(nodes=8, edge_probability=0.4, max_labels=3, seed=3)
        a = SimulatedAnnealingSolver(max_iterations=50, seed=11).solve(mrf)
        b = SimulatedAnnealingSolver(max_iterations=50, seed=11).solve(mrf)
        assert a.labels == b.labels and a.energy == b.energy

    def test_reported_energy_consistent(self):
        mrf = make_random_mrf(nodes=8, edge_probability=0.4, max_labels=3, seed=5)
        result = SimulatedAnnealingSolver(max_iterations=60, seed=1).solve(mrf)
        assert result.energy == pytest.approx(mrf.energy(result.labels))

    def test_initial_labelling_used(self):
        mrf = make_random_mrf(nodes=5, edge_probability=0.5, max_labels=2, seed=2)
        result = SimulatedAnnealingSolver(
            max_iterations=1, start_temperature=1e-9, end_temperature=1e-9,
            seed=0, initial=[0] * 5,
        ).solve(mrf)
        assert len(result.labels) == 5

    def test_wrong_initial_length(self):
        mrf = make_random_mrf(nodes=5, edge_probability=0.5, max_labels=2, seed=2)
        with pytest.raises(ValueError):
            SimulatedAnnealingSolver(initial=[0, 0]).solve(mrf)

    def test_energy_trace_non_increasing(self):
        mrf = make_random_mrf(nodes=8, edge_probability=0.4, max_labels=3, seed=7)
        result = SimulatedAnnealingSolver(max_iterations=50, seed=2).solve(mrf)
        trace = result.energy_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_default_seed_is_reproducible(self):
        # Default solves draw from seed 0, so two default diversify()
        # calls on the Fig. 4 case study return the same labelling.
        from repro.casestudy import stuxnet_case_study
        from repro.core import diversify

        case = stuxnet_case_study()
        first, second = (
            diversify(
                case.network, case.similarity, solver="anneal",
                max_iterations=30,
            )
            for _ in range(2)
        )
        assert first.solver_result.labels == second.solver_result.labels
        assert first.energy == second.energy

    def test_diversify_integration(self, two_product_table):
        from repro.core import diversify
        from repro.network.topologies import chain_network

        result = diversify(
            chain_network(5), two_product_table, solver="anneal",
            max_iterations=200, seed=0,
        )
        labels = [result.assignment.get(h, "svc") for h in result.assignment.network.hosts]
        assert all(a != b for a, b in zip(labels, labels[1:]))
