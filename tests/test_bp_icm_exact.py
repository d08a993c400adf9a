"""Tests for the baseline solvers: loopy BP (the per-node ``bp-ref``), ICM
and brute force."""

import numpy as np
import pytest

from repro.mrf.exact import ExactSolver
from repro.mrf.graph import MRFError, PairwiseMRF
from repro.mrf.icm import ICMSolver
from repro.mrf.reference import ReferenceBPSolver

from helpers import make_random_mrf


class TestExactSolver:
    def test_small_instance(self):
        mrf = make_random_mrf(nodes=5, edge_probability=0.5, max_labels=3, seed=0)
        result = ExactSolver().solve(mrf)
        assert result.energy == pytest.approx(mrf.energy(result.labels))
        assert result.converged and result.is_certified_optimal()

    def test_space_cap_enforced(self):
        mrf = PairwiseMRF()
        for _ in range(30):
            mrf.add_node([0.0, 1.0, 2.0])
        with pytest.raises(MRFError):
            ExactSolver(max_space=1000).solve(mrf)

    def test_empty(self):
        result = ExactSolver().solve(PairwiseMRF())
        assert result.labels == [] and result.converged


class TestLoopyBP:
    def test_exact_on_tree(self):
        mrf = make_random_mrf(nodes=7, edge_probability=0.0, max_labels=3,
                              seed=3, tree=True)
        exact = ExactSolver().solve(mrf)
        result = ReferenceBPSolver(max_iterations=100, damping=0.0).solve(mrf)
        assert result.energy == pytest.approx(exact.energy, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_beats_exact(self, seed):
        mrf = make_random_mrf(nodes=6, edge_probability=0.5, max_labels=3, seed=seed)
        exact = ExactSolver().solve(mrf)
        result = ReferenceBPSolver(max_iterations=80).solve(mrf)
        assert result.energy >= exact.energy - 1e-9

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            ReferenceBPSolver(damping=1.0)
        with pytest.raises(ValueError):
            ReferenceBPSolver(damping=-0.1)

    def test_iteration_validation(self):
        with pytest.raises(ValueError):
            ReferenceBPSolver(max_iterations=0)

    def test_empty(self):
        result = ReferenceBPSolver().solve(PairwiseMRF())
        assert result.labels == [] and result.converged

    def test_converges_on_chain(self):
        mrf = PairwiseMRF()
        nodes = [mrf.add_node([0.0, 0.5]) for _ in range(4)]
        for a, b in zip(nodes, nodes[1:]):
            mrf.add_edge(a, b, np.eye(2))
        result = ReferenceBPSolver(max_iterations=100, damping=0.0).solve(mrf)
        assert result.converged


class TestICM:
    def test_local_optimum_property(self):
        """At an ICM fixed point, no single-node flip improves the energy."""
        mrf = make_random_mrf(nodes=8, edge_probability=0.4, max_labels=3, seed=4)
        result = ICMSolver(max_iterations=100).solve(mrf)
        assert result.converged
        base = result.energy
        for node in range(mrf.node_count):
            for label in range(mrf.label_count(node)):
                flipped = list(result.labels)
                flipped[node] = label
                assert mrf.energy(flipped) >= base - 1e-9

    def test_never_beats_exact(self):
        mrf = make_random_mrf(nodes=6, edge_probability=0.5, max_labels=3, seed=9)
        exact = ExactSolver().solve(mrf)
        result = ICMSolver().solve(mrf)
        assert result.energy >= exact.energy - 1e-9

    def test_explicit_initialisation(self):
        mrf = make_random_mrf(nodes=4, edge_probability=0.5, max_labels=2, seed=2)
        result = ICMSolver(initial=[0, 0, 0, 0]).solve(mrf)
        assert result.converged

    def test_random_initialisation_is_seeded(self):
        mrf = make_random_mrf(nodes=6, edge_probability=0.4, max_labels=3, seed=2)
        a = ICMSolver(initial="random", seed=1).solve(mrf)
        b = ICMSolver(initial="random", seed=1).solve(mrf)
        assert a.labels == b.labels

    def test_wrong_initial_length_rejected(self):
        mrf = make_random_mrf(nodes=4, edge_probability=0.5, max_labels=2, seed=2)
        with pytest.raises(ValueError):
            ICMSolver(initial=[0, 0]).solve(mrf)

    def test_empty(self):
        result = ICMSolver().solve(PairwiseMRF())
        assert result.labels == [] and result.converged
