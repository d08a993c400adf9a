"""Parity tests: the vectorized TRW-S vs its per-node reference solver.

The vectorized :class:`~repro.mrf.trws.TRWSSolver` must compute the same
updates as the pre-vectorization implementation kept in
:mod:`repro.mrf.reference` — same labellings, same energies, same dual
bounds, same iteration counts — on loopy graphs, trees, heterogeneous
label spaces and the case-study MRF.
Also covers the :class:`~repro.mrf.vectorized.MRFArrays` plan invariants
the solvers rely on.
"""

import numpy as np
import pytest

from repro.mrf.graph import PairwiseMRF
from repro.mrf.icm import ICMSolver
from repro.mrf.reference import ReferenceBPSolver, ReferenceTRWSSolver
from repro.mrf.solvers import available_solvers, get_solver
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays

from helpers import make_random_mrf


class TestPlan:
    def test_wavefront_levels_are_independent_sets(self):
        mrf = make_random_mrf(nodes=12, edge_probability=0.5, max_labels=4, seed=3)
        adj = MRFArrays(mrf).adjacency
        levels = [
            adj.nodes[adj.node_off[level] : adj.node_off[level + 1]]
            for level in range(adj.forward_levels)
        ]
        for level in levels:
            members = set(int(x) for x in level)
            for i in members:
                for j, _edge in mrf.neighbors(i):
                    assert j not in members, "adjacent nodes share a level"
        # Every node appears in exactly one forward level.
        seen = sorted(int(x) for level in levels for x in level)
        assert seen == list(range(mrf.node_count))

    def test_every_edge_sent_once_per_sweep_direction(self):
        mrf = make_random_mrf(nodes=10, edge_probability=0.6, max_labels=3, seed=5)
        plan = MRFArrays(mrf)
        adj = plan.adjacency
        # Forward: the send rows, towards higher-numbered neighbours.
        # Backward: every listed node's conditioning rows.
        edge = adj.slot >> 1
        sender = np.where(
            adj.slot & 1, plan.edge_second[edge], plan.edge_first[edge]
        )
        fwd = sorted(adj.slot[adj.nbr > sender].tolist())
        bwd = sorted(
            int(adj.slot[row])
            for v in adj.bwd_nodes.tolist()
            for row in range(
                adj.lower_start[v], adj.lower_start[v] + adj.lower[v]
            )
        )
        assert len(fwd) == mrf.edge_count
        assert len(bwd) == mrf.edge_count
        assert sorted(fwd + bwd) == list(range(2 * mrf.edge_count))

    @pytest.mark.parametrize("seed", range(6))
    def test_energy_matches_graph_energy(self, seed):
        mrf = make_random_mrf(nodes=8, edge_probability=0.5, max_labels=4, seed=seed)
        plan = MRFArrays(mrf)
        rng = np.random.default_rng(seed)
        labels = np.array(
            [rng.integers(mrf.label_count(i)) for i in range(mrf.node_count)]
        )
        assert plan.energy(labels) == pytest.approx(
            mrf.energy([int(x) for x in labels]), abs=1e-9
        )

    def test_cost_stack_shares_matrices(self):
        # Two edges referencing the same ndarray must share one stack slot.
        mrf = PairwiseMRF()
        for _ in range(3):
            mrf.add_node([0.0, 0.5])
        shared = np.array([[0.0, 1.0], [1.0, 0.0]])
        mrf.add_edge(0, 1, shared)
        mrf.add_edge(1, 2, shared)
        mrf.add_edge(0, 2, np.array([[0.2, 0.0], [0.0, 0.2]]))
        plan = MRFArrays(mrf)
        assert plan.edge_cid[0] == plan.edge_cid[1]
        assert plan.edge_cid[2] != plan.edge_cid[0]
        # Stack holds 2 distinct matrices + their transposes.
        assert plan.cost.shape[0] == 4

    def test_icm_matches_reference_icm(self):
        for seed in range(8):
            mrf = make_random_mrf(nodes=9, edge_probability=0.5, max_labels=4,
                                  seed=seed)
            initial = [0] * mrf.node_count
            reference = ICMSolver(initial=initial).solve(mrf)
            plan = MRFArrays(mrf)
            vectorized = plan.icm(np.zeros(mrf.node_count, dtype=np.int64))
            assert [int(x) for x in vectorized] == reference.labels

    def test_padding_convention(self):
        # Mixed label counts: padded belief slots are +inf, message slots 0.
        mrf = PairwiseMRF()
        mrf.add_node([0.1, 0.2, 0.3])
        mrf.add_node([0.4, 0.5])
        mrf.add_edge(0, 1, np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]))
        plan = MRFArrays(mrf)
        beliefs = plan.unary_inf.copy()
        assert beliefs[1, 2] == np.inf and np.isfinite(beliefs[0]).all()
        assert plan.zero_messages().shape == (2, 3)
        assert plan.cost[plan.edge_cid[0], 2, 1] == 0.5
        assert plan.cost[plan.edge_cid[0], 0, 2] == np.inf  # padded column


class TestTRWSParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_loopy_random_instances(self, seed):
        # Belief sums accumulate in level-major rather than node order, so
        # the two solvers agree to float round-off, not bit-for-bit: assert
        # equal energies/bounds and equally-good labellings, not identical
        # label lists (those could legitimately differ at an exact tie).
        mrf = make_random_mrf(nodes=9, edge_probability=0.5, max_labels=4,
                              seed=seed)
        fast = TRWSSolver(max_iterations=40).solve(mrf)
        slow = ReferenceTRWSSolver(max_iterations=40).solve(mrf)
        assert fast.energy == pytest.approx(slow.energy, abs=1e-9)
        assert fast.lower_bound == pytest.approx(slow.lower_bound, abs=1e-7)
        assert mrf.energy(fast.labels) == pytest.approx(
            mrf.energy(slow.labels), abs=1e-9
        )
        assert fast.converged == slow.converged

    @pytest.mark.parametrize("seed", range(4))
    def test_trees_hit_identical_exact_path(self, seed):
        mrf = make_random_mrf(nodes=8, edge_probability=0.0, max_labels=3,
                              seed=seed, tree=True)
        fast = TRWSSolver().solve(mrf)
        slow = ReferenceTRWSSolver().solve(mrf)
        assert fast.labels == slow.labels
        assert fast.energy == slow.energy == fast.lower_bound

    def test_dense_heterogeneous_labels(self):
        # Fully connected with label counts 2..5 stresses the padding.
        rng = np.random.default_rng(7)
        mrf = PairwiseMRF()
        counts = [2, 3, 4, 5, 3, 2]
        for count in counts:
            mrf.add_node(rng.uniform(0.0, 1.0, count))
        for i in range(len(counts)):
            for j in range(i + 1, len(counts)):
                mrf.add_edge(i, j, rng.uniform(0.0, 1.0, (counts[i], counts[j])))
        fast = TRWSSolver(max_iterations=50).solve(mrf)
        slow = ReferenceTRWSSolver(max_iterations=50).solve(mrf)
        assert fast.energy == pytest.approx(slow.energy, abs=1e-9)
        assert fast.lower_bound == pytest.approx(slow.lower_bound, abs=1e-7)
        assert mrf.energy(fast.labels) == pytest.approx(
            mrf.energy(slow.labels), abs=1e-9
        )

    def test_no_tie_break_noise(self):
        mrf = make_random_mrf(nodes=7, edge_probability=0.6, max_labels=3, seed=2)
        fast = TRWSSolver(max_iterations=30, tie_break_noise=0.0).solve(mrf)
        slow = ReferenceTRWSSolver(max_iterations=30, tie_break_noise=0.0).solve(mrf)
        assert fast.energy == pytest.approx(slow.energy, abs=1e-9)
        assert fast.lower_bound == pytest.approx(slow.lower_bound, abs=1e-7)

    def test_compute_bound_disabled(self):
        mrf = make_random_mrf(nodes=7, edge_probability=1.0, max_labels=3, seed=1)
        fast = TRWSSolver(max_iterations=5, compute_bound=False).solve(mrf)
        slow = ReferenceTRWSSolver(max_iterations=5, compute_bound=False).solve(mrf)
        assert fast.lower_bound == slow.lower_bound == float("-inf")
        assert fast.energy == pytest.approx(slow.energy, abs=1e-9)

    def test_case_study_mrf(self):
        from repro.casestudy.stuxnet import stuxnet_case_study
        from repro.core.costs import build_mrf

        case = stuxnet_case_study()
        build = build_mrf(case.network, case.similarity, constraints=case.c1)
        fast = TRWSSolver(max_iterations=100).solve(build.mrf)
        slow = ReferenceTRWSSolver(max_iterations=100).solve(build.mrf)
        assert fast.energy == pytest.approx(slow.energy, abs=1e-9)
        assert fast.lower_bound == pytest.approx(slow.lower_bound, abs=1e-6)

    def test_traces_match(self):
        mrf = make_random_mrf(nodes=8, edge_probability=0.6, max_labels=3, seed=9)
        fast = TRWSSolver(max_iterations=12).solve(mrf)
        slow = ReferenceTRWSSolver(max_iterations=12).solve(mrf)
        assert fast.energy_trace == pytest.approx(slow.energy_trace, abs=1e-9)
        assert fast.bound_trace == pytest.approx(slow.bound_trace, abs=1e-7)


class TestRegistry:
    def test_reference_solvers_registered(self):
        assert {"trws-ref", "bp-ref"} <= set(available_solvers())
        assert isinstance(get_solver("trws-ref"), ReferenceTRWSSolver)
        assert isinstance(get_solver("bp-ref"), ReferenceBPSolver)

    def test_reference_usable_through_diversify(self, small_network, two_product_table):
        from repro.core.diversify import diversify

        fast = diversify(small_network, two_product_table, solver="trws")
        slow = diversify(small_network, two_product_table, solver="trws-ref")
        assert fast.energy == pytest.approx(slow.energy, abs=1e-9)
