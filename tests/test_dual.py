"""Tests for Lagrangian dual decomposition over edge cuts (repro.mrf.dual).

The contract under test is the paper-scale one: on a single giant connected
component — exactly where per-component sharding stops helping — the dual
solver must land within its own *reported, certified* duality gap of the
monolithic TRW-S solve.
"""

import random

import numpy as np
import pytest

from repro.core.costs import build_mrf
from repro.core.diversify import diversify
from repro.mrf import (
    DualDecompositionSolver,
    DualSolveResult,
    MRFArrays,
    TRWSSolver,
)
from repro.mrf.partition import cut_parts
from repro.mrf.solvers import available_solvers, get_solver
from repro.network.topologies import (
    chain_network,
    grid_network,
    scale_free_network,
    tree_network,
)
from repro.nvd.similarity import SimilarityTable

SPEC = {"os": ("os_a", "os_b", "os_c"), "db": ("db_a", "db_b", "db_c")}


def similarity_for(spec=SPEC, seed=1):
    rng = random.Random(seed)
    table = SimilarityTable()
    for products in spec.values():
        for product in products:
            table.add_product(product)
        for i, a in enumerate(products):
            for b in products[i + 1:]:
                table.set(a, b, round(rng.uniform(0.1, 0.9), 3))
    return table


def giant_component(hosts=40, seed=0):
    """One connected scale-free estate — the shape sharding can't split."""
    net = scale_free_network(hosts, attach=2, seed=seed, services=SPEC)
    return net, similarity_for(seed=seed + 1)


def mrf_for(net, table):
    return build_mrf(net, table).mrf


class TestRegistry:
    def test_registered(self):
        assert "trws-dual" in available_solvers()
        solver = get_solver("trws-dual", parts=2)
        assert isinstance(solver, DualDecompositionSolver)
        assert solver.name == "trws-dual"

    def test_validation(self):
        with pytest.raises(ValueError, match="solver='trws'"):
            DualDecompositionSolver(solver="bp")
        with pytest.raises(TypeError, match="executor"):
            DualDecompositionSolver(executor="threads")
        with pytest.raises(ValueError, match="parts"):
            DualDecompositionSolver(parts=0)
        with pytest.raises(ValueError, match="max_rounds"):
            DualDecompositionSolver(max_rounds=0)
        with pytest.raises(ValueError, match="gap_tolerance"):
            DualDecompositionSolver(gap_tolerance=-1.0)

    def test_compute_bound_forced_on(self):
        # Without certified shard bounds the Polyak step has no reference
        # point (regression: compute_bound=False produced NaN multipliers).
        solver = DualDecompositionSolver(compute_bound=False)
        assert solver.solver_options["compute_bound"] is True


class TestFallbacks:
    def test_empty_mrf(self):
        net = chain_network(0)
        result = DualDecompositionSolver().solve(mrf_for(net, similarity_for(
            {"svc": ("p0", "p1")})))
        assert result.energy == 0.0
        assert result.labels == []

    def test_single_part_is_monolithic(self):
        net, table = giant_component(hosts=12)
        mrf = mrf_for(net, table)
        dual = DualDecompositionSolver(parts=1, seed=0).solve(mrf)
        mono = TRWSSolver(seed=0).solve(mrf)
        assert isinstance(dual, DualSolveResult)
        assert dual.rounds == 0
        assert dual.consensus
        assert dual.cut_edge_count == 0
        assert dual.energy == pytest.approx(mono.energy, abs=1e-9)


class TestGiantComponentParity:
    """The acceptance contract on connected graphs."""

    def _check(self, dual, mono, mrf):
        # the reported energy is the ground truth of the labelling
        assert mrf.energy(dual.labels) == pytest.approx(
            dual.energy, abs=1e-9
        )
        # the gap brackets the distance to the optimum: dual's bound is a
        # valid global lower bound, so it undercuts mono's labelling too
        assert dual.duality_gap >= -1e-12
        assert dual.lower_bound <= dual.energy + 1e-9
        assert dual.lower_bound <= mono.energy + 1e-9
        assert dual.energy - mono.energy <= dual.duality_gap + 1e-9

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scale_free_within_certified_gap(self, seed):
        net, table = giant_component(hosts=40, seed=seed)
        mrf = mrf_for(net, table)
        mono = TRWSSolver(seed=0).solve(mrf)
        dual = DualDecompositionSolver(parts=4, seed=0).solve(mrf)
        assert dual.parts == 4
        assert dual.cut_edge_count > 0
        assert dual.rounds >= 1
        self._check(dual, mono, mrf)

    def test_grid_within_certified_gap(self):
        net = grid_network(5, 6, services=SPEC)
        table = similarity_for(seed=3)
        mrf = mrf_for(net, table)
        mono = TRWSSolver(seed=0).solve(mrf)
        dual = DualDecompositionSolver(parts=3, seed=0).solve(mrf)
        self._check(dual, mono, mrf)

    def test_forest_cut_reaches_exact_optimum(self):
        # Cut shards of a tree are forests, so every shard solves exactly
        # (min-sum DP) and the dual loop converges to the tree's certified
        # optimum — which monolithic TRW-S also computes exactly.
        net = tree_network(4, branching=2, services=SPEC)
        table = similarity_for(seed=4)
        mrf = mrf_for(net, table)
        mono = TRWSSolver(seed=0).solve(mrf)
        dual = DualDecompositionSolver(
            parts=4, seed=0, max_rounds=80
        ).solve(mrf)
        assert dual.energy == pytest.approx(mono.energy, abs=1e-6)
        assert dual.duality_gap <= 1e-6 * max(1.0, abs(dual.energy))

    def test_strong_unaries_reach_consensus(self):
        # Near-decided nodes: shards agree almost immediately and the loop
        # exits on consensus with a (near-)zero gap.
        rng = np.random.default_rng(5)
        n = 30
        unaries = [rng.normal(size=3) * 10.0 for _ in range(n)]
        first = np.arange(n - 1)
        second = np.arange(1, n)
        plan = MRFArrays.from_parts(
            unaries, first, second, np.zeros(n - 1, dtype=np.int64),
            [np.eye(3)],
        )
        dual = DualDecompositionSolver(parts=3, seed=0)
        result = dual.solve_arrays(plan)
        assert result.consensus
        assert result.converged
        mono = TRWSSolver(seed=0).solve_arrays(
            MRFArrays.from_parts(
                unaries, first, second, np.zeros(n - 1, dtype=np.int64),
                [np.eye(3)],
            )
        )
        assert result.energy == pytest.approx(mono.energy, abs=1e-9)


@pytest.mark.slow
class TestExecutors:
    """Determinism: repeated solves return byte-identical answers."""

    @pytest.fixture(scope="class")
    def problem(self):
        net, table = giant_component(hosts=30, seed=6)
        return mrf_for(net, table)

    def _solve(self, mrf):
        return DualDecompositionSolver(parts=4, seed=0).solve(mrf)

    def test_repeat_solves_identical(self, problem):
        first = self._solve(problem)
        again = self._solve(problem)
        assert np.array_equal(first.labels, again.labels)
        assert first.energy == again.energy
        assert first.lower_bound == again.lower_bound
        assert first.rounds == again.rounds


class TestExplicitPartition:
    def test_caller_partition_is_used(self):
        net, table = giant_component(hosts=16, seed=7)
        plan = MRFArrays(mrf_for(net, table))
        partition = cut_parts(
            plan.unary_vectors(), plan.edge_first, plan.edge_second,
            plan.edge_cid, plan.matrix_stack(), lmax=plan.lmax, parts=2,
        )
        solver = DualDecompositionSolver(parts=5, seed=0)
        result = solver.solve_arrays(plan, partition=partition)
        assert result.parts == len(partition)
        assert result.cut_edge_count == len(partition.cut_edges)


@pytest.mark.slow
class TestDiversifyIntegration:
    def test_shards_cut_both_pipelines(self):
        # The compiled diversify() route and the build_mrf object route
        # solved by the same dual solver agree.
        net, table = giant_component(hosts=20, seed=8)
        direct = diversify(net, table, shards="cut", parts=3, seed=0)
        python = DualDecompositionSolver(parts=3, seed=0).solve(
            mrf_for(net, table)
        )
        assert direct.assignment.is_complete()
        assert direct.energy == pytest.approx(python.energy, abs=1e-9)

    def test_cut_reports_valid_bound(self):
        net, table = giant_component(hosts=20, seed=9)
        mono = diversify(net, table)
        cut = diversify(net, table, shards="cut", parts=3, seed=0)
        assert cut.lower_bound <= mono.energy + 1e-9


@pytest.mark.slow
class TestFaultDrill:
    """An injected crash mid-round must escape cleanly and leave the
    solver reusable — the recovery story of the outer loop."""

    def test_injected_crash_inside_outer_round(self, monkeypatch):
        from repro.service import InjectedCrash, parse_fault_plan

        net, table = giant_component(hosts=20, seed=10)
        mrf = mrf_for(net, table)
        reference = DualDecompositionSolver(parts=3, seed=0).solve(mrf)
        assert reference.rounds >= 2

        # Crash on the second multiplier update — i.e. *inside* round 2,
        # after shard solves have run and state is mid-flight.
        plan = parse_fault_plan("solve:crash:2")
        original = DualDecompositionSolver._subgradient_step

        def faulted(self, *args, **kwargs):
            if plan.fire("solve") == "crash":
                plan.crash()
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            DualDecompositionSolver, "_subgradient_step", faulted
        )
        solver = DualDecompositionSolver(parts=3, seed=0)
        with pytest.raises(InjectedCrash):
            solver.solve(mrf)
        monkeypatch.setattr(
            DualDecompositionSolver, "_subgradient_step", original
        )
        # The same solver instance recovers: a fresh solve from scratch is
        # byte-identical to an uncrashed run (no multiplier/scratch leak).
        recovered = solver.solve(mrf)
        assert np.array_equal(recovered.labels, reference.labels)
        assert recovered.energy == reference.energy
        assert recovered.rounds == reference.rounds
