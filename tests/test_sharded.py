"""Tests for the sharded solver (repro.mrf.sharded).

The contract: components share no edges, so solving them independently and
stitching is exact — sharded and monolithic solves must land on identical
energies (and summed dual bounds stay valid) on every workload where the
monolithic solver finds the optimum: the zoned case-study network, the
air-gapped multi-zone family and the sparse random family.
"""

import numpy as np
import pytest

from repro.casestudy.stuxnet import stuxnet_case_study
from repro.core.costs import build_mrf
from repro.core.diversify import diversify
from repro.mrf.bp import LoopyBPSolver
from repro.mrf.partition import split_components, zone_groups
from repro.mrf.sharded import ShardedSolver
from repro.mrf.solvers import available_solvers, get_solver
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays

from tests.test_partition import workload, zoned_workload


class TestConstruction:
    def test_invalid_options(self):
        with pytest.raises(ValueError):
            ShardedSolver(solver="icm")

    def test_integer_shard_count_rejected(self):
        # Shards solve serially, so a shard count means nothing: rejected.
        net, table = workload(seed=0)
        for bad in (2, -1, "threads"):
            with pytest.raises(ValueError, match="'components', 'zones' or 'cut'"):
                diversify(net, table, shards=bad)

    def test_registry_entries(self):
        assert {"trws-sharded", "bp-sharded"} <= set(available_solvers())
        solver = get_solver("trws-sharded", max_iterations=5)
        assert isinstance(solver, ShardedSolver)
        assert solver.solver_name == "trws"
        assert solver.solver_options["max_iterations"] == 5


class TestEnergyParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_family_trws(self, seed):
        net, table = workload(seed=seed)
        mrf = build_mrf(net, table).mrf
        mono = TRWSSolver().solve(mrf)
        shard = ShardedSolver(solver="trws").solve(mrf)
        assert shard.energy == pytest.approx(mono.energy, abs=1e-9)
        assert shard.lower_bound <= shard.energy + 1e-9
        assert mrf.energy(shard.labels) == pytest.approx(
            shard.energy, abs=1e-9
        )

    def test_sparse_family_bp(self):
        net, table = workload(seed=1)
        mrf = build_mrf(net, table).mrf
        mono = LoopyBPSolver().solve(mrf)
        shard = ShardedSolver(solver="bp").solve(mrf)
        assert shard.energy == pytest.approx(mono.energy, abs=1e-9)

    def test_zoned_case_study(self):
        case = stuxnet_case_study()
        mono = diversify(case.network, case.similarity)
        sharded = diversify(case.network, case.similarity, shards="components")
        assert sharded.energy == pytest.approx(mono.energy, abs=1e-9)
        assert sharded.certified_optimal == mono.certified_optimal

    def test_airgapped_multi_zone(self):
        _zoned, network, table = zoned_workload(zones=3)
        mono = diversify(network, table)
        sharded = diversify(network, table, shards="components")
        assert sharded.energy == pytest.approx(mono.energy, abs=1e-9)

    def test_replicated_network_components_match_monolithic(self):
        # Every host runs the same services with the same ranges: the
        # shape the paper's scalability tables sweep.
        _zoned, network, table = zoned_workload(zones=3)
        mono = diversify(network, table)
        sharded = diversify(network, table, shards="components")
        assert sharded.energy == pytest.approx(mono.energy, abs=1e-9)
        assert sharded.solver_result.solver == "trws-sharded"
        assert sharded.assignment.is_complete()

    def test_forest_labels_identical_to_monolithic(self):
        # Chains are forests: both paths dispatch per component to the
        # same deterministic machinery, so even labels agree.
        from repro.network.topologies import chain_network
        from repro.nvd.similarity import SimilarityTable

        net = chain_network(8)
        table = SimilarityTable(products=["p0", "p1"])
        table.set("p0", "p1", 0.6)
        mrf = build_mrf(net, table).mrf
        mono = TRWSSolver().solve(mrf)
        shard = ShardedSolver(solver="trws").solve(mrf)
        assert shard.energy == pytest.approx(mono.energy, abs=1e-9)


class TestWarmStartContract:
    def test_messages_updated_in_place(self):
        net, table = workload(seed=4)
        plan = MRFArrays(build_mrf(net, table).mrf)
        messages = plan.zero_messages()
        solver = ShardedSolver(solver="trws")
        first = solver.solve_arrays(plan, messages=messages)
        assert np.any(messages != 0.0)
        # Re-solving from the converged state matches the cold energy.
        again = solver.solve_arrays(plan, messages=messages)
        assert again.energy == pytest.approx(first.energy, abs=1e-9)

    def test_prebuilt_partition_accepted(self):
        zoned, network, table = zoned_workload(zones=2)
        build = build_mrf(network, table)
        plan = MRFArrays(build.mrf)
        partition = split_components(
            plan, groups=zone_groups(build.variables, zoned)
        )
        solver = ShardedSolver(solver="trws")
        result = solver.solve_arrays(plan, partition=partition)
        mono = TRWSSolver().solve(build.mrf)
        assert result.energy == pytest.approx(mono.energy, abs=1e-9)


class TestScalabilityKnob:
    def test_scalability_cell_accepts_shards(self):
        from repro.experiments import scalability_cell
        from repro.network.generator import RandomNetworkConfig

        config = RandomNetworkConfig(hosts=16, degree=3, services=2, seed=0)
        plain = scalability_cell(config, max_iterations=2)
        sharded = scalability_cell(
            config, max_iterations=2, shards="components"
        )
        assert sharded.energy == pytest.approx(plain.energy, abs=1e-9)
        assert sharded.edges == plain.edges

    def test_scalability_rows_reject_shard_counts(self):
        from repro.experiments import table7_rows

        with pytest.raises(ValueError, match="'components', 'zones' or 'cut'"):
            table7_rows(
                host_counts=(16,), densities=(("tiny", 3, 2),), shards=4,
                max_iterations=2,
            )

    def test_empty_mrf(self):
        from repro.mrf.graph import PairwiseMRF

        result = ShardedSolver().solve(PairwiseMRF())
        assert result.labels == []
        assert result.converged
