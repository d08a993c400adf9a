"""Tests for the dual tier's edge-cut partitioning (repro.mrf.partition)."""

import numpy as np
import pytest

from repro.core.costs import build_mrf
from repro.mrf.partition import balanced_blocks, cut_parts
from repro.mrf.vectorized import MRFArrays
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)


def workload(hosts=30, degree=2, services=3, pps=6, seed=0):
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=pps, seed=seed,
    )
    return random_network(config), random_similarity(config)


def plan_for(net, table):
    return MRFArrays(build_mrf(net, table).mrf)


def connected_plan(hosts=24, seed=0):
    """A plan over one connected host graph — guarantees cut edges."""
    import random

    from repro.network.topologies import scale_free_network
    from repro.nvd.similarity import SimilarityTable

    spec = {"os": ("os_a", "os_b", "os_c"), "db": ("db_a", "db_b", "db_c")}
    net = scale_free_network(hosts, attach=2, seed=seed, services=spec)
    rng = random.Random(seed + 1)
    table = SimilarityTable()
    for products in spec.values():
        for product in products:
            table.add_product(product)
        for i, a in enumerate(products):
            for b in products[i + 1:]:
                table.set(a, b, round(rng.uniform(0.1, 0.9), 3))
    return plan_for(net, table)


class TestStitchValidation:
    """Regression: degenerate partitions must round-trip, not truncate.

    ``stitch`` used to ``zip`` shards with labellings, so a missing entry
    (typically a dropped single-node zero-edge shard, the degenerate
    product of an edge cut) silently became zeros in the stitched result.
    """

    def _singleton_partition(self):
        # Three edgeless nodes cut three ways: every shard is one node.
        return cut_parts(
            [np.zeros(2), np.zeros(3), np.zeros(2)],
            np.zeros(0), np.zeros(0), np.zeros(0), [], parts=3,
        )

    def test_single_node_zero_edge_shards_round_trip(self):
        partition = self._singleton_partition()
        assert [len(s.nodes) for s in partition] == [1, 1, 1]
        for shard in partition:
            assert len(shard.edges) == 0
            assert shard.plan.node_count == 1
            assert shard.plan.edge_count == 0
        stitched = partition.stitch([[1], [2], [0]])
        assert stitched.tolist() == [1, 2, 0]

    def test_scalar_labelling_accepted_for_single_node_shard(self):
        # Exact solvers naturally collapse a 1-node shard to a scalar.
        partition = self._singleton_partition()
        stitched = partition.stitch([np.int64(1), 2, [0]])
        assert stitched.tolist() == [1, 2, 0]

    def test_missing_shard_entry_raises(self):
        partition = self._singleton_partition()
        with pytest.raises(ValueError, match="expected 3 shard labellings"):
            partition.stitch([[1], [2]])

    def test_wrong_length_labelling_raises(self):
        partition = self._singleton_partition()
        with pytest.raises(ValueError, match="shard 1 has 1 node"):
            partition.stitch([[1], [2, 2], [0]])


class TestBalancedBlocks:
    def test_chain_split_is_contiguous(self):
        blocks = balanced_blocks(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5], 3)
        assert blocks.tolist() == [0, 0, 1, 1, 2, 2]

    def test_parts_clamped_and_blocks_nonempty(self):
        blocks = balanced_blocks(3, [0], [1], 10)
        assert sorted(set(blocks.tolist())) == [0, 1, 2]
        assert balanced_blocks(0, [], [], 4).shape == (0,)
        assert balanced_blocks(5, [], [], 1).tolist() == [0] * 5

    def test_balance_within_one_node(self):
        net, table = workload(hosts=29, seed=6)
        plan = plan_for(net, table)
        blocks = balanced_blocks(
            plan.node_count, plan.edge_first, plan.edge_second, 4
        )
        sizes = np.bincount(blocks)
        assert sizes.max() - sizes.min() <= 1


class TestCutParts:
    def _plan_and_cut(self, seed=0, parts=3):
        plan = connected_plan(seed=seed)
        partition = cut_parts(
            plan.unary_vectors(), plan.edge_first, plan.edge_second,
            plan.edge_cid, plan.matrix_stack(), lmax=plan.lmax, parts=parts,
        )
        return plan, partition

    def test_every_edge_owned_exactly_once(self):
        plan, partition = self._plan_and_cut()
        owned = np.sort(np.concatenate([s.edges for s in partition]))
        assert np.array_equal(owned, np.arange(plan.edge_count))

    def test_home_copies_cover_every_node_once(self):
        plan, partition = self._plan_and_cut(seed=1)
        homes = np.sort(
            np.concatenate([s.nodes[s.home] for s in partition])
        )
        assert np.array_equal(homes, np.arange(plan.node_count))

    def test_boundary_copies_match_ghosts(self):
        plan, partition = self._plan_and_cut(seed=2)
        assert len(partition.cut_edges) > 0
        for entry in partition.boundary:
            assert len(entry.copies) >= 2
            home_shard, home_local = entry.copies[0]
            assert partition.block[entry.node] == home_shard
            for shard_index, local in entry.copies:
                shard = partition.shards[shard_index]
                assert int(shard.nodes[local]) == entry.node

    def test_consistent_labelling_preserves_energy(self):
        # Shard energies (split unaries + owned edges) sum exactly to the
        # global energy whenever all copies agree — the dual invariant.
        plan, partition = self._plan_and_cut(seed=3)
        rng = np.random.default_rng(4)
        labels = rng.integers(0, plan.label_counts)
        total = sum(
            shard.plan.energy(labels[shard.nodes]) for shard in partition
        )
        assert total == pytest.approx(plan.energy(labels), abs=1e-9)

    def test_stitch_reads_home_copies_only(self):
        plan, partition = self._plan_and_cut(seed=5)
        rng = np.random.default_rng(6)
        labels = rng.integers(0, plan.label_counts)
        per_shard = []
        for shard in partition:
            sub = labels[shard.nodes].copy()
            sub[~shard.home] = 0  # corrupt ghosts; stitch must ignore them
            per_shard.append(sub)
        assert np.array_equal(partition.stitch(per_shard), labels)

    def test_disagreements_track_boundary_labels(self):
        plan, partition = self._plan_and_cut(seed=7)
        agree = [np.zeros(len(s.nodes), dtype=np.int64) for s in partition]
        assert partition.disagreements(agree) == []
        entry = partition.boundary[0]
        shard_index, local = entry.copies[-1]
        agree[shard_index][local] = 1
        assert [e.node for e in partition.disagreements(agree)] == [
            entry.node
        ]

    def test_degenerate_cut_single_node_shards(self):
        # parts == node count: every shard is one home node (plus ghosts),
        # and blocks with zero edges round-trip through stitch.
        unaries = [np.zeros(2) for _ in range(4)]
        repel = np.eye(2)
        partition = cut_parts(
            unaries, np.array([0, 1, 2]), np.array([1, 2, 3]),
            np.array([0, 0, 0]), [repel], parts=4,
        )
        assert len(partition) == 4
        assert len(partition.shards[3].edges) == 0  # h3 owns no edge
        assert partition.shards[3].plan.edge_count == 0
        labels = partition.stitch(
            [s.nodes * 0 + i for i, s in enumerate(partition)]
        )
        assert labels.tolist() == [0, 1, 2, 3]

    def test_caller_blocks_relabelled_densely(self):
        unaries = [np.zeros(2) for _ in range(4)]
        partition = cut_parts(
            unaries, np.array([0, 2]), np.array([1, 3]), np.array([0, 0]),
            [np.eye(2)], blocks=[5, 5, 9, 9],
        )
        assert len(partition) == 2
        assert partition.block.tolist() == [0, 0, 1, 1]
        with pytest.raises(ValueError, match="blocks must assign"):
            cut_parts(
                unaries, np.array([0]), np.array([1]), np.array([0]),
                [np.eye(2)], blocks=[0, 1],
            )

    def test_empty_plan(self):
        partition = cut_parts([], np.zeros(0), np.zeros(0), np.zeros(0), [])
        assert len(partition) == 0
        assert partition.stitch([]).shape == (0,)
