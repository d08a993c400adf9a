"""Tests for constraint-delta streaming (pin/forbid/combination events)."""

import numpy as np
import pytest

from repro.core.costs import HARD_COST, assignment_energy, build_mrf
from repro.core.diversify import diversify
from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.model import Network, NetworkError
from repro.nvd.similarity import SimilarityTable
from repro.stream import (
    AllowRange,
    ChurnConfig,
    CombinationUpdate,
    DynamicDiversifier,
    ForbidRange,
    HostJoin,
    HostLeave,
    LinkAdd,
    LinkRemove,
    PinService,
    SimilarityUpdate,
    StreamPlan,
    UnpinService,
    apply_event,
    random_churn_trace,
    replay_trace,
)


def workload(hosts=30, degree=2, services=3, pps=6, density=0.3, seed=0):
    """The sparse, well-colorable family of the warm/cold parity contract."""
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=pps, similarity_density=density, seed=seed,
    )
    return random_network(config), random_similarity(config)


def tiny_network():
    net = Network()
    spec = {"os": ("w", "l", "m"), "db": ("p", "q", "r")}
    for i in range(4):
        net.add_host(f"h{i}", spec)
    net.add_links([("h0", "h1"), ("h1", "h2"), ("h2", "h3")])
    table = SimilarityTable(pairs={("w", "l"): 0.5, ("p", "q"): 0.4})
    return net, table


def constraint_trace(net, events=12, seed=0, **overrides):
    """A mixed churn + constraint trace over the sparse family."""
    options = dict(events=events, seed=seed, constraint_weight=4.0)
    options.update(overrides)
    return random_churn_trace(net, ChurnConfig(**options))


class TestConstraintEvents:
    def test_describe_strings(self):
        assert "pin h0.os=w" in PinService("h0", "os", "w").describe()
        assert "unpin h0.os" in UnpinService("h0", "os").describe()
        assert "forbid h0.os!=w" in ForbidRange("h0", "os", "w").describe()
        assert "allow h0.os=w" in AllowRange("h0", "os", "w").describe()
        combo = AvoidCombination("h0", "os", "w", "db", "p")
        assert "combo+" in CombinationUpdate(combo).describe()
        assert "combo-" in CombinationUpdate(combo, add=False).describe()

    def test_apply_pin_unpin(self):
        net, _ = tiny_network()
        constraints = ConstraintSet()
        apply_event(net, None, PinService("h0", "os", "w"), constraints)
        assert list(constraints) == [FixProduct("h0", "os", "w")]
        # Re-pin replaces, never stacks.
        apply_event(net, None, PinService("h0", "os", "l"), constraints)
        assert list(constraints) == [FixProduct("h0", "os", "l")]
        apply_event(net, None, UnpinService("h0", "os"), constraints)
        assert len(constraints) == 0
        # Unpinning an unpinned variable is a no-op.
        apply_event(net, None, UnpinService("h0", "os"), constraints)
        assert len(constraints) == 0

    def test_apply_forbid_allow(self):
        net, _ = tiny_network()
        constraints = ConstraintSet()
        apply_event(net, None, ForbidRange("h1", "db", "p"), constraints)
        assert list(constraints) == [ForbidProduct("h1", "db", "p")]
        apply_event(net, None, AllowRange("h1", "db", "p"), constraints)
        assert len(constraints) == 0

    def test_apply_combination(self):
        net, _ = tiny_network()
        constraints = ConstraintSet()
        combo = AvoidCombination("h2", "os", "w", "db", "p")
        apply_event(net, None, CombinationUpdate(combo), constraints)
        assert list(constraints) == [combo]
        apply_event(net, None, CombinationUpdate(combo, add=False), constraints)
        assert len(constraints) == 0
        with pytest.raises(ValueError):
            apply_event(
                net, None, CombinationUpdate(combo, add=False), constraints
            )

    def test_same_service_combination_rejected(self):
        # A rule coupling a service with itself would be a self-loop edge;
        # it must be rejected at event time, not crash a later HostJoin.
        net, _ = tiny_network()
        constraints = ConstraintSet()
        combo = RequireCombination(GLOBAL, "os", "w", "os", "l")
        with pytest.raises(NetworkError, match="itself"):
            apply_event(net, None, CombinationUpdate(combo), constraints)
        engine = DynamicDiversifier(*tiny_network())
        engine.solve()
        with pytest.raises(NetworkError, match="itself"):
            engine.apply(CombinationUpdate(combo))

    def test_constraint_events_need_a_set(self):
        net, _ = tiny_network()
        with pytest.raises(ValueError):
            apply_event(net, None, PinService("h0", "os", "w"))

    def test_invalid_product_raises(self):
        net, _ = tiny_network()
        constraints = ConstraintSet()
        with pytest.raises(NetworkError):
            apply_event(net, None, PinService("h0", "os", "nope"), constraints)
        with pytest.raises(NetworkError):
            apply_event(net, None, ForbidRange("h0", "os", "nope"), constraints)

    def test_host_leave_prunes_constraints(self):
        net, _ = tiny_network()
        constraints = ConstraintSet(
            [
                FixProduct("h3", "os", "w"),
                ForbidProduct("h0", "db", "p"),
                AvoidCombination("h3", "os", "w", "db", "p"),
                AvoidCombination(GLOBAL, "os", "m", "db", "r"),
            ]
        )
        apply_event(net, None, HostLeave("h3"), constraints)
        assert "h3" not in net
        assert list(constraints) == [
            ForbidProduct("h0", "db", "p"),
            AvoidCombination(GLOBAL, "os", "m", "db", "r"),
        ]


class TestConstraintSetPlumbing:
    def test_remove_and_copy(self):
        fix = FixProduct("h0", "os", "w")
        constraints = ConstraintSet([fix])
        clone = constraints.copy()
        constraints.remove(fix)
        assert len(constraints) == 0 and len(clone) == 1
        with pytest.raises(ValueError):
            constraints.remove(fix)

    def test_discard_where_and_lookups(self):
        constraints = ConstraintSet(
            [
                FixProduct("h0", "os", "w"),
                ForbidProduct("h0", "os", "l"),
                ForbidProduct("h1", "os", "l"),
                AvoidCombination("h0", "os", "w", "db", "p"),
            ]
        )
        assert [
            c.product for c in constraints.unary_constraints_for("h0", "os")
        ] == ["w", "l"]
        assert len(constraints.combination_constraints()) == 1
        dropped = constraints.discard_where(
            lambda c: isinstance(c, ForbidProduct)
        )
        assert len(dropped) == 2 and len(constraints) == 2


class TestStreamPlanConstraints:
    def test_initial_build_matches_batch_builder(self):
        net, table = workload(seed=1)
        host = net.hosts[0]
        products = net.candidates(host, "s0")
        constraints = ConstraintSet(
            [
                FixProduct(host, "s0", products[0]),
                ForbidProduct(net.hosts[1], "s1",
                              net.candidates(net.hosts[1], "s1")[2]),
                AvoidCombination(GLOBAL, "s0", products[1], "s1",
                                 net.candidates(host, "s1")[0]),
            ]
        )
        plan = StreamPlan(net, table, constraints=constraints.copy())
        build = build_mrf(net, table, constraints=constraints)
        assert plan.plan.node_count == build.mrf.node_count
        assert plan.plan.edge_count == build.mrf.edge_count
        rng = np.random.default_rng(0)
        labels = rng.integers(0, plan.plan.label_counts)
        # Relative tolerance: random labels can pay HARD_COST-scale masks,
        # where float summation order costs ~1e-8 absolute.
        assert plan.plan.energy(labels) == pytest.approx(
            build.mrf.energy([int(x) for x in labels]), rel=1e-12
        )

    @pytest.mark.parametrize("tseed", range(3))
    def test_patched_plan_matches_rebuild(self, tseed):
        net, table = workload(seed=tseed)
        plan = StreamPlan(net, table)
        trace = constraint_trace(net, events=14, seed=tseed)
        for event in trace:
            plan.apply(event)
        plan.flush()
        build = build_mrf(net, table, constraints=plan.constraints)
        assert plan.plan.node_count == build.mrf.node_count
        assert plan.plan.edge_count == build.mrf.edge_count
        rng = np.random.default_rng(1)
        labels = rng.integers(0, plan.plan.label_counts)
        assert plan.plan.energy(labels) == pytest.approx(
            build.mrf.energy([int(x) for x in labels]), rel=1e-12
        )

    def test_unary_mask_patch_is_in_place(self):
        net, table = workload(seed=3)
        plan = StreamPlan(net, table)
        arrays_before = plan.plan
        host = net.hosts[0]
        product = net.candidates(host, "s0")[0]
        plan.apply(PinService(host, "s0", product))
        assert plan.plan is arrays_before  # no structural rebuild
        node = plan.index[(host, "s0")]
        unary = plan.plan.unary[node, : plan.plan.label_counts[node]]
        assert unary[0] == pytest.approx(plan.unary_constant)
        assert np.all(unary[1:] >= HARD_COST)
        plan.apply(UnpinService(host, "s0"))
        assert plan.plan is arrays_before
        unary = plan.plan.unary[node, : plan.plan.label_counts[node]]
        assert np.all(unary == pytest.approx(plan.unary_constant))

    def test_combination_edges_track_rules(self):
        net, table = tiny_network()
        plan = StreamPlan(net, table)
        edges_before = plan.edge_count
        combo = AvoidCombination("h1", "os", "w", "db", "p")
        plan.apply(CombinationUpdate(combo))
        assert plan.edge_count == edges_before + 1
        assert plan.messages.shape[0] == 2 * plan.edge_count
        # A second rule on the same pair accumulates in place.
        other = AvoidCombination("h1", "os", "l", "db", "q")
        plan.apply(CombinationUpdate(other))
        assert plan.edge_count == edges_before + 1
        # Retiring both rules retires the edge.
        plan.apply(CombinationUpdate(combo, add=False))
        assert plan.edge_count == edges_before + 1
        plan.apply(CombinationUpdate(other, add=False))
        assert plan.edge_count == edges_before
        plan.flush()
        build = build_mrf(net, table, constraints=plan.constraints)
        assert plan.plan.edge_count == build.mrf.edge_count

    def test_stranding_pin_sets_flag(self):
        net, table = workload(seed=5)
        engine = DynamicDiversifier(net, table)
        engine.solve()
        host = engine.network.hosts[0]
        node = engine.plan.index[(host, "s0")]
        current = int(engine.plan.labels[node])
        products = engine.network.candidates(host, "s0")
        # Pinning the product already in use strands nothing...
        engine.apply(PinService(host, "s0", products[current]))
        assert not engine.plan.stranded
        # ... pinning a different one strands the previous label.
        other = products[(current + 1) % len(products)]
        engine.apply(PinService(host, "s0", other))
        assert engine.plan.stranded
        result = engine.solve()
        assert result.warm
        assert not engine.plan.stranded  # reset after the solve
        assert result.assignment.get(host, "s0") == other


class TestConstraintParity:
    """The tentpole contract: incremental energies equal a cold solve of
    the mutated network *and* constraint set along full event traces."""

    @pytest.mark.parametrize("wseed,tseed", [(0, 0), (1, 1), (2, 2), (3, 0)])
    def test_energy_parity_along_trace(self, wseed, tseed):
        net, table = workload(seed=wseed)
        trace = constraint_trace(net, events=10, seed=tseed)
        engine = DynamicDiversifier(net.copy(), table.copy())
        engine.solve()
        check_net, check_table = net.copy(), table.copy()
        check_cons = ConstraintSet()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event, check_cons)
            cold = diversify(check_net, check_table, constraints=check_cons)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)
            assert result.energy == pytest.approx(
                assignment_energy(
                    check_net, check_table, result.assignment,
                    constraints=check_cons,
                ),
                abs=1e-9,
            )

    def test_bursty_constraint_load_parity(self):
        net, table = workload(seed=4)
        trace = random_churn_trace(
            net,
            ChurnConfig(events=18, seed=11, weights=(0, 0, 0, 0, 0),
                        constraint_weight=1.0, constraint_burst=3),
        )
        engine = DynamicDiversifier(net.copy(), table.copy())
        engine.solve()
        check_net, check_table = net.copy(), table.copy()
        check_cons = ConstraintSet()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event, check_cons)
            cold = diversify(check_net, check_table, constraints=check_cons)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)

    def test_global_combination_with_host_join(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net.copy(), table.copy(),
                                    rebuild_fraction=0.6)
        engine.solve()
        host = engine.network.hosts[0]
        combo = AvoidCombination(
            GLOBAL, "s0", engine.network.candidates(host, "s0")[0],
            "s1", engine.network.candidates(host, "s1")[0],
        )
        template = engine.network.hosts[1]
        join = HostJoin(
            "newbie",
            services=tuple(
                (service, engine.network.candidates(template, service))
                for service in engine.network.services_of(template)
            ),
            links=(template,),
        )
        check_net, check_table = net.copy(), table.copy()
        check_cons = ConstraintSet()
        for event in (CombinationUpdate(combo), join):
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event, check_cons)
            cold = diversify(check_net, check_table, constraints=check_cons)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)
        # The newcomer carries the GLOBAL rule's table.
        assert ("newbie", "s0", "s1") in engine.plan._combo_cids or (
            "newbie", "s1", "s0"
        ) in engine.plan._combo_cids

    def test_bulk_load_falls_back_to_cold(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table, rebuild_fraction=0.25)
        engine.solve()
        variables = [
            (host, "s0") for host in engine.network.hosts[:30]
        ]  # 30 of 90 variables > 25%
        for host, service in variables:
            product = engine.network.candidates(host, service)[0]
            engine.apply(ForbidRange(host, service, product))
        result = engine.solve()
        assert not result.warm
        assert result.energy == pytest.approx(
            assignment_energy(
                net, table, result.assignment,
                constraints=engine.constraints,
            ),
            abs=1e-9,
        )


class TestTraceBackwardCompatibility:
    #: the exact seed-3 draw sequence of the pre-constraint generator.
    GOLDEN_SEED3 = [
        LinkAdd(a="h17", b="h4"),
        LinkAdd(a="h19", b="h15"),
        LinkRemove(a="h10", b="h11"),
        LinkRemove(a="h5", b="h7"),
        SimilarityUpdate(product_a="s0_p4", product_b="s0_p1", value=0.173),
        SimilarityUpdate(product_a="s0_p4", product_b="s0_p3", value=0.357),
        SimilarityUpdate(product_a="s2_p5", product_b="s2_p1", value=0.781),
        LinkRemove(a="h23", b="h24"),
    ]

    def test_golden_default_draw_sequence(self):
        net, _ = workload()
        trace = random_churn_trace(net, ChurnConfig(events=8, seed=3))
        assert trace == self.GOLDEN_SEED3

    def test_zero_weight_is_the_default(self):
        net, _ = workload()
        plain = random_churn_trace(net, ChurnConfig(events=15, seed=3))
        explicit = random_churn_trace(
            net,
            ChurnConfig(events=15, seed=3, constraint_weight=0.0,
                        constraint_burst=1),
        )
        assert plain == explicit

    def test_constraint_traces_deterministic(self):
        net, _ = workload()
        config = ChurnConfig(events=15, seed=2, constraint_weight=3.0,
                             constraint_burst=2)
        assert random_churn_trace(net, config) == random_churn_trace(
            net, config
        )

    def test_constraint_trace_replays_cleanly(self):
        net, table = workload(seed=2)
        trace = constraint_trace(net, events=25, seed=7)
        constraints = ConstraintSet()
        for event in trace:
            apply_event(net, table, event, constraints)  # must never raise

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(constraint_weight=-1.0)
        with pytest.raises(ValueError):
            ChurnConfig(constraint_burst=0)
        with pytest.raises(ValueError):
            ChurnConfig(weights=(0, 0, 0, 0, 0), constraint_weight=0.0)
        ChurnConfig(weights=(0, 0, 0, 0, 0), constraint_weight=1.0)


class TestReplayWithConstraints:
    def test_replay_records_constraint_events(self):
        net, table = workload(hosts=12, seed=9)
        trace = constraint_trace(net, events=5, seed=9)
        report = replay_trace(net, table, trace, compare_cold=True)
        assert len(report.records) == 5
        for record in report.records:
            assert record.cold_energy == pytest.approx(
                record.energy, abs=1e-9
            )

    def test_replay_with_initial_constraints(self):
        net, table = workload(hosts=12, seed=9)
        host = net.hosts[0]
        constraints = ConstraintSet(
            [FixProduct(host, "s0", net.candidates(host, "s0")[0])]
        )
        trace = constraint_trace(net, events=4, seed=3)
        report = replay_trace(
            net, table, trace, constraints=constraints, compare_cold=True
        )
        for record in report.records:
            assert record.cold_energy == pytest.approx(
                record.energy, abs=1e-9
            )

    def test_require_combination_streams(self):
        net, table = tiny_network()
        engine = DynamicDiversifier(net.copy(), table.copy(),
                                    rebuild_fraction=1.0)
        engine.solve()
        combo = RequireCombination("h1", "os", "w", "db", "r")
        check_net, check_table = net.copy(), table.copy()
        check_cons = ConstraintSet()
        for event in (
            PinService("h1", "os", "w"),
            CombinationUpdate(combo),
            CombinationUpdate(combo, add=False),
            UnpinService("h1", "os"),
        ):
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event, check_cons)
            cold = diversify(check_net, check_table, constraints=check_cons)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)
