"""Tests for the incremental diversification engine (repro.stream)."""

import numpy as np
import pytest

from repro.core.compile import compile_plan
from repro.core.costs import assignment_energy, build_mrf
from repro.core.diversify import diversify
from repro.network.constraints import GLOBAL, AvoidCombination, ConstraintSet
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream import (
    ChurnConfig,
    CombinationUpdate,
    DynamicDiversifier,
    HostJoin,
    HostLeave,
    LinkAdd,
    LinkRemove,
    PinService,
    SimilarityUpdate,
    StreamPlan,
    apply_event,
    random_churn_trace,
    replay_trace,
)


def workload(hosts=30, degree=2, services=3, pps=6, density=0.3, seed=0):
    """The sparse, well-colorable family where cold TRW-S reliably finds
    the optimum — the basis of the warm/cold energy-parity contract."""
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=pps, similarity_density=density, seed=seed,
    )
    return random_network(config), random_similarity(config)


def edge_triples(variables, first, second, cid, matrices):
    """Edges as sorted ``(variable, variable, matrix)`` triples, each
    oriented so its lower variable comes first (matrix transposed to
    match): equal lists mean equal edge sets up to endpoint swap."""
    triples = []
    for a, b, c in zip(first.tolist(), second.tolist(), cid.tolist()):
        matrix = matrices[c]
        if variables[b] < variables[a]:
            a, b, matrix = b, a, matrix.T
        triples.append((variables[a], variables[b], matrix.tolist()))
    return sorted(triples)


def assert_matches_cold_compile(plan):
    """A flushed plan's live edges are a cold compile's of the same state,
    and its combination map is the one a fresh ``install()`` derives."""
    unary, counts, first, second, cid, matrices = plan.parts()
    cold = compile_plan(
        plan.network, plan.similarity, constraints=plan.constraints
    ).parts
    assert edge_triples(
        plan.variables, first, second, cid, matrices
    ) == edge_triples(
        cold.variables, cold.edge_first, cold.edge_second, cold.edge_cid,
        cold.matrices,
    )
    fresh = StreamPlan.__new__(StreamPlan)
    fresh.install(
        variables=plan.variables, candidates=plan.candidates, unary=unary,
        label_counts=counts, matrices=matrices,
        matrix_meta=plan._matrix_meta, edge_first=first, edge_second=second,
        edge_cid=cid, plan=plan.plan, messages=plan.messages,
    )
    assert fresh._combo_cids == plan._combo_cids


def tiny_network():
    net = Network()
    spec = {"os": ("w", "l", "m"), "db": ("p", "q", "r")}
    for i in range(4):
        net.add_host(f"h{i}", spec)
    net.add_links([("h0", "h1"), ("h1", "h2"), ("h2", "h3")])
    table = SimilarityTable(pairs={("w", "l"): 0.5, ("p", "q"): 0.4})
    return net, table


class TestEvents:
    def test_describe_strings(self):
        assert "join" in HostJoin("x", services=(("s", ("a", "b")),)).describe()
        assert "leave h1" in HostLeave("h1").describe()
        assert "h0--h1" in LinkAdd("h0", "h1").describe()
        assert "h0--h1" in LinkRemove("h0", "h1").describe()
        assert "a~b=0.500" in SimilarityUpdate("a", "b", 0.5).describe()

    def test_similarity_update_validation(self):
        with pytest.raises(ValueError):
            SimilarityUpdate("a", "a", 0.5)
        with pytest.raises(ValueError):
            SimilarityUpdate("a", "b", 1.5)

    def test_apply_each_kind(self):
        net, table = tiny_network()
        apply_event(net, table, LinkAdd("h0", "h2"))
        assert net.has_link("h0", "h2")
        apply_event(net, table, LinkRemove("h0", "h2"))
        assert not net.has_link("h0", "h2")
        apply_event(
            net, table,
            HostJoin("h4", services=(("os", ("w", "l", "m")),), links=("h0",)),
        )
        assert "h4" in net and net.has_link("h0", "h4")
        apply_event(net, table, HostLeave("h4"))
        assert "h4" not in net
        apply_event(net, table, SimilarityUpdate("w", "m", 0.7))
        assert table.get("w", "m") == 0.7

    def test_similarity_update_requires_table(self):
        net, _ = tiny_network()
        with pytest.raises(ValueError):
            apply_event(net, None, SimilarityUpdate("w", "m", 0.7))


class TestTraceGenerator:
    def test_deterministic(self):
        net, _ = workload()
        a = random_churn_trace(net, ChurnConfig(events=10, seed=3))
        b = random_churn_trace(net, ChurnConfig(events=10, seed=3))
        assert a == b

    def test_trace_replays_cleanly(self):
        net, table = workload(seed=2)
        trace = random_churn_trace(net, ChurnConfig(events=25, seed=7))
        assert len(trace) == 25
        for event in trace:
            apply_event(net, table, event)  # must never raise

    def test_min_hosts_floor(self):
        net, table = workload(hosts=4, degree=2)
        trace = random_churn_trace(
            net, ChurnConfig(events=30, seed=1, weights=(0, 1, 0, 0, 1),
                             min_hosts=3)
        )
        for event in trace:
            apply_event(net, table, event)
        assert len(net) >= 3

    def test_weights_select_kinds(self):
        net, _ = workload()
        trace = random_churn_trace(
            net, ChurnConfig(events=12, seed=5, weights=(0, 0, 0, 0, 1))
        )
        assert all(isinstance(e, SimilarityUpdate) for e in trace)

    def test_infeasible_weights_raise_instead_of_spinning(self):
        # Leave-only churn at the host floor has no feasible event; the
        # generator must fail fast, not loop forever.
        net, _ = workload(hosts=4, degree=2)
        with pytest.raises(ValueError, match="no feasible event kind"):
            random_churn_trace(
                net,
                ChurnConfig(events=5, seed=0, weights=(0, 1, 0, 0, 0),
                            min_hosts=len(net)),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(events=-1)
        with pytest.raises(ValueError):
            ChurnConfig(weights=(0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            ChurnConfig(sim_low=0.8, sim_high=0.2)


class TestStreamPlan:
    def test_matches_batch_builder(self):
        net, table = workload(seed=1)
        plan = StreamPlan(net, table)
        build = build_mrf(net, table)
        assert plan.plan.node_count == build.mrf.node_count
        assert plan.plan.edge_count == build.mrf.edge_count
        rng = np.random.default_rng(0)
        labels = rng.integers(0, plan.plan.label_counts)
        assert plan.plan.energy(labels) == pytest.approx(
            build.mrf.energy([int(x) for x in labels]), abs=1e-9
        )

    @pytest.mark.parametrize("tseed", range(3))
    def test_patched_plan_matches_rebuild(self, tseed):
        net, table = workload(seed=tseed)
        plan = StreamPlan(net, table)
        trace = random_churn_trace(net, ChurnConfig(events=10, seed=tseed))
        for event in trace:
            plan.apply(event)
        plan.flush()
        build = build_mrf(net, table)  # plan.apply mutated net/table in place
        assert plan.plan.node_count == build.mrf.node_count
        assert plan.plan.edge_count == build.mrf.edge_count
        rng = np.random.default_rng(1)
        labels = rng.integers(0, plan.plan.label_counts)
        assert plan.plan.energy(labels) == pytest.approx(
            build.mrf.energy([int(x) for x in labels]), abs=1e-9
        )

    def test_similarity_update_is_in_place(self):
        net, table = workload(seed=3)
        plan = StreamPlan(net, table)
        arrays_before = plan.plan
        products = net.candidates(net.hosts[0], "s0")
        plan.apply(SimilarityUpdate(products[0], products[1], 0.9))
        assert plan.plan is arrays_before  # no structural rebuild
        assert plan.dirty_cost > 0
        plan.flush()
        assert plan.plan is arrays_before

    def test_message_slots_track_edges(self):
        net, table = workload(seed=4)
        plan = StreamPlan(net, table)
        a, b = net.links[0]
        plan.apply(LinkRemove(a, b))
        assert plan.messages.shape[0] == 2 * len(plan._edge_first)
        plan.apply(LinkAdd(a, b))
        assert plan.messages.shape[0] == 2 * len(plan._edge_first)
        plan.flush()
        assert plan.messages.shape[0] == 2 * plan.plan.edge_count

    def test_compacted_columns_stay_contiguous(self):
        # The native kernels take C-contiguous arrays only; a strided
        # column after compaction silently sends every sweep to NumPy.
        net, table = workload(seed=5)
        plan = StreamPlan(net, table)
        a, b = net.links[0]
        plan.apply(LinkRemove(a, b))
        plan.apply(HostLeave(net.hosts[-1]))
        arrays = plan.flush()
        unary, counts, first, second, cid, _ = plan.parts()
        for array in (unary, counts, first, second, cid, arrays.edge_first,
                      arrays.edge_second, arrays.edge_cid, plan.messages,
                      plan.labels if plan.labels is not None else first):
            assert array.flags.c_contiguous

    def test_link_churn_within_one_batch(self):
        net, table = workload(seed=4)
        plan = StreamPlan(net, table)
        edges = plan.edge_count
        a, b = net.links[0]
        shared = len(net.shared_services(a, b))
        # Remove, re-add and remove the same link before any flush: the
        # second removal only finds the re-added rows.
        plan.apply(LinkRemove(a, b))
        plan.apply(LinkAdd(a, b))
        plan.apply(LinkRemove(a, b))
        assert plan.edge_count == edges - shared
        assert plan.dirty_edges == 3 * shared
        plan.apply(LinkAdd(a, b))
        assert plan.edge_count == edges
        plan.flush()
        build = build_mrf(net, table)
        assert plan.plan.edge_count == build.mrf.edge_count == edges

    def test_endpoint_rows_track_churn(self):
        # A daemon sees hosts of ever-new names join and leave, links come
        # and go, hosts rejoin under their own names and combination rules
        # come and go; every row is found by its endpoints, so after each
        # flush the live edges are exactly a cold compile's.
        net, table = workload(seed=6)
        template = net.hosts[0]
        spec = tuple(
            (service, net.candidates(template, service))
            for service in net.services_of(template)
        )
        # A GLOBAL rule gives every newcomer a combination edge; the local
        # rule couples another pair, so retiring it drops its edge.
        combo = AvoidCombination(GLOBAL, spec[0][0], spec[0][1][0],
                                 spec[1][0], spec[1][1][0])
        local = AvoidCombination(template, spec[1][0], spec[1][1][1],
                                 spec[2][0], spec[2][1][1])
        plan = StreamPlan(net, table, constraints=ConstraintSet([combo]))
        peers = tuple(net.hosts[1:4])
        a, b = net.links[0]
        rejoiner = next(h for h in net.hosts[4:] if h not in (a, b))
        for i in range(40):
            host = f"fresh{i}"
            plan.apply(HostJoin(host, services=spec, links=peers))
            plan.apply(LinkRemove(a, b))
            plan.apply(LinkAdd(a, b))
            plan.apply(HostLeave(host))
            if i % 7 == 0:
                # Leave and rejoin under the same name in one batch.
                links = tuple(net.neighbors(rejoiner))
                plan.apply(HostLeave(rejoiner))
                plan.apply(HostJoin(rejoiner, services=spec, links=links))
                plan.apply(CombinationUpdate(local, add=i % 14 == 0))
                plan.flush()
                assert_matches_cold_compile(plan)
        plan.flush()
        assert_matches_cold_compile(plan)
        assert len(plan._combo_cids) == len(net.hosts)


class TestSolveResults:
    def test_result_assignment_survives_the_next_solve(self):
        # The engine patches its decoded dict in place on a warm solve;
        # a result handed out earlier keeps its own products.
        net, table = workload(seed=2)
        engine = DynamicDiversifier(net, table)
        first = engine.solve()
        before = first.assignment.as_dict()
        host, service = next(iter(before))
        other = next(
            product for product in net.candidates(host, service)
            if product != before[(host, service)]
        )
        engine.apply(PinService(host, service, other))
        second = engine.solve()
        assert second.warm
        assert second.assignment.get(host, service) == other
        assert first.assignment.as_dict() == before


class TestWarmStartParity:
    """The incremental contract: after any event sequence the warm re-solve
    reaches the same energy as a cold solve of the mutated network."""

    @pytest.mark.parametrize("wseed,tseed", [(0, 0), (1, 1), (2, 2), (3, 0)])
    def test_energy_parity_along_trace(self, wseed, tseed):
        net, table = workload(seed=wseed)
        trace = random_churn_trace(net, ChurnConfig(events=8, seed=tseed))
        engine = DynamicDiversifier(net.copy(), table.copy())
        initial = engine.solve()
        assert initial.energy == pytest.approx(
            diversify(net, table).energy, abs=1e-9
        )
        check_net, check_table = net.copy(), table.copy()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event)
            cold = diversify(check_net, check_table)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)

    def test_energy_is_ground_truth(self):
        # The engine's reported energy must equal the model-level E(N) of
        # its assignment on the mutated network, event after event.
        net, table = workload(seed=5)
        trace = random_churn_trace(net, ChurnConfig(events=10, seed=5))
        engine = DynamicDiversifier(net, table)
        engine.solve()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            assert result.energy == pytest.approx(
                assignment_energy(net, table, result.assignment), abs=1e-9
            )
            assert result.assignment.is_complete()

    def test_parity_with_correlated_bursts(self):
        # Rack joins merge components, host leaves split them; the burst
        # trace exercises both while parity must hold.  join_degree stays
        # at 1 so the trace remains inside the sparse, well-colorable
        # family the warm/cold parity contract covers.
        net, table = workload(seed=3)
        trace = random_churn_trace(
            net,
            ChurnConfig(events=10, seed=4, rack_size=2, vendor_batch=2,
                        join_degree=1, weights=(2.0, 1.0, 1.0, 1.0, 2.0)),
        )
        engine = DynamicDiversifier(net.copy(), table.copy())
        engine.solve()
        check_net, check_table = net.copy(), table.copy()
        for event in trace:
            engine.apply(event)
            result = engine.solve()
            apply_event(check_net, check_table, event)
            cold = diversify(check_net, check_table)
            assert result.energy == pytest.approx(cold.energy, abs=1e-9)


class TestDynamicDiversifier:
    def test_warm_flag_lifecycle(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table)
        assert not engine.solve().warm  # first solve is cold
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        assert engine.solve().warm

    def test_large_delta_falls_back_to_cold(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table, rebuild_fraction=0.25)
        engine.solve()
        for a, b in list(engine.network.links)[:12]:  # ~27% of 45 edges
            engine.apply(LinkRemove(a, b))
        assert not engine.solve().warm

    def test_warm_start_disabled(self):
        net, table = workload(seed=6)
        engine = DynamicDiversifier(net, table, warm_start=False)
        engine.solve()
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        assert not engine.solve().warm

    def test_stability_metric(self):
        net, table = workload(seed=7)
        engine = DynamicDiversifier(net, table)
        first = engine.solve()
        assert first.stability == 1.0
        a, b = engine.network.links[0]
        engine.apply(LinkRemove(a, b))
        result = engine.solve()
        assert 0.0 <= result.stability <= 1.0

    def test_host_join_with_wider_label_space(self):
        # A joining host with a wider candidate range grows the message
        # padding without dropping the warm state.
        net, table = tiny_network()
        engine = DynamicDiversifier(net, table, rebuild_fraction=0.6)
        engine.solve()
        engine.apply(
            HostJoin(
                "h9",
                services=(("os", ("w", "l", "m", "x", "y")),),
                links=("h0", "h1"),
            )
        )
        result = engine.solve()
        assert result.warm
        assert result.assignment.is_complete()
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )

    def test_invalid_options(self):
        net, table = tiny_network()
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, rebuild_fraction=2.0)
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, warm_iterations=0)
        with pytest.raises(ValueError):
            DynamicDiversifier(net, table, cost_jump_threshold=-1.0)

    def test_similarity_update_on_freshly_created_matrix(self):
        # Regression: a LinkAdd between hosts whose candidate-range pair
        # was not previously adjacent allocates a new cost matrix; a
        # SimilarityUpdate landing in it before the next flush used to
        # patch the stale cost stack out of range and crash.
        net = Network()
        net.add_host("a1", {"svc": ("p0", "p1")})
        net.add_host("a2", {"svc": ("p0", "p1")})
        net.add_host("b1", {"svc": ("q0", "q1")})
        net.add_host("b2", {"svc": ("q0", "q1")})
        net.add_links([("a1", "a2"), ("b1", "b2")])
        table = SimilarityTable(
            pairs={("p0", "p1"): 0.4, ("q0", "q1"): 0.3}
        )
        engine = DynamicDiversifier(net, table, rebuild_fraction=1.0)
        engine.solve()
        # New (p-range, q-range) adjacency → a fresh cost matrix...
        engine.apply(LinkAdd("a1", "b1"))
        engine.solve()
        # ... which the next feed re-score must land in without crashing.
        engine.apply(SimilarityUpdate("p0", "q1", 0.8))
        result = engine.solve()
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )
        # And batched in one delta (structural + value before a solve).
        engine.apply(LinkAdd("a2", "b2"))
        engine.apply(SimilarityUpdate("p1", "q0", 0.7))
        result = engine.solve()
        assert result.energy == pytest.approx(
            assignment_energy(net, table, result.assignment), abs=1e-9
        )


class TestCorrelatedTraces:
    def test_default_config_unchanged(self):
        # rack_size / vendor_batch of 1 must reproduce the pre-burst
        # draw sequence exactly (old seeds keep their traces).
        net, _ = workload()
        plain = random_churn_trace(net, ChurnConfig(events=15, seed=3))
        explicit = random_churn_trace(
            net, ChurnConfig(events=15, seed=3, rack_size=1, vendor_batch=1)
        )
        assert plain == explicit

    def test_rack_joins_share_peers_and_interlink(self):
        net, table = workload()
        trace = random_churn_trace(
            net,
            ChurnConfig(events=9, seed=2, weights=(1, 0, 0, 0, 0),
                        rack_size=3),
        )
        assert all(isinstance(e, HostJoin) for e in trace)
        racks = [trace[i : i + 3] for i in range(0, len(trace), 3)]
        for rack in racks:
            peer_sets = [set(m.links) - {n.host for n in rack} for m in rack]
            # Correlated: every member wires to the same aggregation peers.
            assert all(p == peer_sets[0] for p in peer_sets)
            # ... and to its earlier rack mates.
            for position, member in enumerate(rack):
                mates = {m.host for m in rack[:position]}
                assert mates <= set(member.links)
        for event in trace:
            apply_event(net, table, event)  # must never raise

    def test_vendor_batch_hits_one_range(self):
        net, table = workload()
        trace = random_churn_trace(
            net,
            ChurnConfig(events=12, seed=5, weights=(0, 0, 0, 0, 1),
                        vendor_batch=4),
        )
        assert all(isinstance(e, SimilarityUpdate) for e in trace)
        ranges = {
            net.candidates(host, service)
            for host in net.hosts
            for service in net.services_of(host)
        }
        for start in range(0, len(trace), 4):
            burst = trace[start : start + 4]
            touched = {p for e in burst for p in (e.product_a, e.product_b)}
            # All products of a burst belong to a single candidate range.
            assert any(touched <= set(r) for r in ranges)

    def test_bursts_deterministic_and_truncated(self):
        net, _ = workload()
        config = ChurnConfig(events=10, seed=1, rack_size=4, vendor_batch=3)
        a = random_churn_trace(net, config)
        b = random_churn_trace(net, config)
        assert a == b
        assert len(a) == 10

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(rack_size=0)
        with pytest.raises(ValueError):
            ChurnConfig(vendor_batch=0)


class TestReplayDriver:
    def test_records_and_summary(self):
        net, table = workload(seed=9)
        trace = random_churn_trace(net, ChurnConfig(events=6, seed=9))
        report = replay_trace(net, table, trace)
        assert len(report.records) == 6
        assert report.warm_count == 6
        assert 0.0 <= report.mean_stability <= 1.0
        assert report.total_cold_seconds is None
        assert "6 events" in report.summary()
        assert len(report.format_rows().splitlines()) == 6

    def test_compare_cold_fills_baseline(self):
        net, table = workload(hosts=12, seed=9)
        trace = random_churn_trace(net, ChurnConfig(events=3, seed=9))
        report = replay_trace(net, table, trace, compare_cold=True)
        for record in report.records:
            assert record.cold_seconds is not None
            assert record.cold_energy == pytest.approx(record.energy, abs=1e-9)
            assert record.speedup is not None
        assert "baseline" in report.summary()

    def test_cold_replay(self):
        net, table = workload(hosts=12, seed=10)
        trace = random_churn_trace(net, ChurnConfig(events=3, seed=10))
        report = replay_trace(net, table, trace, warm_start=False)
        assert report.warm_count == 0
