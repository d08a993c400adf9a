"""Direct network→plan compiler parity + solver-scratch reuse.

The contract under test (see ``repro/core/compile.py``):

* :func:`compile_plan` stores one matrix per unordered range pair, so its
  plan is *orientation-equivalent* to ``MRFArrays(build_mrf(...).mrf)``:
  bit-identical unaries and label counts, each edge's endpoints equal or
  swapped with its matrix transposed to match, and equal (``==``)
  energies.  Where every host of a service shares one range there is
  nothing to swap, and the plans are **byte-identical** — every node
  array, the cost stack, the edge arrays, message slots, γ weights and
  wavefront levels — across preferences, service weights, Fix/Forbid and
  combination constraints.
* :func:`compile_parts` carries what the :class:`StreamPlan` build keys
  its delta updates by (per-matrix range metadata; an edge's link and
  service are its endpoints'), so the streaming engine's cold rebuilds
  keep their event-path alignment.
* ``diversify`` compiles once for every solver and returns the same result
  as ``build_mrf(...).mrf`` solved directly by the same solver.
* A shared :class:`SolverScratch` never changes solver results — with or
  without reuse, across repeated solves and across different plans.
"""

import re

import numpy as np
import pytest

from repro.core.compile import (
    compile_parts,
    compile_plan,
    network_energy,
)
from repro.core.costs import build_mrf
from repro.core.diversify import diversify
from repro.mrf.sharded import solve_plan
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays, SolverScratch
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
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

from helpers import (
    LEXSORT_FIELDS,
    assert_level_orders_agree,
    count_compile_routes,
    lexsort_structure,
    make_random_mrf,
    pipeline_estate,
)

# ---------------------------------------------------------------- fixtures


def workload(hosts=24, degree=4, services=3, seed=0, products=4):
    config = RandomNetworkConfig(
        hosts=hosts,
        degree=degree,
        services=services,
        products_per_service=products,
        seed=seed,
    )
    return random_network(config), random_similarity(config)


def heterogeneous_network():
    """Per-host ranges whose links meet one range pair in both
    orientations (so some edges are stored swapped)."""
    net = Network()
    net.add_host("a", {"os": ["w", "l", "m"], "db": ["d1", "d2"]})
    net.add_host("b", {"os": ["w", "l"], "db": ["d1", "d2", "d3"]})
    net.add_host("c", {"os": ["w", "l", "m"]})
    net.add_host("d", {"os": ["w", "l"]})
    net.add_host("lonely", {"ssh": ["s1", "s2"]})  # no links at all
    net.add_links([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    table = SimilarityTable(
        products=["w", "l", "m", "d1", "d2", "d3", "s1", "s2"],
        pairs={("w", "l"): 0.4, ("w", "m"): 0.2, ("d1", "d2"): 0.7},
    )
    return net, table


_PLAN_ARRAYS = (
    "label_counts", "mask", "unary", "unary_inf", "cost",
    "edge_first", "edge_second", "edge_cid", "gamma",
)


def assert_plans_identical(reference: MRFArrays, compiled: MRFArrays):
    """Byte-level equality of every array a solver consumes."""
    assert reference.node_count == compiled.node_count
    assert reference.edge_count == compiled.edge_count
    assert reference.lmax == compiled.lmax
    assert reference.stacked == compiled.stacked
    for name in _PLAN_ARRAYS:
        left, right = getattr(reference, name), getattr(compiled, name)
        assert left.shape == right.shape, name
        assert np.array_equal(left, right, equal_nan=True), name
    for name in LEXSORT_FIELDS:
        left = getattr(reference.adjacency, name)
        right = getattr(compiled.adjacency, name)
        assert left.shape == right.shape, name
        assert np.array_equal(left, right), name


def reference_plan(net, sim, **kwargs) -> MRFArrays:
    return MRFArrays(build_mrf(net, sim, **kwargs).mrf)


def edge_matrix(plan: MRFArrays, e: int) -> np.ndarray:
    """Edge ``e``'s cost matrix, rows = labels of its first endpoint."""
    rows = int(plan.label_counts[plan.edge_first[e]])
    cols = int(plan.label_counts[plan.edge_second[e]])
    return plan.cost[plan.edge_cid[e], :rows, :cols]


def similarity_edge_keys(parts):
    """Each similarity edge's (link, service), read off its endpoints."""
    keys = []
    for first, second in zip(
        parts.edge_first.tolist(), parts.edge_second.tolist()
    ):
        (host_a, service), (host_b, other) = (
            parts.variables[first], parts.variables[second]
        )
        if host_a != host_b:  # combination edges stay on one host
            assert other == service
            keys.append((tuple(sorted((host_a, host_b))), service))
    return keys


def sorted_link_keys(net):
    """``build_mrf``'s edge order: the sorted links, each link's shared
    services in its first host's declaration order."""
    return [
        (link, service)
        for link in net.links
        for service in net.shared_services(*link)
    ]


def assert_orientation_equivalent(reference: MRFArrays, compiled: MRFArrays):
    """``compiled`` is ``reference`` up to edge orientation: bit-identical
    unaries and label counts, each edge's endpoints equal or swapped, and
    each edge's matrix equal to the reference's — transposed where the
    endpoints are swapped.  Returns the swapped-edge mask."""
    assert reference.label_counts.tobytes() == compiled.label_counts.tobytes()
    assert reference.unary.tobytes() == compiled.unary.tobytes()
    assert reference.edge_count == compiled.edge_count
    same = (compiled.edge_first == reference.edge_first) & (
        compiled.edge_second == reference.edge_second
    )
    swapped = (compiled.edge_first == reference.edge_second) & (
        compiled.edge_second == reference.edge_first
    )
    assert np.all(same | swapped)
    for e in range(compiled.edge_count):
        expected = edge_matrix(reference, e)
        if swapped[e]:
            expected = expected.T
        got = edge_matrix(compiled, e)
        assert got.shape == expected.shape, e
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), e
    return swapped


# ------------------------------------------------------- plan parity suite


class TestCompileParity:
    def test_plain_workload(self):
        net, sim = workload(seed=1)
        assert_plans_identical(
            reference_plan(net, sim), compile_plan(net, sim).plan
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_seeds(self, seed):
        net, sim = workload(hosts=16, degree=3, services=2, seed=seed)
        assert_plans_identical(
            reference_plan(net, sim), compile_plan(net, sim).plan
        )

    def test_preferences_and_service_weights(self):
        net, sim = workload(seed=2)
        prefs = {
            ("h0", "s0", "s0_p1"): -0.3,
            ("h3", "s1", "s1_p2"): 0.25,
            ("h5", "s2", "not_a_product"): 9.0,  # ignored, like the builder
        }
        weights = {"s0": 2.0, "s2": 0.5}
        kwargs = dict(
            preferences=prefs,
            service_weights=weights,
            pairwise_weight=1.5,
            unary_constant=0.02,
        )
        assert_plans_identical(
            reference_plan(net, sim, **kwargs),
            compile_plan(net, sim, **kwargs).plan,
        )

    def test_fix_forbid_and_combination_constraints(self):
        net, sim = workload(seed=3)
        constraints = ConstraintSet(
            [
                FixProduct("h0", "s0", "s0_p2"),
                ForbidProduct("h1", "s1", "s1_p0"),
                ForbidProduct("h0", "s0", "s0_p3"),  # stacks on the fix
                RequireCombination(GLOBAL, "s0", "s0_p1", "s1", "s1_p2"),
                AvoidCombination("h2", "s1", "s1_p1", "s2", "s2_p2"),
            ]
        )
        assert_plans_identical(
            reference_plan(net, sim, constraints=constraints),
            compile_plan(net, sim, constraints=constraints).plan,
        )

    def test_heterogeneous_ranges_and_isolated_host(self):
        # Edges flip here, so the plans are orientation-equivalent rather
        # than byte-identical; energies still agree bit for bit.
        net, sim = heterogeneous_network()
        reference = reference_plan(net, sim)
        compiled = compile_plan(net, sim).plan
        swapped = assert_orientation_equivalent(reference, compiled)
        assert swapped.any()
        assert compiled.stacked < reference.stacked
        rng = np.random.default_rng(4)
        for _ in range(20):
            labels = rng.integers(0, compiled.label_counts)
            assert compiled.energy(labels) == reference.energy(labels)

    def test_energies_equal_exactly(self):
        net, sim = workload(seed=4)
        reference = reference_plan(net, sim)
        compiled = compile_plan(net, sim).plan
        rng = np.random.default_rng(0)
        for _ in range(5):
            labels = rng.integers(0, compiled.label_counts)
            assert compiled.energy(labels) == reference.energy(labels)

    def test_validation_matches_builder(self):
        net, sim = workload(seed=1)
        with pytest.raises(ValueError):
            compile_plan(net, sim, pairwise_weight=-1.0)
        with pytest.raises(ValueError):
            compile_plan(net, sim, service_weights={"s0": -2.0})

    def test_variable_mapping_matches_builder(self):
        net, sim = workload(seed=5)
        build = build_mrf(net, sim)
        compiled = compile_plan(net, sim).parts
        assert compiled.variables == build.variables
        assert compiled.index == build.index
        assert compiled.candidates == build.candidates

    def test_labels_roundtrip(self):
        net, sim = workload(seed=6)
        compiled = compile_plan(net, sim)
        rng = np.random.default_rng(1)
        labels = [int(x) for x in rng.integers(0, compiled.plan.label_counts)]
        assignment = compiled.labels_to_assignment(net, labels)
        assert compiled.assignment_to_labels(assignment) == labels


# ------------------------------------------------------ compile orderings


def ordering_network():
    """A network whose compile orderings have every corner case: host
    names whose string order is neither their insertion nor their numeric
    order (``h9``/``h10``, mixed case, non-ASCII), links added in reverse
    order, a host removed and re-added, hosts without services, and a
    service on only some hosts with per-host ranges."""
    net = Network()
    os_ranges = [("w", "l"), ("l", "w", "m"), ("w", "l")]
    names = ["h10", "h9", "Zeta", "é1", "h2", "alpha", "H1", "日本", "ß", "h11"]
    for k, host in enumerate(names):
        net.add_host(host, {"os": os_ranges[k % 3]})
    net.add_host("bare")  # no services at all
    net.add_host("bare2")
    net.add_service("h9", "db", ["d1", "d2"])
    net.add_service("Zeta", "db", ["d2", "d1", "d3"])
    net.add_service("h2", "db", ["d1", "d2"])
    net.add_service("日本", "db", ["d3", "d1"])
    links = [
        ("h10", "h9"), ("h9", "Zeta"), ("Zeta", "é1"), ("é1", "h2"),
        ("h2", "alpha"), ("alpha", "H1"), ("H1", "日本"), ("日本", "ß"),
        ("ß", "h11"), ("h11", "h10"), ("h9", "h2"), ("Zeta", "日本"),
        ("bare", "h9"), ("bare", "bare2"), ("h10", "日本"), ("bare2", "ß"),
    ]
    for a, b in reversed(links):
        net.add_link(a, b)
    # Remove a host with links and re-add it with other services: it
    # moves to the end of the insertion order.
    net.remove_host("h2")
    net.add_host("h2", {"db": ["d2", "d3"], "os": ["m", "w"]})
    net.add_links([("h2", "h9"), ("alpha", "h2"), ("h2", "日本")])
    table = SimilarityTable(
        products=["w", "l", "m", "d1", "d2", "d3"],
        pairs={("w", "l"): 0.4, ("w", "m"): 0.2, ("l", "m"): 0.9,
               ("d1", "d2"): 0.7, ("d2", "d3"): 0.1},
    )
    return net, table


#: preferences that name an unknown host, service or product, or a
#: product outside the node's range, next to ones that apply.
ORDERING_PREFERENCES = {
    ("h10", "os", "w"): -0.5,
    ("nobody", "os", "w"): 3.0,
    ("h9", "nosvc", "w"): 3.0,
    ("h9", "os", "nothing"): 3.0,
    ("H1", "os", "m"): 2.0,  # "m" is in other hosts' os ranges only
    ("Zeta", "db", "d3"): 0.25,
    ("h2", "os", "m"): -0.125,
    ("bare", "os", "w"): 1.0,
}


class TestCompileOrderings:
    """The compile's link order (integer ranks of the sorted host names),
    one-pass interning and preference scatter reproduce ``build_mrf`` on
    inputs where string, insertion and numeric order all differ."""

    @pytest.mark.parametrize("preferences", [None, ORDERING_PREFERENCES])
    def test_orientation_equivalent_to_builder(self, preferences):
        net, sim = ordering_network()
        names = sorted(net.hosts)
        assert net.hosts[-1] == "h2" and net.hosts != names
        assert names.index("h10") < names.index("h9")  # not numeric order
        assert names.index("H1") < names.index("alpha") < names.index("é1")
        build = build_mrf(net, sim, preferences=preferences)
        compiled = compile_plan(net, sim, preferences=preferences)
        assert similarity_edge_keys(compiled.parts) == sorted_link_keys(net)
        assert compiled.parts.variables == build.variables
        assert compiled.parts.index == build.index
        assert compiled.parts.candidates == build.candidates
        reference = MRFArrays(build.mrf)
        assert_orientation_equivalent(reference, compiled.plan)
        rng = np.random.default_rng(5)
        for _ in range(10):
            labels = rng.integers(0, compiled.plan.label_counts)
            assert compiled.plan.energy(labels) == reference.energy(labels)
            assignment = compiled.labels_to_assignment(net, labels.tolist())
            assert assignment.as_dict() == build.labels_to_assignment(
                net, labels.tolist()
            ).as_dict()
            assert network_energy(net, sim, assignment) == pytest.approx(
                build.mrf.energy(labels.tolist()) - _preference_total(
                    build, labels, preferences
                )
            )

    def test_edge_keys_follow_sorted_links(self):
        net, sim = ordering_network()
        parts = compile_parts(net, sim)
        keys = similarity_edge_keys(parts)
        links = [link for link, _ in keys]
        assert len(keys) == len(parts.edge_first)
        assert links == sorted(links)
        assert keys == sorted_link_keys(net)

    def test_malformed_preference_values_raise_only_when_applied(self):
        net, sim = ordering_network()
        with pytest.raises(ValueError):
            compile_plan(net, sim, preferences={("h10", "os", "w"): "x"})
        with pytest.raises(TypeError):
            compile_plan(net, sim, preferences={("h10", "os", "l"): None})
        # A value whose key names no (node, label) is never read.
        compile_plan(net, sim, preferences={("nobody", "os", "w"): "x"})
        compile_plan(net, sim, preferences={("H1", "os", "m"): None})

    def test_empty_and_linkless_networks(self):
        sim = SimilarityTable(products=["w"])
        linkless = Network()
        linkless.add_host("b", {"os": ["w"]})
        linkless.add_host("a")
        for net in (Network(), linkless):
            parts = compile_parts(net, sim)
            assert similarity_edge_keys(parts) == sorted_link_keys(net) == []
            assert len(parts.edge_first) == 0
            assert_orientation_equivalent(
                reference_plan(net, sim), compile_plan(net, sim).plan
            )


def _preference_total(build, labels, preferences):
    """The preference part of ``build``'s unaries under ``labels``."""
    if not preferences:
        return 0.0
    total = 0.0
    for node, (host, service) in enumerate(build.variables):
        product = build.candidates[node][int(labels[node])]
        total += preferences.get((host, service, product), 0.0)
    return total


# ------------------------------------------------- stream parts convention


class TestStreamPartsParity:
    def test_matches_oriented_energies(self):
        net, sim = workload(seed=7)
        reference = reference_plan(net, sim)
        parts = compile_parts(net, sim)
        plan = MRFArrays.from_dense(
            parts.unary,
            parts.label_counts,
            parts.edge_first,
            parts.edge_second,
            parts.edge_cid,
            parts.matrices,
        )
        rng = np.random.default_rng(2)
        for _ in range(5):
            labels = rng.integers(0, plan.label_counts)
            assert plan.energy(labels) == reference.energy(labels)

    def test_paired_dedup_and_flip(self):
        net, sim = heterogeneous_network()
        parts = compile_parts(net, sim)
        # One matrix per unordered (range, range, weight) key: the (3,2)
        # os pairing and the (2,3) db pairing — never a transpose entry.
        assert len(parts.matrices) == 2
        for matrix, (range_a, range_b, weight) in zip(
            parts.matrices, parts.matrix_meta
        ):
            assert matrix.shape == (len(range_a), len(range_b))
        # Flipped edges price through the stored orientation.
        for e in range(len(parts.edge_first)):
            cid = int(parts.edge_cid[e])
            range_a, range_b, _w = parts.matrix_meta[cid]
            assert parts.candidates[int(parts.edge_first[e])] == range_a
            assert parts.candidates[int(parts.edge_second[e])] == range_b

    def test_edge_keys_align(self):
        net, sim = workload(hosts=10, degree=3, services=2, seed=8)
        parts = compile_parts(net, sim)
        keys = similarity_edge_keys(parts)
        assert len(keys) == len(parts.edge_first)
        assert keys == sorted_link_keys(net)


# ------------------------------------------------------ diversify routing


class TestDiversifyRouting:
    def test_direct_equals_python_pipeline(self, monkeypatch):
        net, sim = workload(seed=9)
        routes = count_compile_routes(monkeypatch)
        direct = diversify(net, sim)
        assert routes == {"compile_plan": 1, "build_mrf": 0}
        build = build_mrf(net, sim)
        classic = TRWSSolver().solve(build.mrf)
        assert direct.energy == pytest.approx(classic.energy)
        assert (
            direct.assignment.as_dict()
            == build.labels_to_assignment(net, classic.labels).as_dict()
        )

    def test_constrained_direct_equals_python(self):
        net, sim = workload(seed=10)
        constraints = ConstraintSet(
            [
                FixProduct("h0", "s0", "s0_p1"),
                AvoidCombination(GLOBAL, "s0", "s0_p0", "s1", "s1_p0"),
            ]
        )
        direct = diversify(net, sim, constraints=constraints)
        build = build_mrf(net, sim, constraints=constraints)
        classic = TRWSSolver().solve(build.mrf)
        assert direct.energy == pytest.approx(classic.energy)
        violations = constraints.violations(
            build.labels_to_assignment(net, classic.labels), net
        )
        assert direct.satisfied == (not violations)

    def test_object_solvers_route_through_compiler(self, monkeypatch):
        # The solvers but TRW-S solve the PairwiseMRF read off the one
        # compiled plan; build_mrf stays the oracle only.
        net, sim = workload(hosts=6, degree=2, services=1, seed=12)
        routes = count_compile_routes(monkeypatch)
        solvers = ("icm", "exact", "anneal", "trws-ref", "bp-ref")
        for calls, solver in enumerate(solvers, start=1):
            result = diversify(net, sim, solver=solver)
            assert routes == {"compile_plan": calls, "build_mrf": 0}, solver
            assert result.solver_result.solver == solver

    def test_forest_dispatch_matches(self):
        from repro.network.topologies import chain_network

        table = SimilarityTable(products=["p0", "p1"])
        table.set("p0", "p1", 0.8)
        net = chain_network(5)
        direct = diversify(net, table)
        classic = TRWSSolver().solve(build_mrf(net, table).mrf)
        assert direct.energy == pytest.approx(classic.energy)
        assert direct.certified_optimal
        assert classic.is_certified_optimal(tolerance=1e-6)


# -------------------------------------------------------- vectorized energy


class TestNetworkEnergy:
    def test_matches_mrf_energy(self):
        net, sim = workload(seed=13)
        build = build_mrf(net, sim)
        rng = np.random.default_rng(3)
        plan = compile_plan(net, sim)
        labels = [int(x) for x in rng.integers(0, plan.plan.label_counts)]
        assignment = build.labels_to_assignment(net, labels)
        assert network_energy(net, sim, assignment) == pytest.approx(
            build.mrf.energy(labels)
        )

    def test_partial_assignment_skips_uncoupled(self):
        net, sim = heterogeneous_network()
        build = build_mrf(net, sim)
        assignment = build.labels_to_assignment(
            net, [0] * len(build.variables)
        )
        assignment.unassign("a", "os")
        # Unassigned endpoints contribute no pairwise cost; the unary
        # term still counts variables — the reference loop's semantics.
        expected = 0.01 * net.variable_count() + _coupled_total(
            net, sim, assignment
        )
        assert network_energy(net, sim, assignment) == pytest.approx(expected)

    def test_weighted(self):
        net, sim = workload(seed=14)
        build = build_mrf(net, sim, service_weights={"s0": 2.0})
        labels = [0] * len(build.variables)
        assignment = build.labels_to_assignment(net, labels)
        assert network_energy(
            net, sim, assignment, service_weights={"s0": 2.0}
        ) == pytest.approx(build.mrf.energy(labels))


def _coupled_total(net, sim, assignment):
    total = 0.0
    for a, b in net.links:
        for service in net.shared_services(a, b):
            pa, pb = assignment.get(a, service), assignment.get(b, service)
            if pa is not None and pb is not None:
                total += sim.get(pa, pb)
    return total


# --------------------------------------------------------- scratch parity


class TestSolverScratch:
    def test_buffers_grow_and_alias(self):
        scratch = SolverScratch()
        small = scratch.array("x", (2, 3))
        small.fill(7.0)
        again = scratch.array("x", (2, 3))
        assert np.all(again == 7.0)  # same storage, no reallocation
        bigger = scratch.array("x", (4, 5))
        assert bigger.shape == (4, 5)
        zeros = scratch.zeros("x", (2, 2))
        assert np.all(zeros == 0.0)

    def test_trws_results_identical_with_shared_scratch(self):
        scratch = SolverScratch()
        for seed in range(3):
            net, sim = workload(hosts=14, degree=4, services=2, seed=seed)
            plan = compile_plan(net, sim).plan
            fresh = TRWSSolver().solve_arrays(plan)
            shared = TRWSSolver().solve_arrays(plan, scratch=scratch)
            assert shared.labels == fresh.labels
            assert shared.energy == fresh.energy
            assert shared.lower_bound == fresh.lower_bound
            assert shared.iterations == fresh.iterations

    def test_repeated_solves_reuse_without_drift(self):
        net, sim = workload(hosts=20, degree=4, services=2, seed=4)
        plan = compile_plan(net, sim).plan
        scratch = SolverScratch()
        solver = TRWSSolver()
        first = solver.solve_arrays(plan, scratch=scratch)
        for _ in range(3):
            again = solver.solve_arrays(plan, scratch=scratch)
            assert again.labels == first.labels
            assert again.energy == first.energy

    def test_warm_start_with_scratch(self):
        net, sim = workload(hosts=16, degree=3, services=2, seed=5)
        plan = compile_plan(net, sim).plan
        scratch = SolverScratch()
        messages_a = plan.zero_messages()
        messages_b = plan.zero_messages()
        with_scratch = TRWSSolver().solve_arrays(
            plan, messages=messages_a, scratch=scratch
        )
        without = TRWSSolver().solve_arrays(plan, messages=messages_b)
        assert with_scratch.labels == without.labels
        assert np.array_equal(messages_a, messages_b)

    def test_solve_plan_matches_mrf_solve(self):
        net, sim = workload(hosts=18, degree=4, services=2, seed=7)
        build = build_mrf(net, sim)
        compiled = compile_plan(net, sim)
        via_plan = solve_plan(compiled.plan)
        via_mrf = TRWSSolver().solve(build.mrf)
        assert via_plan.labels == via_mrf.labels
        assert via_plan.energy == pytest.approx(via_mrf.energy)


# ------------------------------------------------------- wavefront levels


class TestWavefrontLevels:
    """Every available structure kernel orders the nodes by the levels of
    the plain per-node loop (``helpers.python_levels``), forward and
    backward, on shapes the small fixtures elsewhere in the suite do not
    reach."""

    def test_random_dag(self):
        rng = np.random.default_rng(0)
        n, m = 3000, 9000
        lo = rng.integers(0, n - 1, m)
        hi = lo + 1 + rng.integers(0, np.maximum(1, n - 1 - lo))
        assert_level_orders_agree(n, lo, hi)

    def test_deep_chain(self):
        n = 6000
        lo = np.arange(n - 1, dtype=np.int64)
        assert_level_orders_agree(n, lo, lo + 1)

    def test_small_random_plan_either_orientation(self):
        rng = np.random.default_rng(1)
        n, m = 40, 90
        lo = rng.integers(0, n - 1, m)
        hi = lo + 1 + rng.integers(0, np.maximum(1, n - 1 - lo))
        flip = rng.random(m) < 0.5
        assert_level_orders_agree(
            n,
            np.where(flip, hi, lo).astype(np.int64),
            np.where(flip, lo, hi).astype(np.int64),
        )

    def test_isolated_nodes_stay_level_zero(self):
        lo = np.asarray([2, 3], dtype=np.int64)
        hi = np.asarray([4, 5], dtype=np.int64)
        assert_level_orders_agree(8, lo, hi)

    @pytest.mark.parametrize(
        "first, second, named",
        [
            ([0, 1], [1, 1], "edge 1 (1, 1)"),
            ([0, 1], [1, 3], "edge 1 (1, 3)"),
            ([0, -1], [1, 2], "edge 1 (-1, 2)"),
        ],
    )
    def test_bad_endpoints_raise_naming_the_edge(self, first, second, named):
        # A self-loop used to spin the level fixpoint forever; an id past
        # the node count would index the native kernel's arrays raw.
        unaries = [np.zeros(2)] * 3
        with pytest.raises(ValueError, match=re.escape(named)):
            MRFArrays.from_parts(
                unaries, np.array(first), np.array(second),
                np.zeros(2, dtype=np.int64), [np.ones((2, 2))],
            )

    @pytest.mark.parametrize("build", ["from_dense", "replace_edges"])
    @pytest.mark.parametrize("cid", [1, -1])
    def test_bad_cost_id_raises_naming_the_edge(self, build, cid):
        # The energy and the kernels index the cost stack raw: a bad id
        # must fail at the build, naming its edge, not later elsewhere.
        first, second, cids = np.array([0, 1]), np.array([1, 2]), [0, cid]
        named = f"edge 1 (1, 2) has cost id {cid} outside [0, 1)"
        matrices = [np.ones((2, 2))]
        unary, counts = np.zeros((3, 2)), np.full(3, 2)
        with pytest.raises(ValueError, match=re.escape(named)):
            if build == "from_dense":
                MRFArrays.from_dense(
                    unary, counts, first, second, np.array(cids), matrices
                )
            else:
                plan = MRFArrays.from_dense(
                    unary, counts, first, second, np.zeros(2, np.int64),
                    matrices,
                )
                plan.replace_edges(first, second, np.array(cids), matrices)


class TestLexsortOracle:
    """The plan build is segment gathers of one endpoint grouping; the
    explicit lexsort construction kept as its oracle (``helpers.
    lexsort_structure``) must produce every array identically — values,
    dtype, shape and C-contiguity — on each available backend."""

    @staticmethod
    def _assert_matches_oracle(plan):
        expected = lexsort_structure(plan)
        actual = {"gamma": plan.gamma}
        for field in LEXSORT_FIELDS:
            actual["adjacency." + field] = getattr(plan.adjacency, field)
        assert actual.keys() == expected.keys()
        for name, want in expected.items():
            got = actual[name]
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert np.array_equal(got, want), name

    @pytest.fixture(params=["numpy", "native"])
    def backend(self, request):
        from repro.mrf.backends import get_backend, set_default_backend

        if not get_backend(request.param).available:
            pytest.skip(f"{request.param} backend unavailable")
        set_default_backend(request.param)
        yield request.param
        set_default_backend(None)

    @pytest.mark.parametrize("hosts", [30, 300])
    def test_pipeline_chain_estate(self, backend, hosts):
        network, table, preferences = pipeline_estate(hosts, seed=hosts)
        self._assert_matches_oracle(
            compile_plan(network, table, preferences=preferences).plan
        )

    @pytest.mark.parametrize("cell", [(250, 10, 5), (100, 5, 3)])
    def test_random_cells(self, backend, cell):
        hosts, degree, services = cell
        net, sim = workload(hosts, degree, services, seed=hosts)
        self._assert_matches_oracle(compile_plan(net, sim).plan)

    def test_heterogeneous_plan(self, backend):
        self._assert_matches_oracle(reference_plan(*heterogeneous_network()))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mrfs(self, backend, seed):
        self._assert_matches_oracle(
            MRFArrays(make_random_mrf(14, 0.3, 4, seed=seed))
        )

    def test_empty_and_edgeless_plans(self, backend):
        none = np.zeros(0, dtype=np.int64)
        self._assert_matches_oracle(
            MRFArrays.from_parts([], none, none, none, [])
        )
        self._assert_matches_oracle(
            MRFArrays.from_parts([np.zeros(2)] * 4, none, none, none, [])
        )


# ------------------------------------------------ stream rebuild via parts


class TestStreamRebuildCompiled:
    def test_rebuild_state_consistent_with_events(self):
        from repro.stream.plan import StreamPlan

        net, sim = workload(hosts=12, degree=3, services=2, seed=8)
        host = net.hosts[0]
        combo = AvoidCombination(
            GLOBAL, "s0", net.candidates(host, "s0")[0],
            "s1", net.candidates(host, "s1")[0],
        )
        constraints = ConstraintSet([combo])
        stream = StreamPlan(net.copy(), sim.copy(), constraints=constraints)
        # The compiled rebuild installs the compile's edge columns as they
        # are, and reads the combination tables off the intra-host edges.
        parts = compile_parts(net, sim, constraints=constraints)
        for name in ("edge_first", "edge_second", "edge_cid"):
            assert np.array_equal(
                getattr(stream, f"_{name}"), getattr(parts, name)
            ), name
        combos = len(parts.edge_first) - len(sorted_link_keys(net))
        assert combos == len(net.hosts)
        assert stream._combo_cids == {
            (parts.variables[lo][0], parts.variables[lo][1],
             parts.variables[hi][1]): cid
            for lo, hi, cid in zip(
                parts.edge_first[-combos:].tolist(),
                parts.edge_second[-combos:].tolist(),
                parts.edge_cid[-combos:].tolist(),
            )
        }
        similar = len(stream._matrices) - combos
        assert len(stream._matrix_ids) == similar
        # Event application on top of a compiled rebuild stays aligned:
        # dropping a link removes exactly its (link, service) edges.
        a, b = stream.network.links[0]
        from repro.stream.events import LinkRemove

        shared = len(stream.network.shared_services(a, b))
        before = stream.edge_count
        stream.apply(LinkRemove(a=a, b=b))
        assert stream.edge_count == before - shared
        stream.flush()
        assert stream.plan.edge_count == before - shared

    def test_cold_solve_energy_matches_batch_pipeline(self):
        from repro.stream.incremental import DynamicDiversifier

        net, sim = workload(hosts=12, degree=3, services=2, seed=9)
        engine = DynamicDiversifier(net.copy(), sim.copy())
        streamed = engine.solve()
        batch = diversify(net, sim)
        assert streamed.energy == pytest.approx(batch.energy)
