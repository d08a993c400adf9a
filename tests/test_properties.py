"""Cross-cutting property-based tests.

Hypothesis-driven invariants spanning the whole stack — randomly generated
networks, similarity tables and assignments must always satisfy the model's
contracts, whatever the draw.

The TRW-S lower bound has its own section: on random small plans it
never exceeds the exact optimum, on forests it meets it, and the two
kernel backends compute it bit for bit.

The second half of the module is the **invariant pack**: one seeded fuzz
case (network + similarity + churn trace) is driven through every layer's
parity contract from a single place — compile byte-parity, kernel-backend
bit-parity, warm==cold stream energy, and per-component selection on
disjoint unions.  Each invariant is registered in ``INVARIANT_PACK`` so
new layers add one function, not a new harness.
"""

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    diversify,
    greedy_assignment,
    mono_assignment,
    random_assignment,
)
from repro import obs
from repro.core.compile import compile_plan
from repro.core.costs import HARD_COST, assignment_energy, build_mrf
from repro.core.planner import plan_upgrade
from repro.metrics.bayes import compromise_probability
from repro.metrics.richness import effective_richness
from repro.mrf import (
    ExactSolver,
    MRFArrays,
    PairwiseMRF,
    TRWSSolver,
    solve_plan,
)
from repro.mrf.backends import get_backend
from repro.mrf.solvers import get_solver
from repro.mrf.reference import ReferenceTRWSSolver, _greedy_labels
from repro.mrf.trws import is_forest_plan, solve_forest_plan
from repro.mrf.vectorized import SolverScratch
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
from repro.sim.malware import InfectionModel
from repro.service.snapshot import restore_engine, save_snapshot
from repro.stream import (
    ChurnConfig,
    DynamicDiversifier,
    HostJoin,
    HostLeave,
    apply_event,
    random_churn_trace,
)
from repro.stream.plan import StreamPlan

from helpers import (
    assert_level_orders_agree,
    count_compile_routes,
    edge_similarity_loop,
    padded_plan,
    pipeline_estate,
    stability_oracle,
)


def workload(seed, hosts=10, degree=3, services=2, density=0.5):
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        similarity_density=density, seed=seed,
    )
    return random_network(config), random_similarity(config)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_diversify_always_complete_and_within_ranges(seed):
    network, similarity = workload(seed)
    result = diversify(network, similarity, max_iterations=20)
    assert result.assignment.is_complete()
    for host in network.hosts:
        for service in network.services_of(host):
            product = result.assignment.get(host, service)
            assert product in network.candidates(host, service)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_optimal_never_worse_than_baselines(seed):
    network, similarity = workload(seed)
    optimal = diversify(network, similarity, max_iterations=40)
    for baseline in (
        mono_assignment(network),
        random_assignment(network, seed=seed),
        greedy_assignment(network, similarity),
    ):
        assert optimal.energy <= assignment_energy(
            network, similarity, baseline
        ) + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_energy_parity_between_mrf_and_direct(seed):
    network, similarity = workload(seed)
    build = build_mrf(network, similarity)
    assignment = random_assignment(network, seed=seed)
    labels = build.assignment_to_labels(assignment)
    assert build.mrf.energy(labels) == pytest.approx(
        assignment_energy(network, similarity, assignment)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dual_bound_is_below_every_labelling(seed):
    network, similarity = workload(seed, hosts=8)
    result = diversify(network, similarity, max_iterations=30)
    for baseline_seed in range(3):
        baseline = random_assignment(network, seed=baseline_seed)
        assert result.lower_bound <= assignment_energy(
            network, similarity, baseline
        ) + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p_avg=st.floats(min_value=0.01, max_value=0.3),
    boost=st.floats(min_value=0.0, max_value=0.6),
)
def test_compromise_probability_is_a_probability(seed, p_avg, boost):
    network, similarity = workload(seed, hosts=8)
    assignment = random_assignment(network, seed=seed)
    model = InfectionModel(
        similarity=similarity, p_avg=p_avg, p_max=min(1.0, p_avg + boost)
    )
    hosts = network.hosts
    probability = compromise_probability(
        network, assignment, model, hosts[0], hosts[-1]
    )
    assert 0.0 <= probability <= 1.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mono_is_always_most_compromising(seed):
    """With zero cross-product similarity, every random assignment is at
    most as risky as the mono-culture under the BN metric."""
    config = RandomNetworkConfig(
        hosts=8, degree=3, services=1, similarity_density=0.0, seed=seed
    )
    network = random_network(config)
    similarity = random_similarity(config)
    model = InfectionModel(similarity=similarity, p_avg=0.1, p_max=0.6)
    hosts = network.hosts
    p_mono = compromise_probability(
        network, mono_assignment(network), model, hosts[0], hosts[-1]
    )
    p_random = compromise_probability(
        network, random_assignment(network, seed=seed), model, hosts[0], hosts[-1]
    )
    assert p_random <= p_mono + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.integers(0, 6))
def test_planner_budget_and_monotonicity(seed, budget):
    network, similarity = workload(seed, hosts=8)
    current = random_assignment(network, seed=seed)
    plan = plan_upgrade(network, similarity, current, budget=budget)
    assert plan.changes <= budget
    assert plan.final_energy <= plan.initial_energy + 1e-9
    assert plan.final_energy == pytest.approx(
        assignment_energy(network, similarity, plan.final_assignment)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_richness_bounds_hold(seed):
    network, similarity = workload(seed)
    report = effective_richness(network, random_assignment(network, seed=seed))
    assert 1.0 - 1e-9 <= report.effective <= report.distinct + 1e-9
    assert 0.0 < report.d1 <= 1.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_network_json_round_trip_preserves_optimisation(seed):
    from repro.network.io import network_from_json, network_to_json

    network, similarity = workload(seed, hosts=8)
    clone, _ = network_from_json(network_to_json(network))
    original = diversify(network, similarity, max_iterations=20)
    reloaded = diversify(clone, similarity, max_iterations=20)
    assert original.energy == pytest.approx(reloaded.energy)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    pairs=st.dictionaries(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")).filter(
            lambda t: t[0] < t[1]
        ),
        st.floats(min_value=0.0, max_value=1.0),
        max_size=6,
    ),
)
def test_similarity_io_round_trip(seed, pairs):
    from repro.nvd.io import dumps_similarity, loads_similarity

    table = SimilarityTable(products="abcd", pairs=pairs)
    clone = loads_similarity(dumps_similarity(table))
    for a in "abcd":
        for b in "abcd":
            assert clone.get(a, b) == pytest.approx(table.get(a, b))


# ------------------------------------------- one compile, every solver


#: service → the candidate ranges a host of the heterogeneous-range
#: estates picks from: few enough that links meet one range pair in both
#: orientations, so the compiler swaps some edges.
_RANGES = {
    "os": (("w", "l", "m"), ("w", "l"), ("l", "m", "b")),
    "web": (("ap", "ng"), ("ap", "ng", "ii")),
    "db": (("pg", "my"), ("my", "ms", "pg")),
}


def heterogeneous_case(seed: int, hosts: int = 7):
    """``(network, similarity, options)``: a random estate whose hosts run
    random service subsets over per-host candidate ranges, with
    ``diversify`` options carrying preferences, service weights, Fix/Forbid
    and combination constraints."""
    import random

    rng = random.Random(seed)
    network = Network()
    for h in range(hosts):
        services = {
            service: rng.choice(ranges)
            for service, ranges in _RANGES.items()
            if rng.random() < 0.7
        }
        network.add_host(f"h{h}", services or {"os": ["w", "l"]})
    names = network.hosts
    network.add_links([
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if rng.random() < 0.5
    ])
    pools = [sorted(set().union(*ranges)) for ranges in _RANGES.values()]
    similarity = SimilarityTable(
        products=[p for pool in pools for p in pool],
        pairs={
            (a, b): round(rng.uniform(0.0, 1.0), 3)
            for pool in pools
            for i, a in enumerate(pool)
            for b in pool[i + 1:]
        },
    )
    variables = [
        (host, service, network.candidates(host, service))
        for host in names
        for service in network.services_of(host)
    ]
    preferences = {
        (host, service, product): round(rng.uniform(-0.2, 0.5), 3)
        for host, service, range_ in variables
        for product in range_
        if rng.random() < 0.3
    }
    preferences[(names[0], "os", "not_a_product")] = 9.0  # ignored
    fixed, forbidden = rng.sample(variables, 2)
    constraints = [
        FixProduct(fixed[0], fixed[1], rng.choice(fixed[2])),
        ForbidProduct(forbidden[0], forbidden[1], rng.choice(forbidden[2])),
        RequireCombination(GLOBAL, "os", "l", "web", "ng"),
    ]
    multi = [h for h in names if len(network.services_of(h)) > 1]
    if multi:
        host = rng.choice(multi)
        s_m, s_n = rng.sample(network.services_of(host), 2)
        constraints.append(AvoidCombination(
            host, s_m, rng.choice(network.candidates(host, s_m)),
            s_n, rng.choice(network.candidates(host, s_n)),
        ))
    options = {
        "constraints": ConstraintSet(constraints),
        "preferences": preferences,
        "service_weights": {"os": 2.0, "db": 0.5},
        "pairwise_weight": rng.choice((1.0, 1.5)),
        "unary_constant": rng.choice((0.01, 0.02)),
    }
    return network, similarity, options


#: every registered solver but ``exact``, which runs on a smaller estate.
_ONE_COMPILE_SOLVERS = ("trws", "icm", "anneal", "trws-ref", "bp-ref")


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_solver_matches_the_build_mrf_pipeline(seed):
    """``diversify()`` compiles once and never builds the object MRF, and
    each solver returns bit for bit what it returns on the ``build_mrf``
    pipeline: labels, energy, bound, iterations and similarity total."""
    runs = [(heterogeneous_case(seed), _ONE_COMPILE_SOLVERS)]
    small = heterogeneous_case(seed, hosts=4)
    if np.prod(compile_plan(small[0], small[1]).plan.label_counts) <= 5000:
        runs.append((small, ("exact",)))
    for (network, similarity, options), solvers in runs:
        build = build_mrf(network, similarity, **options)
        for solver in solvers:
            with pytest.MonkeyPatch.context() as patch:
                routes = count_compile_routes(patch)
                result = diversify(
                    network, similarity, solver=solver, **options
                )
            assert routes == {"compile_plan": 1, "build_mrf": 0}, solver
            if solver == "trws":
                expected = solve_plan(MRFArrays(build.mrf))
            else:
                expected = get_solver(solver).solve(build.mrf)
            got = result.solver_result
            assert got.labels == expected.labels, solver
            assert got.energy == expected.energy, solver
            assert got.lower_bound == expected.lower_bound, solver
            assert got.iterations == expected.iterations, solver
            total, _ = edge_similarity_loop(
                network, similarity,
                build.labels_to_assignment(network, expected.labels),
            )
            assert result.similarity_total == total, solver


def _stream_plan_state(plan: StreamPlan) -> Dict[str, object]:
    """Every observable of a flushed stream plan, as comparable values."""
    arrays = plan.flush()
    unary, counts, first, second, cid, matrices = plan.parts()
    state = {
        name: np.asarray(getattr(arrays, name)).tobytes()
        for name in ("unary", "label_counts", "edge_first", "edge_second",
                     "edge_cid", "cost", "gamma")
    }
    state.update(
        parts=[np.asarray(part).tobytes()
               for part in (unary, counts, first, second, cid, *matrices)],
        variables=list(plan.variables),
        messages=plan.messages.tobytes(),
        labels=plan.labels.tobytes(),
        counters=(plan.dirty_nodes, plan.dirty_edges, plan.dirty_masked,
                  plan.dirty_cost, plan.stranded),
    )
    assert (plan.node_count, plan.edge_count) == (
        arrays.node_count, arrays.edge_count
    )
    return state


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_stream_plan_batching_invariance(seed):
    """When a stream plan materialises its pending deltas never changes
    the result: a flush per event, one flush per batch, and reads of
    labels, messages and parts between events all end in the same plan,
    message, label and counter state."""
    network, similarity = workload(seed, hosts=12, density=0.4)
    trace = random_churn_trace(
        network,
        ChurnConfig(events=16, seed=seed, rack_size=2,
                    constraint_weight=1.0),
    )
    states = []
    for mode in ("flush_each", "flush_once", "read_between"):
        plan = StreamPlan(network.copy(), similarity.copy())
        rng = np.random.default_rng(seed)
        plan.record_labels(rng.integers(0, plan.plan.label_counts))
        plan.messages[...] = rng.random(plan.messages.shape)
        for event in trace:
            plan.apply(event)
            if mode == "flush_each":
                plan.flush()
            elif mode == "read_between":
                assert len(plan.labels) == len(plan.variables)
                assert len(plan.messages) == 2 * plan._edge_rows
                unary, counts, first, *_ = plan.parts()
                assert (plan.node_count, plan.edge_count) == (
                    len(unary), len(first)
                )
                assert len(counts) == len(unary)
        states.append(_stream_plan_state(plan))
    assert states[0] == states[1] == states[2]


# ========================================================== solution side


def _rejoin(network, host):
    """``host`` leaving and rejoining under its name with its services and
    links: the same network afterwards, but new variables for the host."""
    services = tuple(
        (service, network.candidates(host, service))
        for service in network.services_of(host)
    )
    return [
        HostLeave(host),
        HostJoin(host, services=services, links=tuple(network.neighbors(host))),
    ]


@pytest.mark.parametrize("batch", [1, 64])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_solution_side_matches_the_oracles(batch, seed):
    """After every solve of a churn replay, the engine's incremental
    solution side equals a full decode of the plan's labels (entries and
    their order) and the dict-walk stability against the previous solve.
    The replay rejoins a host within one batch, forces a cold rebuild and
    restores a snapshot mid-trace."""
    network, similarity = workload(seed, hosts=30, degree=2, services=3)
    trace = random_churn_trace(network, ChurnConfig(events=200, seed=seed))
    engine = DynamicDiversifier(network, similarity)
    batches = [trace[k : k + batch] for k in range(0, len(trace), batch)]
    rejoin, cold, restore = (len(batches) * k // 4 for k in (1, 2, 3))
    rng = np.random.default_rng(seed)
    previous = None
    with tempfile.TemporaryDirectory() as directory:
        for index in range(len(batches) + 1):
            if index == restore:
                path = save_snapshot(engine, directory, version=index)
                engine, _ = restore_engine(path)
            if index:
                events = batches[index - 1]
                if index == rejoin:
                    host = str(rng.choice(engine.network.hosts))
                    events = _rejoin(engine.network, host) + events
                engine.apply_all(events)
            result = engine.solve(force_cold=index == cold)
            plan = engine.plan
            decoded = {
                variable: plan.candidates[node][label]
                for node, (variable, label) in enumerate(
                    zip(plan.variables, plan.labels.tolist())
                )
            }
            current = result.assignment.as_dict()
            assert list(current.items()) == list(decoded.items())
            assert result.stability == stability_oracle(previous, current)
            previous = current


# ====================================================== component labelling


def _networkx_components(n, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return {frozenset(c) for c in nx.connected_components(graph)}


#: the kernel backends that can label a plan's graph here.
GRAPH_BACKENDS = [
    name for name in ("numpy", "native") if get_backend(name).available
]


def _graph_plan(n, first, second):
    """A plan with ``n`` one-label nodes over the given edges."""
    first = np.asarray(first, dtype=np.int64)
    return MRFArrays.from_parts(
        [np.zeros(1)] * n, first, np.asarray(second, dtype=np.int64),
        np.zeros(len(first), dtype=np.int64),
        [np.zeros((1, 1))] if len(first) else [],
    )


def _component_labels(n, first, second, backend):
    _, _, labels = get_backend(backend).label_graph(
        _graph_plan(n, first, second), chains=False, components=True
    )
    return labels


def _assert_labelling_matches_networkx(n, edges):
    first = [a for a, _ in edges]
    second = [b for _, b in edges]
    for backend in GRAPH_BACKENDS:
        _assert_labels_match_networkx(
            n, edges, _component_labels(n, first, second, backend)
        )


def _assert_labels_match_networkx(n, edges, labels):
    assert labels.shape == (n,)
    groups: Dict[int, set] = {}
    for node, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(node)
    assert {frozenset(g) for g in groups.values()} == _networkx_components(
        n, edges
    )
    # Dense ids, numbered by each component's smallest node.
    assert sorted(groups) == list(range(len(groups)))
    smallest = [min(groups[label]) for label in sorted(groups)]
    assert smallest == sorted(smallest)


@st.composite
def _graphs(draw, max_nodes=40):
    """(n, edges): random multi-component graphs, duplicates allowed."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(node, node).filter(lambda e: e[0] != e[1]),
        max_size=2 * n,
    ))
    return n, edges


def test_component_labelling_edge_cases():
    _assert_labelling_matches_networkx(0, [])
    _assert_labelling_matches_networkx(7, [])  # isolated nodes only
    chain = [(i, i + 1) for i in range(4999)]  # pipeline-chain shape
    _assert_labelling_matches_networkx(5000, chain)
    for backend in GRAPH_BACKENDS:
        labels = _component_labels(
            5000, np.arange(4999), np.arange(1, 5000), backend
        )
        assert not labels.any()


@settings(max_examples=200, deadline=None)
@given(graph=_graphs())
def test_component_labelling_matches_networkx(graph):
    _assert_labelling_matches_networkx(*graph)


@settings(max_examples=200, deadline=None)
@given(graph=_graphs(max_nodes=12))
def test_is_forest_plan_matches_networkx(graph):
    n, edges = graph
    plan = MRFArrays.from_parts(
        [np.zeros(2)] * n,
        np.array([a for a, _ in edges], dtype=np.int64),
        np.array([b for _, b in edges], dtype=np.int64),
        np.zeros(len(edges), dtype=np.int64),
        [np.eye(2)],
    )
    multigraph = nx.MultiGraph()
    multigraph.add_nodes_from(range(n))
    multigraph.add_edges_from(edges)
    assert is_forest_plan(plan) == nx.is_forest(multigraph)
    assert plan.component_count == nx.number_connected_components(multigraph)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_component_energies_split_the_energy(seed):
    network, similarity = workload(seed, hosts=12, density=0.4)
    plan = compile_plan(network, similarity).plan
    labels = np.random.default_rng(seed).integers(0, plan.label_counts)
    energies = plan.component_energies(labels)
    assert len(energies) == plan.component_count
    assert energies.sum() == pytest.approx(plan.energy(labels), abs=1e-9)
    for c in range(plan.component_count):
        nodes = np.flatnonzero(plan.components == c)
        edges = np.flatnonzero(plan.components[plan.edge_first] == c)
        expected = plan.unary[nodes, labels[nodes]].sum() + plan.cost[
            plan.edge_cid[edges],
            labels[plan.edge_first[edges]],
            labels[plan.edge_second[edges]],
        ].sum()
        assert energies[c] == pytest.approx(expected, abs=1e-9)


# ======================================================= schedule kernels


def _assert_schedules_agree(n, edges):
    assert_level_orders_agree(
        n, [a for a, _ in edges], [b for _, b in edges]
    )


@st.composite
def _schedule_graphs(draw):
    """(n, edges): a random multi-component graph with parallel edges and
    isolated nodes, next to a chain of up to 300 nodes in either
    orientation."""
    n, edges = draw(_graphs())
    length = draw(st.integers(0, 300))
    flipped = draw(st.booleans())
    for i in range(n, n + length - 1):
        edges.append((i + 1, i) if flipped else (i, i + 1))
    return n + length, edges


def test_schedule_kernels_edge_cases():
    # Deep chains at full e2e scale are in test_compile.TestWavefrontLevels.
    _assert_schedules_agree(0, [])
    _assert_schedules_agree(7, [])  # isolated nodes only
    _assert_schedules_agree(4, [(1, 2), (2, 1), (1, 2), (0, 3)])  # parallel


@settings(max_examples=100, deadline=None)
@given(graph=_schedule_graphs())
def test_schedule_kernels_match_python_levels(graph):
    _assert_schedules_agree(*graph)


# ========================================================= greedy kernels


class _EdgeListMRF:
    """The read API of :class:`~repro.mrf.graph.PairwiseMRF` over raw
    plan parts, parallel edges included (``PairwiseMRF`` refuses them),
    so the MRF-level reference greedy can run on any plan."""

    def __init__(self, unaries, first, second, matrices):
        self._unaries = unaries
        self._edges = list(zip(first, second))
        self._costs = matrices
        self._adjacency = [[] for _ in unaries]
        for e, (a, b) in enumerate(self._edges):
            self._adjacency[a].append((b, e))
            self._adjacency[b].append((a, e))

    @property
    def node_count(self):
        return len(self._unaries)

    def neighbors(self, node):
        return self._adjacency[node]

    def unary(self, node):
        return self._unaries[node]

    def edge(self, edge_id):
        return self._edges[edge_id]

    def edge_cost(self, edge_id):
        return self._costs[edge_id]


@st.composite
def _greedy_plans(draw):
    """Plan parts of a random multigraph: mixed label counts padded to a
    drawn width (4, 6 and 8 take the C kernel's constant-width copies, 5
    and 9 the generic one), isolated nodes, parallel edges, several
    components and plenty of degree ties.  Costs come from a few values
    (argmin ties) or from uniform draws (summation order)."""
    n, edges = draw(_graphs(max_nodes=30))
    width = draw(st.sampled_from([4, 5, 6, 8, 9]))
    seed = draw(st.integers(0, 2**32 - 1))
    coarse = draw(st.booleans())
    rng = np.random.default_rng(seed)

    def costs(*shape):
        if coarse:
            return rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)
        return rng.uniform(0.0, 1.0, size=shape)

    counts = rng.integers(1, width + 1, size=n)
    unaries = [costs(int(count)) for count in counts]
    first = [a for a, _ in edges]
    second = [b for _, b in edges]
    matrices = [costs(int(counts[a]), int(counts[b])) for a, b in edges]
    plan = padded_plan(
        unaries,
        np.asarray(first, dtype=np.int64),
        np.asarray(second, dtype=np.int64),
        np.arange(len(edges)),
        matrices,
        lmax=width,
    )
    reference = _greedy_labels(_EdgeListMRF(unaries, first, second, matrices))
    return plan, reference


def _assert_greedy_kernels(plan, reference):
    for name in ("numpy", "native"):
        if not get_backend(name).available:
            continue
        labels = plan.greedy_labels(backend=name)
        assert labels.dtype == np.int64, name
        assert labels.tolist() == reference, name


def test_greedy_kernels_edge_cases():
    empty = MRFArrays.from_parts([], np.zeros(0), np.zeros(0), np.zeros(0), [])
    _assert_greedy_kernels(empty, [])
    # Isolated nodes keep their unary argmin; the first minimum wins.
    unaries = [np.array([1.0, 0.5, 0.5]), np.array([0.0]), np.array([2.0, 1.0])]
    isolated = padded_plan(
        unaries, np.zeros(0), np.zeros(0), np.zeros(0), [], lmax=4
    )
    _assert_greedy_kernels(isolated, [1, 0, 1])


@settings(max_examples=150, deadline=None)
@given(case=_greedy_plans())
def test_greedy_kernels_match_the_reference(case):
    _assert_greedy_kernels(*case)


# ============================================================ lower bound

#: The kernel backends that can run here (the bound tests cover both).
BOUND_BACKENDS = [
    name for name in ("numpy", "native") if get_backend(name).available
]


@st.composite
def _bound_plans(draw, forest=False):
    """(plan, mrf): a random small plan and a :class:`PairwiseMRF` with
    the same energy, for :class:`ExactSolver`.

    Mixed label counts padded to a drawn width, edges stored in either
    orientation, isolated nodes, some labels hard-masked with
    :data:`HARD_COST`, and — unless ``forest`` — parallel edges, which
    the MRF merges into one edge with the summed costs.  ``forest``
    draws a random forest: each node links to an earlier one or starts
    a tree."""
    n = draw(st.integers(1, 7))
    if forest:
        parents = [draw(st.integers(-1, node - 1)) for node in range(n)]
        edges = [(p, node) for node, p in enumerate(parents) if p >= 0]
    else:
        node = st.integers(0, n - 1)
        edges = draw(st.lists(
            st.tuples(node, node).filter(lambda e: e[0] != e[1]),
            max_size=2 * n,
        ))
    edges = [
        (b, a) if draw(st.booleans()) else (a, b) for a, b in edges
    ]
    width = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 4, size=n)
    unaries = []
    for count in counts:
        unary = rng.uniform(0.0, 1.0, size=count)
        if count > 1 and rng.random() < 0.3:
            unary[rng.integers(count)] = HARD_COST
        unaries.append(unary)
    matrices = [
        rng.uniform(0.0, 1.0, size=(counts[a], counts[b])) for a, b in edges
    ]
    plan = padded_plan(
        unaries,
        np.array([a for a, _ in edges], dtype=np.int64),
        np.array([b for _, b in edges], dtype=np.int64),
        np.arange(len(edges)),
        matrices,
        lmax=width,
    )
    merged: Dict[tuple, np.ndarray] = {}
    for (a, b), matrix in zip(edges, matrices):
        key, oriented = ((a, b), matrix) if a < b else ((b, a), matrix.T)
        merged[key] = merged.get(key, 0.0) + oriented
    mrf = PairwiseMRF()
    for unary in unaries:
        mrf.add_node(unary)
    for (a, b), matrix in merged.items():
        mrf.add_edge(a, b, matrix)
    return plan, mrf


def _random_messages(plan, seed):
    """Arbitrary message values, zero at the receivers' padded labels."""
    rng = np.random.default_rng(seed)
    messages = rng.uniform(-1.0, 1.0, size=(2 * plan.edge_count, plan.lmax))
    receiver = np.empty(2 * plan.edge_count, dtype=np.int64)
    receiver[0::2], receiver[1::2] = plan.edge_second, plan.edge_first
    messages[~plan.mask[receiver]] = 0.0
    return messages


@settings(max_examples=100, deadline=None)
@given(case=_bound_plans(), noise=st.sampled_from([0.0, 1e-4]))
def test_bound_never_exceeds_the_exact_optimum(case, noise):
    """Any messages give a valid bound — a solve's, with or without the
    tie-break noise, and arbitrary ones."""
    plan, mrf = case
    optimum = ExactSolver().solve(mrf).energy
    for name in BOUND_BACKENDS:
        result = TRWSSolver(
            max_iterations=8, tie_break_noise=noise, seed=0, backend=name
        ).solve_arrays(plan)
        assert result.lower_bound <= optimum + 1e-6, name
        messages = _random_messages(plan, plan.edge_count)
        assert plan.dual_bound(messages, backend=name) <= optimum + 1e-6


@settings(max_examples=100, deadline=None)
@given(case=_bound_plans(forest=True))
def test_bound_is_tight_on_forests(case):
    """On a forest the LP is tight: message passing (noise off) ends
    with a bound equal to the forest DP's optimum."""
    plan, mrf = case
    optimum = solve_forest_plan(plan).energy
    assert optimum == pytest.approx(ExactSolver().solve(mrf).energy, abs=1e-9)
    for name in BOUND_BACKENDS:
        result = TRWSSolver(tie_break_noise=0.0, backend=name).solve_arrays(
            plan
        )
        assert result.lower_bound == pytest.approx(optimum, abs=1e-6), name


@settings(max_examples=100, deadline=None)
@given(case=_greedy_plans())
def test_bound_kernels_agree_bit_for_bit(case):
    """native == NumPy on every chain minimum, so on the bound too;
    widths 4, 6 and 8 take the C kernel's constant-width copies."""
    plan, _reference = case
    if len(BOUND_BACKENDS) < 2:
        pytest.skip("native backend needs a C compiler")
    messages = _random_messages(plan, plan.node_count)
    mins = {}
    for name in BOUND_BACKENDS:
        mins[name] = np.full(len(plan.chains[1]), np.nan)
        ran = get_backend(name).chain_bound(
            plan, messages, mins[name], SolverScratch()
        )
        assert ran.name == name
    np.testing.assert_array_equal(mins["native"], mins["numpy"])
    assert plan.dual_bound(messages, backend="native") == plan.dual_bound(
        messages, backend="numpy"
    )


# ======================================================= chain numbering


def _reference_chains(n, first, second):
    """``ReferenceTRWSSolver._build_chains`` of the edge set, each chain
    as (its edges in order, its first node, its last node)."""
    mrf = _EdgeListMRF(
        [np.zeros(1)] * n, list(first), list(second),
        [np.zeros((1, 1))] * len(first),
    )
    chains = ReferenceTRWSSolver._build_chains(
        mrf, ReferenceTRWSSolver._build_links(mrf)
    )
    return sorted(
        (tuple(edge for _node, edge in chain[1:]), chain[0][0], chain[-1][0])
        for chain in chains
    )


def _assert_chains_agree(plan):
    """native == NumPy on the chain numbering, and both describe the
    reference's explicit chains."""
    labelled = {
        name: get_backend(name).label_graph(plan, chains=True, components=True)
        for name in GRAPH_BACKENDS
    }
    chain, ends, components = labelled["numpy"]
    for name, arrays in labelled.items():
        for got, want in zip(arrays, (chain, ends, components)):
            np.testing.assert_array_equal(got, want, err_msg=name)
    np.testing.assert_array_equal(plan.chains[0], chain)
    np.testing.assert_array_equal(plan.chains[1], ends)
    np.testing.assert_array_equal(plan.components, components)
    # A row is a send when its neighbour is higher-numbered than the
    # node sending on its slot.  Sends run in row (sweep) order, so a
    # chain's sends are in chain order.
    adj = plan.adjacency
    row_edge = adj.slot >> 1
    sender = np.where(
        adj.slot & 1, plan.edge_second[row_edge], plan.edge_first[row_edge]
    )
    sends = adj.nbr > sender
    edges = row_edge[sends].tolist()
    steps: Dict[int, List[int]] = {c: [] for c in range(len(ends))}
    for send, c in enumerate(chain.tolist()):
        steps[c].append(edges[send])
    ours = []
    for c, path in steps.items():
        start = (
            min(plan.edge_first[path[0]], plan.edge_second[path[0]])
            if path else ends[c]
        )
        ours.append((tuple(path), int(start), int(ends[c])))
    assert sorted(ours) == _reference_chains(
        plan.node_count, plan.edge_first.tolist(), plan.edge_second.tolist()
    )
    # Chains that end on an edge come first, in row order of their last
    # edge's conditioning row; isolated nodes follow.
    order = {
        edge: row for row, edge in enumerate(row_edge[~sends].tolist())
    }
    isolated = [c for c, path in steps.items() if not path]
    assert isolated == list(range(len(ends) - len(isolated), len(ends)))
    rows = [order[steps[c][-1]] for c in range(len(ends) - len(isolated))]
    assert rows == sorted(rows)


@settings(max_examples=200, deadline=None)
@given(graph=_graphs(), flip=st.randoms(use_true_random=False))
def test_chain_numbering_matches_the_reference(graph, flip):
    """Random multigraphs: isolated nodes, parallel edges, either edge
    orientation, several components."""
    n, edges = graph
    edges = [(b, a) if flip.random() < 0.5 else (a, b) for a, b in edges]
    _assert_chains_agree(_graph_plan(
        n, [a for a, _ in edges], [b for _, b in edges]
    ))


@settings(max_examples=100, deadline=None)
@given(graph=_bound_plans(forest=True))
def test_chain_numbering_on_forests(graph):
    _assert_chains_agree(graph[0])


@pytest.mark.parametrize("hosts", [30, 300])
def test_chain_numbering_on_chain_chord_estates(hosts):
    network, similarity, preferences = pipeline_estate(hosts)
    _assert_chains_agree(
        compile_plan(network, similarity, preferences=preferences).plan
    )



# ============================================================ invariant pack
#
# One seeded fuzz case drives every layer's parity contract.  The case
# family is the sparse, well-colorable workload (degree 2, low similarity
# density) where cold TRW-S reliably finds the optimum — the precondition
# of the warm/cold parity contract.

NATIVE_AVAILABLE = get_backend("native").available

#: name -> invariant function, each taking a :class:`FuzzCase`.
INVARIANT_PACK: Dict[str, Callable[["FuzzCase"], None]] = {}


def _invariant(fn):
    """Register ``fn`` in the pack under its own name."""
    INVARIANT_PACK[fn.__name__] = fn
    return fn


@dataclass
class FuzzCase:
    """One seeded end-to-end case shared by every pack invariant."""

    seed: int
    network: object
    similarity: object
    trace: List = field(default_factory=list)


def fuzz_case(seed: int, hosts: int = 18, events: int = 4) -> FuzzCase:
    """Build the shared fuzz case: workload plus a short churn trace."""
    config = RandomNetworkConfig(
        hosts=hosts, degree=2, services=2, products_per_service=4,
        similarity_density=0.3, seed=seed,
    )
    network = random_network(config)
    similarity = random_similarity(config)
    trace = random_churn_trace(
        network, ChurnConfig(events=events, seed=seed + 1)
    )
    return FuzzCase(seed, network, similarity, trace)


@_invariant
def compile_byte_parity(case: FuzzCase) -> None:
    """The direct compiler's plan is byte-identical to the Python build."""
    reference = MRFArrays(build_mrf(case.network, case.similarity).mrf)
    compiled = compile_plan(case.network, case.similarity).plan
    assert reference.node_count == compiled.node_count
    assert reference.edge_count == compiled.edge_count
    assert reference.lmax == compiled.lmax
    for name in (
        "unary", "label_counts", "edge_first", "edge_second", "edge_cid",
    ):
        left = np.asarray(getattr(reference, name))
        right = np.asarray(getattr(compiled, name))
        assert left.tobytes() == right.tobytes(), name
    assert (
        reference.cost[: reference.stacked].tobytes()
        == compiled.cost[: compiled.stacked].tobytes()
    )
    direct = diversify(case.network, case.similarity)
    python = TRWSSolver().solve(
        build_mrf(case.network, case.similarity).mrf
    )
    assert direct.energy == pytest.approx(python.energy, abs=1e-9)


@_invariant
def backend_bit_parity(case: FuzzCase) -> None:
    """numpy and native kernel backends agree bit-for-bit, and a traced
    solve records the backend whose sweeps ran."""
    if not NATIVE_AVAILABLE:
        return  # the individual test skips loudly; the pack just moves on
    mrf = build_mrf(case.network, case.similarity).mrf
    names = ("numpy", "native")
    obs.activate(obs.Trace())
    try:
        results = [
            TRWSSolver(backend=name, seed=0).solve_arrays(MRFArrays(mrf))
            for name in names
        ]
    finally:
        obs.deactivate()
    assert results[0].energy == results[1].energy  # exact, not approx
    assert results[0].lower_bound == results[1].lower_bound
    assert np.array_equal(results[0].labels, results[1].labels)
    for name, result in zip(names, results):  # fuzz plans fit the C guard
        assert result.stats.backend == get_backend(name).describe()


@_invariant
def warm_equals_cold_stream_energy(case: FuzzCase) -> None:
    """Warm incremental re-solves match a cold solve after every event.

    Energy equality is asserted whenever *both* solves certify their
    optimum (bound meets energy) — then each provably sits at the global
    minimum and parity is a theorem, not a heuristic outcome.  Uncertified
    draws may land in different basins, so only the unconditional contracts
    apply there: the reported energy is the ground-truth E(N) of the
    returned assignment and never beats the cold solve's valid bound.
    """
    engine = DynamicDiversifier(case.network.copy(), case.similarity.copy())
    first = engine.solve()
    assert first.energy == pytest.approx(
        diversify(case.network, case.similarity).energy,
        abs=1e-9,
    )
    check_net, check_table = case.network.copy(), case.similarity.copy()
    for event in case.trace:
        engine.apply(event)
        result = engine.solve()
        apply_event(check_net, check_table, event)
        cold = diversify(check_net, check_table)
        assert result.energy == pytest.approx(
            assignment_energy(check_net, check_table, result.assignment),
            abs=1e-9,
        )
        assert result.energy >= cold.lower_bound - 1e-9
        if cold.certified_optimal and result.certified_optimal:
            assert result.energy == pytest.approx(cold.energy, abs=1e-6)


@_invariant
def disjoint_union_solves_per_part(case: FuzzCase) -> None:
    """A plan of two disjoint parts solves as each part does alone.

    The TRW-S refine stage keeps the best candidate per connected
    component, so with the tie-break noise off ``solve_plan`` on the
    union returns each part's own labels, and its energy and bound are
    the sums of the parts'.  The noise (one random stream for every
    node) and the joint stopping rule are all that couples the parts.
    A part that stops alone has stalled, so the extra sweeps it runs
    inside the union change nothing on this sparse family (checked on
    450 seeds); on denser plans they can still find a better extraction.
    The parts are loopy — a forest part alone would take the exact
    forest DP.
    """
    first = compile_plan(case.network, case.similarity).plan
    other = fuzz_case(case.seed + 1)
    second = compile_plan(other.network, other.similarity).plan
    if is_forest_plan(first) or is_forest_plan(second):
        return  # the sparse fuzz family is loopy; see the docstring
    union = _disjoint_union(first, second)
    options = dict(tie_break_noise=0.0)
    whole = solve_plan(union, **options)
    parts = [solve_plan(part, **options) for part in (first, second)]
    assert whole.labels == parts[0].labels + parts[1].labels
    assert whole.energy == pytest.approx(
        parts[0].energy + parts[1].energy, abs=1e-9
    )
    assert whole.lower_bound == pytest.approx(
        parts[0].lower_bound + parts[1].lower_bound, abs=1e-9
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_refine_pick_is_per_component(seed):
    """On frustrated plans different refine candidates win different
    components; the pick keeps each component's winner.

    One zero-noise sweep gives the union and each part the same
    extraction and bound (messages never cross components), so only the
    refine stage can couple them — and it must not.  Every part has two
    services, hence several components, so both sides compare the same
    per-component sums.
    """
    parts = []
    for offset in (0, 1):
        network, similarity = workload(
            seed + offset, hosts=30, degree=5, density=0.7
        )
        parts.append(compile_plan(network, similarity).plan)
    options = dict(tie_break_noise=0.0, max_iterations=1)
    whole = solve_plan(_disjoint_union(*parts), **options)
    alone = [solve_plan(part, **options) for part in parts]
    assert whole.labels == alone[0].labels + alone[1].labels
    assert whole.energy == pytest.approx(
        alone[0].energy + alone[1].energy, abs=1e-9
    )


def _disjoint_union(first: MRFArrays, second: MRFArrays) -> MRFArrays:
    """One plan holding ``first`` then ``second``, sharing no edges."""
    unary = np.zeros(
        (first.node_count + second.node_count, max(first.lmax, second.lmax))
    )
    unary[: first.node_count, : first.lmax] = first.unary
    unary[first.node_count :, : second.lmax] = second.unary
    return MRFArrays.from_dense(
        unary,
        np.concatenate([first.label_counts, second.label_counts]),
        np.concatenate(
            [first.edge_first, second.edge_first + first.node_count]
        ),
        np.concatenate(
            [first.edge_second, second.edge_second + first.node_count]
        ),
        np.concatenate([first.edge_cid, second.edge_cid + first.stacked]),
        list(first.cost[: first.stacked]) + list(second.cost[: second.stacked]),
    )


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_invariant_pack(seed):
    """Every layer's parity contract holds on one shared random case."""
    case = fuzz_case(seed)
    for name, check in INVARIANT_PACK.items():
        try:
            check(case)
        except AssertionError as exc:  # attribute the failing layer
            raise AssertionError(f"invariant {name!r} failed: {exc}") from exc


@pytest.mark.parametrize("name", sorted(INVARIANT_PACK))
def test_invariant_individually(name):
    """Each pack invariant also runs alone, for failure attribution."""
    if name == "backend_bit_parity" and not NATIVE_AVAILABLE:
        pytest.skip("native backend needs a C compiler")
    for seed in (0, 7):
        INVARIANT_PACK[name](fuzz_case(seed))
