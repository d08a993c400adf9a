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
from repro.mrf.reference import _greedy_labels
from repro.mrf.trws import is_forest_plan, solve_forest_plan
from repro.mrf.vectorized import SolverScratch, connected_components
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.nvd.similarity import SimilarityTable
from repro.sim.malware import InfectionModel
from repro.stream import (
    ChurnConfig,
    DynamicDiversifier,
    apply_event,
    random_churn_trace,
)
from repro.stream.plan import StreamPlan

from helpers import assert_schedule_kernels_agree


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


def _stream_plan_state(plan: StreamPlan) -> Dict[str, object]:
    """Every observable of a flushed stream plan, as comparable values."""
    arrays = plan.flush()
    unaries, first, second, cid, matrices = plan.parts()
    state = {
        name: np.asarray(getattr(arrays, name)).tobytes()
        for name in ("unary", "label_counts", "edge_first", "edge_second",
                     "edge_cid", "cost", "gamma")
    }
    state.update(
        parts=[np.asarray(part).tobytes()
               for part in (*unaries, first, second, cid, *matrices)],
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
                assert len(plan.messages) == 2 * len(plan._edge_keys)
                unaries, first, *_ = plan.parts()
                assert (plan.node_count, plan.edge_count) == (
                    len(unaries), len(first)
                )
        states.append(_stream_plan_state(plan))
    assert states[0] == states[1] == states[2]


# ====================================================== component labelling


def _networkx_components(n, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return {frozenset(c) for c in nx.connected_components(graph)}


def _assert_labelling_matches_networkx(n, edges):
    first = np.array([a for a, _ in edges], dtype=np.int64)
    second = np.array([b for _, b in edges], dtype=np.int64)
    labels = connected_components(n, first, second)
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
    labels = connected_components(
        5000, np.arange(4999), np.arange(1, 5000)
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
    assert_schedule_kernels_agree(
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
    plan = MRFArrays.from_parts(
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
    isolated = MRFArrays.from_parts(
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
    plan = MRFArrays.from_parts(
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
    messages[~plan.mask[plan.slot_receiver]] = 0.0
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


def _unary_vectors(plan: MRFArrays) -> List[np.ndarray]:
    """The plan's unpadded per-node unary vectors."""
    return [plan.unary[i, :count] for i, count in enumerate(plan.label_counts)]


def _disjoint_union(first: MRFArrays, second: MRFArrays) -> MRFArrays:
    """One plan holding ``first`` then ``second``, sharing no edges."""
    return MRFArrays.from_parts(
        _unary_vectors(first) + _unary_vectors(second),
        np.concatenate(
            [first.edge_first, second.edge_first + first.node_count]
        ),
        np.concatenate(
            [first.edge_second, second.edge_second + first.node_count]
        ),
        np.concatenate([first.edge_cid, second.edge_cid + first.stacked]),
        list(first.cost[: first.stacked]) + list(second.cost[: second.stacked]),
        lmax=max(first.lmax, second.lmax),
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
