"""Cross-cutting property-based tests.

Hypothesis-driven invariants spanning the whole stack — randomly generated
networks, similarity tables and assignments must always satisfy the model's
contracts, whatever the draw.

The second half of the module is the **invariant pack**: one seeded fuzz
case (network + similarity + churn trace) is driven through every layer's
parity contract from a single place — compile byte-parity, kernel-backend
bit-parity, warm==cold stream energy, sharded==monolithic, and the dual
decomposition's certified duality gap.  Each invariant is registered in
``INVARIANT_PACK`` so new layers add one function, not a new harness.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List

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
from repro.core.costs import assignment_energy, build_mrf
from repro.core.planner import plan_upgrade
from repro.metrics.bayes import compromise_probability
from repro.metrics.richness import effective_richness
from repro.mrf import (
    DualDecompositionSolver,
    MRFArrays,
    ShardedSolver,
    TRWSSolver,
)
from repro.mrf.backends import get_backend
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
        touched=set(plan.touched),
        counters=(plan.dirty_nodes, plan.dirty_edges, plan.dirty_masked,
                  plan.dirty_cost, plan.stranded),
    )
    assert (plan.node_count, plan.edge_count) == (
        arrays.node_count, arrays.edge_count
    )
    return state


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), track_touched=st.booleans())
def test_stream_plan_batching_invariance(seed, track_touched):
    """When a stream plan materialises its pending deltas never changes
    the result: a flush per event, one flush per batch, and reads of
    labels, messages and parts between events all end in the same plan,
    message, label, touched and counter state."""
    network, similarity = workload(seed, hosts=12, density=0.4)
    trace = random_churn_trace(
        network,
        ChurnConfig(events=16, seed=seed, rack_size=2,
                    constraint_weight=1.0),
    )
    states = []
    for mode in ("flush_each", "flush_once", "read_between"):
        plan = StreamPlan(
            network.copy(), similarity.copy(), track_touched=track_touched
        )
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


# ============================================================ invariant pack
#
# One seeded fuzz case drives every layer's parity contract.  The case
# family is the sparse, well-colorable workload (degree 2, low similarity
# density) where cold TRW-S reliably finds the optimum — the precondition
# of the warm/cold and sharded/monolithic parity contracts.

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
def sharded_equals_monolithic(case: FuzzCase) -> None:
    """Per-component sharded solves land on the monolithic energy.

    Equality is asserted when both solves certify their optimum (parity is
    then a theorem); uncertified draws still pin the cross-bound contracts
    — each solver's dual bound undercuts the other's labelling.
    """
    mrf = build_mrf(case.network, case.similarity).mrf
    mono = TRWSSolver(seed=0).solve(mrf)
    shard = ShardedSolver(solver="trws", seed=0).solve(mrf)
    assert mrf.energy(shard.labels) == pytest.approx(shard.energy, abs=1e-9)
    assert shard.lower_bound <= mono.energy + 1e-9
    assert mono.lower_bound <= shard.energy + 1e-9
    if mono.is_certified_optimal(tolerance=1e-6) and shard.is_certified_optimal(
        tolerance=1e-6
    ):
        assert shard.energy == pytest.approx(mono.energy, abs=1e-6)


@_invariant
def dual_gap_certificate(case: FuzzCase) -> None:
    """Dual decomposition's gap certifies its distance from the optimum."""
    mrf = build_mrf(case.network, case.similarity).mrf
    mono = TRWSSolver(seed=0).solve(mrf)
    dual = DualDecompositionSolver(parts=3, seed=0, max_rounds=40).solve(mrf)
    assert dual.duality_gap >= -1e-12
    assert dual.lower_bound <= dual.energy + 1e-9
    # The certificate: dual's primal can exceed the true optimum by at most
    # its own reported gap — and its bound never exceeds any labelling.
    assert dual.energy - mono.energy <= dual.duality_gap + 1e-9
    assert dual.lower_bound <= mono.energy + 1e-9
    assert mrf.energy(dual.labels) == pytest.approx(dual.energy, abs=1e-9)


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
