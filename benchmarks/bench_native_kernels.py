"""Native kernel tier — compiled TRW-S sweep kernels vs the NumPy backend.

Pins the two claims of the kernel-backend tier (``docs/kernels.md``), each
on one TRW-S iteration — forward sweep + backward sweep + lower bound —
while the backends stay bit-for-bit identical (labels, energy, bound,
traces and the post-solve message state are asserted equal, not close):

* on the 10k-host scalability workload (50 000 nodes, ~200 000 edges, 4
  labels, wide wavefront levels) the ``native`` backend is at least
  **5×** faster than the ``numpy`` backend;
* on a 1000-host chain+chord estate (:func:`build_pipeline_estate`: one
  wavefront level per host, ~1000 levels per sweep — the long-diameter
  shape where per-level dispatch is most of the work) ``native`` is no
  slower than ``numpy``.

A third bar pins the greedy refine init (``MRFArrays.greedy_labels``) on
the 10k-host workload: the native kernel, one C walk over the nodes in
degree order, is at least **10×** faster than the NumPy reference's
Python loop, with identical labels.

Timing protocol: interleaved best-of-``ROUNDS``.  Each round solves
``ITERATIONS`` TRW-S iterations per backend, alternating backends inside
the round so machine noise (the CI boxes are small and shared) hits both
equally; the metric is per-iteration *sweep* seconds — the ``forward`` +
``backward`` + ``bound`` phases from :class:`~repro.mrf.solvers.SolveStats`
— excluding decode/energy bookkeeping, which is backend-independent.  The
per-phase attribution of the winning native round lands in the BENCH
record (schema 2 ``phases``), and the committed baselines live in
``benchmarks/pinned/BENCH_native_kernels.json``,
``BENCH_native_kernels_chain.json`` and ``BENCH_native_greedy.json``
(``bench_report.py --pinned`` gates on them).
"""

import random
import time

import numpy as np
import pytest

from repro import obs
from repro.core.compile import compile_plan
from repro.mrf.backends import get_backend
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import SolverScratch
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.topologies import chain_network
from repro.nvd.similarity import SimilarityTable

#: The 10k-host scalability workload (paper Table 7 scale).
CONFIG = RandomNetworkConfig(
    hosts=10_000, degree=8, services=5, products_per_service=4, seed=0
)
ROUNDS = 5
ITERATIONS = 3
#: Acceptance bar for the compiled tier at this scale.
MIN_SPEEDUP = 5.0
#: Acceptance bar on the chain estate: native no slower than numpy.
MIN_CHAIN_SPEEDUP = 1.0
#: Acceptance bar for the native greedy refine init at the 10k scale.
MIN_GREEDY_SPEEDUP = 10.0

#: The chain estate: a 1000-host backbone, a chord spanning 150 hosts
#: every 100, four products per host and seeded per-host preferences.
HOSTS = 1000
SEED = 2
PRODUCTS = 4
CHORD_SPAN = 150
CHORD_EVERY = 100

NATIVE = get_backend("native")

pytestmark = pytest.mark.skipif(
    not NATIVE.available,
    reason="native backend needs a C compiler",
)


def build_pipeline_estate(seed: int = SEED):
    """One connected 1000-host chain backbone with long redundancy chords."""
    spec = {"scada": tuple(f"p{j}" for j in range(PRODUCTS))}
    network = chain_network(HOSTS, services=spec)
    for i in range(0, HOSTS - CHORD_SPAN - 10, CHORD_EVERY):
        network.add_link(f"h{i}", f"h{i + CHORD_SPAN}")

    table = SimilarityTable()
    feed = random.Random(seed)
    products = spec["scada"]
    for product in products:
        table.add_product(product)
    for i, a in enumerate(products):
        for b in products[i + 1 :]:
            table.set(a, b, round(feed.uniform(0.05, 0.8), 3))

    prefs_rng = random.Random(seed + 5)
    preferences = {
        (f"h{i}", "scada", product): round(prefs_rng.uniform(0.0, 0.3), 3)
        for i in range(HOSTS)
        for product in products
    }
    return network, table, preferences


def _timed_solve(plan, backend, scratch, messages):
    """One traced solve; returns (result, per-iteration sweep seconds)."""
    solver = TRWSSolver(
        max_iterations=ITERATIONS, refine=False, backend=backend, seed=0
    )
    assert not obs.enabled(), "ambient trace active; bench must start clean"
    obs.activate(obs.Trace())
    try:
        result = solver.solve_arrays(plan, messages=messages, scratch=scratch)
    finally:
        obs.deactivate()
    stats = result.stats
    sweep = stats.forward_seconds + stats.backward_seconds + stats.bound_seconds
    return result, sweep / result.iterations


def _assert_parity(plan):
    """Both backends agree bit-for-bit: the whole result and the
    post-solve message state.  Also warms both paths (compiled-kernel
    load, plan marshalling) before anything is timed."""
    results = {}
    for name in ("numpy", "native"):
        results[name], _ = _timed_solve(
            plan, name, SolverScratch(), plan.zero_messages()
        )
    native_result, baseline = results["native"], results["numpy"]
    assert native_result.labels == baseline.labels
    assert native_result.energy == baseline.energy
    assert native_result.lower_bound == baseline.lower_bound
    assert native_result.energy_trace == baseline.energy_trace
    assert native_result.bound_trace == baseline.bound_trace
    reference_messages = plan.zero_messages()
    messages = plan.zero_messages()
    TRWSSolver(max_iterations=2, refine=False, backend="numpy", seed=0) \
        .solve_arrays(plan, messages=reference_messages)
    TRWSSolver(max_iterations=2, refine=False, backend="native", seed=0) \
        .solve_arrays(plan, messages=messages)
    np.testing.assert_array_equal(messages, reference_messages)
    return native_result


def _interleaved_best(plan):
    """Best per-iteration sweep seconds (and that round's stats) per
    backend, alternating backends inside every round."""
    scratch = {name: SolverScratch() for name in ("numpy", "native")}
    best = {"numpy": float("inf"), "native": float("inf")}
    best_stats = {}
    for _ in range(ROUNDS):
        for name in ("numpy", "native"):
            result, per_iteration = _timed_solve(
                plan, name, scratch[name], plan.zero_messages()
            )
            if per_iteration < best[name]:
                best[name] = per_iteration
                best_stats[name] = result.stats
    return best, best_stats


def _record(record_bench, name, plan, best, best_stats, result, **extra):
    speedup = best["numpy"] / best["native"]
    record_bench(
        name,
        seconds=best["native"],
        phases=best_stats["native"].phase_seconds(),
        numpy_seconds=round(best["numpy"], 6),
        speedup=round(speedup, 2),
        backend=best_stats["native"].backend,
        nodes=plan.node_count,
        edges=plan.edge_count,
        levels=(
            plan.adjacency.forward_levels + plan.adjacency.backward_levels
        ),
        iterations=ITERATIONS,
        rounds=ROUNDS,
        energy=round(result.energy, 6),
        **extra,
    )
    return speedup


@pytest.fixture(scope="module")
def scale_plan():
    """The compiled plan of the 10k-host workload (built once)."""
    return compile_plan(random_network(CONFIG), random_similarity(CONFIG)).plan


def test_native_sweep_speedup(record_bench, scale_plan):
    plan = scale_plan
    native_result = _assert_parity(plan)
    best, best_stats = _interleaved_best(plan)
    assert best_stats["native"].backend == NATIVE.describe()
    speedup = _record(
        record_bench, "native_kernels", plan, best, best_stats,
        native_result, hosts=CONFIG.hosts,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"native kernels only {speedup:.1f}x faster than numpy "
        f"({best['native'] * 1e3:.1f} ms vs {best['numpy'] * 1e3:.1f} ms "
        f"per iteration)"
    )


def test_native_chain_no_slower(record_bench):
    network, table, preferences = build_pipeline_estate()
    plan = compile_plan(network, table, preferences=preferences).plan
    assert plan.adjacency.forward_levels >= HOSTS // 2  # long diameter
    native_result = _assert_parity(plan)
    best, best_stats = _interleaved_best(plan)
    assert best_stats["native"].backend == NATIVE.describe()
    speedup = _record(
        record_bench, "native_kernels_chain", plan, best, best_stats,
        native_result, hosts=HOSTS,
    )
    assert speedup >= MIN_CHAIN_SPEEDUP, (
        f"native kernels {1 / speedup:.1f}x slower than numpy on the "
        f"chain estate ({best['native'] * 1e3:.2f} ms vs "
        f"{best['numpy'] * 1e3:.2f} ms per iteration)"
    )


def test_native_greedy_speedup(record_bench, scale_plan):
    plan = scale_plan
    scratch = {name: SolverScratch() for name in ("numpy", "native")}
    # Parity first; it also warms both paths before anything is timed.
    labels = {
        name: plan.greedy_labels(scratch=scratch[name], backend=name)
        for name in ("numpy", "native")
    }
    np.testing.assert_array_equal(labels["native"], labels["numpy"])
    best = {"numpy": float("inf"), "native": float("inf")}
    for _ in range(ROUNDS):
        for name in ("numpy", "native"):
            start = time.perf_counter()
            plan.greedy_labels(scratch=scratch[name], backend=name)
            best[name] = min(best[name], time.perf_counter() - start)
    speedup = best["numpy"] / best["native"]
    record_bench(
        "native_greedy",
        seconds=best["native"],
        numpy_seconds=round(best["numpy"], 6),
        speedup=round(speedup, 2),
        backend=NATIVE.describe(),
        nodes=plan.node_count,
        edges=plan.edge_count,
        hosts=CONFIG.hosts,
        rounds=ROUNDS,
    )
    assert speedup >= MIN_GREEDY_SPEEDUP, (
        f"native greedy init only {speedup:.1f}x faster than numpy "
        f"({best['native'] * 1e3:.2f} ms vs {best['numpy'] * 1e3:.1f} ms)"
    )
