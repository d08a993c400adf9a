"""Native kernel tier — compiled TRW-S sweep kernels vs the NumPy backend.

Pins the two claims of the kernel-backend tier (``docs/kernels.md``), each
on one TRW-S iteration — forward sweep + backward sweep + dual bound —
while the backends stay bit-for-bit identical (labels, energy, bound,
traces and the post-solve message state are asserted equal, not close):

* on the 10k-host scalability workload (50 000 nodes, ~200 000 edges, 4
  labels, wide wavefront levels) the ``native`` backend is at least
  **5×** faster than the ``numpy`` backend;
* on the 1000-host chain+chord estate of ``bench_dual_scaling.py`` (one
  wavefront level per host, ~1000 levels per sweep — the long-diameter
  shape where per-level dispatch is most of the work) ``native`` is no
  slower than ``numpy``.

Timing protocol: interleaved best-of-``ROUNDS``.  Each round solves
``ITERATIONS`` TRW-S iterations per backend, alternating backends inside
the round so machine noise (the CI boxes are small and shared) hits both
equally; the metric is per-iteration *sweep* seconds — the ``forward`` +
``backward`` + ``bound`` phases from :class:`~repro.mrf.solvers.SolveStats`
— excluding decode/energy bookkeeping, which is backend-independent.  The
per-phase attribution of the winning native round lands in the BENCH
record (schema 2 ``phases``), and the committed baselines live in
``benchmarks/pinned/BENCH_native_kernels.json`` and
``BENCH_native_kernels_chain.json`` (``bench_report.py --pinned`` gates on
them).
"""

import numpy as np
import pytest
from bench_dual_scaling import HOSTS as CHAIN_HOSTS
from bench_dual_scaling import build_pipeline_estate

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

NATIVE = get_backend("native")

pytestmark = pytest.mark.skipif(
    not NATIVE.available,
    reason="native backend needs a C compiler",
)


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
        levels=plan.fwd_sweep.count + plan.bwd_sweep.count,
        iterations=ITERATIONS,
        rounds=ROUNDS,
        energy=round(result.energy, 6),
        **extra,
    )
    return speedup


def test_native_sweep_speedup(record_bench):
    network = random_network(CONFIG)
    similarity = random_similarity(CONFIG)
    plan = compile_plan(network, similarity).plan
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
    assert plan.fwd_sweep.count >= CHAIN_HOSTS // 2  # long diameter
    native_result = _assert_parity(plan)
    best, best_stats = _interleaved_best(plan)
    assert best_stats["native"].backend == NATIVE.describe()
    speedup = _record(
        record_bench, "native_kernels_chain", plan, best, best_stats,
        native_result, hosts=CHAIN_HOSTS,
    )
    assert speedup >= MIN_CHAIN_SPEEDUP, (
        f"native kernels {1 / speedup:.1f}x slower than numpy on the "
        f"chain estate ({best['native'] * 1e3:.2f} ms vs "
        f"{best['numpy'] * 1e3:.2f} ms per iteration)"
    )
