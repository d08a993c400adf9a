"""Tracing overhead — ``repro.obs`` must be free when disabled.

Pins the observability layer's core promise: with no trace activated,
every ``obs.span`` / ``obs.instant`` / ``obs.add_counter`` call site
returns a shared no-op singleton and costs nanoseconds, so instrumenting
the hot paths (compile phases, TRW-S iterations, stream applies) does
not tax production runs.  The workload is the Table VII
mid-density sweep at **1000 hosts** (degree 20, 15 services) — the same
estate as ``bench_plan_compile.py`` — compiled and solved end-to-end.

Two measurements gate the claim:

1. A traced run counts how many events the workload actually emits, and
   a microbenchmark prices the disabled no-op call.  The provable bound
   ``events × per-call cost`` must stay under **2%** of the disabled
   solve time — deterministic, unlike differencing two noisy wall-clock
   runs.
2. The traced run's :func:`repro.obs.report.layer_seconds` breakdown is
   recorded as the v2 ``phases`` attribution of the headline number, so
   ``bench_report.py`` shows where the sweep spends its time.

Timings are best-of-``ROUNDS``; the record lands in
``benchmarks/results/BENCH_trace_overhead.json`` (CI compares it against
the pinned copy on every push).
"""

import time

from repro import obs
from repro.core.compile import compile_plan
from repro.mrf.sharded import solve_plan
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.obs.report import layer_seconds

ROUNDS = 3
HOSTS = 1000
DEGREE = 20
SERVICES = 15
SEED = 0
NOOP_CALLS = 100_000
#: The acceptance bar: disabled-mode instrumentation cost / solve time.
MAX_OVERHEAD = 0.02


def _sweep():
    """Compile + solve the 1000-host estate once; returns the solve result."""
    config = RandomNetworkConfig(
        hosts=HOSTS, degree=DEGREE, services=SERVICES, seed=SEED
    )
    network = random_network(config)
    similarity = random_similarity(config)
    plan = compile_plan(network, similarity).plan
    return solve_plan(
        plan, solver="trws", max_iterations=4, compute_bound=False
    )


def _best(fn, rounds=ROUNDS):
    result, best = None, float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _noop_span_cost(calls=NOOP_CALLS):
    """Best-of-rounds per-call seconds of ``obs.span`` with tracing off."""
    assert not obs.enabled(), "microbench requires tracing disabled"
    span = obs.span
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            with span("noop", cat="bench", x=1):
                pass
        best = min(best, time.perf_counter() - start)
    return best / calls


def test_trace_overhead_disabled(record_bench, write_artifact):
    assert not obs.enabled(), "ambient trace active; bench must start clean"

    # Disabled mode: the number CI trends and the denominator of the bar.
    result, disabled_seconds = _best(_sweep)

    # Traced once: how many events does this workload emit, and where
    # does the time go (the v2 ``phases`` attribution)?
    trace = obs.activate(obs.Trace())
    try:
        traced_result, traced_seconds = _best(_sweep, rounds=1)
    finally:
        obs.deactivate()
    events = len(trace.events)
    assert events > 0, "traced sweep recorded no events"
    phases = layer_seconds(trace.events)

    # Price the disabled call sites: even if every recorded event had
    # cost a full no-op span round-trip, the total must be negligible.
    per_call = _noop_span_cost()
    noop_total = per_call * events
    overhead = noop_total / disabled_seconds

    rows = [
        f"disabled sweep (best of {ROUNDS}):  {1000 * disabled_seconds:8.1f}ms",
        f"traced sweep (1 round):        {1000 * traced_seconds:8.1f}ms "
        f"({events} events)",
        f"no-op span call:               {1e9 * per_call:8.1f}ns",
        f"provable disabled overhead:    {100 * overhead:8.4f}% "
        f"(bar: {100 * MAX_OVERHEAD:.0f}%)",
        "phases: "
        + ", ".join(f"{k} {v:.4f}s" for k, v in phases.items()),
    ]
    write_artifact("trace_overhead", "\n".join(rows))
    record_bench(
        "trace_overhead",
        seconds=disabled_seconds,
        phases=phases,
        traced_seconds=round(traced_seconds, 6),
        events=events,
        noop_span_ns=round(1e9 * per_call, 1),
        overhead_fraction=round(overhead, 6),
        hosts=HOSTS,
        energy=round(result.energy, 6),
    )
    # Parity: tracing must observe, never perturb, the solve.
    assert traced_result.labels == result.labels
    # The acceptance bar for the observability layer.
    assert overhead <= MAX_OVERHEAD, (
        f"disabled tracing costs {100 * overhead:.2f}% of the sweep "
        f"(bar: {100 * MAX_OVERHEAD:.0f}%)"
    )
