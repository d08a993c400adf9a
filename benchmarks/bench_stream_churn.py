"""Streaming churn — warm-started incremental re-solve vs cold rebuild+solve.

Pins the headline claim of the :mod:`repro.stream` subsystem: replaying
single-host/single-link churn events over a 120-host workload, the
:class:`~repro.stream.incremental.DynamicDiversifier` — delta-patched plan,
warm-started messages, previous-solution ICM seed — re-optimises at least
**3×** faster than the batch pipeline's cold rebuild+solve
(:func:`repro.core.diversify.diversify`: compile + solve), while landing
on **identical final energies** after every event.

Timing protocol: the full trace is replayed ``ROUNDS`` times per mode and
the best total is kept (per-event times are too short to time solo).  The
measured totals and speedup land in
``benchmarks/results/BENCH_stream_churn.json``.
"""

import time

import pytest

from repro.core.diversify import diversify
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.stream import (
    ChurnConfig,
    DynamicDiversifier,
    apply_event,
    random_churn_trace,
)

ROUNDS = 2
#: 120-host sparse workload: 3 services × 6 products per host.
CONFIG = RandomNetworkConfig(
    hosts=120, degree=3, services=3, products_per_service=6,
    similarity_density=0.3, seed=1,
)
#: Host/link churn only — the single-host/single-link events of the claim.
TRACE = ChurnConfig(events=12, seed=1, weights=(1.0, 1.0, 2.0, 2.0, 0.0))


def _run_warm(network, similarity, trace):
    """Replay incrementally; returns (per-event energies, total seconds)."""
    engine = DynamicDiversifier(network.copy(), similarity.copy())
    engine.solve()
    energies, total, cold_solves = [], 0.0, 0
    for event in trace:
        engine.apply(event)
        start = time.perf_counter()
        result = engine.solve()
        total += time.perf_counter() - start
        energies.append(result.energy)
        if not result.warm:
            cold_solves += 1
    return energies, total, cold_solves


def _run_cold(network, similarity, trace):
    """Cold rebuild+solve after every event (the pre-streaming pipeline)."""
    net, sim = network.copy(), similarity.copy()
    energies, total = [], 0.0
    for event in trace:
        apply_event(net, sim, event)
        start = time.perf_counter()
        result = diversify(net, sim)
        total += time.perf_counter() - start
        energies.append(result.energy)
    return energies, total


def test_stream_churn_warm_speedup(record_bench):
    network, similarity = random_network(CONFIG), random_similarity(CONFIG)
    trace = random_churn_trace(network, TRACE)
    assert len(trace) == TRACE.events

    warm_energies = cold_energies = None
    warm_total = cold_total = float("inf")
    cold_solves = 0
    for _ in range(ROUNDS):
        energies, seconds, colds = _run_warm(network, similarity, trace)
        warm_energies, warm_total = energies, min(warm_total, seconds)
        cold_solves = colds
        energies, seconds = _run_cold(network, similarity, trace)
        cold_energies, cold_total = energies, min(cold_total, seconds)

    # Identical final energies after every single event.
    assert warm_energies == pytest.approx(cold_energies, abs=1e-9)
    # Every re-solve actually took the incremental path.
    assert cold_solves == 0, f"{cold_solves} re-solves fell back to cold"

    speedup = cold_total / warm_total
    record_bench(
        "stream_churn",
        seconds=warm_total,
        cold_seconds=round(cold_total, 6),
        speedup=round(speedup, 2),
        events=len(trace),
        hosts=CONFIG.hosts,
        degree=CONFIG.degree,
        services=CONFIG.services,
        final_energy=round(warm_energies[-1], 6),
    )
    # The acceptance bar for the streaming engine.
    assert speedup >= 3.0, f"warm-started re-solve only {speedup:.1f}x faster"
