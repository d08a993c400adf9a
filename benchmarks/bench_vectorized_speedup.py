"""Vectorization speedup — vectorized TRW-S vs the per-node reference.

Pins the headline claim of the vectorized message-passing core: on the
solver-ablation random workload (120 hosts, degree 8, 3 services, general
MRF path) the vectorized :class:`~repro.mrf.trws.TRWSSolver` returns the
same energy, bound and labelling as the pre-vectorization
:class:`~repro.mrf.reference.ReferenceTRWSSolver` at **at least 5×** the
speed.  The measured ratio (typically well above the bar) is recorded in
``benchmarks/results/BENCH_vectorized_trws.json`` so regressions show up
as a trend, not an anecdote.

Timing protocol: best of ``ROUNDS`` runs per solver on a prebuilt MRF
(solver time only — MRF construction is shared by both and measured by the
scalability benches).
"""

import time

import pytest

from repro.core.costs import build_mrf
from repro.mrf.reference import ReferenceTRWSSolver
from repro.mrf.trws import TRWSSolver
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)

ROUNDS = 3
#: The bench_ablation_solvers.py random workload.
CONFIG = RandomNetworkConfig(hosts=120, degree=8, services=3, seed=1)


def _best_of(solver, mrf, rounds=ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = solver.solve(mrf)
        best = min(best, time.perf_counter() - start)
    return result, best


def test_trws_vectorized_speedup(record_bench):
    build = build_mrf(random_network(CONFIG), random_similarity(CONFIG))
    fast, fast_seconds = _best_of(TRWSSolver(max_iterations=60), build.mrf)
    slow, slow_seconds = _best_of(ReferenceTRWSSolver(max_iterations=60), build.mrf)

    assert fast.energy == pytest.approx(slow.energy, abs=1e-9)
    assert fast.lower_bound == pytest.approx(slow.lower_bound, abs=1e-7)
    # Labellings must be equally good; bit-identical label lists are not
    # guaranteed (belief sums accumulate in level-major vs node order).
    assert build.mrf.energy(fast.labels) == pytest.approx(
        build.mrf.energy(slow.labels), abs=1e-9
    )

    speedup = slow_seconds / fast_seconds
    record_bench(
        "vectorized_trws",
        seconds=fast_seconds,
        reference_seconds=round(slow_seconds, 6),
        speedup=round(speedup, 2),
        hosts=CONFIG.hosts,
        degree=CONFIG.degree,
        services=CONFIG.services,
        energy=round(fast.energy, 6),
    )
    # The acceptance bar for the vectorized core.
    assert speedup >= 5.0, f"vectorized TRW-S only {speedup:.1f}x faster"

