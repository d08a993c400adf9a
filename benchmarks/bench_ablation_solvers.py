"""Ablation — solver choice (the paper's Section V-C design decision).

The paper argues for TRW-S over belief propagation and graph cuts: BP
"might not converge" on many instances and TRW-S handles flat-probability
labelling better.  This bench compares TRW-S against loopy BP (the
per-node ``bp-ref``), ICM and the greedy colouring heuristic on the
case-study MRF and on a random workload: achieved energy (solution
quality) and wall time.  The pre-vectorization TRW-S (``trws-ref``) runs
on the same instances, so the artefact also tracks the vectorization
speedup and asserts energy parity between TRW-S and its reference.

Asserted shape: TRW-S never loses on energy.
"""

import time

import pytest

from repro.core.baselines import greedy_assignment
from repro.core.costs import assignment_energy
from repro.core.diversify import diversify
from repro.network.generator import RandomNetworkConfig, random_network, random_similarity

SOLVERS = ("trws", "trws-ref", "bp-ref", "icm")

_case_rows = {}
_random_rows = {}
_case_seconds = {}
_random_seconds = {}


def _timed_diversify(network, similarity, **kwargs):
    start = time.perf_counter()
    result = diversify(network, similarity, **kwargs)
    return result, time.perf_counter() - start


@pytest.mark.parametrize("solver", SOLVERS)
def test_case_study_solver(benchmark, case, solver):
    result, seconds = benchmark.pedantic(
        _timed_diversify,
        args=(case.network, case.similarity),
        kwargs=dict(solver=solver, max_iterations=100),
        rounds=1,
        iterations=1,
    )
    _case_rows[solver] = result.energy
    _case_seconds[solver] = seconds


@pytest.mark.parametrize("solver", SOLVERS)
def test_random_workload_solver(benchmark, solver):
    config = RandomNetworkConfig(hosts=120, degree=8, services=3, seed=1)
    network, similarity = random_network(config), random_similarity(config)
    result, seconds = benchmark.pedantic(
        _timed_diversify,
        args=(network, similarity),
        kwargs=dict(solver=solver, max_iterations=60),
        rounds=1,
        iterations=1,
    )
    _random_rows[solver] = result.energy
    _random_seconds[solver] = seconds


def test_solver_ablation_shape(benchmark, case, write_artifact, record_bench):
    if set(_case_rows) != set(SOLVERS) or set(_random_rows) != set(SOLVERS):
        pytest.skip("solver cells did not run (collection filter?)")
    greedy = benchmark(greedy_assignment, case.network, case.similarity)
    greedy_energy = assignment_energy(case.network, case.similarity, greedy)
    # TRW-S is the best (or tied-best) optimiser on both instances.
    assert _case_rows["trws"] <= min(_case_rows.values()) + 1e-9
    assert _case_rows["trws"] <= greedy_energy
    assert _random_rows["trws"] <= min(_random_rows.values()) + 1e-9
    # The vectorized TRW-S matches its per-node reference implementation.
    assert _case_rows["trws"] == pytest.approx(_case_rows["trws-ref"], abs=1e-9)
    assert _random_rows["trws"] == pytest.approx(_random_rows["trws-ref"], abs=1e-9)

    lines = ["Ablation — solver choice (energy; lower is better)",
             f"{'solver':<10}{'case study':>14}{'random 120-host':>18}{'random time':>14}"]
    for solver in SOLVERS:
        lines.append(
            f"{solver:<10}{_case_rows[solver]:>14.3f}{_random_rows[solver]:>18.3f}"
            f"{_random_seconds[solver]:>13.3f}s"
        )
    lines.append(f"{'greedy':<10}{greedy_energy:>14.3f}{'—':>18}{'—':>14}")
    write_artifact("ablation_solvers", "\n".join(lines))
    record_bench(
        "ablation_solvers",
        seconds=_random_seconds["trws"],
        case_seconds={k: round(v, 6) for k, v in _case_seconds.items()},
        random_seconds={k: round(v, 6) for k, v in _random_seconds.items()},
        case_energy={k: round(v, 6) for k, v in _case_rows.items()},
        random_energy={k: round(v, 6) for k, v in _random_rows.items()},
    )
