"""Plan compilation — direct network→plan compiler vs the Python builder.

Pins the headline claim of the compile layer (:mod:`repro.core.compile`):
on the Table VII mid-density workload at **1000 hosts** (degree 20, 15
services — 15k variables, 150k coupled edges), compiling the solver plan
straight from the network is at least **5×** faster end-to-end than the
classic ``build_mrf`` → ``MRFArrays`` object pipeline, while producing a
**byte-identical** plan (same unary stack, cost stack, edge arrays, γ
weights and adjacency) and therefore identical solve results.

Why the old path is slow: ``build_mrf`` walks hosts × links × labels in
Python into a dict-based :class:`PairwiseMRF` (one ``add_edge`` per
(link, shared-service) pair), and ``MRFArrays`` then walks every edge
again to flatten it.  The compiler interns hosts/services/ranges once and
emits the same arrays with NumPy group operations; the remaining cost is
the structure derivation both paths share.

A second case pins that derivation on the long-diameter shape of ICS
pipelines: a **5000-host** chain+chord estate (one wavefront level per
host) must assemble its plan — ``MRFArrays.from_dense`` on the compiled
parts, the ``compile.assemble`` layer — at no more than **3×** the
seconds per edge of the 1000-host cell above.  A level derivation that
takes one round per level costs O(edges · depth) and fails this bar by
two orders of magnitude; the native structure kernel's one O(nodes +
edges) pass holds it, so the case skips when the default kernel backend
is not native.

Timings are best-of-``ROUNDS``; the records land in
``benchmarks/results/BENCH_plan_compile.json`` and
``BENCH_plan_compile_chain.json`` (CI runs these on every push and the
pinned-record soft gate flags >25% regressions).
"""

import random
import time
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest

from repro.core.compile import compile_parts, compile_plan
from repro.core.costs import build_mrf
from repro.mrf.backends import resolve_backend
from repro.mrf.sharded import solve_plan
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import Adjacency, MRFArrays
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.network.topologies import chain_network
from repro.nvd.similarity import SimilarityTable

ROUNDS = 3
HOSTS = 1000
DEGREE = 20
SERVICES = 15
SEED = 0
#: The acceptance bar: compiled vs Python end-to-end plan build.
MIN_SPEEDUP = 5.0
#: The long-diameter estate: chain hosts, and its products per host.
CHAIN_HOSTS = 5000
CHAIN_PRODUCTS = 4
#: Its bar: plan-assembly seconds per edge at most this multiple of the
#: HOSTS/DEGREE/SERVICES cell's.
MAX_CHAIN_EDGE_RATIO = 3.0
#: Assembly takes milliseconds: best of more rounds steadies the ratio.
ASSEMBLY_ROUNDS = 10

#: The arrays that define solver behaviour — byte-compared between paths.
PARITY_ARRAYS = (
    "label_counts", "mask", "unary", "unary_inf", "cost",
    "edge_first", "edge_second", "edge_cid", "gamma",
    *(f"adjacency.{field.name}" for field in fields(Adjacency)),
)


def _best(fn, rounds=ROUNDS):
    result, best = None, float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_plan_compile_speedup(record_bench, write_artifact):
    config = RandomNetworkConfig(
        hosts=HOSTS, degree=DEGREE, services=SERVICES, seed=SEED
    )
    network = random_network(config)
    similarity = random_similarity(config)

    reference, python_seconds = _best(
        lambda: MRFArrays(build_mrf(network, similarity).mrf)
    )
    compiled, compile_seconds = _best(
        lambda: compile_plan(network, similarity).plan
    )
    speedup = python_seconds / compile_seconds

    # Parity: the compiler emits the same plan, byte for byte.
    for name in PARITY_ARRAYS:
        read = attrgetter(name)
        assert np.array_equal(
            read(reference), read(compiled), equal_nan=True
        ), f"plan array {name!r} differs"

    # Identical plans solve identically (same labels, same energy).
    solver_options = dict(max_iterations=4, compute_bound=False)
    via_mrf = TRWSSolver(**solver_options).solve_arrays(
        reference, extra_inits=(reference.greedy_labels(),)
    )
    via_compile = solve_plan(compiled, **solver_options)
    assert via_compile.labels == via_mrf.labels
    assert via_compile.energy == pytest.approx(via_mrf.energy, abs=1e-9)

    rows = [
        f"python build (build_mrf + MRFArrays): {1000 * python_seconds:8.1f}ms",
        f"direct compile (compile_plan):        {1000 * compile_seconds:8.1f}ms",
        f"speedup: {speedup:4.2f}x  "
        f"(nodes={compiled.node_count}, edges={compiled.edge_count}, "
        f"matrices={compiled.stacked})",
        f"solve energy parity: E={via_compile.energy:.6f}",
    ]
    write_artifact("plan_compile", "\n".join(rows))
    record_bench(
        "plan_compile",
        seconds=compile_seconds,
        python_seconds=round(python_seconds, 6),
        speedup=round(speedup, 2),
        hosts=HOSTS,
        nodes=compiled.node_count,
        edges=compiled.edge_count,
        matrices=compiled.stacked,
        energy=round(via_compile.energy, 6),
    )
    # The acceptance bar for the compile layer.
    assert speedup >= MIN_SPEEDUP, (
        f"direct compiler only {speedup:.2f}x faster (bar: {MIN_SPEEDUP}x)"
    )


def build_chain_estate(hosts: int = CHAIN_HOSTS, seed: int = SEED):
    """(network, similarity, preferences) of a pipeline estate: a chain
    backbone with a redundancy chord spanning 15% of the hosts every 10%
    (the shape of the e2e ``pipeline-chain`` workload), one
    ``CHAIN_PRODUCTS``-product service and seeded per-host preferences."""
    products = tuple(f"p{j}" for j in range(CHAIN_PRODUCTS))
    network = chain_network(hosts, services={"scada": products})
    span, every = 3 * hosts // 20, hosts // 10
    for i in range(0, hosts - span - 10, every):
        network.add_link(f"h{i}", f"h{i + span}")
    rng = random.Random(seed)
    similarity = SimilarityTable(products=list(products))
    for i, a in enumerate(products):
        for b in products[i + 1:]:
            similarity.set(a, b, round(rng.uniform(0.05, 0.8), 3))
    preferences = {
        (f"h{i}", "scada", product): round(rng.uniform(0.0, 1.0), 3)
        for i in range(hosts)
        for product in products
    }
    return network, similarity, preferences


def _assemble(parts):
    """The ``compile.assemble`` step: the plan built from compiled parts."""
    return MRFArrays.from_dense(
        parts.unary, parts.label_counts, parts.edge_first,
        parts.edge_second, parts.edge_cid, parts.matrices,
    )


@pytest.mark.skipif(
    resolve_backend().name != "native",
    reason="the long-diameter bar measures the native structure kernel",
)
def test_plan_assembly_long_diameter(record_bench, write_artifact):
    config = RandomNetworkConfig(
        hosts=HOSTS, degree=DEGREE, services=SERVICES, seed=SEED
    )
    cell_parts = compile_parts(
        random_network(config), random_similarity(config)
    )
    network, similarity, preferences = build_chain_estate()
    chain_parts = compile_parts(network, similarity, preferences=preferences)

    cell, cell_seconds = _best(lambda: _assemble(cell_parts), ASSEMBLY_ROUNDS)
    chain, chain_seconds = _best(
        lambda: _assemble(chain_parts), ASSEMBLY_ROUNDS
    )
    _, compile_seconds = _best(
        lambda: compile_plan(network, similarity, preferences=preferences)
    )
    assert chain.adjacency.forward_levels >= CHAIN_HOSTS // 2  # long diameter
    cell_per_edge = cell_seconds / cell.edge_count
    chain_per_edge = chain_seconds / chain.edge_count
    ratio = chain_per_edge / cell_per_edge

    rows = [
        f"cell {HOSTS}/{DEGREE}/{SERVICES} assembly: "
        f"{1000 * cell_seconds:8.2f}ms  "
        f"({1e9 * cell_per_edge:7.1f}ns/edge, edges={cell.edge_count})",
        f"chain{CHAIN_HOSTS} assembly:        "
        f"{1000 * chain_seconds:8.2f}ms  "
        f"({1e9 * chain_per_edge:7.1f}ns/edge, edges={chain.edge_count}, "
        f"levels={chain.adjacency.forward_levels})",
        f"per-edge ratio: {ratio:5.2f}x (bar: {MAX_CHAIN_EDGE_RATIO}x)",
        f"chain{CHAIN_HOSTS} full compile_plan: {1000 * compile_seconds:8.2f}ms",
    ]
    write_artifact("plan_compile_chain", "\n".join(rows))
    record_bench(
        "plan_compile_chain",
        seconds=chain_seconds,
        cell_seconds=round(cell_seconds, 6),
        per_edge_ratio=round(ratio, 2),
        compile_seconds=round(compile_seconds, 6),
        hosts=CHAIN_HOSTS,
        nodes=chain.node_count,
        edges=chain.edge_count,
        levels=(
            chain.adjacency.forward_levels + chain.adjacency.backward_levels
        ),
    )
    assert ratio <= MAX_CHAIN_EDGE_RATIO, (
        f"chain estate assembles at {ratio:.1f}x the cell's seconds per "
        f"edge (bar: {MAX_CHAIN_EDGE_RATIO}x)"
    )
