"""Shard scaling — component-partitioned solves vs the monolithic solver.

Pins the headline claim of the shard layer (:mod:`repro.mrf.partition` +
:class:`~repro.mrf.sharded.ShardedSolver`): on a segmented 1000-host
multi-zone workload the sharded solve (one shard per connected component,
solved one after another) is at least **2×** faster than the monolithic
:class:`~repro.mrf.trws.TRWSSolver` while producing **identical energies**
(components share no edges, so the decomposition is exact).

The workload models a segmented ICS estate (cf. the paper's Fig. 3): one
*core* zone with redundant (loopy) wiring, four daisy-chained field
segments and five tree-shaped office LANs — 1000 hosts, two services, six
candidate products, air-gapped zones.  The structure is what the speedup
exploits and what makes it honest:

* the loopy core denies the monolithic solver its forest dispatch, so it
  message-passes the *whole* network for as many sweeps as its slowest
  component needs, over a wavefront schedule whose depth is gated by the
  daisy chains;
* per shard, the chains and trees are forests — solved exactly by one
  min-sum DP pass — and only the small core pays iterative sweeps.

Timings are best-of-``ROUNDS``; the record lands in
``benchmarks/results/BENCH_shard_scaling.json`` (CI runs this on every
push and the pinned-record soft gate flags >25% regressions).
"""

import random
import time

import pytest

from repro.core.costs import build_mrf
from repro.mrf.partition import split_components
from repro.mrf.sharded import ShardedSolver
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays
from repro.network.zones import Zone, ZonedNetwork
from repro.nvd.similarity import SimilarityTable

ROUNDS = 3
SEED = 1
PRODUCTS = 6
#: The acceptance bar: sharded vs monolithic wall-clock.
MIN_SPEEDUP = 2.0


def build_zoned_workload(seed: int = SEED):
    """The segmented 1000-host estate: core + field chains + office LANs."""
    rng = random.Random(seed)
    zones = []
    # One operations core with redundant (loopy) wiring.
    hosts = tuple(f"core_h{i}" for i in range(60))
    links = {
        tuple(sorted((hosts[i], hosts[rng.randrange(i)])))
        for i in range(1, 60)
    }
    while len(links) < 60 * 3 // 2:
        a, b = rng.sample(hosts, 2)
        links.add((a, b) if a < b else (b, a))
    zones.append(Zone("core", hosts, topology="custom",
                      links=tuple(sorted(links))))
    # Four daisy-chained field segments (fieldbus-style wiring).
    for k in range(4):
        zones.append(
            Zone(f"field{k}", tuple(f"f{k}h{i}" for i in range(120)),
                 topology="chain")
        )
    # Five tree-shaped office LANs (hosts hang off switches).
    for k in range(5):
        lan = tuple(f"lan{k}h{i}" for i in range(92))
        tree = tuple(sorted(
            (lan[rng.randrange(i)], lan[i]) for i in range(1, 92)
        ))
        zones.append(Zone(f"lan{k}", lan, topology="custom", links=tree))
    zoned = ZonedNetwork(zones, rules=[])  # air-gapped: no cross-zone rules

    spec = {s: tuple(f"{s}_p{j}" for j in range(PRODUCTS))
            for s in ("os", "db")}
    network = zoned.build_network({h: spec for h in zoned.hosts()})
    table = SimilarityTable()
    feed = random.Random(seed + 1)
    for products in spec.values():
        for product in products:
            table.add_product(product)
        for i, a in enumerate(products):
            for b in products[i + 1 :]:
                if feed.random() < 0.3:
                    table.set(a, b, round(feed.uniform(0.05, 0.8), 3))
    return network, table


def _best(fn, rounds=ROUNDS):
    result, best = None, float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_shard_scaling_speedup(record_bench, write_artifact):
    network, table = build_zoned_workload()
    assert len(network) == 1000
    mrf = build_mrf(network, table).mrf
    plan = MRFArrays(mrf)

    mono, mono_seconds = _best(lambda: TRWSSolver().solve(mrf))

    rows = [
        f"monolithic trws: {1000 * mono_seconds:8.1f}ms  "
        f"E={mono.energy:.4f}  iters={mono.iterations}"
    ]
    solver = ShardedSolver(solver="trws")
    result, seconds = _best(lambda: solver.solve_arrays(plan))
    shard_count = len(split_components(plan))
    speedup = mono_seconds / seconds
    rows.append(
        f"{shard_count:>3} shard(s): {1000 * seconds:8.1f}ms  "
        f"E={result.energy:.4f}  speedup={speedup:4.2f}x"
    )
    # Exactness: components share no edges.
    assert result.energy == pytest.approx(mono.energy, abs=1e-9)

    write_artifact("shard_scaling", "\n".join(rows))
    record_bench(
        "shard_scaling",
        seconds=seconds,
        mono_seconds=round(mono_seconds, 6),
        speedup=round(speedup, 2),
        shards=shard_count,
        hosts=len(network),
        nodes=plan.node_count,
        edges=plan.edge_count,
        energy=round(mono.energy, 6),
    )
    # The acceptance bar for the shard layer.
    assert speedup >= MIN_SPEEDUP, (
        f"sharded solve only {speedup:.2f}x faster "
        f"(bar: {MIN_SPEEDUP}x)"
    )
