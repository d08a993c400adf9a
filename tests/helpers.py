"""Shared test helpers, imported explicitly by test modules.

Helpers live here — not in ``conftest.py`` — because pytest imports every
``conftest.py`` under a top-level module name: with both ``tests/`` and
``benchmarks/`` carrying one, ``from conftest import ...`` resolves to
whichever directory was collected first and breaks repo-root runs.  A
uniquely-named module has no such collision.
"""

from __future__ import annotations

import random

import numpy as np

from repro.mrf.graph import PairwiseMRF
from repro.mrf.vectorized import MRFArrays

__all__ = [
    "LEXSORT_FWD_FIELDS",
    "LEXSORT_BWD_FIELDS",
    "assert_schedule_kernels_agree",
    "count_compile_routes",
    "edge_similarity_loop",
    "lexsort_structure",
    "make_random_mrf",
    "padded_plan",
    "pipeline_estate",
    "python_levels",
    "stability_oracle",
]


def make_random_mrf(
    nodes: int,
    edge_probability: float,
    max_labels: int,
    seed: int,
    tree: bool = False,
) -> PairwiseMRF:
    """A random small MRF with non-negative costs.

    With ``tree=True`` the edge set is a random spanning tree, on which
    TRW-S is exact.
    """
    rng = random.Random(seed)
    mrf = PairwiseMRF()
    label_counts = [rng.randint(2, max_labels) for _ in range(nodes)]
    for count in label_counts:
        mrf.add_node([rng.uniform(0.0, 2.0) for _ in range(count)])
    if tree:
        for node in range(1, nodes):
            parent = rng.randrange(node)
            matrix = np.array(
                [
                    [rng.uniform(0.0, 1.0) for _ in range(label_counts[node])]
                    for _ in range(label_counts[parent])
                ]
            )
            mrf.add_edge(parent, node, matrix)
    else:
        for i in range(nodes):
            for j in range(i + 1, nodes):
                if rng.random() < edge_probability:
                    matrix = np.array(
                        [
                            [rng.uniform(0.0, 1.0) for _ in range(label_counts[j])]
                            for _ in range(label_counts[i])
                        ]
                    )
                    mrf.add_edge(i, j, matrix)
    return mrf


def padded_plan(unaries, edge_first, edge_second, edge_cid, matrices, lmax):
    """:meth:`MRFArrays.from_parts` with the labels padded to ``lmax``
    (at least the widest vector): the per-node vectors are laid into a
    zero-padded ``(n, lmax)`` stack for :meth:`MRFArrays.from_dense`."""
    counts = np.array([len(u) for u in unaries], dtype=np.int64)
    unary = np.zeros((len(unaries), lmax))
    for node, vector in enumerate(unaries):
        unary[node, : len(vector)] = vector
    return MRFArrays.from_dense(
        unary, counts, edge_first, edge_second, edge_cid, matrices
    )


def pipeline_estate(hosts: int, seed: int = 0):
    """(network, similarity, preferences) of a pipeline estate: a chain
    backbone of ``hosts`` hosts running one four-product service, a chord
    spanning 15% of the hosts every 10%, and seeded per-host product
    preferences — one wavefront level per host once compiled."""
    from repro.network.topologies import chain_network
    from repro.nvd.similarity import SimilarityTable

    products = ("p0", "p1", "p2", "p3")
    network = chain_network(hosts, services={"scada": products})
    span, every = 3 * hosts // 20, max(1, hosts // 10)
    for i in range(0, hosts - span - 10, every):
        network.add_link(f"h{i}", f"h{i + span}")
    rng = random.Random(seed)
    table = SimilarityTable(products=list(products))
    for i, a in enumerate(products):
        for b in products[i + 1:]:
            table.set(a, b, round(rng.uniform(0.05, 0.8), 3))
    preferences = {
        (f"h{i}", "scada", product): round(rng.uniform(0.0, 1.0), 3)
        for i in range(hosts)
        for product in products
    }
    return network, table, preferences


def edge_similarity_loop(network, similarity, assignment):
    """``(total, coupled)``: the assigned products' similarity summed
    over every (link, shared-service) pair by a plain loop over the links,
    and the number of pairs it counted.  The oracle of
    ``DiversificationResult.similarity_total`` / ``mean_edge_similarity``
    (``total / coupled``)."""
    total = 0.0
    coupled = 0
    for a, b in network.links:
        for service in network.shared_services(a, b):
            product_a = assignment.get(a, service)
            product_b = assignment.get(b, service)
            if product_a is None or product_b is None:
                continue
            coupled += 1
            total += similarity.get(product_a, product_b)
    return total, coupled


def stability_oracle(previous, current):
    """Fraction of the (host, service) keys of both decoded assignments
    (dicts) that kept their product, by a walk over the dicts; 1.0 with
    no previous assignment or no shared key.  The oracle of
    ``StreamSolveResult.stability``."""
    if previous is None:
        return 1.0
    shared = [key for key in current if key in previous]
    if not shared:
        return 1.0
    unchanged = sum(1 for key in shared if previous[key] == current[key])
    return unchanged / len(shared)


def count_compile_routes(monkeypatch):
    """Count the ``compile_plan`` / ``build_mrf`` calls ``diversify``
    makes, in a dict updated in place while ``monkeypatch`` is active.

    ``build_mrf`` is counted wherever ``diversify`` could reach it: as a
    name of its own module or through ``repro.core.costs``.
    """
    import importlib

    # (``repro.core`` re-exports the function under the module's name.)
    module = importlib.import_module("repro.core.diversify")
    costs = importlib.import_module("repro.core.costs")
    calls = {"compile_plan": 0, "build_mrf": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        module, "compile_plan", counting("compile_plan", module.compile_plan)
    )
    counted_build = counting("build_mrf", costs.build_mrf)
    monkeypatch.setattr(costs, "build_mrf", counted_build)
    monkeypatch.setattr(module, "build_mrf", counted_build, raising=False)
    return calls


def python_levels(n: int, first, second):
    """Longest-path wavefront levels by a plain per-node loop.

    Forward: in index order, a node sits one past its deepest
    lower-numbered neighbour; backward mirrors it over higher-numbered
    neighbours in reverse order.  The reference both schedule kernels are
    checked against.
    """
    neighbours = [[] for _ in range(n)]
    for a, b in zip(np.asarray(first).tolist(), np.asarray(second).tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    forward = [0] * n
    for v in range(n):
        forward[v] = max(
            (forward[u] + 1 for u in neighbours[v] if u < v), default=0
        )
    backward = [0] * n
    for v in reversed(range(n)):
        backward[v] = max(
            (backward[u] + 1 for u in neighbours[v] if u > v), default=0
        )
    return np.array(forward, dtype=np.int64), np.array(backward, dtype=np.int64)


def assert_schedule_kernels_agree(n: int, first, second) -> None:
    """Every available schedule kernel returns, as C-contiguous int64, the
    plain-Python endpoint grouping (each node's slots in slot order, slot
    ``2e`` being ``first[e]``) and :func:`python_levels`."""
    from repro.mrf.backends import get_backend

    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    buckets = [[] for _ in range(n)]
    for e, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
        buckets[a].append(2 * e)
        buckets[b].append(2 * e + 1)
    group = [slot for bucket in buckets for slot in bucket]
    off = np.cumsum([0] + [len(bucket) for bucket in buckets]).tolist()
    forward, backward = python_levels(n, first, second)
    for name in ("numpy", "native"):
        backend = get_backend(name)
        if not backend.available:
            continue
        got = backend.schedule(n, first, second)
        for array in got:
            assert array.dtype == np.int64 and array.flags.c_contiguous, name
        assert got[0].tolist() == group, name
        assert got[1].tolist() == off, name
        assert np.array_equal(got[2], forward), name
        assert np.array_equal(got[3], backward), name


#: Fields of the forward / backward sweep blocks, in oracle order.
LEXSORT_FWD_FIELDS = (
    "nodes", "ext_seg", "ext_nbr", "ext_in", "ext_cid",
    "snd", "rcv", "out", "cid",
    "all_seg", "all_nbr", "all_cid",
)
LEXSORT_BWD_FIELDS = ("snd", "rcv", "out", "cid")


def lexsort_structure(plan) -> dict:
    """A plan's slot, γ and sweep arrays rebuilt by three-key lexsorts.

    The construction ``MRFArrays`` used before its build became segment
    gathers of one node grouping, kept as a test oracle only: every
    ordering is an explicit ``np.lexsort`` by (level, node, edge) and
    every level offset a ``searchsorted`` of the sorted levels.  Keys are
    ``slot_receiver``, ``gamma``, ``fwd.<field>`` / ``bwd.<field>`` for the
    sweep blocks and ``fwd.<family>_off`` / ``bwd.send_off``.
    """
    n, m, stacked = plan.node_count, plan.edge_count, plan.stacked
    edge_first, edge_second, edge_cid = (
        plan.edge_first, plan.edge_second, plan.edge_cid
    )
    out = {}
    receiver = np.empty(2 * m, dtype=np.int64)
    receiver[0::2], receiver[1::2] = edge_second, edge_first
    out["slot_receiver"] = receiver

    lo = np.minimum(edge_first, edge_second)
    hi = np.maximum(edge_first, edge_second)
    first_is_lo = edge_first < edge_second
    e_ids = np.arange(m, dtype=np.int64)
    slot_lo2hi = np.where(first_is_lo, 2 * e_ids, 2 * e_ids + 1)
    slot_hi2lo = np.where(first_is_lo, 2 * e_ids + 1, 2 * e_ids)
    cid_rows_lo = np.where(first_is_lo, edge_cid, stacked + edge_cid)
    cid_rows_hi = np.where(first_is_lo, stacked + edge_cid, edge_cid)
    chains = np.maximum(
        np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
    )
    gamma = np.ones(n)
    gamma[chains > 0] = 1.0 / chains[chains > 0]
    out["gamma"] = gamma
    flevel, blevel = python_levels(n, edge_first, edge_second)

    def bounds(levels_sorted, count):
        return np.searchsorted(levels_sorted, np.arange(count + 1))

    n_flevels = int(flevel.max()) + 1 if n else 0
    node_order = np.lexsort((np.arange(n, dtype=np.int64), flevel))
    node_bounds = bounds(flevel[node_order], n_flevels)
    send_order = np.lexsort((e_ids, lo, flevel[lo]))
    ext_order = np.lexsort((e_ids, hi, flevel[hi]))
    a_node = np.concatenate([lo, hi])
    a_nbr = np.concatenate([hi, lo])
    a_cid = np.concatenate([cid_rows_lo, cid_rows_hi])
    all_order = np.lexsort((np.concatenate([e_ids, e_ids]), a_node,
                            flevel[a_node]))
    rank = np.empty(n, dtype=np.int64)
    rank[node_order] = np.arange(n) - node_bounds[flevel[node_order]]
    fwd_lo, fwd_hi = lo[send_order], hi[send_order]
    out.update({
        "fwd.nodes": node_order,
        "fwd.ext_seg": rank[hi[ext_order]],
        "fwd.ext_nbr": lo[ext_order],
        "fwd.ext_in": slot_lo2hi[ext_order],
        "fwd.ext_cid": cid_rows_hi[ext_order],
        "fwd.snd": fwd_lo,
        "fwd.rcv": fwd_hi,
        "fwd.out": slot_lo2hi[send_order],
        "fwd.cid": cid_rows_lo[send_order],
        "fwd.all_seg": rank[a_node[all_order]],
        "fwd.all_nbr": a_nbr[all_order],
        "fwd.all_cid": a_cid[all_order],
        "fwd.send_off": bounds(flevel[lo][send_order], n_flevels),
        "fwd.node_off": node_bounds,
        "fwd.ext_off": bounds(flevel[hi][ext_order], n_flevels),
        "fwd.all_off": bounds(flevel[a_node][all_order], n_flevels),
    })

    n_blevels = int(blevel.max()) + 1 if m else 0
    bsend_order = np.lexsort((e_ids, hi, blevel[hi]))
    bwd_hi, bwd_lo = hi[bsend_order], lo[bsend_order]
    bsend_bounds = bounds(blevel[bwd_hi], n_blevels)
    nonempty = bsend_bounds[1:] > bsend_bounds[:-1]
    out.update({
        "bwd.snd": bwd_hi,
        "bwd.rcv": bwd_lo,
        "bwd.out": slot_hi2lo[bsend_order],
        "bwd.cid": cid_rows_hi[bsend_order],
        "bwd.send_off": np.concatenate(
            (bsend_bounds[:-1][nonempty], bsend_bounds[-1:])
        ),
    })
    return out
