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
    "LEXSORT_FIELDS",
    "assert_level_orders_agree",
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
    neighbours in reverse order.  The reference the structure kernels'
    node orders are checked against.
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


def assert_level_orders_agree(n: int, first, second) -> None:
    """Every available structure kernel returns, as C-contiguous int64,
    the node orders and level offsets of :func:`python_levels` and the
    plain-Python degree and lower-neighbour counts.

    Forward: every node, level by level, ascending within a level.
    Backward: the nodes with a lower-numbered neighbour, level by level,
    ascending within a level, levels without one dropped."""
    from repro.mrf.backends import get_backend

    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    neighbours = [[] for _ in range(n)]
    for a, b in zip(first.tolist(), second.tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    degree = [len(near) for near in neighbours]
    lower = [sum(u < v for u in near) for v, near in enumerate(neighbours)]
    forward, backward = python_levels(n, first, second)

    def order(nodes, level):
        ordered = sorted(nodes, key=lambda v: (level[v], v))
        off = [0]
        for k, v in enumerate(ordered):
            if k and level[v] != level[ordered[k - 1]]:
                off.append(k)
        return ordered, off + [len(ordered)] if ordered else [0]

    nodes, node_off = order(range(n), forward.tolist())
    bwd_nodes, bwd_off = order(
        [v for v in range(n) if lower[v]], backward.tolist()
    )
    expected = {
        "nodes": nodes, "node_off": node_off, "bwd_nodes": bwd_nodes,
        "bwd_off": bwd_off, "degree": degree, "lower": lower,
    }
    for name in ("numpy", "native"):
        backend = get_backend(name)
        if not backend.available:
            continue
        _gamma, adjacency = backend.structure(
            n, first, second, np.zeros(len(first), dtype=np.int64), 1
        )
        for field, want in expected.items():
            got = getattr(adjacency, field)
            assert got.dtype == np.int64, (name, field)
            assert got.flags.c_contiguous, (name, field)
            assert got.tolist() == want, (name, field)


#: The adjacency's fields, in oracle order.
LEXSORT_FIELDS = (
    "nbr", "slot", "cid", "perm",
    "nodes", "degree", "lower", "lower_start", "bwd_nodes",
    "node_off", "bwd_off",
)


def lexsort_structure(plan) -> dict:
    """A plan's γ weights and adjacency rebuilt by explicit lexsorts.

    The construction ``MRFArrays`` used before its build became segment
    gathers of one node grouping, kept as a test oracle only: every
    ordering is an explicit ``np.lexsort`` of the directed slots or the
    nodes, every level offset a ``searchsorted`` of the sorted levels.
    Keys are ``gamma`` and ``adjacency.<field>`` for every field of
    :data:`LEXSORT_FIELDS`.
    """
    n, m, stacked = plan.node_count, plan.edge_count, plan.stacked
    edge_first, edge_second, edge_cid = (
        plan.edge_first, plan.edge_second, plan.edge_cid
    )
    # One entry per directed slot: slot 2e is sent by first[e] to
    # second[e], slot 2e+1 the reverse; cost ids oriented rows = sender.
    slot = np.arange(2 * m, dtype=np.int64)
    edge = slot >> 1
    owner = np.where(slot & 1, edge_second[edge], edge_first[edge])
    nbr = np.where(slot & 1, edge_first[edge], edge_second[edge])
    cid = edge_cid[edge] + stacked * (slot & 1)
    up = (nbr > owner).astype(np.int64)
    degree = np.bincount(owner, minlength=n)
    lower = np.bincount(owner[up == 0], minlength=n)
    chains = np.maximum(lower, degree - lower)
    gamma = np.ones(n)
    gamma[chains > 0] = 1.0 / chains[chains > 0]
    flevel, blevel = python_levels(n, edge_first, edge_second)

    def bounds(levels_sorted):
        count = int(levels_sorted[-1]) + 1 if len(levels_sorted) else 0
        return np.searchsorted(levels_sorted, np.arange(count + 1))

    # Rows: by forward level, conditioning rows before sends, then node,
    # then edge.  The permutation: by forward level, node, edge.
    rows = np.lexsort((edge, owner, up, flevel[owner]))
    row_of = np.empty(2 * m, dtype=np.int64)
    row_of[rows] = np.arange(2 * m)
    key = (flevel[owner] * 2 + up) * n + owner
    nodes = np.lexsort((np.arange(n, dtype=np.int64), flevel))
    all_nodes = np.arange(n, dtype=np.int64)
    kept = all_nodes[lower > 0]
    bwd_nodes = kept[np.lexsort((kept, blevel[kept]))]
    bwd_levels = blevel[bwd_nodes]
    present = np.unique(bwd_levels)
    return {
        "gamma": gamma,
        "adjacency.nbr": nbr[rows],
        "adjacency.slot": slot[rows],
        "adjacency.cid": cid[rows],
        "adjacency.perm": row_of[np.lexsort((edge, owner, flevel[owner]))],
        "adjacency.nodes": nodes,
        "adjacency.degree": degree,
        "adjacency.lower": lower,
        "adjacency.lower_start": np.searchsorted(
            key[rows], flevel * 2 * n + all_nodes
        ),
        "adjacency.bwd_nodes": bwd_nodes,
        "adjacency.node_off": bounds(flevel[nodes]),
        "adjacency.bwd_off": np.append(
            np.searchsorted(bwd_levels, present), len(bwd_nodes)
        ),
    }
