"""Direct network → array-plan compiler (no Python-level MRF).

:func:`repro.core.costs.build_mrf` walks the network with per-host /
per-link / per-label Python loops into a dict-based
:class:`~repro.mrf.graph.PairwiseMRF`, which :class:`~repro.mrf.vectorized.
MRFArrays` then walks *again* to flatten into arrays.  On the scalability
sweeps (1000-6000 hosts, tens of services) that double walk — hundreds of
thousands of ``add_edge`` calls — dominates the cold plan-build cost now
that the solvers themselves are vectorized.  This module compiles the plan
directly:

* **Variables** are enumerated once (hosts in insertion order × services in
  declaration order, exactly the ``build_mrf`` node order) by
  comprehensions and C-level maps over the network's own containers
  (:meth:`Network.tables`), interning services, candidate ranges, host
  service profiles and products into integer ids in one pass each.
* **Edges** follow the sorted links, ordered by an integer argsort of
  the endpoints' ranks among the sorted host names.  They are emitted per
  *host-profile pair*: hosts sharing a service list share a profile, so
  the (link, shared-service) → (node, node) expansion is a handful of
  NumPy repeats and takes instead of a per-edge loop.
* **Cost matrices** are deduplicated by *unordered* (candidate range,
  candidate range, λ·weight) key in first-appearance order over the edge
  stream and computed as slices of one product-similarity matrix.  A
  matrix is stored in the orientation of its key's first edge; a later
  edge of the opposite orientation swaps its endpoints instead of storing
  a transpose.
* **Preferences and constraints** (soft preferences, Fix/Forbid unary
  masks, combination tables) land as array writes in ``build_mrf``'s
  accumulation order; the preferences as one scatter.

Every consumer compiles through :func:`compile_plan`: ``diversify()`` for
every solver, and the cold rebuilds of :class:`~repro.stream.plan.
StreamPlan`, whose delta updates keep the same one-matrix-per-range-pair
convention.  The plan is *orientation-equivalent* to
``MRFArrays(build_mrf(...).mrf)``: the same unary stack and edge order,
each edge either as ``build_mrf`` emits it or with its endpoints swapped
and its matrix transposed, so energies agree bit for bit.  On networks
whose hosts share one range per service nothing swaps, and every plan
array equals the oracle's.  ``tests/test_compile.py`` asserts both.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.costs import (
    HARD_COST,
    _reject_conflicting_fixes,
    decode_assignment,
    encode_labels,
)
from repro.mrf.graph import PairwiseMRF
from repro.mrf.vectorized import MRFArrays
from repro.network.assignment import ProductAssignment
from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

__all__ = [
    "COMBO_META",
    "CompiledPlan",
    "CompiledParts",
    "SimilarityEdges",
    "check_model",
    "compile_plan",
    "compile_parts",
    "constraint_mask",
    "edge_similarity",
    "write_combination",
]

#: matrix-meta sentinel of an intra-host combination table — the empty
#: ranges can never match a similarity re-score's product scan, and
#: :class:`~repro.stream.plan.StreamPlan` excludes it from the similarity
#: dedup index by the same emptiness test.
COMBO_META: Tuple[Tuple[str, ...], Tuple[str, ...], float] = ((), (), 0.0)


def edge_similarity(
    similarity: np.ndarray,
    products: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Similarity of the products at the two ends of each edge: one
    gather from the product similarity matrix, by per-node product id."""
    return similarity[products[first], products[second]]


@dataclass
class SimilarityEdges:
    """The (link, shared-service) edges of a network with what a
    labelling's similarity summary reads, all from one network index.

    ``first``/``second`` are the edges' endpoint nodes in edge order
    (combination-constraint edges are not among them); the similarity
    matrix is symmetric, so an edge's orientation does not matter.
    ``range_products[node_range[v], label]`` is the product id of node
    ``v``'s label; ``similarity`` is the product similarity matrix over
    those ids.
    """

    first: np.ndarray
    second: np.ndarray
    node_range: np.ndarray
    range_products: np.ndarray
    similarity: np.ndarray

    def summary(self, labels: Sequence[int]) -> Tuple[float, float]:
        """``(total, mean)`` assigned-product similarity over the edges
        under a complete labelling — the ``similarity_total`` and
        ``mean_edge_similarity`` of a diversification.

        The total adds the edges' similarities left to right in edge
        order, as a Python loop over the links would.
        """
        count = len(self.first)
        if not count:
            return 0.0, 0.0
        products = self.range_products[self.node_range, np.asarray(labels)]
        values = edge_similarity(
            self.similarity, products, self.first, self.second
        )
        total = float(np.cumsum(values)[-1])
        return total, total / count


@dataclass
class CompiledParts:
    """Raw plan parts straight from the network, plus the variable mapping.

    ``unary``/``label_counts`` and ``edge_first``/``edge_second``/
    ``edge_cid`` (indexing ``matrices``) are exactly what
    :meth:`MRFArrays.from_dense` consumes.  The similarity edges
    come first, one per (link, shared service) in ``build_mrf`` order; an
    edge's link and service are those of its two endpoint variables.  The
    combination-constraint edges follow, one per (lower node, higher node)
    pair of a host.
    ``matrix_meta[cid]`` is matrix ``cid``'s (row range, column range,
    λ·weight), or :data:`COMBO_META` for a combination table.
    """

    variables: List[Tuple[str, str]]
    candidates: List[Tuple[str, ...]]
    unary: np.ndarray          # (n, lmax) padded, zeros outside the mask
    label_counts: np.ndarray   # (n,)
    edge_first: np.ndarray
    edge_second: np.ndarray
    edge_cid: np.ndarray
    matrices: List[np.ndarray]
    matrix_meta: List[Tuple[Tuple[str, ...], Tuple[str, ...], float]]
    #: the similarity summary's arrays.
    similarity_edges: SimilarityEdges

    @cached_property
    def index(self) -> Dict[Tuple[str, str], int]:
        """(host, service) → node id, built when first read."""
        return dict(zip(self.variables, range(len(self.variables))))


@dataclass
class CompiledPlan:
    """A compiled :class:`MRFArrays` plan plus the parts it was built from.

    The plan-level counterpart of :class:`~repro.core.costs.MRFBuild`:
    ``parts`` carries the same ``variables``/``index``/``candidates``
    mapping, but the model lives in the array plan instead of a
    :class:`PairwiseMRF`.  ``parts`` also keeps what the plan does not:
    the similarity summary's arrays, so a solved labelling's summary needs
    no second walk over the network, and the unpadded matrices
    :meth:`to_mrf` reads.
    """

    plan: MRFArrays
    parts: CompiledParts

    def to_mrf(self) -> PairwiseMRF:
        """The plan as a :class:`PairwiseMRF`, for the solvers without a
        plan-level API: the node unaries, and each edge's matrix in its
        stored orientation, in plan edge order."""
        parts = self.parts
        mrf = PairwiseMRF()
        for row, count in zip(parts.unary, parts.label_counts.tolist()):
            mrf.add_node(row[:count])
        for i, j, cid in zip(
            parts.edge_first.tolist(),
            parts.edge_second.tolist(),
            parts.edge_cid.tolist(),
        ):
            mrf.add_edge(i, j, parts.matrices[cid])
        return mrf

    def labels_to_assignment(
        self, network: Network, labels: Sequence[int]
    ) -> ProductAssignment:
        """Decode a solver labelling back into a product assignment."""
        parts = self.parts
        return decode_assignment(network, parts.variables, parts.candidates, labels)

    def assignment_to_labels(self, assignment: ProductAssignment) -> List[int]:
        """Encode a complete assignment as a labelling of this plan."""
        parts = self.parts
        return encode_labels(parts.variables, parts.candidates, assignment)


# ------------------------------------------------------------ network index


def _intern(items: Iterable) -> Tuple[Dict, np.ndarray]:
    """(item → id, each item's id as int64) in one C-level pass: a new
    item takes the next id, so ids number the distinct items in
    first-appearance order, the dict's order."""
    ids: Dict = defaultdict(count().__next__)
    per_item = np.fromiter(map(ids.__getitem__, items), np.int64)
    return dict(ids), per_item


def _ids(lookup: Mapping, items: Sequence) -> np.ndarray:
    """``lookup[item]`` of every item, as int64."""
    return np.fromiter(map(lookup.__getitem__, items), np.int64, len(items))


class _NetworkIndex:
    """Interned array view of a network's variables and link couplings.

    Built in one O(hosts·services + links) pass over the network's own
    containers (:meth:`Network.tables`): comprehensions and C-level maps
    enumerate the variables and intern services, candidate ranges, host
    service profiles and products in first-appearance order; everything
    downstream — edge emission, cost-matrix assembly, vectorized energy
    evaluation — is NumPy over the interned ids.
    """

    def __init__(self, network: Network) -> None:
        services_of, self._links = network.tables()
        self.hosts = hosts = list(services_of)
        #: each host's service → range dict, in host order.
        tables = list(services_of.values())
        self.variables: List[Tuple[str, str]] = [
            (host, service)
            for host, services in services_of.items()
            for service in services
        ]
        n = self.node_count = len(self.variables)
        self.candidates: List[Tuple[str, ...]] = list(
            chain.from_iterable(map(dict.values, tables))
        )
        service_ids, self.var_sid = _intern(chain.from_iterable(tables))
        self.service_names: List[str] = list(service_ids)
        range_ids, self.node_rid = _intern(self.candidates)
        self.ranges: List[Tuple[str, ...]] = list(range_ids)
        self.label_counts = np.fromiter(
            map(len, self.ranges), np.int64, len(self.ranges)
        )[self.node_rid]
        self.var_host = np.repeat(
            np.arange(len(hosts)),
            np.fromiter(map(len, tables), np.int64, len(hosts)),
        )
        # Hosts with the same service list (in declaration order) share a
        # profile; profiles are numbered in first-appearance order.
        profiles, self.host_profile = _intern(map(tuple, tables))
        self.profile_sids: List[Tuple[int, ...]] = [
            tuple(map(service_ids.__getitem__, key)) for key in profiles
        ]
        #: (hosts, services) → node id (-1 where the host lacks the service).
        self.node_of = np.full(
            (len(hosts), len(self.service_names)), -1, dtype=np.int64
        )
        self.node_of[self.var_host, self.var_sid] = np.arange(n)

        # Product interning + per-range product-index arrays (for slicing
        # the global similarity matrix into range-pair cost matrices).
        self.product_ids, _ = _intern(chain.from_iterable(self.ranges))
        self.product_names: List[str] = list(self.product_ids)
        self.range_pids: List[np.ndarray] = [
            _ids(self.product_ids, range_) for range_ in self.ranges
        ]

    @cached_property
    def index(self) -> Dict[Tuple[str, str], int]:
        """(host, service) → node id; built when first read (preferences
        and constraints look nodes up by name, a plain solve does not)."""
        return dict(zip(self.variables, range(self.node_count)))

    # -------------------------------------------------------------- edges

    def link_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first, second, sid) per (link, shared-service) edge.

        Edge order matches ``build_mrf`` exactly: links in sorted order,
        each link's shared services in the first host's declaration order.

        Every link is stored as ``(a, b)`` with ``a < b``, so the sorted
        order of the links is the order of ``(rank[a], rank[b])`` with
        ``rank`` a host's position in the sorted host names: one sort of
        the names, then one integer argsort instead of string-pair
        comparisons.
        """
        unsorted = list(self._links)
        count = len(unsorted)
        empty = np.zeros(0, dtype=np.int64)
        if not count:
            return empty, empty.copy(), empty.copy()
        h_count = len(self.hosts)
        host_ids = dict(zip(self.hosts, range(h_count)))
        endpoints = _ids(host_ids, list(chain.from_iterable(unsorted)))
        rank = np.empty(h_count, dtype=np.int64)
        rank[sorted(range(h_count), key=self.hosts.__getitem__)] = np.arange(
            h_count
        )
        ranked = rank[endpoints]
        order = np.argsort(ranked[0::2] * h_count + ranked[1::2])
        la = endpoints[0::2][order]
        lb = endpoints[1::2][order]
        # Each link expands into one edge per service both hosts run, in
        # the first host's declaration order; hosts of one profile share
        # that list, so it is built once per linked profile pair.
        p_count = len(self.profile_sids)
        pair = self.host_profile[la] * p_count + self.host_profile[lb]
        uniq_pairs, inv = np.unique(pair, return_inverse=True)
        shared: List[List[int]] = []
        for up in uniq_pairs.tolist():
            pa, pb = divmod(up, p_count)
            members = set(self.profile_sids[pb])
            shared.append([sid for sid in self.profile_sids[pa] if sid in members])
        shared_counts = np.fromiter(map(len, shared), np.int64, len(shared))
        shared_sids = np.fromiter(
            chain.from_iterable(shared), np.int64, int(shared_counts.sum())
        )
        counts = shared_counts[inv]
        ends = np.cumsum(counts)
        m = int(ends[-1])
        # The edges link by link: a link's edges read its pair's slice of
        # the concatenated lists, and (host, sid) → node is one flat take.
        link_of = np.repeat(np.arange(count), counts)
        starts = np.cumsum(shared_counts) - shared_counts
        sid = shared_sids.take(
            np.arange(m) + np.repeat(starts[inv] - ends + counts, counts)
        )
        width = len(self.service_names)
        node_of = self.node_of.reshape(-1)
        first = node_of.take(la.take(link_of) * width + sid)
        second = node_of.take(lb.take(link_of) * width + sid)
        return first, second, sid

    # ------------------------------------------------------------- weights

    def service_weight_ids(
        self,
        pairwise_weight: float,
        service_weights: Optional[Mapping[str, float]],
    ) -> Tuple[np.ndarray, List[float]]:
        """(wid per sid, distinct weight values) with value-level interning.

        ``build_mrf`` keys its matrix cache on the weight *value*, so two
        services with equal weights (and ranges) share one matrix; the
        interning here preserves that sharing.
        """
        weight_ids: Dict[float, int] = {}
        values: List[float] = []
        wid_of = np.zeros(len(self.service_names), dtype=np.int64)
        for sid, service in enumerate(self.service_names):
            weight = pairwise_weight
            if service_weights:
                weight *= float(service_weights.get(service, 1.0))
            wid = weight_ids.get(weight)
            if wid is None:
                wid = len(values)
                weight_ids[weight] = wid
                values.append(weight)
            wid_of[sid] = wid
        return wid_of, values

    # ---------------------------------------------------------- similarity

    def similarity_matrix(self, similarity: SimilarityTable) -> np.ndarray:
        """Dense product-pair similarity over the network's product universe."""
        return similarity.matrix(self.product_names)

    def similarity_edges(
        self, first: np.ndarray, second: np.ndarray, sim: np.ndarray
    ) -> SimilarityEdges:
        """The summary arrays of the similarity edges ``first``/``second``
        with the similarity matrix ``sim`` over :attr:`product_names`."""
        width = max((len(pids) for pids in self.range_pids), default=0)
        range_products = np.full((len(self.ranges), width), -1, dtype=np.int64)
        for rid, pids in enumerate(self.range_pids):
            range_products[rid, : len(pids)] = pids
        return SimilarityEdges(
            first=first,
            second=second,
            node_range=self.node_rid,
            range_products=range_products,
            similarity=sim,
        )


def _base_unary(net: _NetworkIndex, unary_constant: float) -> np.ndarray:
    """The padded ``Pr_const`` unary stack (zeros outside the label mask)."""
    counts = net.label_counts
    lmax = int(counts.max()) if net.node_count else 0
    mask = np.arange(lmax)[None, :] < counts[:, None]
    return np.where(mask, float(unary_constant), 0.0)


def _add_preferences(
    net: _NetworkIndex,
    unary: np.ndarray,
    preferences: Mapping[Tuple[str, str, str], float],
) -> None:
    """Add each preference onto its (node, label) of the unary stack.

    One scatter: C-level maps look up every key's node and label; keys
    naming no variable, or a product outside the node's range, are
    skipped.  The keys are distinct, so no (node, label) gets two adds,
    and only the kept values are converted with ``float``.
    """
    hosts, services, products = zip(*preferences)
    count = len(hosts)
    nodes = np.fromiter(
        map(net.index.get, zip(hosts, services), repeat(-1)), np.int64, count
    )
    rids = np.full(count, -1, dtype=np.int64)
    found = nodes >= 0
    rids[found] = net.node_rid[nodes[found]]
    label_of = {
        (rid, product): label
        for rid, range_ in enumerate(net.ranges)
        for label, product in enumerate(range_)
    }
    labels = np.fromiter(
        map(label_of.get, zip(rids.tolist(), products), repeat(-1)),
        np.int64,
        count,
    )
    keep = labels >= 0
    values = np.fromiter(
        map(float, compress(preferences.values(), keep.tolist())),
        np.float64,
        int(keep.sum()),
    )
    unary[nodes[keep], labels[keep]] += values


def _range_matrix(
    net: _NetworkIndex, sim: np.ndarray, rid_a: int, rid_b: int, weight: float
) -> np.ndarray:
    """One λ·similarity cost matrix between two interned candidate ranges."""
    return weight * sim[np.ix_(net.range_pids[rid_a], net.range_pids[rid_b])]


def _appearance_rank(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(cid per key, first-occurrence position per cid) in appearance order.

    ``np.unique`` sorts; re-ranking by the first-occurrence index restores
    the first-appearance order that the ``id()``-dedup of ``MRFArrays``
    (and the builder's matrix cache) produce.
    """
    uniq, first_idx, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inverse], first_idx[order]


# ----------------------------------------------------------------- compile


def check_model(
    network: Network,
    constraints: Optional[ConstraintSet],
    pairwise_weight: float,
    service_weights: Optional[Mapping[str, float]],
) -> ConstraintSet:
    """The compiler's input checks; returns the constraint set (empty for
    ``None``).

    Negative weights, constraints naming hosts, services or products the
    network lacks, and conflicting fixes raise ``ValueError``.  A plan
    restored without a compile (:func:`repro.service.snapshot.
    restore_plan`) runs the same checks.
    """
    if pairwise_weight < 0:
        raise ValueError("pairwise_weight must be non-negative")
    if service_weights and any(w < 0 for w in service_weights.values()):
        raise ValueError("service weights must be non-negative")
    constraint_set = constraints or ConstraintSet()
    constraint_set.validate_against(network)
    _reject_conflicting_fixes(constraint_set)
    return constraint_set


def compile_parts(
    network: Network,
    similarity: SimilarityTable,
    constraints: Optional[ConstraintSet] = None,
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
    service_weights: Optional[Mapping[str, float]] = None,
) -> CompiledParts:
    """Compile raw plan parts (the convention of the module docstring).

    Arguments, and the errors invalid ones raise, mirror
    :func:`repro.core.costs.build_mrf`, and so do the unary stack and the
    edge order; an edge whose range pair first appeared the other way
    round has its endpoints swapped, and prices through the stored
    matrix.
    """
    constraint_set = check_model(
        network, constraints, pairwise_weight, service_weights
    )

    phases = obs.phase_timer("compile")
    net = _NetworkIndex(network)
    phases.lap("compile.index", nodes=len(net.variables))
    counts = net.label_counts
    unary = _base_unary(net, unary_constant)

    # ---- soft preferences (one add per named (host, service, product)).
    if preferences:
        _add_preferences(net, unary, preferences)

    # ---- hard unary masks, accumulated in constraint order like the
    # builder's add_unary calls (element-wise addition, same sequence).
    for constraint in constraint_set:
        if isinstance(constraint, (FixProduct, ForbidProduct)):
            node = net.index[(constraint.host, constraint.service)]
            count = int(counts[node])
            unary[node, :count] = unary[node, :count] + constraint_mask(
                net.candidates[node], constraint
            )
    phases.lap("compile.unary")

    # ---- similarity edges, one matrix per unordered range-pair key.
    first, second, sid = net.link_edges()
    wid_of, weight_values = net.service_weight_ids(
        pairwise_weight, service_weights
    )
    matrices: List[np.ndarray] = []
    meta: List[Tuple[Tuple[str, ...], Tuple[str, ...], float]] = []
    sim = np.zeros((0, 0))
    edge_cid = np.zeros(0, dtype=np.int64)
    if len(first):
        rid_a = net.node_rid[first]
        rid_b = net.node_rid[second]
        r_count = max(len(net.ranges), 1)
        w_count = max(len(weight_values), 1)
        keys = (
            np.minimum(rid_a, rid_b) * r_count + np.maximum(rid_a, rid_b)
        ) * w_count + wid_of[sid]
        edge_cid, first_pos = _appearance_rank(keys)
        sim = net.similarity_matrix(similarity)
        for e in first_pos.tolist():
            ra, rb = int(rid_a[e]), int(rid_b[e])
            weight = weight_values[int(wid_of[sid[e]])]
            matrices.append(_range_matrix(net, sim, ra, rb, weight))
            meta.append((net.ranges[ra], net.ranges[rb], weight))
        # Stored orientation = the orientation of the key's first edge;
        # later reverse-orientation edges swap their endpoints instead.
        flip = rid_a[first_pos][edge_cid] != rid_a
        first, second = (
            np.where(flip, second, first), np.where(flip, first, second)
        )
    summary_edges = net.similarity_edges(first, second, sim)
    phases.lap("compile.edges", edges=len(first), matrices=len(matrices))

    # ---- intra-host combination-constraint edges (appended after the
    # similarity edges, one table per node pair, insertion order).
    extra_first, extra_second, extra_cid, tables = _combination_edges(
        network, constraint_set, net, base_cid=len(matrices)
    )
    if extra_first:
        first = np.concatenate([first, np.asarray(extra_first, dtype=np.int64)])
        second = np.concatenate(
            [second, np.asarray(extra_second, dtype=np.int64)]
        )
        edge_cid = np.concatenate(
            [edge_cid, np.asarray(extra_cid, dtype=np.int64)]
        )
        matrices.extend(tables)
        meta.extend([COMBO_META] * len(tables))
    phases.lap("compile.combo_edges", combo_edges=len(extra_first))

    return CompiledParts(
        variables=net.variables,
        candidates=net.candidates,
        unary=unary,
        label_counts=counts,
        edge_first=first,
        edge_second=second,
        edge_cid=edge_cid,
        matrices=matrices,
        matrix_meta=meta,
        similarity_edges=summary_edges,
    )


def compile_plan(
    network: Network,
    similarity: SimilarityTable,
    constraints: Optional[ConstraintSet] = None,
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
    service_weights: Optional[Mapping[str, float]] = None,
) -> CompiledPlan:
    """Compile a network straight into an :class:`MRFArrays` plan.

    :func:`compile_parts` assembled by :meth:`MRFArrays.from_dense`: the
    one compile behind every ``diversify()`` solve and every cold
    :meth:`StreamPlan.rebuild <repro.stream.plan.StreamPlan.rebuild>`,
    built without materialising per-edge Python objects.
    """
    parts = compile_parts(
        network,
        similarity,
        constraints=constraints,
        unary_constant=unary_constant,
        pairwise_weight=pairwise_weight,
        preferences=preferences,
        service_weights=service_weights,
    )
    with obs.span("compile.assemble", cat="compile", edges=len(parts.edge_first)):
        plan = MRFArrays.from_dense(
            parts.unary,
            parts.label_counts,
            parts.edge_first,
            parts.edge_second,
            parts.edge_cid,
            parts.matrices,
        )
    return CompiledPlan(plan=plan, parts=parts)


# ------------------------------------------------------------- constraints


def constraint_mask(
    range_: Tuple[str, ...], constraint: Union[FixProduct, ForbidProduct]
) -> np.ndarray:
    """The hard unary mask of one Fix/Forbid constraint over a range.

    The builder's ``P_c ∝ ∞`` encoding as a reusable array-level writer: a
    :class:`FixProduct` masks every label except the pinned product with
    :data:`~repro.core.costs.HARD_COST`, a :class:`ForbidProduct` masks
    only the named product.  Masks *add* onto the base unary (and onto
    each other), which is what lets consumers — the batch compiler here,
    the streaming engine's in-place unary patching — recompute a node's
    unary from the live constraint set without replaying history.

    >>> constraint_mask(("w", "l"), ForbidProduct("h", "os", "w"))
    array([10000000.,        0.])
    """
    if isinstance(constraint, FixProduct):
        mask = np.full(len(range_), HARD_COST)
        mask[range_.index(constraint.product)] = 0.0
    else:
        mask = np.zeros(len(range_))
        mask[range_.index(constraint.product)] = HARD_COST
    return mask


def write_combination(
    constraint: Union[RequireCombination, AvoidCombination],
    range_m: Tuple[str, ...],
    range_n: Tuple[str, ...],
    m_is_first: bool,
    table: np.ndarray,
) -> None:
    """Accumulate one combination constraint into an intra-host table.

    ``table`` is the pairwise cost table of the (lower node, higher node)
    pair the constraint couples; ``m_is_first`` says whether the trigger
    service ``s_m`` is the lower-numbered node (rows) or the higher one
    (columns).  Constraints whose trigger/partner products fall outside
    the candidate ranges are vacuous and write nothing — exactly the
    builder's behaviour.  Shared by the batch compiler and the streaming
    engine's :class:`~repro.stream.events.CombinationUpdate` patching.
    """
    if isinstance(constraint, AvoidCombination):
        if (
            constraint.product_j not in range_m
            or constraint.product_k not in range_n
        ):
            return
        row = range_m.index(constraint.product_j)
        col = range_n.index(constraint.product_k)
        if m_is_first:
            table[row, col] = HARD_COST
        else:
            table[col, row] = HARD_COST
    elif isinstance(constraint, RequireCombination):
        if constraint.product_j not in range_m:
            return
        row = range_m.index(constraint.product_j)
        cols = np.asarray(
            [product != constraint.product_l for product in range_n], dtype=bool
        )
        if m_is_first:
            table[row, cols] = HARD_COST
        else:
            table[cols, row] = HARD_COST


def _combination_edges(
    network: Network,
    constraints: ConstraintSet,
    net: _NetworkIndex,
    base_cid: int,
) -> Tuple[List[int], List[int], List[int], List[np.ndarray]]:
    """Combination constraints as intra-host tables (builder-order parity).

    Mirrors :func:`repro.core.costs._add_combination_edges`: one table per
    (lower node, higher node) pair, accumulated across constraints in
    order, emitted in insertion order after the similarity edges.
    """
    tables: Dict[Tuple[int, int], np.ndarray] = {}
    counts = net.label_counts
    for constraint in constraints:
        if not isinstance(constraint, (RequireCombination, AvoidCombination)):
            continue
        hosts = network.hosts if constraint.host == GLOBAL else [constraint.host]
        for host in hosts:
            if not (
                network.has_service(host, constraint.service_m)
                and network.has_service(host, constraint.service_n)
            ):
                continue
            node_m = net.index[(host, constraint.service_m)]
            node_n = net.index[(host, constraint.service_n)]
            key = (min(node_m, node_n), max(node_m, node_n))
            table = tables.get(key)
            if table is None:
                table = np.zeros((int(counts[key[0]]), int(counts[key[1]])))
                tables[key] = table
            write_combination(
                constraint,
                net.candidates[node_m],
                net.candidates[node_n],
                key[0] == node_m,
                table,
            )
    first: List[int] = []
    second: List[int] = []
    cids: List[int] = []
    stack: List[np.ndarray] = []
    for position, ((lo, hi), table) in enumerate(tables.items()):
        first.append(lo)
        second.append(hi)
        cids.append(base_cid + position)
        stack.append(table)
    return first, second, cids, stack


# -------------------------------------------------- vectorized energy eval


def network_energy(
    network: Network,
    similarity: SimilarityTable,
    assignment: ProductAssignment,
    constraints: Optional[ConstraintSet] = None,
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    service_weights: Optional[Mapping[str, float]] = None,
) -> float:
    """Vectorized E(N) (paper Eq. 1) of an assignment on the network model.

    The array-form backend of :func:`repro.core.costs.assignment_energy`:
    one interned pass over the network, one gather over the edge stream —
    no per-link/per-service Python loop.  Unassigned pairs contribute no
    pairwise cost, matching the reference implementation.
    """
    constraint_set = constraints or ConstraintSet()
    net = _NetworkIndex(network)
    total = unary_constant * float(network.variable_count())

    first, second, sid = net.link_edges()
    if len(first):
        # Per-node product id (-1 where unassigned).
        pid_of = {**net.product_ids, None: -1}
        pid = _ids(pid_of, list(map(assignment.as_dict().get, net.variables)))
        wid_of, weight_values = net.service_weight_ids(
            pairwise_weight, service_weights
        )
        weights = np.asarray(weight_values)[wid_of[sid]]
        live = (pid[first] >= 0) & (pid[second] >= 0)
        if live.any():
            sim = net.similarity_matrix(similarity)
            total += float(
                (
                    weights[live]
                    * edge_similarity(sim, pid, first[live], second[live])
                ).sum()
            )
    total += HARD_COST * len(constraint_set.violations(assignment, network))
    return total

