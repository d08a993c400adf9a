"""Building the diversification MRF (paper Section V).

Variables are (host, service) pairs; the label space of a variable is the
candidate product range p(s) at that host.  Costs follow the paper's Eq. 1:

* **Unary** (Eq. 2): a small constant ``Pr_const`` per label expressing "no
  specific preference", optionally overridden by soft per-product
  preferences.  Hard host constraints (:class:`FixProduct` /
  :class:`ForbidProduct`) become large masks on the disallowed labels —
  the paper's ``P_c ∝ ∞`` encoding.
* **Pairwise, inter-host** (Eq. 3): for every link (h_i, h_j) and every
  shared service s, the cost of labels (p, q) is ``λ · sim(p, q)``.
  Matrices are cached and shared by reference across edges with identical
  candidate ranges, so memory is one matrix per (service, range) rather
  than one per edge.
* **Pairwise, intra-host**: combination constraints (Definition 4) couple
  two services at the same host, yielding 0/HARD tables on the
  (trigger, partner) label pairs.

Hard costs use a large finite value (:data:`HARD_COST`) rather than ``inf``
so message passing stays numerically sound; a solution that still pays a
hard cost indicates an infeasible constraint set and is reported as
``satisfied=False`` by :func:`repro.core.diversify.diversify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.mrf.graph import PairwiseMRF
from repro.network.assignment import ProductAssignment
from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    Constraint,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.model import Network, NetworkError
from repro.nvd.similarity import SimilarityTable

__all__ = [
    "HARD_COST",
    "MRFBuild",
    "build_mrf",
    "assignment_energy",
    "decode_assignment",
    "encode_labels",
]

#: Cost standing in for the paper's ∞ on disallowed configurations.  Large
#: enough to dominate any realistic sum of similarity terms, small enough to
#: keep float arithmetic exact.
HARD_COST = 1.0e7


def decode_assignment(
    network: Network,
    variables: Sequence[Tuple[str, str]],
    candidates: Sequence[Tuple[str, ...]],
    labels: Sequence[int],
) -> ProductAssignment:
    """Decode a solver labelling over a variable mapping into α′.

    Shared by :class:`MRFBuild` and the compiled plans: labels index the
    mapping's own candidate ranges, so every decoded value is range-valid
    by construction and the per-pair validation of
    :meth:`ProductAssignment.assign` is skipped — this decode runs once
    per job across thousand-job grids.  One ``map`` picks every
    variable's product.
    """
    if len(labels) < len(variables):
        raise IndexError(
            f"{len(labels)} labels for {len(variables)} variables"
        )
    values = dict(zip(variables, map(getitem, candidates, map(int, labels))))
    return ProductAssignment.from_decoded(network, values)


def encode_labels(
    variables: Sequence[Tuple[str, str]],
    candidates: Sequence[Tuple[str, ...]],
    assignment: ProductAssignment,
) -> List[int]:
    """Encode a complete assignment as a labelling of a variable mapping."""
    labels: List[int] = []
    for node, (host, service) in enumerate(variables):
        product = assignment.get(host, service)
        if product is None:
            raise NetworkError(
                f"assignment misses ({host!r}, {service!r}); "
                f"a labelling needs a complete assignment"
            )
        labels.append(candidates[node].index(product))
    return labels


@dataclass
class MRFBuild:
    """The constructed MRF plus the bidirectional variable mapping.

    Attributes:
        mrf: the pairwise MRF ready for a solver.
        variables: node index → (host, service).
        index: (host, service) → node index.
        candidates: node index → candidate product tuple (label order).
    """

    mrf: PairwiseMRF
    variables: List[Tuple[str, str]]
    index: Dict[Tuple[str, str], int]
    candidates: List[Tuple[str, ...]]

    def labels_to_assignment(
        self, network: Network, labels: Sequence[int]
    ) -> ProductAssignment:
        """Decode a solver labelling back into a product assignment."""
        return decode_assignment(network, self.variables, self.candidates, labels)

    def assignment_to_labels(self, assignment: ProductAssignment) -> List[int]:
        """Encode a complete assignment as a labelling of this MRF."""
        return encode_labels(self.variables, self.candidates, assignment)


def build_mrf(
    network: Network,
    similarity: SimilarityTable,
    constraints: Optional[ConstraintSet] = None,
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    preferences: Optional[Mapping[Tuple[str, str, str], float]] = None,
    service_weights: Optional[Mapping[str, float]] = None,
) -> MRFBuild:
    """Construct the diversification MRF for a network.

    Args:
        network: the network N = ⟨H, L, S, P⟩.
        similarity: vulnerability-similarity table over product names.
        constraints: optional constraint set (validated against the network).
        unary_constant: the paper's ``Pr_const`` — per-label base cost.
        pairwise_weight: λ scaling of the similarity penalty (1.0 in the
            paper; exposed for the regularisation-strength ablation).
        preferences: optional soft preferences, mapping
            (host, service, product) → extra unary cost (negative favours).
        service_weights: optional per-service criticality multipliers of
            the pairwise penalty (e.g. weight the OS coupling above the
            browser coupling because an OS compromise is a full takeover).
            Unlisted services get weight 1.0; weights must be non-negative.

    Returns:
        An :class:`MRFBuild`; feed ``build.mrf`` to any solver and decode
        with :meth:`MRFBuild.labels_to_assignment`.
    """
    if pairwise_weight < 0:
        raise ValueError("pairwise_weight must be non-negative")
    if service_weights and any(w < 0 for w in service_weights.values()):
        raise ValueError("service weights must be non-negative")
    constraint_set = constraints or ConstraintSet()
    constraint_set.validate_against(network)
    _reject_conflicting_fixes(constraint_set)

    mrf = PairwiseMRF()
    variables: List[Tuple[str, str]] = []
    index: Dict[Tuple[str, str], int] = {}
    candidates: List[Tuple[str, ...]] = []

    # ---- nodes with base unary costs -----------------------------------
    for host in network.hosts:
        for service in network.services_of(host):
            range_ = network.candidates(host, service)
            unary = np.full(len(range_), float(unary_constant))
            if preferences:
                for position, product in enumerate(range_):
                    extra = preferences.get((host, service, product))
                    if extra is not None:
                        unary[position] += float(extra)
            node = mrf.add_node(unary)
            variables.append((host, service))
            index[(host, service)] = node
            candidates.append(range_)

    build = MRFBuild(mrf=mrf, variables=variables, index=index, candidates=candidates)

    # ---- hard unary masks from host constraints -------------------------
    for constraint in constraint_set:
        if isinstance(constraint, FixProduct):
            node = index[(constraint.host, constraint.service)]
            mask = np.full(len(candidates[node]), HARD_COST)
            mask[candidates[node].index(constraint.product)] = 0.0
            mrf.add_unary(node, mask)
        elif isinstance(constraint, ForbidProduct):
            node = index[(constraint.host, constraint.service)]
            mask = np.zeros(len(candidates[node]))
            mask[candidates[node].index(constraint.product)] = HARD_COST
            mrf.add_unary(node, mask)

    # ---- inter-host similarity edges (Eq. 3) ----------------------------
    matrix_cache: Dict[tuple, np.ndarray] = {}
    for a, b in network.links:
        for service in network.shared_services(a, b):
            node_a = index[(a, service)]
            node_b = index[(b, service)]
            weight = pairwise_weight
            if service_weights:
                weight *= float(service_weights.get(service, 1.0))
            matrix = _similarity_matrix(
                matrix_cache,
                candidates[node_a],
                candidates[node_b],
                similarity,
                weight,
            )
            mrf.add_edge(node_a, node_b, matrix)

    # ---- intra-host combination-constraint edges ------------------------
    _add_combination_edges(network, constraint_set, build)

    return build


def assignment_energy(
    network: Network,
    similarity: SimilarityTable,
    assignment: ProductAssignment,
    constraints: Optional[ConstraintSet] = None,
    unary_constant: float = 0.01,
    pairwise_weight: float = 1.0,
    service_weights: Optional[Mapping[str, float]] = None,
) -> float:
    """Evaluate the paper's E(N) (Eq. 1) directly on the network model.

    This is an MRF-free evaluation used to cross-validate
    :func:`build_mrf`: for any complete, constraint-satisfying assignment
    the value equals ``build.mrf.energy(labels)`` (to float summation
    order).  Violated hard constraints contribute :data:`HARD_COST` each,
    mirroring the MRF encoding.

    The evaluation is vectorized (:func:`repro.core.compile.
    network_energy`): one interned pass over the network, one gather over
    the (link, shared-service) edge stream — it runs once per job across
    thousand-job grids, where the former per-link Python loop added up.
    """
    from repro.core.compile import network_energy

    return network_energy(
        network,
        similarity,
        assignment,
        constraints=constraints,
        unary_constant=unary_constant,
        pairwise_weight=pairwise_weight,
        service_weights=service_weights,
    )


# --------------------------------------------------------------- internals


def _similarity_matrix(
    cache: Dict[tuple, np.ndarray],
    range_a: Tuple[str, ...],
    range_b: Tuple[str, ...],
    similarity: SimilarityTable,
    weight: float,
) -> np.ndarray:
    """λ-scaled similarity matrix between two candidate ranges (cached).

    The weight is part of the cache key so differently-weighted services
    never share a matrix.
    """
    key = (range_a, range_b, weight)
    matrix = cache.get(key)
    if matrix is None:
        matrix = np.empty((len(range_a), len(range_b)))
        for row, product_a in enumerate(range_a):
            for col, product_b in enumerate(range_b):
                matrix[row, col] = weight * similarity.get(product_a, product_b)
        matrix.setflags(write=False)
        cache[key] = matrix
        if range_a != range_b:
            # Cache the transposed orientation so (b, a) links share memory.
            cache[(range_b, range_a, weight)] = matrix.T
    return matrix


def _add_combination_edges(
    network: Network,
    constraints: ConstraintSet,
    build: MRFBuild,
) -> None:
    """Encode combination constraints as intra-host pairwise tables.

    Multiple constraints on the same (host, s_m, s_n) pair accumulate into
    one table; the MRF keeps a single edge per node pair.
    """
    tables: Dict[Tuple[int, int], np.ndarray] = {}
    for constraint in constraints:
        if not isinstance(constraint, (RequireCombination, AvoidCombination)):
            continue
        hosts = (
            network.hosts if constraint.host == GLOBAL else [constraint.host]
        )
        for host in hosts:
            if not (
                network.has_service(host, constraint.service_m)
                and network.has_service(host, constraint.service_n)
            ):
                continue
            node_m = build.index[(host, constraint.service_m)]
            node_n = build.index[(host, constraint.service_n)]
            key = (min(node_m, node_n), max(node_m, node_n))
            table = tables.get(key)
            if table is None:
                table = np.zeros(
                    (
                        build.mrf.label_count(key[0]),
                        build.mrf.label_count(key[1]),
                    )
                )
                tables[key] = table
            _accumulate_combination(constraint, build, node_m, node_n, key, table)
    for (first, second), table in tables.items():
        build.mrf.add_edge(first, second, table)


def _accumulate_combination(
    constraint: Constraint,
    build: MRFBuild,
    node_m: int,
    node_n: int,
    key: Tuple[int, int],
    table: np.ndarray,
) -> None:
    range_m = build.candidates[node_m]
    range_n = build.candidates[node_n]
    if isinstance(constraint, AvoidCombination):
        if (
            constraint.product_j not in range_m
            or constraint.product_k not in range_n
        ):
            return  # the combination cannot occur at this host
        row = range_m.index(constraint.product_j)
        col = range_n.index(constraint.product_k)
        if key[0] == node_m:
            table[row, col] = HARD_COST
        else:
            table[col, row] = HARD_COST
    elif isinstance(constraint, RequireCombination):
        if constraint.product_j not in range_m:
            return  # trigger product unavailable; constraint vacuous here
        row = range_m.index(constraint.product_j)
        for col, product in enumerate(range_n):
            if product == constraint.product_l:
                continue
            if key[0] == node_m:
                table[row, col] = HARD_COST
            else:
                table[col, row] = HARD_COST


def _reject_conflicting_fixes(constraints: ConstraintSet) -> None:
    """Two FixProduct constraints pinning one variable differently is a
    configuration error; surface it before building an infeasible MRF."""
    pinned: Dict[Tuple[str, str], str] = {}
    for constraint in constraints.fixed_products():
        key = (constraint.host, constraint.service)
        existing = pinned.get(key)
        if existing is not None and existing != constraint.product:
            raise NetworkError(
                f"conflicting FixProduct constraints at {key}: "
                f"{existing!r} vs {constraint.product!r}"
            )
        pinned[key] = constraint.product
