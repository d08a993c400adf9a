"""A live, delta-updatable MRF array plan over a mutating network.

:class:`StreamPlan` is the incremental counterpart of
:func:`repro.core.compile.compile_plan` for the (constrained)
diversification MRF.  It owns

* the ``(host, service) → node`` variable mapping and candidate ranges,
* the live operator :class:`~repro.network.constraints.ConstraintSet` and
  the unary masks / intra-host combination tables it compiles to,
* the shared stack of λ·similarity cost matrices (one per unordered
  candidate-range pair, the compiler's convention),
* the per-(link, shared-service) edge list, and
* a live :class:`MRFArrays` plan plus the solver's directed-message array,

and keeps all of them aligned while churn events arrive:

* **similarity updates** rewrite the affected cost-matrix entries and patch
  the plan's cost stack in place — no structural change, message state
  untouched;
* **link events** append edge rows or tombstone them in an alive mask —
  no Python-level O(edges) work per event: a link's rows are found by
  their endpoints, with one vectorised pass over the endpoint columns,
  and new rows carry no message state until it is written;
* **host events** additionally append variables or tombstone the departed
  host's nodes; node renumbering waits for the compaction;
* **pin/forbid events** recompute one node's hard-mask unary from the live
  constraint set and write it in place (:meth:`MRFArrays.set_unary`) —
  value-only, like a feed update, but with a *stranded* flag when the mask
  lands on the label previously in use;
* **combination updates** recompute the affected hosts' intra-host tables
  from the live set: in place when the node pair already carries a table,
  an edge append/tombstone (like a link event) when a pair gains its first
  rule or retires its last.

All O(network) work happens in one vectorised **compaction** per solve:
:meth:`flush` (and :meth:`parts`) drop the tombstoned rows, renumber the
surviving nodes (order preserved), write the pending zero message rows and
label-0 seeds with NumPy gathers, and :meth:`flush` then re-derives the
plan's slot/level structure once, however many events are pending.  Between compactions, node- and edge-indexed state
(:attr:`variables`, :attr:`messages`, :attr:`labels`) is in the raw
numbering, tombstones included; reading :attr:`messages` or
:attr:`labels` materialises the pending rows, so the arrays a caller sees
always cover every row.

See ``docs/streaming.md`` for the per-event contract table.

Because padded message entries are 0 — the additive identity — new slots
start cold at 0 while surviving slots keep their near-fixed-point values,
which is what makes the warm start work across structural deltas.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress, count
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.compile import COMBO_META as _COMBO_META
from repro.core.costs import HARD_COST
from repro.mrf.vectorized import MRFArrays
from repro.network.constraints import GLOBAL, ConstraintSet
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream.events import (
    AllowRange,
    CombinationUpdate,
    Event,
    ForbidRange,
    HostJoin,
    HostLeave,
    LinkAdd,
    LinkRemove,
    PinService,
    SimilarityUpdate,
    UnpinService,
    apply_constraint_event,
)

__all__ = ["StreamPlan"]

#: (candidate range of first endpoint, of second endpoint, λ·service weight)
_MatrixKey = Tuple[Tuple[str, ...], Tuple[str, ...], float]

#: rows of :attr:`StreamPlan._edges`: the two endpoints and the cost id.
#: An edge's link and service(s) are those of its endpoint variables: a
#: similarity edge couples one service on two linked hosts, a combination
#: edge two services on one host.
_FIRST, _SECOND, _CID = range(3)


class StreamPlan:
    """Delta-updated MRF plan + message state for one live network.

    Args:
        network: the live network (mutated in place by :meth:`apply`).
        similarity: the live similarity table (likewise).
        unary_constant: the paper's ``Pr_const`` per-label base cost.
        pairwise_weight: λ scaling of the similarity penalty.
        service_weights: optional per-service multipliers of λ.
        constraints: the live operator constraint set.  Fix/Forbid masks
            and combination tables are compiled in, and constraint events
            (:class:`~repro.stream.events.PinService` & co.) keep plan and
            set aligned: unary masks rewrite in place
            (:meth:`MRFArrays.set_unary`), combination deltas append or
            tombstone intra-host edges like link events.

    Negative weights raise the compiler's ``ValueError``.  Soft
    preferences are not part of the streamed model; streaming covers the
    (constrained) MRF that re-solves at churn frequency.
    """

    def __init__(
        self,
        network: Network,
        similarity: SimilarityTable,
        unary_constant: float = 0.01,
        pairwise_weight: float = 1.0,
        service_weights: Optional[Mapping[str, float]] = None,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        self.network = network
        self.similarity = similarity
        self.unary_constant = float(unary_constant)
        self.pairwise_weight = float(pairwise_weight)
        self.service_weights = dict(service_weights or {})
        #: the live constraint set (mutated in place by constraint events).
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.rebuild()

    # ------------------------------------------------------------ cold build

    def rebuild(self) -> None:
        """Full cold build from the current network/similarity state.

        Also the fallback when the incremental engine judges a pending
        delta too large to be worth patching: messages restart at zero and
        the previous-solution labels are dropped.

        The build is the one network→plan compile,
        :func:`repro.core.compile.compile_plan`, whose convention the
        per-event append path keeps; its three edge columns are installed
        as they are.
        """
        from repro.core.compile import compile_plan

        with obs.span("stream.rebuild", cat="stream"):
            compiled = compile_plan(
                self.network,
                self.similarity,
                constraints=self.constraints,
                unary_constant=self.unary_constant,
                pairwise_weight=self.pairwise_weight,
                service_weights=self.service_weights,
            )
            parts = compiled.parts
            self.install(
                variables=parts.variables,
                candidates=parts.candidates,
                unary=parts.unary,
                label_counts=parts.label_counts,
                matrices=parts.matrices,
                matrix_meta=parts.matrix_meta,
                edge_first=parts.edge_first,
                edge_second=parts.edge_second,
                edge_cid=parts.edge_cid,
                plan=compiled.plan,
                messages=compiled.plan.zero_messages(),
            )

    def install(
        self,
        *,
        variables: List[Tuple[str, str]],
        candidates: List[Tuple[str, ...]],
        unary: np.ndarray,
        label_counts: np.ndarray,
        matrices: List[np.ndarray],
        matrix_meta: List[_MatrixKey],
        edge_first: np.ndarray,
        edge_second: np.ndarray,
        edge_cid: np.ndarray,
        plan: MRFArrays,
        messages: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        """Adopt a complete, compacted plan state.

        The one writer of every derived field: the cold build
        (:meth:`rebuild`) and the snapshot restore
        (:func:`repro.service.snapshot.restore_plan`) both hand their parts
        over here, so neither can forget a field.  ``plan`` must be the
        :class:`MRFArrays` of exactly these parts (it may share ``unary``,
        the padded stack); ``messages`` holds two rows per edge and
        ``labels`` (``None`` before any solve) one per variable.  The
        combination-table map is read off the edges whose two endpoints
        belong to one host: links join distinct hosts, so these are
        exactly the combination edges.
        """
        self.variables = variables
        self.index: Dict[Tuple[str, str], int] = dict(
            zip(variables, range(len(variables)))
        )
        self.candidates = candidates
        #: padded unary stack (width = the plan's ``lmax``) and label
        #: counts; rows ``[0, len(variables))`` in use, spare rows zero.
        self._unary = unary
        self._label_counts = label_counts
        self._matrices = matrices
        self._matrix_meta = matrix_meta
        # Combination tables carry the placeholder meta; they never join
        # the similarity dedup index.
        self._matrix_ids: Dict[_MatrixKey, int] = {
            key: cid for cid, key in enumerate(matrix_meta) if key[0]
        }
        host_ids: Dict[str, int] = defaultdict(count().__next__)
        host_of = np.fromiter(
            map(host_ids.__getitem__, map(itemgetter(0), variables)),
            np.int64,
            len(variables),
        )
        combo = np.flatnonzero(host_of[edge_first] == host_of[edge_second])
        #: (host, service_lo, service_hi) → cost id of the pair's live
        #: combination table (service order follows node order).
        self._combo_cids: Dict[Tuple[str, str, str], int] = {
            (*variables[lo], variables[hi][1]): cid
            for lo, hi, cid in zip(
                edge_first[combo].tolist(),
                edge_second[combo].tolist(),
                edge_cid[combo].tolist(),
            )
        }
        rows = len(edge_first)
        #: edge columns (first, second, cost id) with spare capacity; rows
        #: ``[0, _edge_rows)`` are in use.  Rows below ``_edge_rows`` are
        #: never rewritten in place — the live plan holds views of them —
        #: only appended to, tombstoned or compacted into a fresh buffer.
        self._edges = np.empty((3, rows), dtype=np.int64)
        self._edges[_FIRST] = edge_first
        self._edges[_SECOND] = edge_second
        self._edges[_CID] = edge_cid
        self._edge_alive = np.ones(rows, dtype=bool)
        self._edge_rows = rows
        self._dead_edges = 0
        #: raw ids of departed variables, dropped by the next compaction.
        self._dead_nodes: List[int] = []
        self.plan = plan
        #: message rows of the first ``len // 2`` edge rows; later rows are
        #: implicit zeros until :attr:`messages` or a compaction writes them.
        self._messages = messages
        #: previous-solution labels of the first ``len`` nodes (later nodes
        #: are implicit label-0 seeds); ``None`` until a solve is recorded.
        self._labels = labels
        self._track_solution()
        self._edges_dirty = False
        self._nodes_dirty = False
        self.reset_dirty_counters()

    def reset_dirty_counters(self) -> None:
        """Zero the per-solve churn counters (called after each solve)."""
        self.dirty_nodes = 0
        self.dirty_edges = 0
        #: unary-mask rewrites since the last solve — bulk constraint
        #: loads count against the rebuild threshold just like topology.
        self.dirty_masked = 0
        #: largest |Δ| applied to any cost-matrix entry since the last
        #: solve — the engine escalates its warm sweep budget when a feed
        #: update moves costs far enough to shift the message fixed point.
        self.dirty_cost = 0.0
        #: True when a constraint delta hard-masked the previous solution
        #: (the pinned/forbidden label was the one in use) — the engine
        #: then re-solves with its full budget, since the previous basin
        #: is no longer feasible.
        self.stranded = False

    # ------------------------------------------------------------ event apply

    def apply(self, event: Event) -> None:
        """Mutate network/similarity and patch the live plan for one event.

        While tracing is enabled each apply records a ``stream.apply`` span
        tagged with the event type; disabled, the extra cost is one branch.
        """
        if not obs.enabled():
            self._dispatch(event)
            return
        with obs.span(
            "stream.apply", cat="stream", event=type(event).__name__
        ):
            self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Route one event to its typed patch handler."""
        if isinstance(event, SimilarityUpdate):
            self._apply_similarity(event)
        elif isinstance(event, LinkAdd):
            self._apply_link_add(event)
        elif isinstance(event, LinkRemove):
            self._apply_link_remove(event)
        elif isinstance(event, HostJoin):
            self._apply_host_join(event)
        elif isinstance(event, HostLeave):
            self._apply_host_leave(event)
        elif isinstance(
            event, (PinService, UnpinService, ForbidRange, AllowRange)
        ):
            self._apply_unary_constraint(event)
        elif isinstance(event, CombinationUpdate):
            self._apply_combination(event)
        else:  # pragma: no cover - type escape hatch
            raise TypeError(f"unknown event {event!r}")

    def flush(self) -> MRFArrays:
        """Materialise pending structural deltas into the array plan.

        Value-only updates were already patched in place; this compacts
        the raw rows once and re-derives the slot/level structure once for
        however many link/host events accumulated.  Returns the (possibly
        new) plan.  While tracing, the ``stream.flush`` span carries the
        counts of dead nodes, dead edges and new edges the compaction
        handled.
        """
        if not (self._nodes_dirty or self._edges_dirty):
            return self.plan
        with obs.span(
            "stream.flush", cat="stream",
            nodes_dirty=self._nodes_dirty, edges_dirty=self._edges_dirty,
        ) as span:
            dead_nodes, dead_edges, new_edges = self._compact()
            span.add(
                dead_nodes=dead_nodes, dead_edges=dead_edges,
                new_edges=new_edges,
            )
            unary, counts, *edges = self.parts()
            if self._nodes_dirty:
                lmax = unary.shape[1]
                if lmax > self.plan.lmax:
                    # Wider label spaces joined: grow the message padding;
                    # the padded-message convention is 0, so this is exact.
                    self._messages = np.pad(
                        self._messages, ((0, 0), (0, lmax - self.plan.lmax))
                    )
                self.plan = MRFArrays.from_dense(unary, counts, *edges)
            else:
                self.plan.replace_edges(*edges)
            self._nodes_dirty = False
            self._edges_dirty = False
        return self.plan

    # ------------------------------------------------------------ live sizes

    @property
    def node_count(self) -> int:
        """Live variable count (tracks pending deltas, unlike ``plan``)."""
        return len(self.variables) - len(self._dead_nodes)

    @property
    def edge_count(self) -> int:
        """Live edge count (tracks pending deltas, unlike ``plan``)."""
        return self._edge_rows - self._dead_edges

    def parts(self):
        """The raw plan parts, in :meth:`MRFArrays.from_dense` form.

        Returns ``(unary, label_counts, edge_first, edge_second, edge_cid,
        matrices)`` reflecting every applied event — compacted, but
        without the global slot/level re-derivation :meth:`flush` adds.
        The arrays are read-only views of the live stack and columns.
        """
        self._compact()
        n = len(self.variables)
        return (
            self._unary[:n],
            self._label_counts[:n],
            self._edge_first,
            self._edge_second,
            self._edge_cid,
            self._matrices,
        )

    @property
    def _edge_first(self) -> np.ndarray:
        return self._edges[_FIRST, : self._edge_rows]

    @property
    def _edge_second(self) -> np.ndarray:
        return self._edges[_SECOND, : self._edge_rows]

    @property
    def _edge_cid(self) -> np.ndarray:
        return self._edges[_CID, : self._edge_rows]

    # -------------------------------------------------------------- solution

    @property
    def messages(self) -> np.ndarray:
        """The solver's directed messages, rows ``2e``/``2e+1`` per edge row.

        Rows of edges appended since the last compaction are written as
        zeros on first read, so the array always covers every edge row.
        """
        self._messages = _pad_rows(self._messages, 2 * self._edge_rows)
        return self._messages

    @property
    def labels(self) -> Optional[np.ndarray]:
        """Previous-solution labels, one per variable row (``None`` until
        the engine records a solve).

        Variables joined since the last compaction read label 0 (flat
        unaries make any start equivalent; ICM repositions them in one
        sweep); their rows are written on first read.
        """
        if self._labels is not None:
            self._labels = _pad_rows(self._labels, len(self.variables))
        return self._labels

    def record_labels(self, labels: np.ndarray) -> None:
        """Store the latest solution labels for label-warm re-solves."""
        self._labels = np.asarray(labels, dtype=np.int64).copy()
        self._track_solution()

    def solution_delta(self) -> Optional[Tuple[int, List[Tuple[str, str]]]]:
        """How the variables moved since the last recorded solve.

        ``(kept, departed)``: the first ``kept`` variables are that
        solve's surviving variables, in order, with their candidate ranges
        unchanged; every later one joined since (a host that left and
        rejoined under its name comes back as a new variable).
        ``departed`` lists the keys of that solve's variables that left.
        ``None`` when no solve is recorded in the current numbering (before
        the first solve, after a rebuild).  Exact once :meth:`flush` has
        compacted the pending deltas.
        """
        if self._solved is None:
            return None
        return self._solved, self._departed

    def _track_solution(self) -> None:
        """Start the :meth:`solution_delta` bookkeeping at the stored labels."""
        self._solved = None if self._labels is None else len(self._labels)
        self._departed: List[Tuple[str, str]] = []

    # ------------------------------------------------------------- internals

    def _append_variable(self, host: str, service: str) -> None:
        range_ = self.network.candidates(host, service)
        row, count = len(self.variables), len(range_)
        # Grow by doubling, like the edge columns, and widen for a wider
        # range: fresh arrays, so the live plan's stack stays untouched.
        if row == len(self._unary):
            self._unary = _pad_rows(self._unary, max(16, 2 * row))
            self._label_counts = _pad_rows(self._label_counts, len(self._unary))
        if count > self._unary.shape[1]:
            self._unary = np.pad(
                self._unary, ((0, 0), (0, count - self._unary.shape[1]))
            )
        self._unary[row, :count] = self.unary_constant
        self._label_counts[row] = count
        self.index[(host, service)] = row
        self.variables.append((host, service))
        self.candidates.append(range_)

    def _weight(self, service: str) -> float:
        return self.pairwise_weight * float(self.service_weights.get(service, 1.0))

    def _matrix_for(
        self, range_a: Tuple[str, ...], range_b: Tuple[str, ...], weight: float
    ) -> Tuple[int, bool]:
        """Cost id for a candidate-range pair, plus whether the stored
        orientation is the transpose of the requested one (the caller then
        flips the edge's endpoints instead of storing a second matrix)."""
        key = (range_a, range_b, weight)
        cid = self._matrix_ids.get(key)
        if cid is not None:
            return cid, False
        flipped = self._matrix_ids.get((range_b, range_a, weight))
        if flipped is not None:
            return flipped, True
        matrix = np.empty((len(range_a), len(range_b)))
        for row, product_a in enumerate(range_a):
            for col, product_b in enumerate(range_b):
                matrix[row, col] = weight * self.similarity.get(product_a, product_b)
        cid = len(self._matrices)
        self._matrix_ids[key] = cid
        self._matrices.append(matrix)
        self._matrix_meta.append(key)
        return cid, False

    def _append_edge(self, a: str, b: str, service: str) -> None:
        node_a = self.index[(a, service)]
        node_b = self.index[(b, service)]
        cid, flip = self._matrix_for(
            self.candidates[node_a], self.candidates[node_b], self._weight(service)
        )
        first, second = (node_b, node_a) if flip else (node_a, node_b)
        self._push_edge(first, second, cid)

    def _push_edge(self, first: int, second: int, cid: int) -> None:
        """Append one edge row (amortised O(1); its messages start at 0)."""
        row = self._edge_rows
        if row == len(self._edge_alive):
            capacity = max(16, 2 * row)
            edges = np.empty((len(self._edges), capacity), dtype=np.int64)
            edges[:, :row] = self._edges[:, :row]
            alive = np.zeros(capacity, dtype=bool)
            alive[:row] = self._edge_alive[:row]
            self._edges, self._edge_alive = edges, alive
        self._edges[:, row] = (first, second, cid)
        self._edge_alive[row] = True
        self._edge_rows = row + 1
        self._edges_dirty = True

    def _live_rows(
        self, side: Sequence[int], other: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Live edge rows with one endpoint among the raw node ids ``side``
        and the other among ``other`` (the two disjoint), or any row
        touching ``side`` when ``other`` is ``None``.

        One vectorised pass over the endpoint columns: the nodes are
        marked in an int8 array, the mark at ``first`` is gathered for
        every row, and ``second`` is read only for the rows it flags.
        """
        rows = self._edge_rows
        first = self._edges[_FIRST, :rows]
        second = self._edges[_SECOND, :rows]
        mark = np.zeros(len(self.variables), dtype=np.int8)
        mark[side] = 1
        if other is None:
            hit = np.flatnonzero(mark[first] | mark[second])
        else:
            mark[other] = 2
            at_first = mark[first]
            near = np.flatnonzero(at_first)
            hit = near[at_first[near] + mark[second[near]] == 3]
        return hit[self._edge_alive[hit]]

    def _kill_edges(self, rows: np.ndarray) -> None:
        """Tombstone edge rows; the next compaction drops them."""
        if len(rows):
            self._edge_alive[rows] = False
            self._dead_edges += len(rows)
            self._edges_dirty = True

    def _label_of(self, node: int) -> int:
        """Previous label of a raw node id (0 for nodes joined since)."""
        labels = self._labels
        return int(labels[node]) if node < len(labels) else 0

    def _compact(self) -> Tuple[int, int, int]:
        """Drop tombstones, renumber nodes and write pending rows.

        One pass of NumPy gathers over the raw rows, however many events
        are pending; a no-op when nothing is.  Node order is preserved, so
        surviving nodes and edges keep their relative order and every
        pending row lands exactly where an eager edit would have put it.
        Returns the counts of dead nodes, dead edges and new (zero-message)
        edge rows it handled.
        """
        dead_nodes = len(self._dead_nodes)
        dead_edges = self._dead_edges
        stored = len(self._messages) // 2
        new_edges = self._edge_rows - stored
        if dead_nodes:
            live = np.ones(len(self.variables), dtype=bool)
            live[self._dead_nodes] = False
            solved = self._solved
            if solved is not None:
                self._departed.extend(
                    self.variables[node]
                    for node in self._dead_nodes
                    if node < solved
                )
                self._solved = int(np.count_nonzero(live[:solved]))
            flags = live.tolist()
            self.variables = list(compress(self.variables, flags))
            self.candidates = list(compress(self.candidates, flags))
            kept = np.flatnonzero(live)
            self._label_counts = self._label_counts.take(kept)
            # A wider host that joined and left since the last flush does
            # not widen the plan.
            width = max(self.plan.lmax, int(self._label_counts.max(initial=0)))
            self._unary = self._unary[:, :width].take(kept, axis=0)
            self.index = dict(
                zip(self.variables, range(len(self.variables)))
            )
            if self._labels is not None:
                self._labels = _gather_rows(self._labels, kept, 1)
            self._dead_nodes = []
        if dead_nodes or dead_edges:
            alive = self._edge_alive[: self._edge_rows]
            keep = np.flatnonzero(alive)
            # ``take`` keeps each column C-contiguous (the native kernels
            # require it); ``[:, keep]`` would return a Fortran-ordered copy.
            edges = self._edges.take(keep, axis=1)
            if dead_nodes:
                remap = np.cumsum(live) - 1
                edges[_FIRST] = remap[edges[_FIRST]]
                edges[_SECOND] = remap[edges[_SECOND]]
            new_edges = len(keep) - int(np.searchsorted(keep, stored))
            self._messages = _gather_rows(self._messages, keep, 2)
            self._edges = edges
            self._edge_alive = np.ones(len(keep), dtype=bool)
            self._edge_rows = len(keep)
            self._dead_edges = 0
        # Rows appended since the last compaction: write their zeros.
        self._messages = _pad_rows(self._messages, 2 * self._edge_rows)
        if self._labels is not None:
            self._labels = _pad_rows(self._labels, len(self.variables))
        return dead_nodes, dead_edges, new_edges

    # ------------------------------------------------------- event internals

    def _apply_similarity(self, event: SimilarityUpdate) -> None:
        a, b, value = event.product_a, event.product_b, event.value
        self.similarity.set(a, b, value)
        for cid, (range_a, range_b, weight) in enumerate(self._matrix_meta):
            matrix = self._matrices[cid]
            changed = False
            if a in range_a and b in range_b:
                row, col = range_a.index(a), range_b.index(b)
                self.dirty_cost = max(
                    self.dirty_cost, abs(weight * value - matrix[row, col])
                )
                matrix[row, col] = weight * value
                changed = True
            if b in range_a and a in range_b:
                row, col = range_a.index(b), range_b.index(a)
                self.dirty_cost = max(
                    self.dirty_cost, abs(weight * value - matrix[row, col])
                )
                matrix[row, col] = weight * value
                changed = True
            # Matrices born after the last flush/rebuild (a pending
            # structural delta allocated them) are not in the live plan's
            # stack yet; the pending flush picks the new value up from
            # self._matrices, so only patch ids the stack knows.
            if changed and cid < self.plan.stacked:
                self.plan.set_cost_matrix(cid, matrix)

    def _apply_unary_constraint(self, event) -> None:
        """Pin/Unpin/Forbid/Allow: mutate the set, rewrite one unary mask.

        The node's unary is recomputed from the *live constraint set* (base
        ``Pr_const`` plus every Fix/Forbid mask in constraint order — the
        exact accumulation of the batch compiler) and written onto the
        plan in place (:meth:`MRFArrays.set_unary`): a value-only delta,
        no slot/level/message change.
        """
        apply_constraint_event(self.network, self.constraints, event)
        self._refresh_unary(self.index[(event.host, event.service)])

    def _refresh_unary(self, node: int) -> None:
        """Recompute one node's unary from the live constraint set."""
        from repro.core.compile import constraint_mask

        host, service = self.variables[node]
        vector = np.full(len(self.candidates[node]), self.unary_constant)
        for constraint in self.constraints.unary_constraints_for(host, service):
            vector = vector + constraint_mask(
                self.candidates[node], constraint
            )
        # The live plan may share this stack (``from_dense`` adopts it).
        # While a host delta is pending, raw ids can diverge from the
        # plan's: such a row write reaches only a plan that the next flush
        # replaces, and the engine reads no plan before flushing.
        self._unary[node, : len(vector)] = vector
        if not self._nodes_dirty:
            self.plan.set_unary(node, vector)
        if (
            self._labels is not None
            and vector[self._label_of(node)] >= HARD_COST
        ):
            self.stranded = True
        self.dirty_masked += 1

    def _apply_combination(self, event: CombinationUpdate) -> None:
        """Combination add/retire: mutate the set, patch intra-host edges.

        Each affected host's (service, service) pair gets its table
        recomputed from the live set — in-place (:meth:`MRFArrays.
        set_cost_matrix`) when the pair already carries a table, an eager
        edge append (new message slots at the 0 identity) when the rule
        couples the pair for the first time, an edge deletion when the
        last rule on the pair is retired.  Structural cases go through the
        usual compaction in :meth:`flush`.
        """
        apply_constraint_event(self.network, self.constraints, event)
        constraint = event.constraint
        hosts = (
            self.network.hosts
            if constraint.host == GLOBAL
            else [constraint.host]
        )
        for host in hosts:
            if not (
                self.network.has_service(host, constraint.service_m)
                and self.network.has_service(host, constraint.service_n)
            ):
                continue
            self._refresh_combination(
                host, constraint.service_m, constraint.service_n
            )

    def _refresh_combination(
        self, host: str, service_m: str, service_n: str
    ) -> None:
        """Recompute one host pair's combination table from the live set."""
        from repro.core.compile import write_combination

        node_m = self.index[(host, service_m)]
        node_n = self.index[(host, service_n)]
        lo, hi = min(node_m, node_n), max(node_m, node_n)
        svc_lo = self.variables[lo][1]
        svc_hi = self.variables[hi][1]
        table = np.zeros(
            (len(self.candidates[lo]), len(self.candidates[hi]))
        )
        for constraint in self.constraints.combination_constraints():
            if constraint.host not in (host, GLOBAL):
                continue
            if not (
                self.network.has_service(host, constraint.service_m)
                and self.network.has_service(host, constraint.service_n)
            ):
                continue
            c_m = self.index[(host, constraint.service_m)]
            c_n = self.index[(host, constraint.service_n)]
            if {c_m, c_n} != {lo, hi}:
                continue
            write_combination(
                constraint,
                self.candidates[c_m],
                self.candidates[c_n],
                c_m == lo,
                table,
            )

        key = (host, svc_lo, svc_hi)
        cid = self._combo_cids.get(key)
        if table.any():
            if cid is None:
                cid = len(self._matrices)
                self._matrices.append(table)
                self._matrix_meta.append(_COMBO_META)
                self._combo_cids[key] = cid
                self._push_edge(lo, hi, cid)
            else:
                self._matrices[cid][...] = table
                if cid < self.plan.stacked:
                    self.plan.set_cost_matrix(cid, table)
            if (
                self._labels is not None
                and table[self._label_of(lo), self._label_of(hi)]
                >= HARD_COST
            ):
                self.stranded = True
        elif cid is not None:
            # The pair's last rule was retired: the edge goes with it (a
            # cold compile of the current set would not emit it either).
            # The orphaned table stays in the stack — cost ids are
            # append-only — and is dropped by the next rebuild.
            self._kill_edges(self._live_rows([lo], [hi]))
            del self._combo_cids[key]
        self.dirty_edges += 1

    def _apply_link_add(self, event: LinkAdd) -> None:
        self.network.add_link(event.a, event.b)
        added = 0
        for service in self.network.shared_services(event.a, event.b):
            self._append_edge(event.a, event.b, service)
            added += 1
        self.dirty_edges += added

    def _apply_link_remove(self, event: LinkRemove) -> None:
        self.network.remove_link(event.a, event.b)
        rows = self._live_rows(self._nodes_of(event.a), self._nodes_of(event.b))
        self._kill_edges(rows)
        self.dirty_edges += len(rows)

    def _nodes_of(self, host: str) -> List[int]:
        """Raw node ids of a live host's variables."""
        return [
            self.index[(host, service)]
            for service in self.network.services_of(host)
        ]

    def _apply_host_join(self, event: HostJoin) -> None:
        self.network.add_host(event.host, event.service_map())
        for service in self.network.services_of(event.host):
            self._append_variable(event.host, service)
            self.dirty_nodes += 1
        self._nodes_dirty = True
        for peer in event.links:
            self._apply_link_add(LinkAdd(a=event.host, b=peer))
        # GLOBAL combination rules apply to the newcomer immediately — a
        # cold compile of the same state would emit its tables too.
        pairs = set()
        for constraint in self.constraints.combination_constraints():
            if constraint.host == GLOBAL and (
                self.network.has_service(event.host, constraint.service_m)
                and self.network.has_service(event.host, constraint.service_n)
            ):
                pairs.add(
                    frozenset((constraint.service_m, constraint.service_n))
                )
        for pair in sorted(sorted(p) for p in pairs):
            self._refresh_combination(event.host, pair[0], pair[1])

    def _apply_host_leave(self, event: HostLeave) -> None:
        host = event.host
        removed = self._nodes_of(host)
        self.network.remove_host(host)
        # The host's constraints vanish with it (GLOBAL rules survive);
        # its combination edges are tombstoned by the endpoint scan below.
        self.constraints.prune_host(host)
        self._combo_cids = {
            key: cid
            for key, cid in self._combo_cids.items()
            if key[0] != host
        }
        dead = self._live_rows(removed)
        self._kill_edges(dead)
        self.dirty_edges += len(dead)
        # The nodes become tombstones; renumbering waits for the compaction.
        for node in removed:
            del self.index[self.variables[node]]
        self._dead_nodes.extend(removed)
        self._nodes_dirty = True
        self.dirty_nodes += len(removed)


def _pad_rows(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` extended with zero rows to ``rows`` rows (itself if long
    enough)."""
    missing = rows - len(array)
    if missing <= 0:
        return array
    return np.concatenate(
        [array, np.zeros((missing,) + array.shape[1:], dtype=array.dtype)]
    )


def _gather_rows(array: np.ndarray, keep: np.ndarray, per: int) -> np.ndarray:
    """The ``per`` rows of each kept item (``keep`` ascending), in order;
    items past the stored ones get zero rows."""
    stored = int(np.searchsorted(keep, len(array) // per))
    out = np.zeros((per * len(keep),) + array.shape[1:], dtype=array.dtype)
    # One gather of whole items: view the rows of each item as one row.
    width = per * int(np.prod(array.shape[1:]))
    items = array.reshape(len(array) // per, width)
    out.reshape(len(keep), width)[:stored] = items.take(keep[:stored], axis=0)
    return out
