"""The kernel-backend contract: whole-sweep primitives over the plan.

A backend implements the array kernels the TRW-S solver spends its
time in, at the granularity of a *sweep*: one call walks every wavefront
level of the plan's one adjacency
(:attr:`~repro.mrf.vectorized.MRFArrays.adjacency`).  Three sweep-level
methods cover TRW-S and ICM, and one more the TRW-S refine's greedy init:

- :meth:`KernelBackend.forward_sweep` — per level, condition then send;
- :meth:`KernelBackend.backward_sweep` — per level, send;
- :meth:`KernelBackend.icm` — the whole Gauss-Seidel run;
- :meth:`KernelBackend.greedy` — every node once, in degree order.

Two per-call kernels complete the set: the TRW-S lower bound's chain
minima (:meth:`KernelBackend.chain_bound`) and the beliefs it and the
sweeps start from (:meth:`KernelBackend.bp_beliefs`).  Two more
kernels run once per edge set rather than per
solve: :meth:`KernelBackend.structure` builds the plan's γ weights and
adjacency (every plan build and every ``replace_edges``), and
:meth:`KernelBackend.label_graph` numbers the bound's monotonic chains
and the connected components when a plan first reads them.
Everything *around* the kernels — iteration control, convergence, energy
bookkeeping, refinement — stays in shared Python and is identical across
backends.

The contract is deliberately bit-for-bit: every kernel must reproduce the
NumPy reference backend's floating-point results exactly (same operation
order, same reduction order, same padding conventions), so any backend can
be swapped in without perturbing a single test, snapshot, or warm-start
trace.  ``tests/test_backends.py`` enforces this the way ``trws-ref``
gates the vectorized solvers.

Each of those methods returns the backend whose kernels actually ran it
— itself, or the NumPy reference when a native guard declined the plan —
so solvers can record the executed backend rather than the requested one.

Buffer conventions shared by all backends (see ``docs/kernels.md``):

- padded *belief/cost* entries are ``+inf``; padded *message* entries are
  ``0.0`` — kernels may therefore reduce over full ``lmax`` rows/columns
  and rely on the padding to be inert;
- every temporary lives in the caller's
  :class:`~repro.mrf.vectorized.SolverScratch` under a stable name, so
  repeated solves allocate nothing regardless of backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.mrf.vectorized import Adjacency, MRFArrays, SolverScratch

__all__ = ["KernelBackend"]


class KernelBackend:
    """Abstract kernel backend (see module docstring for the contract).

    Attributes:
        name: registry name (``"numpy"``, ``"native"``).
        kind: implementation detail for reporting — ``"numpy"`` or
            ``"cc"``; shown by ``repro --help`` and recorded by
            benchmarks.
        fallbacks: guarded calls this backend handed to the NumPy
            reference so far (process lifetime; always 0 for NumPy
            itself).  Counted whether or not tracing is on.
    """

    name: str = "abstract"
    kind: str = "abstract"
    fallbacks: int = 0

    @property
    def available(self) -> bool:
        """Whether this backend can run in the current environment."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable identity, e.g. ``"native (cc)"``."""
        if self.name == self.kind:
            return self.name
        return f"{self.name} ({self.kind})"

    # ------------------------------------------------- sweep-level kernels

    def forward_sweep(
        self,
        plan: "MRFArrays",
        messages: np.ndarray,
        beliefs: np.ndarray,
        labels: np.ndarray,
        scratch: "SolverScratch",
        level_seconds: Optional[np.ndarray] = None,
    ) -> "KernelBackend":
        """One TRW-S forward sweep.  Per forward level, in order: label
        the level's nodes by sequential conditioning on earlier levels
        (into ``labels``; its conditioning rows), then send its messages
        to later neighbours (its send rows: γ·belief reweighting,
        oriented cost add, min-reduce over sender labels, normalisation,
        receiver belief scatter).  Mutates ``messages``, ``beliefs`` and
        ``labels`` in place.

        ``level_seconds`` (tracing only) is a float64 array with one entry
        per forward level; each level's wall time is added to its entry.
        Returns the backend that ran the sweep."""
        raise NotImplementedError

    def backward_sweep(
        self,
        plan: "MRFArrays",
        messages: np.ndarray,
        beliefs: np.ndarray,
        scratch: "SolverScratch",
        level_seconds: Optional[np.ndarray] = None,
    ) -> "KernelBackend":
        """One TRW-S backward sweep: every backward level's block message
        update, in order, each node re-sending on its conditioning rows.
        ``level_seconds`` as in :meth:`forward_sweep`, one entry per
        backward level with sends.  Returns the backend that ran it."""
        raise NotImplementedError

    def icm(
        self,
        plan: "MRFArrays",
        current: np.ndarray,
        max_sweeps: int,
        scratch: "SolverScratch",
    ) -> "KernelBackend":
        """Iterated conditional modes in place on ``current`` (int64).

        Each sweep walks the forward levels; every node of a level takes
        the argmin of its unary plus the pairwise columns of *all*
        neighbours' current labels, added in edge order (the adjacency's
        permutation), and the level's labels are written back before the
        next level.  Stops after a sweep that changes
        nothing, or after ``max_sweeps``.  A backend may skip a node none
        of whose neighbours changed since its last visit (its argmin is
        its current label), as long as the labels after every sweep are
        those of the full sweeps.  Returns the backend that ran."""
        raise NotImplementedError

    def greedy(
        self,
        plan: "MRFArrays",
        labels: np.ndarray,
        scratch: "SolverScratch",
    ) -> "KernelBackend":
        """The degree-descending sequential greedy labelling, into
        ``labels`` (int64, one per node): the TRW-S refine init.

        Nodes are visited most-connected first, ties in node order; each
        takes the first argmin of its unary plus the pairwise columns of
        its already-labelled neighbours, added in edge order (the
        adjacency's permutation).  Returns the backend that ran it."""
        raise NotImplementedError

    # ----------------------------------------------------- per-call kernels

    def structure(
        self,
        n: int,
        first: np.ndarray,
        second: np.ndarray,
        cid: np.ndarray,
        stacked: int,
    ) -> Tuple[np.ndarray, "Adjacency"]:
        """``(gamma, adjacency)`` of an edge set over ``n`` nodes:
        everything :class:`~repro.mrf.vectorized.MRFArrays` derives from
        its edges.

        Slot ``2e`` carries ``first[e] → second[e]`` and ``2e+1`` the
        reverse, priced through ``cid[e]`` (transposed, ``+ stacked``,
        when the sender is the second endpoint).  ``gamma`` is ``1 /
        max(#higher, #lower neighbours)`` (1 without neighbours).  The
        forward levels are longest-path depths over lower-numbered
        neighbours and the backward levels over higher-numbered ones;
        the :class:`~repro.mrf.vectorized.Adjacency` lays its rows out by
        the first and orders its backward nodes by the second.  The NumPy
        reference groups the endpoints with a stable argsort, runs Kahn
        waves for the levels and places the rows by segment gathers;
        every backend returns the same arrays, C-contiguous int64
        (``gamma`` float64).  Endpoints must lie in ``[0, n)`` and
        differ: the plan build checks them first."""
        raise NotImplementedError

    def label_graph(
        self,
        plan: "MRFArrays",
        chains: bool,
        components: bool,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """``(chain, ends, component)`` of the plan's edge set, int64; the
        first two only when ``chains`` is set, the last only when
        ``components`` is.

        ``(chain, ends)`` are the monotonic chains of
        :attr:`~repro.mrf.vectorized.MRFArrays.chains`, numbered as it
        documents: the chain of every send row, and the end node of every
        chain.  ``component`` is the dense connected-component id per
        node, numbered by smallest node.  Read off the adjacency (the
        chains) and the edge columns (the components) once per edge set,
        when a plan first asks; every backend returns the same
        integers."""
        raise NotImplementedError

    def chain_bound(
        self,
        plan: "MRFArrays",
        messages: np.ndarray,
        mins: np.ndarray,
        scratch: "SolverScratch",
    ) -> "KernelBackend":
        """The minimum of every monotonic chain of
        :attr:`~repro.mrf.vectorized.MRFArrays.chains`, into ``mins``
        (float64, one per chain).

        Node ``i`` contributes ``t_i = gamma[i]·(θ_i + Σ_j M_j→i)`` (the
        original unary plus the incoming messages, added in slot order)
        and edge ``i→j`` (``i < j``) the pairwise cost minus both of its
        messages.  Each chain ``c`` keeps ``tail_c``, zero before its
        first edge; each send row ``i→j``, in row order, extends its
        chain: ``tail_c(x_j) = min_{x_i}(cost(x_i, x_j) +
        ((tail_c + t_i) − M_j→i)(x_i)) − M_i→j(x_j)``.  Chain ``c``'s
        minimum is ``min(tail_c + t_end)``.  The caller sums ``mins``, so
        the bound is bit-identical across backends.  Returns the backend
        that ran it."""
        raise NotImplementedError

    def bp_beliefs(
        self,
        plan: "MRFArrays",
        messages: np.ndarray,
        beliefs: np.ndarray,
    ) -> None:
        """Beliefs ``unary + Σ incoming``, scatter-accumulated in slot
        order into ``beliefs`` in place: TRW-S's starting beliefs and
        (before the γ weighting) the node shares of :meth:`chain_bound`.
        Slot ``s`` is received by ``edge_second[s >> 1]`` when even and
        ``edge_first[s >> 1]`` when odd."""
        raise NotImplementedError
