"""The kernel-backend contract: whole-sweep primitives over the plan.

A backend implements the array kernels the vectorized solvers spend their
time in, at the granularity of a *sweep*: one call walks every wavefront
level of the plan's flat level-major arrays
(:attr:`~repro.mrf.vectorized.MRFArrays.fwd_sweep` /
:attr:`~repro.mrf.vectorized.MRFArrays.bwd_sweep`).  Four sweep-level
methods cover TRW-S, ICM and the BP decode, and one more the TRW-S
refine's greedy init:

- :meth:`KernelBackend.forward_sweep` — per level, condition then send;
- :meth:`KernelBackend.backward_sweep` — per level, send;
- :meth:`KernelBackend.icm` — the whole Gauss-Seidel run;
- :meth:`KernelBackend.decode` — conditioning only;
- :meth:`KernelBackend.greedy` — every node once, in degree order.

Three per-call kernels complete the set: the TRW-S lower bound's chain
minima (:meth:`KernelBackend.chain_bound`) and the synchronous BP beliefs
and round.  One more kernel runs when a plan is built rather than
solved: :meth:`KernelBackend.schedule` groups the edge endpoints by node
and computes the wavefront levels the sweep arrays are laid out by.
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
    from repro.mrf.vectorized import MRFArrays, SolverScratch

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
        (into ``labels``), then send its messages to later neighbours
        (γ·belief reweighting, oriented cost add, min-reduce over sender
        labels, normalisation, receiver belief scatter).  Mutates
        ``messages``, ``beliefs`` and ``labels`` in place.

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
        update, in order.  ``level_seconds`` as in :meth:`forward_sweep`,
        one entry per backward level.  Returns the backend that ran it."""
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
        neighbours' current labels, and the level's labels are written
        back before the next level.  Stops after a sweep that changes
        nothing, or after ``max_sweeps``.  Returns the backend that ran."""
        raise NotImplementedError

    def decode(
        self,
        plan: "MRFArrays",
        beliefs: np.ndarray,
        messages: np.ndarray,
        labels: np.ndarray,
        scratch: "SolverScratch",
    ) -> "KernelBackend":
        """The conditioning half of :meth:`forward_sweep` alone (no sends):
        writes every node's label into ``labels``.  Returns the backend
        that ran it."""
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
        its already-labelled neighbours, added in the order of the forward
        sweep's full-adjacency rows (edge order).  Returns the backend
        that ran it."""
        raise NotImplementedError

    # ----------------------------------------------------- per-call kernels

    def schedule(
        self,
        n: int,
        first: np.ndarray,
        second: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(group, off, flevel, blevel)`` of an edge set over ``n`` nodes.

        Slot ``2e`` is edge ``e``'s ``first`` endpoint and ``2e+1`` its
        ``second``.  ``group`` (``2·edges``) lists the slots grouped by
        node, in slot order within a node, so node ``v`` sends on
        ``group[off[v]:off[v + 1]]`` (``off`` has ``n + 1`` entries).
        ``flevel[v]`` is one past the deepest lower-numbered neighbour's
        forward level (0 without one); ``blevel`` mirrors it over
        higher-numbered neighbours.  All four are int64.  Endpoints must
        lie in ``[0, n)`` and differ: callers go through
        :func:`~repro.mrf.vectorized.wavefront_schedule`, which checks."""
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
        first edge; each forward-sweep send ``i→j``, in sweep order,
        extends its chain: ``tail_c(x_j) = min_{x_i}(cost(x_i, x_j) +
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
        order into ``beliefs`` in place: BP's beliefs from the previous
        round, TRW-S's starting beliefs, and (before the γ weighting) the
        node shares of :meth:`chain_bound`."""
        raise NotImplementedError

    def bp_round(
        self,
        plan: "MRFArrays",
        messages: np.ndarray,
        beliefs: np.ndarray,
        damping: float,
        scratch: "SolverScratch",
    ) -> float:
        """One synchronous min-sum round over all ``2·edges`` directed
        slots: compute every new message from the previous round's values,
        damp, write back in place, and return the max absolute message
        change."""
        raise NotImplementedError
