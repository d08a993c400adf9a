"""The compiled ``native`` backend: whole-sweep C kernels.

The kernels live in :mod:`repro.mrf.backends._cc` (one embedded C
translation unit, compiled on first use).  Each sweep-level method is one
foreign call that loops over the plan's wavefront levels itself; the
plan's pointers are marshalled into a :class:`~repro.mrf.backends._cc.
CPlan` struct once per plan build, so a sweep call converts only its
per-call arrays.

The backend holds **no copies** of plan data.  Per plan it caches the
struct plus weak references to the arrays it points into
(``WeakKeyDictionary``, so plans stay collectable); those identities are
the validation token, so in-place streaming patches (``set_cost_matrix``
/ ``set_unary``) stay visible to the kernels while ``replace_edges``
rebuilds are caught and re-marshalled.

The guard runs once per sweep (and once per greedy init): a plan wider
than 64 labels (the C kernels' stack-buffer limit), or any array that is
not C-contiguous ``float64`` / ``int64`` of the plan's shape, routes the
call to the NumPy backend instead — graceful, never wrong — and counts
it twice: in the :data:`FALLBACK_COUNTER` obs counter of an active trace,
and in the backend's own :attr:`~NativeBackend.fallbacks`, which counts
with tracing off too (the service exports it on ``/metrics``).  The
guarded methods return the backend that actually ran, so solvers record
fallbacks truthfully.  ``label_graph`` (the chains and components,
once per edge set) goes through the same guard and counter.  The
plan-build ``structure`` kernel needs no guard: it writes fresh arrays,
and the plan build has checked the endpoints it indexes by.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from itertools import accumulate

import numpy as np

from repro import obs
from repro.mrf.backends.base import KernelBackend
from repro.mrf.backends.numpy_backend import NumpyBackend

__all__ = ["NativeBackend", "FALLBACK_COUNTER"]

#: Obs counter incremented each time a native call runs on NumPy instead.
FALLBACK_COUNTER = "backend.native_fallbacks"

def _addr(a):
    """The data address of ``a`` (``None`` → a NULL pointer)."""
    return None if a is None else a.ctypes.data


# Guard checks — (array, dtype, shape) — of the per-call solver arrays.
def _messages(plan, a):
    return a, np.float64, (2 * plan.edge_count, plan.lmax)


def _beliefs(plan, a):
    return a, np.float64, (plan.node_count, plan.lmax)


def _labels(plan, a):
    return a, np.int64, (plan.node_count,)


def _timer(seconds, levels):
    return () if seconds is None else ((seconds, np.float64, (levels,)),)


#: The float64 arrays of a :class:`CPlan`; the others are int64.
_FLOAT_ARRAYS = ("cost", "unary", "gamma")


class _PlanState:
    """The marshalled :class:`CPlan` of one plan build, with its token."""

    __slots__ = ("token", "ok", "ref", "cond_rows")

    def __init__(self, plan) -> None:
        from repro.mrf.backends._cc import ADJACENCY_FIELDS, LMAX_LIMIT, CPlan

        # Weak references: a rebuilt plan frees its old arrays at once, and
        # a dead reference can never match a new object (no id() reuse).
        self.token = tuple(weakref.ref(x) for x in self._token(plan))
        adj = plan.adjacency
        arrays = {
            "cost": plan.cost, "unary": plan.unary_inf, "gamma": plan.gamma,
            "counts": plan.label_counts, "first": plan.edge_first,
            "second": plan.edge_second,
            **{name: getattr(adj, name) for name in ADJACENCY_FIELDS},
        }
        # Node and cost ids are range-checked by the plan build, so the
        # kernels may index the belief rows and the cost stack raw.
        self.ok = plan.lmax <= LMAX_LIMIT and all(
            a.dtype == (np.float64 if name in _FLOAT_ARRAYS else np.int64)
            and a.flags.c_contiguous
            for name, a in arrays.items()
        )
        self.ref = None
        self.cond_rows = int(np.diff(adj.node_off).max(initial=0))
        if not self.ok:
            return
        self.ref = ctypes.pointer(CPlan(
            lmax=plan.lmax, m=plan.edge_count, n_fwd=adj.forward_levels,
            n_bwd=adj.backward_levels,
            **{name: _addr(a) for name, a in arrays.items()},
        ))

    @staticmethod
    def _token(plan) -> tuple:
        # replace_edges rebinds the cost stack, the edge columns and the
        # adjacency (and with them gamma); in-place value patches
        # (set_cost_matrix / set_unary) rebind none, and the marshalled
        # pointers keep seeing the new values.
        return (plan.cost, plan.unary_inf, plan.adjacency)

    def current(self, plan) -> bool:
        """Whether this state still describes ``plan``'s arrays."""
        return all(r() is x for r, x in zip(self.token, self._token(plan)))


class NativeBackend(KernelBackend):
    """Compiled kernels behind the shared :class:`KernelBackend` contract."""

    name = "native"
    kind = "native"

    def __init__(self) -> None:
        self._numpy = NumpyBackend()
        self._kernels = None
        self._resolved = False
        self._states: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self.fallbacks = 0

    # ----------------------------------------------------- implementation

    def _impl(self):
        """Compile/load the C kernels once per backend instance."""
        if not self._resolved:
            self._resolved = True
            # Imported on first use: the C toolchain stays off the import
            # path of callers that never solve on a plan.
            from repro.mrf.backends._cc import load_kernels

            self._kernels = load_kernels()
            if self._kernels is not None:
                self.kind = self._kernels.kind
        return self._kernels

    @property
    def available(self) -> bool:
        return self._impl() is not None

    def describe(self) -> str:
        self._impl()
        return super().describe()

    def _state(self, plan) -> _PlanState:
        state = self._states.get(plan)
        if state is None or not state.current(plan):
            state = _PlanState(plan)
            self._states[plan] = state
        return state

    def _guard(self, plan, *checks):
        """The (kernels, plan state) pair when the C path can run this
        call, else ``None``.  ``checks`` are ``(array, dtype, shape)``
        triples; each array must be C-contiguous of that dtype and shape."""
        kernels = self._impl()
        if kernels is None:
            return None
        state = self._state(plan)
        if not state.ok:
            return None
        for array, dtype, shape in checks:
            if (
                array.dtype != dtype
                or array.shape != shape
                or not array.flags.c_contiguous
            ):
                return None
        return kernels, state

    def _fallback(self) -> NumpyBackend:
        obs.add_counter(FALLBACK_COUNTER)
        with self._lock:
            self.fallbacks += 1
        return self._numpy

    # ------------------------------------------------- sweep-level kernels

    def forward_sweep(
        self, plan, messages, beliefs, labels, scratch, level_seconds=None
    ):
        ready = self._guard(
            plan, _messages(plan, messages), _beliefs(plan, beliefs),
            _labels(plan, labels),
            *_timer(level_seconds, plan.adjacency.forward_levels),
        )
        if not ready:
            return self._fallback().forward_sweep(
                plan, messages, beliefs, labels, scratch, level_seconds
            )
        kernels, state = ready
        cond = scratch.array("native_cond", (state.cond_rows, plan.lmax))
        kernels.trws_forward(
            state.ref, _addr(messages), _addr(beliefs), _addr(labels),
            _addr(cond), _addr(level_seconds),
        )
        return self

    def backward_sweep(
        self, plan, messages, beliefs, scratch, level_seconds=None
    ):
        ready = self._guard(
            plan, _messages(plan, messages), _beliefs(plan, beliefs),
            *_timer(level_seconds, plan.adjacency.backward_levels),
        )
        if not ready:
            return self._fallback().backward_sweep(
                plan, messages, beliefs, scratch, level_seconds
            )
        kernels, state = ready
        kernels.trws_backward(
            state.ref, _addr(messages), _addr(beliefs), _addr(level_seconds)
        )
        return self

    def icm(self, plan, current, max_sweeps, scratch):
        ready = self._guard(plan, _labels(plan, current))
        if not ready:
            return self._fallback().icm(plan, current, max_sweeps, scratch)
        kernels, state = ready
        dirty = scratch.array("native_icm_dirty", (plan.node_count,), np.uint8)
        kernels.icm(state.ref, int(max_sweeps), _addr(current), _addr(dirty))
        return self

    def greedy(self, plan, labels, scratch):
        ready = self._guard(plan, _labels(plan, labels))
        if not ready:
            return self._fallback().greedy(plan, labels, scratch)
        kernels, state = ready
        n = plan.node_count
        top = int(plan.adjacency.degree.max()) if n else 0
        work = scratch.array("native_greedy", (2 * n + top + 2,), np.int64)
        kernels.greedy(state.ref, top, _addr(labels), _addr(work))
        return self

    # ----------------------------------------------------- per-call kernels

    def structure(self, n, first, second, cid, stacked):
        from repro.mrf.backends._cc import (
            STRUCTURE_ARRAYS,
            STRUCTURE_OFFSETS,
            CStructure,
        )
        from repro.mrf.vectorized import Adjacency

        kernels = self._impl()
        if kernels is None:
            return self._fallback().structure(n, first, second, cid, stacked)
        first, second, cid = (
            np.ascontiguousarray(a, dtype=np.int64) for a in (first, second, cid)
        )
        m = len(first)
        # The arrays are slices of one int64 block and the level offsets
        # rows of another, so the call marshals a handful of addresses
        # rather than one per array; the offsets are then cut to the level
        # counts the kernel returns, and the backward node order to the
        # nodes it lists.
        length = {"row": 2 * m, "node": n}
        stops = list(accumulate(length[e] for _name, e in STRUCTURE_ARRAYS))
        block = np.empty(stops[-1], dtype=np.int64)
        levels = np.empty((len(STRUCTURE_OFFSETS), n + 1), dtype=np.int64)
        gamma = np.empty(n)
        base, level_base = _addr(block), _addr(levels)
        out, address = {}, {}
        for (name, extent), stop in zip(STRUCTURE_ARRAYS, stops):
            start = stop - length[extent]
            out[name] = block[start:stop]
            address[name] = base + block.itemsize * start
        for row, name in enumerate(STRUCTURE_OFFSETS):
            address[name] = level_base + levels.itemsize * (n + 1) * row
        result = CStructure(gamma=_addr(gamma), **address)
        work = np.empty(2 * m + 6 * n + 2, dtype=np.int64)
        kernels.structure(
            n, m, _addr(first), _addr(second), _addr(cid), int(stacked),
            ctypes.byref(result), _addr(work),
        )
        out["node_off"] = levels[0, : result.n_fwd + 1].copy()
        out["bwd_off"] = levels[1, : result.n_bwd + 1].copy()
        out["bwd_nodes"] = out["bwd_nodes"][: out["bwd_off"][-1]]
        return gamma, Adjacency(**out)

    def label_graph(self, plan, chains, components):
        ready = self._guard(plan)
        if not ready:
            return self._fallback().label_graph(plan, chains, components)
        kernels, state = ready
        n, m = plan.node_count, plan.edge_count
        chain = ends = code = labels = None
        if chains:
            chain = np.empty(m, dtype=np.int64)
            ends = np.empty(m + n, dtype=np.int64)
            code = np.empty(m, dtype=np.int64)
        if components:
            labels = np.empty(n, dtype=np.int64)
        count = kernels.label_graph(
            state.ref, _addr(chain), _addr(ends), _addr(labels), _addr(code)
        )
        if chains:
            ends = ends[:count].copy()
        return chain, ends, labels

    def chain_bound(self, plan, messages, mins, scratch):
        chain, ends = plan.chains
        ready = self._guard(
            plan, _messages(plan, messages),
            (mins, np.float64, (len(ends),)),
        )
        if not ready:
            return self._fallback().chain_bound(plan, messages, mins, scratch)
        kernels, state = ready
        kernels.chain_bound(
            state.ref, _addr(chain), len(ends), _addr(ends), _addr(messages),
            _addr(scratch.array(
                "native_chain_share", (plan.node_count, plan.lmax)
            )),
            _addr(scratch.array("native_chain_tail", (len(ends), plan.lmax))),
            _addr(mins),
        )
        return self

    def bp_beliefs(self, plan, messages, beliefs):
        ready = self._guard(
            plan, _messages(plan, messages), _beliefs(plan, beliefs)
        )
        if not ready:
            self._fallback().bp_beliefs(plan, messages, beliefs)
            return
        kernels, state = ready
        kernels.bp_beliefs(state.ref, _addr(messages), _addr(beliefs))
