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
fallbacks truthfully.  The
plan-build ``schedule`` kernel needs no guard: it writes fresh arrays,
and :func:`~repro.mrf.vectorized.wavefront_schedule` has checked the
endpoints it indexes by.
"""

from __future__ import annotations

import ctypes
import threading
import weakref

import numpy as np

from repro import obs
from repro.mrf.backends.base import KernelBackend
from repro.mrf.backends.numpy_backend import NumpyBackend

__all__ = ["NativeBackend", "FALLBACK_COUNTER"]

#: Obs counter incremented each time a native call runs on NumPy instead.
FALLBACK_COUNTER = "backend.native_fallbacks"

#: dtypes of the sweep-block fields that are not int64.
_SWEEP_DTYPES = {"gam": np.float64, "pad": np.bool_}


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


class _PlanState:
    """The marshalled :class:`CPlan` of one plan build, with its token."""

    __slots__ = ("token", "ok", "ref", "cond_rows")

    def __init__(self, plan) -> None:
        from repro.mrf.backends._cc import LMAX_LIMIT, CPlan, CSends

        # Weak references: a rebuilt plan frees its old arrays at once, and
        # a dead reference can never match a new object (no id() reuse).
        self.token = tuple(weakref.ref(x) for x in self._token(plan))
        fwd, bwd = plan.fwd_sweep, plan.bwd_sweep
        # The BP-only slot arrays are left unread: the plan builds them
        # (C-contiguous, of the kernels' dtypes) when BP first asks.
        checks = [
            (plan.cost, np.float64), (plan.unary_inf, np.float64),
            (plan.gamma, np.float64),
            *((a, np.int64) for a in (
                plan.edge_cid, plan.slot_receiver, plan.degree, fwd.node_off,
                fwd.ext_off, fwd.all_off, fwd.send_off, bwd.send_off,
            )),
        ]
        for csr in (fwd, bwd):
            checks += [
                (a, _SWEEP_DTYPES.get(name, np.int64))
                for name, a in vars(csr.block).items()
            ]
        # Node ids are range-checked by the plan build; cost ids arrive
        # from callers unchecked, and the kernels index the stack raw.
        cids = plan.edge_cid
        self.ok = (
            plan.lmax <= LMAX_LIMIT
            and all(
                a.dtype == dtype and a.flags.c_contiguous
                for a, dtype in checks
            )
            and (not len(cids) or 0 <= cids.min() <= cids.max() < plan.stacked)
        )
        self.ref = None
        self.cond_rows = int(np.diff(fwd.node_off).max()) if fwd.count else 0
        if not self.ok:
            return

        def sends(csr) -> CSends:
            block = csr.block
            return CSends(off=_addr(csr.send_off), **{
                name: _addr(getattr(block, name))
                for name in ("snd", "rcv", "out", "inn", "cid", "gam", "pad")
            })

        self.ref = ctypes.pointer(CPlan(
            lmax=plan.lmax, n_fwd=fwd.count, n_bwd=bwd.count,
            cost=_addr(plan.cost), unary=_addr(plan.unary_inf),
            degree=_addr(plan.degree), gamma=_addr(plan.gamma),
            receiver=_addr(plan.slot_receiver),
            node_off=_addr(fwd.node_off), ext_off=_addr(fwd.ext_off),
            all_off=_addr(fwd.all_off), fwd=sends(fwd), bwd=sends(bwd),
            **{
                name: _addr(getattr(fwd.block, name))
                for name in (
                    "nodes", "ext_seg", "ext_nbr", "ext_in", "ext_cid",
                    "all_seg", "all_nbr", "all_cid",
                )
            },
        ))

    @staticmethod
    def _token(plan) -> tuple:
        # replace_edges rebinds the cost stack and both sweeps (and with
        # them gamma and the slot receivers); in-place value patches
        # (set_cost_matrix / set_unary) rebind none, and the marshalled
        # pointers keep seeing the new values.
        return (plan.cost, plan.unary_inf, plan.fwd_sweep, plan.bwd_sweep)

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
            *_timer(level_seconds, plan.fwd_sweep.count),
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
            *_timer(level_seconds, plan.bwd_sweep.count),
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
        cond = scratch.array("native_cond", (state.cond_rows, plan.lmax))
        kernels.icm(state.ref, int(max_sweeps), _addr(current), _addr(cond))
        return self

    def greedy(self, plan, labels, scratch):
        ready = self._guard(plan, _labels(plan, labels))
        if not ready:
            return self._fallback().greedy(plan, labels, scratch)
        kernels, state = ready
        n = plan.node_count
        top = int(plan.degree.max()) if n else 0
        work = scratch.array("native_greedy", (2 * n + top + 2,), np.int64)
        kernels.greedy(state.ref, top, _addr(labels), _addr(work))
        return self

    def decode(self, plan, beliefs, messages, labels, scratch):
        ready = self._guard(
            plan, _messages(plan, messages), _beliefs(plan, beliefs),
            _labels(plan, labels),
        )
        if not ready:
            return self._fallback().decode(
                plan, beliefs, messages, labels, scratch
            )
        kernels, state = ready
        cond = scratch.array("native_cond", (state.cond_rows, plan.lmax))
        kernels.decode(
            state.ref, _addr(beliefs), _addr(messages), _addr(labels),
            _addr(cond),
        )
        return self

    # ----------------------------------------------------- per-call kernels

    def schedule(self, n, first, second):
        kernels = self._impl()
        if kernels is None:
            return self._fallback().schedule(n, first, second)
        first = np.ascontiguousarray(first, dtype=np.int64)
        second = np.ascontiguousarray(second, dtype=np.int64)
        m = len(first)
        group = np.empty(2 * m, dtype=np.int64)
        off = np.empty(n + 1, dtype=np.int64)
        flevel = np.empty(n, dtype=np.int64)
        blevel = np.empty(n, dtype=np.int64)
        kernels.schedule(
            n, m, _addr(first), _addr(second),
            _addr(group), _addr(off), _addr(flevel), _addr(blevel),
        )
        return group, off, flevel, blevel

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
        kernels, _ = ready
        kernels.bp_beliefs(
            plan.node_count, 2 * plan.edge_count, plan.lmax,
            _addr(plan.unary_inf), _addr(plan.slot_receiver),
            _addr(messages), _addr(beliefs),
        )

    def bp_round(self, plan, messages, beliefs, damping, scratch):
        slots = 2 * plan.edge_count
        ready = self._guard(
            plan, _messages(plan, messages), _beliefs(plan, beliefs)
        )
        if not ready:
            return self._fallback().bp_round(
                plan, messages, beliefs, damping, scratch
            )
        kernels, _ = ready
        lmax = plan.lmax
        return float(
            kernels.bp_round(
                slots, lmax, _addr(plan.cost),
                _addr(plan.slot_sender), _addr(plan.slot_reverse),
                _addr(plan.slot_cid), _addr(plan.slot_pad), float(damping),
                _addr(beliefs), _addr(messages),
                _addr(scratch.array("native_bp_new", (slots, lmax))),
            )
        )
