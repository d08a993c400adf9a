"""Kernel-backend registry for the vectorized message-passing solvers.

The solvers (:mod:`repro.mrf.trws`, :mod:`repro.mrf.bp`) and the plan
primitives (:class:`~repro.mrf.vectorized.MRFArrays` decode/ICM/bound)
spend their time in sweeps over the plan's wavefront levels.  This
package makes that kernel tier pluggable, one call per sweep (see
:mod:`repro.mrf.backends.base`):

- ``numpy`` — a Python loop over the levels, vectorized NumPy within each
  (always available; defines the bit-level contract);
- ``native`` — the same sweeps in one embedded C library (ctypes), one
  foreign call per sweep, bit-for-bit identical and parity-gated by
  ``tests/test_backends.py``.

Selection precedence, resolved *per call* so environments and tests can
flip it dynamically:

1. an explicit ``backend=`` argument (``KernelBackend`` instance or name);
2. :func:`set_default_backend` (process-wide override);
3. the ``REPRO_BACKEND`` environment variable;
4. ``auto``: ``native`` when its toolchain is available, else ``numpy``.

:func:`get_backend` is strict (unknown name → ``ValueError``);
:func:`resolve_backend` is graceful — asking for an unavailable backend
warns once and falls back to NumPy, so a host without a C compiler
behaves exactly as before this tier existed.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional, Union

from repro.mrf.backends.base import KernelBackend
from repro.mrf.backends.native import NativeBackend
from repro.mrf.backends.numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "NativeBackend",
    "NumpyBackend",
    "available_backends",
    "active_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]

#: Environment variable consulted by :func:`resolve_backend` (read at
#: resolve time, not import time).
BACKEND_ENV = "REPRO_BACKEND"

_REGISTRY: Dict[str, KernelBackend] = {}
_default: Optional[str] = None
_warned: set = set()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register ``backend`` under ``backend.name`` (last wins)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NumpyBackend())
register_backend(NativeBackend())


def available_backends() -> Dict[str, bool]:
    """Registered backend names → whether each can run here.

    >>> available_backends()["numpy"]
    True
    """
    return {name: _REGISTRY[name].available for name in sorted(_REGISTRY)}


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name`` (strict).

    Raises:
        ValueError: unknown name — listing the known ones.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown kernel backend {name!r} (known: {known}, plus 'auto')"
        ) from None


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Takes precedence over ``REPRO_BACKEND``; ``"auto"`` and unknown names
    are rejected eagerly so misconfiguration fails at the call site.
    """
    global _default
    if name is not None and name != "auto":
        get_backend(name)
    _default = None if name == "auto" else name


def _fallback(requested: str, reason: str) -> KernelBackend:
    if requested not in _warned:
        _warned.add(requested)
        warnings.warn(
            f"kernel backend {requested!r} {reason}; falling back to numpy",
            RuntimeWarning,
            stacklevel=3,
        )
    return _REGISTRY["numpy"]


def resolve_backend(
    backend: Union[KernelBackend, str, None] = None,
) -> KernelBackend:
    """Resolve a solve's kernel backend (graceful; never raises on
    *availability* or on ``REPRO_BACKEND`` typos, only on unknown
    explicit names).

    ``backend`` may be a :class:`KernelBackend` instance (used as-is when
    available), a name, ``"auto"``, or ``None`` (consult the default set
    by :func:`set_default_backend`, then ``REPRO_BACKEND``, then auto).
    """
    if isinstance(backend, KernelBackend):
        if backend.available:
            return backend
        return _fallback(backend.name, "is not available on this host")
    name = backend
    if name is None:
        name = _default
    from_env = False
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or None
        from_env = name is not None
    if name is None or name == "auto":
        native = _REGISTRY["native"]
        return native if native.available else _REGISTRY["numpy"]
    if from_env and name not in _REGISTRY:
        # A typo in an exported REPRO_BACKEND must not crash every solve
        # on the fleet — environment config degrades like a missing
        # toolchain does.  Explicit names (argument/set_default_backend)
        # stay strict: those fail at an attributable call site.
        return _fallback(name, "is not a known kernel backend")
    chosen = get_backend(name)
    if chosen.available:
        return chosen
    return _fallback(name, "is not available on this host")


def active_backend_name(
    backend: Union[KernelBackend, str, None] = None,
) -> str:
    """Human-readable identity of the backend a solve would use now.

    >>> active_backend_name("numpy")
    'numpy'
    """
    return resolve_backend(backend).describe()
