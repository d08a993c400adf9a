"""Shared-memory array blocks for cross-process job grids.

Process-pool jobs normally exchange arrays pickled over a pipe.  For big
numerics — the padded matrices of a 6000-host sweep, large result
arrays — that serialisation dominates the dispatch cost.  :class:`SharedArrayBlock` puts
one NumPy array into POSIX shared memory instead: the parent ships only a
tiny picklable :class:`SharedArraySpec` (name, shape, dtype) and each
worker attaches a zero-copy read-only view.

Availability is environment-dependent (restricted sandboxes may lack
``/dev/shm`` or semaphore support), so creation failures raise plain
``OSError`` for callers to catch and fall back to inline pickling — the
same degrade-gracefully stance as :func:`repro.runner.engine.run_jobs`.

Lifecycle: the creating process owns the segment and must call
:meth:`SharedArrayBlock.unlink` when every consumer is done; workers call
:meth:`SharedArrayBlock.close` after copying what they need.  Both are
idempotent, and the context-manager form closes (and unlinks, for owners)
on exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

__all__ = ["SharedArraySpec", "SharedArrayBlock", "shared_memory_available"]


def shared_memory_available() -> bool:
    """True when the platform exposes ``multiprocessing.shared_memory``."""
    return _shm is not None


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle to a shared array: segment name, shape, dtype."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedArrayBlock:
    """One NumPy array living in a shared-memory segment.

    >>> block = SharedArrayBlock.create(np.arange(6.0).reshape(2, 3))
    >>> view = SharedArrayBlock.attach(block.spec)
    >>> float(view.array()[1, 2])
    5.0
    >>> view.close(); block.unlink()
    """

    def __init__(self, shm, spec: SharedArraySpec, owner: bool) -> None:
        self._shm = shm
        self.spec = spec
        self.owner = owner
        self._unlinked = False

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(
        cls, array: np.ndarray, name: Optional[str] = None
    ) -> "SharedArrayBlock":
        """Copy ``array`` into a fresh shared segment (raises OSError when
        shared memory is unavailable in this environment).

        ``name`` pins the segment name — callers that may crash before
        handing the spec to the consumer (pool workers parking result
        arrays) use a shared prefix so the consumer can sweep orphans.
        """
        if _shm is None:
            raise OSError("multiprocessing.shared_memory unavailable")
        array = np.ascontiguousarray(array)
        shm = _shm.SharedMemory(create=True, size=max(1, array.nbytes), name=name)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        spec = SharedArraySpec(
            name=shm.name, shape=tuple(array.shape), dtype=str(array.dtype)
        )
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: SharedArraySpec) -> "SharedArrayBlock":
        """Attach to an existing segment by its spec (consumer side)."""
        if _shm is None:
            raise OSError("multiprocessing.shared_memory unavailable")
        return cls(_shm.SharedMemory(name=spec.name), spec, owner=False)

    def array(self) -> np.ndarray:
        """A read-only ndarray view of the segment (no copy)."""
        if self._shm is None:
            raise ValueError("shared array block is closed")
        view = np.ndarray(
            self.spec.shape, dtype=np.dtype(self.spec.dtype),
            buffer=self._shm.buf,
        )
        view.setflags(write=False)
        return view

    def close(self) -> None:
        """Detach this process's mapping (idempotent)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def disown(self) -> None:
        """Hand lifecycle responsibility to another process.

        Removes the segment from *this* process's ``resource_tracker``
        registration, so a creator that exits before the consumer unlinks
        (a pool worker parking result arrays for the parent) does not have
        its tracker reap — and warn about — a segment the parent still
        owns.  The consumer must eventually call :meth:`unlink`.
        """
        try:  # pragma: no branch - tracker exists on POSIX only
            from multiprocessing import resource_tracker

            # The tracker knows the raw POSIX name (leading slash), which
            # the public ``name`` property strips; prefer the segment's
            # internal name and fall back to re-prefixing.
            name = getattr(self._shm, "_name", None)
            if name is None:
                name = self.spec.name
                if not name.startswith("/"):
                    name = "/" + name
            resource_tracker.unregister(name, "shared_memory")
        except Exception:  # pragma: no cover - platform without tracker
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent).

        Works after :meth:`close` too — the segment is re-opened by name
        from the spec, so an owner that detached early still cannot leak
        it.
        """
        if self._unlinked:
            return
        shm, self._shm = self._shm, None
        if shm is None:
            try:
                shm = _shm.SharedMemory(name=self.spec.name)
            except FileNotFoundError:
                self._unlinked = True
                return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing unlink
            pass
        self._unlinked = True

    # ------------------------------------------------------ context manager

    def __enter__(self) -> "SharedArrayBlock":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        if self.owner:
            self.unlink()
        else:
            self.close()
        return None
