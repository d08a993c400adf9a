"""Deterministic scenario/job engine behind the experiment grids.

Every table and sweep of the reproduction is a grid of independent cells:
one (host count, density) workload per Table VII row, one (noise, seed)
perturbation per sensitivity cell, and so on.  This module gives those
drivers a single execution engine:

* a :class:`Job` names one cell — a picklable top-level callable, its
  keyword arguments, and the cell's key in the result table;
* :func:`derive_seed` derives a stable per-job seed from a base seed and
  the job key, so a grid re-run (serial or parallel, any worker count)
  always evaluates the same randomness per cell;
* :func:`run_jobs` executes a job list serially or over a
  ``ProcessPoolExecutor`` and returns ``{job.key: result}`` in job order —
  results never depend on completion order, which is what makes serial and
  parallel runs produce identical tables.

The pool is a best-effort accelerator: when process pools are unavailable
(restricted sandboxes, missing semaphores) or a job does not pickle,
:func:`run_jobs` falls back to the serial path with a warning instead of
failing, so ``--workers`` can default to "use them if you can".
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.runner.shared import (
    SharedArrayBlock,
    SharedArraySpec,
    shared_memory_available,
)

__all__ = ["Job", "derive_seed", "resolve_workers", "run_jobs"]

#: Result arrays at or above this size travel back through shared memory
#: instead of the result pipe (one segment memcpy beats pickling them).
SHARED_RESULT_MIN_BYTES = 1 << 16

#: Seeds are reduced into this range so they fit every consumer
#: (``random.Random``, ``numpy.random.default_rng``, C RNGs).
_SEED_SPACE = 2**31


def derive_seed(base_seed: int, key: Hashable) -> int:
    """A stable per-cell seed from a base seed and a job key.

    Uses SHA-256 over the repr of ``(base_seed, key)`` — stable across
    processes and Python runs (unlike ``hash()``, which is salted), and
    well-spread so neighbouring grid cells don't get correlated streams.

    >>> derive_seed(11, ("table7", 100)) == derive_seed(11, ("table7", 100))
    True
    >>> derive_seed(11, ("table7", 100)) != derive_seed(12, ("table7", 100))
    True
    """
    digest = hashlib.sha256(repr((base_seed, key)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class Job:
    """One grid cell: ``fn(**kwargs)`` identified by ``key``.

    ``fn`` must be a module-level callable and ``kwargs`` values picklable,
    or the job can only run on the serial path.  When ``seed`` is set it is
    passed to ``fn`` as the ``seed`` keyword (unless ``kwargs`` already
    pins one) — the hook :func:`derive_seed` plugs into.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def run(self) -> Any:
        """Execute the job's callable (its seed injected into kwargs)."""
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs.setdefault("seed", self.seed)
        return self.fn(**kwargs)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per CPU;
    any other positive integer is taken literally.

    When ``workers`` is ``None`` (the caller expressed no preference) the
    ``REPRO_WORKERS`` environment variable supplies the value instead —
    the CI/sandbox override: export ``REPRO_WORKERS=1`` to force every
    unpinned grid serial in a pool-hostile sandbox, or ``REPRO_WORKERS=-1``
    to parallelise a whole benchmark session without touching call sites.
    Explicit ``workers`` arguments always win over the environment.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
    if workers is None or workers == 0:
        return 1
    if workers == -1:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= -1, got {workers}")
    return workers


def _run_job(job: Job) -> Any:
    """Top-level trampoline so jobs traverse the process pool."""
    return job.run()


@dataclass(frozen=True)
class _TracedResult:
    """A worker's job result bundled with the spans captured while it ran.

    Produced by :func:`_traced_job` when the parent dispatched under an
    active trace; the parent unwraps it and merges ``events`` into its
    own :class:`repro.obs.Trace` (events keep the worker's pid/tid, so
    the merged timeline shows them in their own lanes).
    """

    value: Any
    events: List[Dict[str, Any]]


def _traced_job(job: Job) -> _TracedResult:
    """Run one job under a worker-local span capture (cross-process
    tracing; see :mod:`repro.obs`)."""
    token = obs.begin_capture()
    try:
        value = job.run()
    finally:
        events = obs.end_capture(token)
    return _TracedResult(value=value, events=events)


# ------------------------------------------- shared-memory result return


@dataclass(frozen=True)
class _SharedResultRef:
    """Picklable stand-in for a result array parked in shared memory."""

    spec: SharedArraySpec


#: Per-process sequence for prefixed segment names (uniqueness within a
#: worker; the run prefix + worker pid make them globally unique).
_SEGMENT_SEQ = iter(range(1 << 62))


def _segment_name(name_prefix: Optional[str]) -> Optional[str]:
    if name_prefix is None:
        return None
    import os

    return f"{name_prefix}{os.getpid():x}_{next(_SEGMENT_SEQ):x}"


def _export_result(obj: Any, name_prefix: Optional[str] = None) -> Any:
    """Worker side: park large result arrays in shared memory.

    Recursively replaces big C-contiguous float/int ndarrays inside the
    common result containers (tuples, lists, dicts, dataclasses) with
    :class:`_SharedResultRef` handles.  The worker leaves the segments
    linked — the parent copies out of them and unlinks.  Segment names
    carry the run's ``name_prefix`` so the parent can sweep orphans after
    a worker crash.  Any failure to create a segment (no ``/dev/shm``,
    quota, name limits) falls back to returning the array inline,
    preserving the pickle path.
    """
    if type(obj) is np.ndarray:
        if (
            obj.nbytes >= SHARED_RESULT_MIN_BYTES
            and obj.flags.c_contiguous
            and obj.dtype != object
        ):
            try:
                block = SharedArrayBlock.create(
                    obj, name=_segment_name(name_prefix)
                )
            except OSError:
                return obj
            spec = block.spec
            block.disown()  # the parent attaches, copies and unlinks
            block.close()  # the worker's mapping only; the segment stays
            return _SharedResultRef(spec)
        return obj
    if type(obj) is tuple:
        return tuple(_export_result(item, name_prefix) for item in obj)
    if type(obj) is list:
        return [_export_result(item, name_prefix) for item in obj]
    if type(obj) is dict:
        return {
            key: _export_result(value, name_prefix)
            for key, value in obj.items()
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            exported = _export_result(value, name_prefix)
            if exported is not value:
                changes[f.name] = exported
        return dataclasses.replace(obj, **changes) if changes else obj
    return obj


def _import_result(obj: Any) -> Any:
    """Parent side: rehydrate shared-memory refs back into ndarrays.

    One memcpy out of the segment, then the segment is destroyed — the
    result pipe only ever carried the tiny spec.
    """
    if type(obj) is _SharedResultRef:
        block = SharedArrayBlock.attach(obj.spec)
        try:
            return np.array(block.array())
        finally:
            block.unlink()
    if type(obj) is tuple:
        return tuple(_import_result(item) for item in obj)
    if type(obj) is list:
        return [_import_result(item) for item in obj]
    if type(obj) is dict:
        return {key: _import_result(value) for key, value in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            imported = _import_result(value)
            if imported is not value:
                changes[f.name] = imported
        return dataclasses.replace(obj, **changes) if changes else obj
    return obj


@dataclass
class _JobFailure:
    """A job exception carried home as a value, worker traceback attached.

    With shared results in play the parent must drain *every* worker
    result (each undrained :class:`_SharedResultRef` is a disowned
    ``/dev/shm`` segment nobody else will ever unlink), so job errors
    cannot be allowed to short-circuit the dispatch — they ride back as
    values and re-raise after the whole grid has been imported.
    """

    error: Exception
    traceback: str


class _RemoteTraceback(Exception):
    """Formatted worker traceback, chained as the job error's cause —
    the same presentation ``concurrent.futures`` gives pool exceptions."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return self.text


def _run_job_shared(job: Job, name_prefix: Optional[str] = None) -> Any:
    """Trampoline exporting large result arrays through shared memory."""
    import traceback

    try:
        return _export_result(job.run(), name_prefix)
    except Exception as exc:
        return _JobFailure(exc, traceback.format_exc())


def _run_chunk_shared(jobs: List[Job], name_prefix: str) -> List[Any]:
    """One dispatch chunk of shared-result jobs (submit-side batching)."""
    return [_run_job_shared(job, name_prefix) for job in jobs]


def _sweep_segments(name_prefix: str) -> None:
    """Best-effort unlink of every surviving segment of one grid run.

    The crash net behind the prefixed segment names: if a worker died
    after creating (and disowning) segments whose specs never reached the
    parent, no process holds a handle — but the names are enumerable on
    tmpfs, so the parent reaps them before surfacing the failure.
    """
    import glob
    import os

    for path in glob.glob(os.path.join("/dev/shm", f"{name_prefix}*")):
        try:
            block = SharedArrayBlock.attach(
                SharedArraySpec(name=os.path.basename(path), shape=(), dtype="u1")
            )
            block.unlink()
        except Exception:  # pragma: no cover - raced/foreign file
            pass


def _map_shared(pool: ProcessPoolExecutor, job_list: List[Job], chunksize: int):
    """Run a shared-results grid over explicit chunk futures.

    ``pool.map`` gives no handle on completed-but-unyielded results once
    the pool breaks, which would strand their disowned shared-memory
    segments forever.  Submitting chunks keeps every future reachable: on
    an infrastructure failure the completed chunks are still drained
    (attach + unlink), orphans from crashed workers are swept by the
    run's unique name prefix, and unstarted chunks are cancelled before
    the error propagates.  Job errors never take this path — they ride
    back as :class:`_JobFailure` values.
    """
    import uuid

    # Short prefix: POSIX shm names are capped at 31 chars on some
    # platforms, and prefix + worker pid + sequence must fit.
    name_prefix = f"rr{uuid.uuid4().hex[:8]}_"
    chunks = [
        job_list[start : start + chunksize]
        for start in range(0, len(job_list), chunksize)
    ]
    futures = [
        pool.submit(_run_chunk_shared, chunk, name_prefix) for chunk in chunks
    ]
    results: List[Any] = []
    drained = 0
    try:
        for future in futures:
            results.extend(_import_result(item) for item in future.result())
            drained += 1
    except BaseException:
        for future in futures[drained:]:
            if (
                future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                for item in future.result():
                    try:  # already-imported items attach FileNotFoundError
                        _import_result(item)
                    except Exception:
                        pass
            else:
                future.cancel()
        _sweep_segments(name_prefix)
        raise
    return results


def run_jobs(
    jobs: Iterable[Job],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    shared_results: Optional[bool] = None,
) -> Dict[Hashable, Any]:
    """Execute ``jobs`` and collect ``{job.key: result}`` in job order.

    Args:
        jobs: the grid cells; keys must be unique (a duplicate key would
            silently drop a result, so it raises instead).
        workers: parallelism per :func:`resolve_workers`.  Worker processes
            each execute whole jobs; per-job randomness must come from the
            job's own seed, which is what keeps serial and parallel runs
            identical.
        chunksize: jobs dispatched to a worker per round-trip (default 1).
            Large grids of short cells — the 6000-host ``--full`` sweeps
            spawn hundreds — amortise pool IPC by batching; results are
            identical either way, only scheduling granularity changes.
        shared_results: ship large result arrays back through
            ``multiprocessing.shared_memory`` segments instead of pickling
            them over the result pipe (arrays ≥
            :data:`SHARED_RESULT_MIN_BYTES` inside the usual result
            containers; see :func:`_export_result`).  The default ``None``
            auto-enables this whenever a pool actually runs and the
            platform has shared memory — the ``--full`` sweep grids use
            it without opting in; results are value-identical either
            way, and any segment-creation
            failure falls back to inline pickling per array.

    Raises:
        ValueError: on duplicate job keys or a non-positive chunksize.

    Any exception raised by a job propagates (from the pool: re-raised in
    the parent).  Pool *infrastructure* failures — no process support,
    unpicklable jobs — degrade to the serial path with a warning.

    >>> def cell(n, seed=None):
    ...     return n * n
    >>> jobs = [Job(key=n, fn=cell, kwargs={"n": n}) for n in range(4)]
    >>> run_jobs(jobs, workers=1)
    {0: 0, 1: 1, 2: 4, 3: 9}
    """
    if chunksize is not None and chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    job_list: List[Job] = list(jobs)
    seen = set()
    for job in job_list:
        if job.key in seen:
            raise ValueError(f"duplicate job key {job.key!r}")
        seen.add(job.key)

    count = min(resolve_workers(workers), len(job_list))
    if count > 1:
        # Pre-flight: a job that cannot traverse the pool (lambda fn,
        # unpicklable kwargs) must degrade to serial, not crash mid-map.
        try:
            pickle.dumps(job_list)
        except Exception as exc:  # pickle raises many concrete types
            warnings.warn(
                f"jobs are not picklable ({exc!r}); running "
                f"{len(job_list)} job(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            count = 1
    use_shared = (
        shared_results
        if shared_results is not None
        else shared_memory_available()
    )

    results: List[Any]
    if count <= 1 or len(job_list) <= 1:
        # Serial jobs record straight into the active trace (if any);
        # no capture indirection needed.
        results = [job.run() for job in job_list]
    else:
        # Under an active trace, wrap each job so workers capture their
        # spans and ship them back with the result (pool workers cannot
        # reach the parent's Trace object).
        dispatch = job_list
        if obs.enabled():
            dispatch = [
                Job(key=job.key, fn=_traced_job, kwargs={"job": job})
                for job in job_list
            ]
        try:
            with ProcessPoolExecutor(max_workers=count) as pool:
                # Shared results import (and thereby unlink) every ref
                # before the pool context closes — even on failure paths —
                # because every undrained ref is a disowned shared-memory
                # segment that would otherwise outlive the run.
                if use_shared:
                    results = _map_shared(pool, dispatch, chunksize or 1)
                else:
                    results = list(
                        pool.map(_run_job, dispatch, chunksize=chunksize or 1)
                    )
        except (OSError, PermissionError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool unavailable ({exc!r}); running "
                f"{len(job_list)} job(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            results = [job.run() for job in job_list]
        # Merge captured worker spans into the parent trace.
        trace = obs.current_trace()
        for index, result in enumerate(results):
            if type(result) is _TracedResult:
                if trace is not None:
                    trace.extend(result.events)
                results[index] = result.value
        # Job errors rode back as values (see _JobFailure) so the whole
        # grid could drain first; re-raise the first one in job order with
        # the worker traceback chained, like concurrent.futures does.
        for result in results:
            if type(result) is _JobFailure:
                result.error.__cause__ = _RemoteTraceback(
                    f"\n{result.traceback}"
                )
                raise result.error
    return {job.key: result for job, result in zip(job_list, results)}
