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
failing, so ``--workers`` can default to "use them if you can".  A job's
own exception is never taken for such a failure: the worker returns it as
a value, and the parent re-raises it with the worker traceback chained as
its ``__cause__``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional

from repro import obs

__all__ = ["Job", "derive_seed", "resolve_workers", "run_jobs"]

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
    ``REPRO_WORKERS`` environment variable supplies the value instead:
    export ``REPRO_WORKERS=-1`` (or any count above 1) to parallelise
    every unpinned grid of a session without touching call sites.  Unset,
    those grids run serially.  Explicit ``workers`` arguments always win
    over the environment.
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
    """Top-level trampoline so jobs traverse the process pool.

    A job's own exception comes back as a :class:`_JobFailure` value, so
    ``pool.map`` only ever raises for the pool itself: a job's ``OSError``
    must not pass for an unavailable pool and re-run the grid serially.
    """
    try:
        return job.run()
    except Exception as exc:
        return _JobFailure(exc, traceback.format_exc())


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


@dataclass
class _JobFailure:
    """A job exception carried home as a value, worker traceback attached."""

    error: Exception
    traceback: str


class _RemoteTraceback(Exception):
    """Formatted worker traceback, chained as the job error's cause —
    the same presentation ``concurrent.futures`` gives pool exceptions."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return self.text


def run_jobs(
    jobs: Iterable[Job], workers: Optional[int] = None
) -> Dict[Hashable, Any]:
    """Execute ``jobs`` and collect ``{job.key: result}`` in job order.

    Args:
        jobs: the grid cells; keys must be unique (a duplicate key would
            silently drop a result, so it raises instead).
        workers: parallelism per :func:`resolve_workers`.  Worker processes
            each execute whole jobs; per-job randomness must come from the
            job's own seed, which is what keeps serial and parallel runs
            identical.  The pool hands the jobs out in chunks of
            ``max(1, len(jobs) // (4·workers))`` jobs, about four chunks
            per worker, so big grids of short cells amortise the pool's
            round-trips.

    Raises:
        ValueError: on duplicate job keys.

    A job's exception propagates.  From the pool it re-raises in the
    parent once every job has run, the first failure in job order, with
    the worker traceback as its ``__cause__``.  Pool *infrastructure*
    failures — no process support, unpicklable jobs — degrade to the
    serial path with a warning.

    >>> def cell(n, seed=None):
    ...     return n * n
    >>> jobs = [Job(key=n, fn=cell, kwargs={"n": n}) for n in range(4)]
    >>> run_jobs(jobs, workers=1)
    {0: 0, 1: 1, 2: 4, 3: 9}
    """
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
    if count <= 1:
        # Serial jobs record straight into the active trace (if any);
        # no capture indirection needed.
        return {job.key: job.run() for job in job_list}

    # Under an active trace, wrap each job so workers capture their spans
    # and ship them back with the result (pool workers cannot reach the
    # parent's Trace object).
    dispatch = job_list
    if obs.enabled():
        dispatch = [
            Job(key=job.key, fn=_traced_job, kwargs={"job": job})
            for job in job_list
        ]
    try:
        with ProcessPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(
                _run_job, dispatch,
                chunksize=max(1, len(job_list) // (4 * count)),
            ))
    except (OSError, BrokenProcessPool) as exc:  # OSError covers PermissionError
        warnings.warn(
            f"process pool unavailable ({exc!r}); running "
            f"{len(job_list)} job(s) serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return {job.key: job.run() for job in job_list}
    # Merge captured worker spans into the parent trace, and re-raise the
    # first job error in job order with the worker traceback chained, like
    # concurrent.futures does.
    trace = obs.current_trace()
    for index, result in enumerate(results):
        if type(result) is _JobFailure:
            result.error.__cause__ = _RemoteTraceback(f"\n{result.traceback}")
            raise result.error
        if type(result) is _TracedResult:
            if trace is not None:
                trace.extend(result.events)
            results[index] = result.value
    return {job.key: result for job, result in zip(job_list, results)}
