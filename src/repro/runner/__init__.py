"""Parallel experiment engine: deterministic jobs over a process pool.

See :mod:`repro.runner.engine` for the model.  The experiment drivers in
:mod:`repro.experiments` and :mod:`repro.analysis.sensitivity` build their
grids as :class:`Job` lists and execute them through :func:`run_jobs`,
which is what the CLI's ``--workers`` flag controls (``REPRO_WORKERS`` in
the environment overrides the default when a caller passes no explicit
worker count).  Results come back through the pool's pipe, and a job's
error re-raises in the parent with the worker traceback.
"""

from repro.runner.engine import Job, derive_seed, resolve_workers, run_jobs

__all__ = ["Job", "derive_seed", "resolve_workers", "run_jobs"]
