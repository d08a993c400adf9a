"""Parallel experiment engine: deterministic jobs over a process pool.

See :mod:`repro.runner.engine` for the model.  The experiment drivers in
:mod:`repro.experiments` and :mod:`repro.analysis.sensitivity` build their
grids as :class:`Job` lists and execute them through :func:`run_jobs`,
which is what the CLI's ``--workers`` flag controls (``REPRO_WORKERS`` in
the environment overrides the default when a caller passes no explicit
worker count).  :mod:`repro.runner.shared` adds shared-memory array blocks
so big result arrays come back from workers without pickling.
"""

from repro.runner.engine import Job, derive_seed, resolve_workers, run_jobs
from repro.runner.shared import (
    SharedArrayBlock,
    SharedArraySpec,
    shared_memory_available,
)

__all__ = [
    "Job",
    "SharedArrayBlock",
    "SharedArraySpec",
    "derive_seed",
    "resolve_workers",
    "run_jobs",
    "shared_memory_available",
]
