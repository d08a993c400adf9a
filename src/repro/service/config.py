"""Configuration of the always-on diversification service.

:class:`ServiceConfig` bundles every operational knob of the ``repro
serve`` daemon — where to listen, how ingestion backpressure behaves, how
events batch into solves, and when plan snapshots land on disk — with the
validation done once at construction, so a bad flag fails at startup, not
mid-traffic.  ``docs/service.md`` documents each knob from the operator's
side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.obs.logging import LEVELS

__all__ = ["ServiceConfig"]


@dataclass
class ServiceConfig:
    """Operational knobs of a :class:`~repro.service.app.DiversificationService`.

    Attributes:
        host / port: HTTP listen address.  Port 0 binds an ephemeral port
            (the bound port is reported by ``DiversificationService.port``)
            — the form the tests and benchmarks use.
        warm_start: disable to force a cold rebuild+solve per batch — the
            measurement baseline, never the production setting.
        batch_max: events drained from the ingestion queue per solve.  The
            writer always takes everything already queued (up to this cap)
            before solving once, so bursts amortise the re-solve instead
            of paying one per event.
        high_water: ingestion backpressure threshold.  While the queue
            holds this many pending events, ``POST /events`` answers
            ``429 Too Many Requests`` with a ``Retry-After`` header
            instead of queueing more.
        retry_after: the ``Retry-After`` value (seconds) of a 429.
        snapshot_dir: directory for plan snapshots (created on demand).
            ``None`` disables snapshotting entirely, including the
            shutdown snapshot.
        snapshot_every: write a snapshot every N solves (0 = only the
            graceful-shutdown snapshot).
        keep_snapshots: retention — older snapshots beyond this many are
            deleted after each successful write.
        wal_dir: directory for the write-ahead log of acknowledged
            events (:mod:`repro.service.wal`).  ``None`` disables the
            WAL — restarts then recover from snapshots alone, losing
            whatever arrived after the last one.
        fsync: WAL durability policy — ``"always"`` (fsync every append;
            zero acknowledged loss across SIGKILL), ``"batch"``
            (default; fsync once per writer batch) or ``"off"`` (never;
            survives process death but not power loss).
        wal_segment_bytes / wal_segment_records: WAL segment rotation
            bounds.
        fault_plan: optional deterministic fault-injection script
            (:class:`~repro.service.faults.FaultPlan`) consulted at the
            WAL/solve/snapshot fault points — the testing hook behind
            ``repro serve --fault-plan``.  Never set in production.
        engine_options: extra keyword arguments forwarded verbatim to
            :class:`~repro.stream.incremental.DynamicDiversifier`
            (``rebuild_fraction``, ``warm_iterations``, cost model, ...).
        log_level: threshold of the service's structured log output
            (``"debug"`` / ``"info"`` / ``"warning"`` / ``"error"``) —
            the ``--log-level`` flag of ``repro serve``.
        trace_tail: keep the most recent N trace events in an in-process
            ring buffer and serve them on ``GET /debug/trace`` (Chrome
            trace-event JSON).  0 (default) disables tracing entirely —
            the instrumentation hooks then cost one pointer check.  When
            an ambient trace is already active (``repro trace
            serve-replay``) the service joins it instead of starting its
            own tail.
        solve_buckets: override the upper bounds (seconds) of the solve-
            latency histograms; ``None`` keeps
            :data:`repro.service.metrics.SOLVE_BUCKETS`.  Must be
            positive and strictly ascending.

    >>> config = ServiceConfig(port=0, batch_max=16)
    >>> config.high_water
    1024
    >>> ServiceConfig(batch_max=0)
    Traceback (most recent call last):
        ...
    ValueError: batch_max must be >= 1
    """

    host: str = "127.0.0.1"
    port: int = 8351
    warm_start: bool = True
    batch_max: int = 64
    high_water: int = 1024
    retry_after: float = 1.0
    snapshot_dir: Optional[Union[str, Path]] = None
    snapshot_every: int = 0
    keep_snapshots: int = 3
    wal_dir: Optional[Union[str, Path]] = None
    fsync: str = "batch"
    wal_segment_bytes: int = 4 << 20
    wal_segment_records: int = 4096
    fault_plan: Optional[object] = None
    engine_options: Dict[str, object] = field(default_factory=dict)
    log_level: str = "info"
    trace_tail: int = 0
    solve_buckets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.high_water < 1:
            raise ValueError("high_water must be >= 1")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        if self.snapshot_dir is not None:
            self.snapshot_dir = Path(self.snapshot_dir)
        if self.wal_dir is not None:
            self.wal_dir = Path(self.wal_dir)
        if self.fsync not in ("always", "batch", "off"):
            raise ValueError(
                f"fsync must be 'always', 'batch' or 'off', got {self.fsync!r}"
            )
        if self.wal_segment_bytes < 1:
            raise ValueError("wal_segment_bytes must be >= 1")
        if self.wal_segment_records < 1:
            raise ValueError("wal_segment_records must be >= 1")
        if self.log_level not in LEVELS:
            raise ValueError(
                f"log_level must be one of {sorted(LEVELS)}, "
                f"got {self.log_level!r}"
            )
        if self.trace_tail < 0:
            raise ValueError("trace_tail must be >= 0")
        if self.solve_buckets is not None:
            buckets = tuple(float(bound) for bound in self.solve_buckets)
            if not buckets or any(bound <= 0 for bound in buckets):
                raise ValueError("solve_buckets must be positive")
            if any(a >= b for a, b in zip(buckets, buckets[1:])):
                raise ValueError("solve_buckets must be strictly ascending")
            self.solve_buckets = buckets

    @property
    def snapshots_enabled(self) -> bool:
        """True when a snapshot directory is configured."""
        return self.snapshot_dir is not None

    @property
    def wal_enabled(self) -> bool:
        """True when a write-ahead log directory is configured."""
        return self.wal_dir is not None
