"""Operational metrics of the diversification service.

:class:`ServiceMetrics` is a tiny in-process registry — counters, gauges,
labeled escalation counters, a build-info gauge and two latency
histograms — rendered in the Prometheus text exposition format by
:meth:`ServiceMetrics.render` (the body of ``GET /metrics``).  No client
library: the format is a handful of lines of string building, and the
service has exactly one exporter.  All methods are thread-safe; the
writer thread records solves while the event loop renders scrapes.

``docs/service.md`` carries the metric glossary and
``docs/observability.md`` the cross-layer picture.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ServiceMetrics", "SOLVE_BUCKETS"]

#: default upper bounds (seconds) of the solve-latency histogram buckets;
#: the terminal +inf bucket is implicit.  Spans sub-millisecond warm
#: re-solves of small estates up to multi-second cold rebuilds of large
#: ones.  ``ServiceConfig.solve_buckets`` overrides per deployment.
SOLVE_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: counter names pre-registered so ``/metrics`` always exposes the full
#: glossary (a counter that never fired still scrapes as 0).
_COUNTERS = (
    "events_ingested_total",
    "events_rejected_total",
    "events_failed_total",
    "events_applied_total",
    "solves_total",
    "solves_warm_total",
    "solves_cold_total",
    "reads_total",
    "snapshots_total",
    "snapshot_failures_total",
    "wal_appends_total",
    "wal_records_total",
    "wal_replayed_total",
    "wal_failures_total",
    "writer_failures_total",
    "dead_letter_total",
    "backend_fallbacks_total",
)

_GAUGES = (
    "queue_depth",
    "queue_high_water",
    "plan_nodes",
    "plan_edges",
    "wal_last_seq",
    "wal_segments",
)

#: escalation reasons pre-registered so every ``repro_escalations_total``
#: series scrapes from 0 (see ``StreamSolveResult.escalation``).
_ESCALATIONS = (
    "first_solve",
    "warm_disabled",
    "node_churn",
    "edge_churn",
    "mask_churn",
    "cost_jump",
    "stranded",
    "forced",
)

_PREFIX = "repro_"


class _Histogram:
    """One cumulative-bucket latency histogram (caller holds the lock)."""

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        self.name = name
        self.bounds = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.observations = 0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        for position, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[position] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += seconds
        self.observations += 1

    def render(self) -> List[str]:
        """Prometheus text-format lines for this histogram."""
        lines = [f"# TYPE {_PREFIX}{self.name} histogram"]
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            lines.append(
                f'{_PREFIX}{self.name}_bucket{{le="{bound}"}} {cumulative}'
            )
        cumulative += self.counts[-1]
        lines.append(f'{_PREFIX}{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{_PREFIX}{self.name}_sum {self.total:.6f}")
        lines.append(f"{_PREFIX}{self.name}_count {self.observations}")
        return lines


class ServiceMetrics:
    """Thread-safe counters, gauges and the solve-latency histogram.

    Args:
        solve_buckets: upper bounds (seconds) of the batch-solve latency
            histogram; ``None`` keeps :data:`SOLVE_BUCKETS`.

    >>> metrics = ServiceMetrics()
    >>> metrics.inc("solves_total")
    >>> metrics.observe_solve(0.003)
    >>> metrics.counters()["solves_total"]
    1
    >>> 'repro_solves_total 1' in metrics.render()
    True
    >>> metrics.inc_escalation("cost_jump")
    >>> 'repro_escalations_total{reason="cost_jump"} 1' in metrics.render()
    True
    """

    def __init__(self, solve_buckets: Optional[Sequence[float]] = None) -> None:
        buckets = tuple(solve_buckets) if solve_buckets else SOLVE_BUCKETS
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._gauges: Dict[str, float] = {name: 0.0 for name in _GAUGES}
        self._escalations: Dict[str, int] = {
            reason: 0 for reason in _ESCALATIONS
        }
        self._solve = _Histogram("solve_seconds", buckets)
        self._build_info: Dict[str, str] = {}

    # ------------------------------------------------------------- recording

    def inc(self, name: str, amount: int = 1) -> None:
        """Add to a counter (created on first use if unregistered)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def inc_escalation(self, reason: str) -> None:
        """Count one escalation/cold-solve trigger by reason label."""
        with self._lock:
            self._escalations[reason] = self._escalations.get(reason, 0) + 1

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to an absolute value."""
        with self._lock:
            self._gauges[name] = float(value)

    def set_build_info(self, **labels: object) -> None:
        """Set the ``repro_build_info`` labels (version, solver, mode...).

        Rendered as the conventional constant-1 info gauge so dashboards
        can join deployment metadata onto every other series.
        """
        with self._lock:
            self._build_info = {
                name: str(value) for name, value in sorted(labels.items())
            }

    def observe_solve(self, seconds: float) -> None:
        """Record one batch-solve latency into the histogram."""
        with self._lock:
            self._solve.observe(seconds)

    # --------------------------------------------------------------- reading

    def counters(self) -> Dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counters)

    def escalations(self) -> Dict[str, int]:
        """A point-in-time copy of the per-reason escalation counters."""
        with self._lock:
            return dict(self._escalations)

    def render(self) -> str:
        """The Prometheus text-format exposition (the ``/metrics`` body).

        Counters and gauges render as ``repro_<name> <value>``; escalation
        counters as ``repro_escalations_total{reason="..."}``; the latency
        histogram renders cumulatively with ``le`` labels plus the
        ``_sum``/``_count`` pair; ``repro_build_info`` is the constant-1
        labeled info gauge.
        """
        with self._lock:
            lines = []
            for name in sorted(self._counters):
                lines.append(f"# TYPE {_PREFIX}{name} counter")
                lines.append(f"{_PREFIX}{name} {self._counters[name]}")
            lines.append(f"# TYPE {_PREFIX}escalations_total counter")
            for reason in sorted(self._escalations):
                lines.append(
                    f'{_PREFIX}escalations_total{{reason="{reason}"}} '
                    f"{self._escalations[reason]}"
                )
            for name in sorted(self._gauges):
                value = self._gauges[name]
                rendered = int(value) if float(value).is_integer() else value
                lines.append(f"# TYPE {_PREFIX}{name} gauge")
                lines.append(f"{_PREFIX}{name} {rendered}")
            if self._build_info:
                labels = ",".join(
                    f'{name}="{value}"'
                    for name, value in self._build_info.items()
                )
                lines.append(f"# TYPE {_PREFIX}build_info gauge")
                lines.append(f"{_PREFIX}build_info{{{labels}}} 1")
            lines.extend(self._solve.render())
            return "\n".join(lines) + "\n"
