"""Zero-overhead-when-disabled tracing core.

The library's hot paths — the direct compiler, the TRW-S sweep kernels,
the streaming engine, the service writer — call into
this module unconditionally.  The contract that keeps them as fast as the
zero-allocation kernel work left them:

* **Disabled (the default)** there is no active :class:`Trace`.
  :func:`span` returns one shared no-op singleton (no object allocated,
  nothing recorded), :func:`instant` and :func:`add_counter` return after a
  single ``None`` check, and :func:`enabled` is a plain attribute read the
  kernels hoist out of their iteration loops.  The disabled-mode cost is a
  handful of branches per *solve*, not per iteration — provable with
  ``benchmarks/bench_trace_overhead.py`` and asserted by
  ``tests/test_obs.py``.
* **Enabled** (:func:`activate` installed a :class:`Trace`) spans record
  wall-clock start timestamps (microseconds since the epoch — comparable
  across processes) with monotonic-clock durations, tagged with the
  recording pid/tid so nested and concurrent spans reconstruct into one
  timeline.

Traces export as JSON-Lines (:meth:`Trace.jsonl`) and as the Chrome
trace-event format (:meth:`Trace.chrome`) that Perfetto and
``chrome://tracing`` load directly.  Cross-process capture —
:func:`begin_capture` / :func:`end_capture` in the worker,
:meth:`Trace.extend` in the parent — is how solves dispatched through
:mod:`repro.runner` process pools merge into the parent's timeline (the
runner does this automatically whenever tracing is on).

>>> trace = Trace()
>>> token = activate(trace)
>>> with span("demo.outer", cat="demo", items=2):
...     with span("demo.inner", cat="demo"):
...         pass
>>> deactivate() is trace
True
>>> [event["name"] for event in trace.events]
['demo.inner', 'demo.outer']
>>> trace.events[0]["cat"]
'demo'
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Trace",
    "Span",
    "PhaseTimer",
    "enabled",
    "current_trace",
    "activate",
    "deactivate",
    "span",
    "instant",
    "add_counter",
    "phase_timer",
    "begin_capture",
    "end_capture",
]

#: the active trace; ``None`` means tracing is disabled (the default).
_TRACE: Optional["Trace"] = None


class _NoopSpan:
    """The span returned while tracing is disabled: one shared, stateless
    singleton whose enter/exit do nothing — the disabled path allocates no
    span object at all (asserted by ``tests/test_obs.py``)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        """No-op; returns itself."""
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        """No-op; never swallows exceptions."""
        return False

    def add(self, **args: Any) -> None:
        """Discard attachment attempts (mirrors :meth:`Span.add`)."""


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live span: a context manager recording a Chrome complete event.

    Created by :func:`span` only while tracing is enabled.  The start
    timestamp is wall-clock (cross-process comparable); the duration is
    measured on the monotonic clock.  :meth:`add` attaches result
    attributes discovered mid-span (energies, iteration counts).
    """

    __slots__ = ("_trace", "name", "cat", "args", "_wall_ns", "_perf_ns")

    def __init__(
        self, trace: "Trace", name: str, cat: str, args: Dict[str, Any]
    ) -> None:
        self._trace = trace
        self.name = name
        self.cat = cat
        self.args = args
        self._wall_ns = 0
        self._perf_ns = 0

    def add(self, **args: Any) -> None:
        """Attach extra ``args`` to the event this span will record."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._wall_ns = time.time_ns()
        self._perf_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        duration_ns = time.perf_counter_ns() - self._perf_ns
        if exc_type is not None:
            self.args["error"] = getattr(exc_type, "__name__", str(exc_type))
        self._trace.record(
            name=self.name,
            cat=self.cat,
            ts=self._wall_ns / 1000.0,
            dur=duration_ns / 1000.0,
            args=self.args,
        )
        return False


class Trace:
    """An in-memory span/counter recorder with JSONL + Chrome export.

    Args:
        limit: keep only the most recent ``limit`` events (a ring buffer —
            the service's ``/debug/trace`` tail).  ``None`` keeps
            everything (the CLI and benchmark mode).

    Thread-safe: spans may arrive from several threads at once (e.g. the
    service's writer thread next to a traced client).
    Events are plain dicts in the Chrome trace-event shape (``name``,
    ``cat``, ``ph``, ``ts``/``dur`` in microseconds, ``pid``/``tid``,
    ``args``), so export is serialisation, not transformation.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1 or None")
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=limit)
        self._counters: Dict[str, float] = {}
        self.limit = limit

    # ------------------------------------------------------------ recording

    def record(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        args: Optional[Dict[str, Any]] = None,
        ph: str = "X",
        pid: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> None:
        """Append one trace event (timestamps in microseconds)."""
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": ts,
            "pid": os.getpid() if pid is None else pid,
            "tid": threading.get_native_id() if tid is None else tid,
        }
        if ph == "X":
            event["dur"] = dur
        if ph == "i":
            event["s"] = "t"
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def add_counter(self, name: str, value: float = 1.0) -> None:
        """Accumulate a named counter (totals surface in the summary)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def extend(self, events: Iterable[Dict[str, Any]]) -> None:
        """Merge foreign events (e.g. drained from a worker process).

        Events keep their own ``pid``/``tid``, so a merged timeline shows
        worker spans under their recording process.
        """
        with self._lock:
            self._events.extend(events)

    # -------------------------------------------------------------- reading

    @property
    def events(self) -> List[Dict[str, Any]]:
        """A point-in-time copy of the recorded events."""
        with self._lock:
            return list(self._events)

    @property
    def counters(self) -> Dict[str, float]:
        """A point-in-time copy of the accumulated counters."""
        with self._lock:
            return dict(self._counters)

    def span_names(self) -> List[str]:
        """The distinct complete-span names recorded, sorted."""
        return sorted(
            {e["name"] for e in self.events if e.get("ph") == "X"}
        )

    # -------------------------------------------------------------- export

    def jsonl(self) -> str:
        """The events as JSON-Lines (one event object per line)."""
        return "\n".join(json.dumps(event) for event in self.events) + "\n"

    def chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event payload (Perfetto-loadable).

        ``traceEvents`` carries the spans; the accumulated counters ride
        along under ``otherData`` (ignored by viewers, kept for tooling).
        """
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"counters": self.counters},
        }

    def write_chrome(self, path: str) -> None:
        """Write the Chrome trace-event JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome(), handle)
            handle.write("\n")

    def write_jsonl(self, path: str) -> None:
        """Write the JSON-Lines export to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.jsonl())


class _NoopPhaseTimer:
    """The phase timer returned while tracing is disabled (shared, inert)."""

    __slots__ = ()

    def lap(self, name: str, **args: Any) -> None:
        """No-op (mirrors :meth:`PhaseTimer.lap`)."""


_NOOP_TIMER = _NoopPhaseTimer()


class PhaseTimer:
    """Records back-to-back phases of a sequential pipeline as spans.

    Created by :func:`phase_timer`.  Each :meth:`lap` call closes the
    segment that started at construction (or at the previous lap) as one
    complete event and immediately starts the next segment — the idiom
    for straight-line code like the compiler, where phases don't nest.
    """

    __slots__ = ("_trace", "_cat", "_wall_ns", "_perf_ns")

    def __init__(self, trace: "Trace", cat: str) -> None:
        self._trace = trace
        self._cat = cat
        self._wall_ns = time.time_ns()
        self._perf_ns = time.perf_counter_ns()

    def lap(self, name: str, **args: Any) -> None:
        """Record the segment since the last lap as span ``name``."""
        wall_ns = time.time_ns()
        perf_ns = time.perf_counter_ns()
        self._trace.record(
            name=name,
            cat=self._cat,
            ts=self._wall_ns / 1000.0,
            dur=(perf_ns - self._perf_ns) / 1000.0,
            args=args or None,
        )
        self._wall_ns = wall_ns
        self._perf_ns = perf_ns


# ---------------------------------------------------------------- module API


def enabled() -> bool:
    """True while a trace is active.  Hot loops hoist this check once per
    solve (``collect = obs.enabled()``) so the disabled path costs one
    branch per solve, not per iteration."""
    return _TRACE is not None


def current_trace() -> Optional[Trace]:
    """The active :class:`Trace`, or ``None`` while tracing is disabled."""
    return _TRACE


def activate(trace: Trace) -> Trace:
    """Install ``trace`` as the process-wide active trace; returns it."""
    global _TRACE
    _TRACE = trace
    return trace


def deactivate() -> Optional[Trace]:
    """Disable tracing; returns the trace that was active (if any)."""
    global _TRACE
    trace, _TRACE = _TRACE, None
    return trace


def span(name: str, cat: str = "app", **args: Any) -> Any:
    """A context manager timing one named span.

    Disabled: returns the shared no-op singleton — no allocation, nothing
    recorded.  Enabled: returns a live :class:`Span` recording a complete
    event on exit.  ``cat`` is the layer tag the per-layer breakdown
    groups by (``compile`` / ``solve`` / ``stream`` / ``service`` /
    ...); ``args`` become the event's attributes.
    """
    trace = _TRACE
    if trace is None:
        return _NOOP_SPAN
    return Span(trace, name, cat, args)


def instant(name: str, cat: str = "app", **args: Any) -> None:
    """Record one instant event (a point-in-time marker), if enabled."""
    trace = _TRACE
    if trace is None:
        return
    trace.record(
        name=name, cat=cat, ts=time.time_ns() / 1000.0, dur=0.0,
        args=args, ph="i",
    )


def add_counter(name: str, value: float = 1.0) -> None:
    """Accumulate a named counter on the active trace, if enabled."""
    trace = _TRACE
    if trace is None:
        return
    trace.add_counter(name, value)


def phase_timer(cat: str = "app") -> Any:
    """A :class:`PhaseTimer` for sequential-phase recording, or the shared
    no-op timer while tracing is disabled."""
    trace = _TRACE
    if trace is None:
        return _NOOP_TIMER
    return PhaseTimer(trace, cat)


# ---------------------------------------------------- cross-process capture


def begin_capture() -> tuple:
    """Worker-side: swap in a fresh capture trace; returns the token for
    :func:`end_capture`.

    A fork-inherited parent trace is a child-memory *copy* whose events
    could never reach the parent, so the capture always replaces whatever
    is active; :func:`end_capture` restores it afterwards (harmless either
    way).
    """
    global _TRACE
    previous = _TRACE
    capture = Trace()
    _TRACE = capture
    return capture, previous


def end_capture(token: tuple) -> List[Dict[str, Any]]:
    """Worker-side: stop the capture and return its events for the parent.

    The returned list is picklable (plain dicts) — the runner ships it
    back with the job result and the parent merges it via
    :meth:`Trace.extend`.
    """
    global _TRACE
    capture, previous = token
    _TRACE = previous
    return capture.events
