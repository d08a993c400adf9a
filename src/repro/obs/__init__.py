"""Observability layer: tracing spans, counters, structured logging.

``repro.obs`` is the unified instrumentation surface for every layer of
the stack — compile, solve kernels, streaming engine and the
service.  The core contract is zero overhead while disabled;
see :mod:`repro.obs.core` for the span/trace API,
:mod:`repro.obs.report` for summaries, and :mod:`repro.obs.logging`
for the shared structured-logging setup.
"""

from repro.obs.core import (
    PhaseTimer,
    Span,
    Trace,
    activate,
    add_counter,
    begin_capture,
    current_trace,
    deactivate,
    enabled,
    end_capture,
    instant,
    phase_timer,
    span,
)
from repro.obs.report import format_summary, layer_seconds, span_table

__all__ = [
    "PhaseTimer",
    "Span",
    "Trace",
    "activate",
    "add_counter",
    "begin_capture",
    "current_trace",
    "deactivate",
    "enabled",
    "end_capture",
    "instant",
    "phase_timer",
    "span",
    "format_summary",
    "layer_seconds",
    "span_table",
]
