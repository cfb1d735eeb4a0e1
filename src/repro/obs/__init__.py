"""``repro.obs`` — the unified tracing & metrics substrate.

One import surface for every instrumented layer::

    from repro import obs

    o = obs.current()
    with o.span("compile.pass2", path=str(path)):
        ...
    if o.enabled:
        o.counter("repro_compile_runs_total").inc()

See ``docs/OBSERVABILITY.md`` for the span model, metric naming
convention and file formats.
"""

from repro.obs.audit import AuditLog
from repro.obs.clock import LogicalClock, WallClock
from repro.obs.context import IdAllocator, TraceContext
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observability import (
    NullObservability,
    Observability,
    configure_logging,
    current,
    logical_observability,
    scope,
    set_current,
)
from repro.obs.slo import DEFAULT_OBJECTIVES, SloObjective, SloTracker
from repro.obs.tracer import (
    DEFAULT_TRACE_SEED,
    MAX_SPANS,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "AuditLog",
    "DEFAULT_BUCKETS",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_TRACE_SEED",
    "IdAllocator",
    "MAX_SPANS",
    "Counter",
    "Gauge",
    "Histogram",
    "LogicalClock",
    "MetricsRegistry",
    "NullObservability",
    "Observability",
    "SloObjective",
    "SloTracker",
    "Span",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "WallClock",
    "configure_logging",
    "current",
    "logical_observability",
    "scope",
    "set_current",
]
