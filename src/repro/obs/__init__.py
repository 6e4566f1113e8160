"""Observability for the adaptive pipeline: metrics, tracing, timelines.

AdOC's contribution is a *feedback loop* — the Figure-2 controller
reacting to FIFO queue depth — and this package makes that loop (and
everything around it: guard trips, retries, degrades, injected faults)
observable end to end:

* :mod:`repro.obs.metrics` — a lock-safe Counter/Gauge/Histogram
  registry with Prometheus text exposition and JSON export;
* :mod:`repro.obs.tracer` — a bounded ring buffer of typed events with
  JSONL and Chrome ``trace_event`` exporters (``chrome://tracing`` /
  Perfetto render a transfer as per-thread spans);
* :mod:`repro.obs.timeline` — the paper's Fig.-2 adaptation trace
  extracted from any traced transfer;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` handle threading
  all of it through the stack, zero-cost when disabled, enabled
  process-wide with ``REPRO_TRACE=1``;
* :mod:`repro.obs.fleet` — push-mode exposition and cross-process
  aggregation: a :class:`~repro.obs.fleet.MetricsPusher` per process, a
  reactor-hosted :func:`~repro.obs.fleet.serve_fleet` aggregator, and
  the merged view behind ``adoc top --fleet`` (imported lazily; pull it
  in as ``from repro.obs import fleet``).

See ``docs/OBSERVABILITY.md`` for the event schema, metric names and
exporter formats; ``adoc stats`` and ``adoc top`` surface this at the
command line.
"""

from .._lazy import lazy_exports
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    active_telemetry,
    resolve_telemetry,
    set_active_telemetry,
    telemetry_enabled_by_env,
)
from .metrics import expose_snapshot, merge_snapshots
from .tracer import (
    EventTracer,
    TraceEvent,
    merge_chrome_traces,
    new_span_id,
    new_trace_id,
)

# Offline analysis of a finished trace (``adoc stats``/``top``).
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "TimelinePoint": "timeline",
        "extract_timeline": "timeline",
        "render_timeline": "timeline",
    },
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventTracer",
    "TraceEvent",
    "Telemetry",
    "NULL_TELEMETRY",
    "active_telemetry",
    "set_active_telemetry",
    "resolve_telemetry",
    "telemetry_enabled_by_env",
    "TimelinePoint",
    "extract_timeline",
    "render_timeline",
    "expose_snapshot",
    "merge_snapshots",
    "merge_chrome_traces",
    "new_trace_id",
    "new_span_id",
]
