"""``repro.obs`` — span tracing, metrics and benchmark regression.

The observability layer of the reproduction:

* :mod:`repro.obs.tracer` — a zero-cost-when-disabled span tracer with
  per-work-group tracks, the one process clock every stamp reads
  (``now_us``), and the ``REPRO_TRACE`` mode resolution;
* :mod:`repro.obs.metrics` — a typed metrics registry (counters,
  gauges, histograms) attached to every tracer;
* :mod:`repro.obs.export` — Chrome-trace JSON (``chrome://tracing`` /
  Perfetto) and flat JSONL exporters;
* :mod:`repro.obs.flight` — the always-on flight recorder with
  dump-on-trigger incident bundles; its event feed, optionally mirrored
  to a JSONL file, is the one event stream that threads ``request_id``
  correlation across layers;
* :mod:`repro.obs.analyze` — the trace analyzer behind
  ``python -m repro analyze`` (critical-path decomposition, spin
  attribution, serve request lifecycles);
* :mod:`repro.obs.runner` — traced execution of the paper experiments
  behind ``python -m repro trace`` (imported lazily: it pulls in the
  primitive layer);
* :mod:`repro.obs.benchrun` / :mod:`repro.obs.regress` — the
  backend-comparison engine shared with ``benchmarks/`` and the
  ``make bench-check`` regression gate (imported lazily too).

Only the tracer, metrics and export surfaces are imported eagerly, so
the simulator can depend on ``repro.obs`` without cycles.
"""

from repro.obs.distrib import TraceContext, merge_fleet_trace, span_to_dict
from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.tracer import (
    HOST_TRACK,
    NULL_SPAN,
    TRACE_ENV_VAR,
    TRACE_MODES,
    Span,
    Tracer,
    active,
    add_span_sink,
    annotate,
    current_annotations,
    disable,
    enable,
    install,
    instant,
    new_span_id,
    new_trace_id,
    remove_span_sink,
    resolve_trace_mode,
    span,
    tracing,
    wg_track,
)

__all__ = [
    "TRACE_ENV_VAR", "TRACE_MODES", "resolve_trace_mode",
    "Span", "NULL_SPAN", "Tracer", "HOST_TRACK", "wg_track",
    "active", "enable", "disable", "install", "span", "instant", "tracing",
    "annotate", "current_annotations", "add_span_sink", "remove_span_sink",
    "new_span_id", "new_trace_id",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsError",
    "chrome_trace_events", "export_chrome_trace", "export_jsonl",
    "validate_chrome_trace",
    "FlightRecorder",
    "TraceContext", "merge_fleet_trace", "span_to_dict",
]
