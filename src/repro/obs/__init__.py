"""Observability: request tracing, structured logging, Prometheus metrics.

This package is the stack's cross-cutting layer.  It imports nothing from
``repro.serve`` / ``repro.engine`` / ``repro.store``, so every layer can
depend on it without cycles:

* :mod:`repro.obs.trace` — ``contextvars``-based span trees opened at HTTP
  ingress and threaded through engine, shards, worker processes, and store.
* :mod:`repro.obs.buffer` — bounded retention of recent traces for
  ``GET /traces/{id}`` and explain mode.
* :mod:`repro.obs.log` — one-line structured-JSON logging that stamps the
  active trace id.
* :mod:`repro.obs.metrics` — the one metrics model: counters, gauges and
  labelled histograms with exemplars, in registries.  The process-global
  ``REGISTRY`` holds signals below the HTTP layer (fsync latency, shard
  fallbacks, ...); each server owns one more for its request metrics, and
  both its JSON ``/metrics`` and its Prometheus page read them.
* :mod:`repro.obs.prometheus` — hand-rolled text exposition of registries.
* :mod:`repro.obs.caches` — the one LRU ledger (``PlanCache``) and the
  common report schema behind ``GET /debug/caches`` and, built per scrape,
  the ``repro_cache_*`` Prometheus families.
* :mod:`repro.obs.sample` — head 1-in-N sampling with a tail-based keep
  rule (slow/error traces are always retained).
* :mod:`repro.obs.export` — OTLP/JSON span export with a bounded queue and
  a background flush thread (NDJSON file or HTTP POST sinks).
* :mod:`repro.obs.cost` — per-span domain-counter rollup and engine CPU
  into a bounded per-(instance, plan) cost table behind ``GET /debug/top``.
* :mod:`repro.obs.runtime` — event-loop lag probe gauge.
"""

from repro.obs.admission import (
    AdmissionDecision,
    CostPredictor,
    record_decision,
    retry_after_s,
)
from repro.obs.buffer import TraceBuffer
from repro.obs.caches import (
    CACHE_REGISTRY,
    CacheStatsRegistry,
    approx_sizeof,
    cache_report,
    label_instance,
    register_cache,
)
from repro.obs.control import AdaptiveSamplingController
from repro.obs.cost import CostTable, add_cost, rollup
from repro.obs.export import SpanExporter, encode_traces
from repro.obs.log import StructuredLogger, get_logger, set_log_level
from repro.obs.runtime import EventLoopLagProbe
from repro.obs.sample import DroppedTraceLog, TraceSampler
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.prometheus import render as render_prometheus
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    current_span,
    current_trace_id,
    new_trace_id,
    propagation_context,
    remote_root,
    reparent,
    set_tracing,
    span,
    start_trace,
    tracing_enabled,
)

__all__ = [
    "TRACE_HEADER",
    "CACHE_REGISTRY",
    "REGISTRY",
    "AdaptiveSamplingController",
    "AdmissionDecision",
    "CacheStatsRegistry",
    "CostPredictor",
    "CostTable",
    "Counter",
    "DroppedTraceLog",
    "EventLoopLagProbe",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanExporter",
    "StructuredLogger",
    "TraceBuffer",
    "TraceSampler",
    "add_cost",
    "approx_sizeof",
    "cache_report",
    "label_instance",
    "record_decision",
    "register_cache",
    "retry_after_s",
    "current_span",
    "current_trace_id",
    "encode_traces",
    "get_logger",
    "new_trace_id",
    "propagation_context",
    "remote_root",
    "render_prometheus",
    "reparent",
    "rollup",
    "set_log_level",
    "set_tracing",
    "span",
    "start_trace",
    "tracing_enabled",
]
