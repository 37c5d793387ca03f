"""OTLP/JSON span export: bounded queue, background flush, two sinks.

Retained traces (see :mod:`repro.obs.sample`) are worth shipping somewhere
durable; this module turns finished trace trees into OTLP-shaped JSON
(``ExportTraceServiceRequest``: ``resourceSpans`` → ``scopeSpans`` →
``spans``) and delivers them off the request path:

* :meth:`SpanExporter.submit` is non-blocking — a full queue *drops* the
  trace and counts the drop rather than stalling a request;
* a daemon flush thread drains the queue in batches and delivers with
  retry-and-backoff; delivery failures after the retry budget are counted
  and the batch is discarded (telemetry must never wedge the server);
* the target selects the sink: an ``http://``/``https://`` URL POSTs each
  batch as one JSON request body, anything else appends one JSON object
  per batch to an NDJSON file.

The span encoding keeps the OTLP field shapes (hex ids, nanosecond
timestamps as strings, typed ``attributes``) so the output loads into any
OTLP-tolerant backend or ad-hoc tooling without a translation step.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.obs.metrics import REGISTRY

_EXPORT_HELP = "Traces offered to the OTLP exporter, by result."
_RETRY_HELP = "OTLP delivery attempts that failed and were retried."

#: OTLP enum values (trace.proto): SPAN_KIND_INTERNAL, STATUS_CODE_ERROR.
_SPAN_KIND_INTERNAL = 1
_STATUS_OK = 1
_STATUS_ERROR = 2


def _attribute_value(value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attributes(span_dict: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = []
    for key, value in (span_dict.get("tags") or {}).items():
        out.append({"key": str(key), "value": _attribute_value(value)})
    for key, value in (span_dict.get("metrics") or {}).items():
        out.append({"key": f"repro.{key}", "value": _attribute_value(value)})
    cpu_ms = span_dict.get("cpu_ms")
    if cpu_ms is not None:
        out.append({"key": "repro.cpu_ms", "value": _attribute_value(cpu_ms)})
    return out


def _otlp_span(span_dict: Dict[str, Any]) -> Dict[str, Any]:
    started = float(span_dict.get("started_at") or 0.0)
    duration_ms = span_dict.get("duration_ms") or 0.0
    start_nanos = int(started * 1e9)
    end_nanos = int((started + duration_ms / 1000.0) * 1e9)
    status = (span_dict.get("tags") or {}).get("status")
    code = _STATUS_OK
    if isinstance(status, int) and status >= 500:
        code = _STATUS_ERROR
    return {
        "traceId": span_dict.get("trace_id", ""),
        "spanId": span_dict.get("span_id", ""),
        "parentSpanId": span_dict.get("parent_id") or "",
        "name": span_dict.get("name", ""),
        "kind": _SPAN_KIND_INTERNAL,
        "startTimeUnixNano": str(start_nanos),
        "endTimeUnixNano": str(end_nanos),
        "attributes": _attributes(span_dict),
        "status": {"code": code},
    }


def _flatten(span_dict: Dict[str, Any], out: List[Dict[str, Any]]) -> None:
    out.append(_otlp_span(span_dict))
    for child in span_dict.get("children", ()):
        _flatten(child, out)


def encode_traces(
    traces: List[Dict[str, Any]], service_name: str = "repro-serve"
) -> Dict[str, Any]:
    """Encode finished trace trees as one OTLP ``ExportTraceServiceRequest``."""
    spans: List[Dict[str, Any]] = []
    for trace in traces:
        _flatten(trace, spans)
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service_name},
                        }
                    ]
                },
                "scopeSpans": [
                    {"scope": {"name": "repro.obs"}, "spans": spans}
                ],
            }
        ]
    }


class SpanExporter:
    """Ships finished trace trees to an NDJSON file or an HTTP endpoint."""

    def __init__(
        self,
        target: str,
        *,
        queue_size: int = 2048,
        batch_size: int = 64,
        flush_interval_s: float = 0.5,
        retries: int = 3,
        backoff_s: float = 0.2,
        service_name: str = "repro-serve",
    ) -> None:
        if not target:
            raise ValueError("SpanExporter requires a file path or URL target")
        self.target = target
        self._is_http = target.startswith(("http://", "https://"))
        self._queue: "queue.Queue[Dict[str, Any]]" = queue.Queue(maxsize=queue_size)
        self._batch_size = max(1, batch_size)
        self._flush_interval_s = max(0.01, flush_interval_s)
        self._retries = max(0, retries)
        self._backoff_s = max(0.0, backoff_s)
        self._service_name = service_name
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._pending = 0  # submitted but not yet delivered/dropped
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "SpanExporter":
        if self._thread is None or not self._thread.is_alive():
            self._stopping.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-otlp-export", daemon=True
            )
            self._thread.start()
        return self

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def close(self, timeout_s: float = 5.0) -> None:
        """Flush what is queued and stop the flush thread."""
        self._stopping.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout_s)
        self._thread = None

    # -- submission --------------------------------------------------------------------

    def submit(self, trace: Dict[str, Any]) -> bool:
        """Queue one finished trace tree; never blocks the request path."""
        if self._stopping.is_set():
            return False
        try:
            self._queue.put_nowait(trace)
        except queue.Full:
            REGISTRY.counter("repro_otlp_export_total", _EXPORT_HELP).inc(
                result="dropped_queue_full"
            )
            return False
        with self._lock:
            self._pending += 1
        return True

    def flush(self, timeout_s: float = 5.0) -> bool:
        """Wait until every submitted trace was delivered or dropped."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._pending == 0:
                    return True
            time.sleep(0.01)
        with self._lock:
            return self._pending == 0

    def stats(self) -> Dict[str, object]:
        counter = REGISTRY.counter("repro_otlp_export_total", _EXPORT_HELP)
        with self._lock:
            pending = self._pending
        return {
            "target": self.target,
            "sink": "http" if self._is_http else "file",
            "running": self.is_running,
            "pending": pending,
            "exported": counter.value(result="exported"),
            "dropped_queue_full": counter.value(result="dropped_queue_full"),
            "dropped_delivery": counter.value(result="dropped_delivery"),
            "retries": REGISTRY.counter(
                "repro_otlp_export_retries_total", _RETRY_HELP
            ).value(),
        }

    # -- flush thread ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._drain_batch()
            if batch:
                self._export_batch(batch)
            elif self._stopping.is_set():
                return

    def _drain_batch(self) -> List[Dict[str, Any]]:
        try:
            first = self._queue.get(timeout=self._flush_interval_s)
        except queue.Empty:
            return []
        batch = [first]
        while len(batch) < self._batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _export_batch(self, batch: List[Dict[str, Any]]) -> None:
        counter = REGISTRY.counter("repro_otlp_export_total", _EXPORT_HELP)
        payload = json.dumps(
            encode_traces(batch, self._service_name), separators=(",", ":")
        )
        try:
            self._deliver_with_retry(payload)
        except Exception:  # noqa: BLE001 — telemetry must never propagate
            counter.inc(len(batch), result="dropped_delivery")
        else:
            counter.inc(len(batch), result="exported")
        finally:
            with self._lock:
                self._pending = max(0, self._pending - len(batch))

    def _deliver_with_retry(self, payload: str) -> None:
        for attempt in range(self._retries + 1):
            try:
                self._deliver(payload)
                return
            except Exception:  # noqa: BLE001 — retried below
                if attempt == self._retries:
                    raise
                REGISTRY.counter(
                    "repro_otlp_export_retries_total", _RETRY_HELP
                ).inc()
                time.sleep(self._backoff_s * (2**attempt))

    def _deliver(self, payload: str) -> None:
        """Deliver one encoded batch (overridable for tests)."""
        if self._is_http:
            request = urllib.request.Request(
                self.target,
                data=payload.encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=5.0):
                pass
        else:
            with open(self.target, "a", encoding="utf-8") as handle:
                handle.write(payload + "\n")
