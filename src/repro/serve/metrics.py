"""Server metrics: the request instruments of one server and their JSON view.

:class:`ServerMetrics` records each request once, into a
:class:`~repro.obs.metrics.MetricsRegistry` that the server owns — one per
server, because one process (a test, a benchmark) may run several and each
must count only its own traffic:

* ``repro_requests_total{endpoint,status}`` — requests by endpoint and
  HTTP status; admission rejections are its ``503`` samples and request
  timeouts its ``504`` samples;
* ``repro_request_latency_seconds{endpoint}`` — fixed-bucket latency
  histograms with a most-recent trace exemplar per bucket;
* ``repro_requests_in_flight`` and ``repro_uptime_seconds``.

:meth:`ServerMetrics.snapshot` reads those instruments into the JSON of
``GET /metrics``; ``?format=prometheus`` renders the same registry, so the
two views cannot disagree.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Request-latency bucket bounds in seconds (the last bucket is +Inf).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class ServerMetrics:
    """The request instruments of one server and the ``/metrics`` snapshot."""

    def __init__(self) -> None:
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()
        self.registry = MetricsRegistry()
        self._uptime = self.registry.gauge(
            "repro_uptime_seconds", "Seconds since server start."
        )
        self._in_flight = self.registry.gauge(
            "repro_requests_in_flight", "Requests currently executing."
        )
        self._requests = self.registry.counter(
            "repro_requests_total", "Requests served, by endpoint and HTTP status."
        )
        self._latency = self.registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency by endpoint.",
            buckets=LATENCY_BUCKETS,
        )

    # -- recording ---------------------------------------------------------------------

    def request_started(self) -> None:
        self._in_flight.inc()

    def request_finished(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        trace_id: Optional[str] = None,
    ) -> None:
        self._in_flight.inc(-1)
        self._requests.inc(endpoint=endpoint, status=status)
        self._latency.observe(seconds, trace_id=trace_id, endpoint=endpoint)

    # -- reporting ---------------------------------------------------------------------

    def uptime_seconds(self) -> float:
        """Seconds since start, also stored in the uptime gauge."""
        uptime = time.monotonic() - self._started_monotonic
        self._uptime.set(uptime)
        return uptime

    def snapshot(self) -> Dict[str, object]:
        requests: Dict[str, Dict[str, int]] = {}
        for _, labels, count in self._requests.samples():
            label = dict(labels)
            requests.setdefault(label["endpoint"], {})[label["status"]] = int(count)
        return {
            "started_at": self._started_at,
            "uptime_seconds": self.uptime_seconds(),
            "in_flight": int(self._in_flight.value()),
            "rejected_total": sum(by.get("503", 0) for by in requests.values()),
            "timeout_total": sum(by.get("504", 0) for by in requests.values()),
            "requests_total": requests,
            "latency": {
                endpoint: self._latency.snapshot(endpoint=endpoint)
                for endpoint in requests
            },
        }
