"""Counters, gauges and histograms: the one place the service counts itself.

Every number the service reports is recorded once, into an instrument of a
:class:`MetricsRegistry`, and every view reads it from there:

* the process-global :data:`REGISTRY` holds what lives below the HTTP
  layer — worker queue depth, store fsync latency, shard fallback reasons,
  admission decisions — so any layer can record without a cycle
  (``repro.obs`` imports nothing from ``serve``/``engine``/``store``);
* each server owns one more registry for its request counters and latency
  histograms (:class:`~repro.serve.metrics.ServerMetrics`), per server
  because one process may run several;
* the ``repro_cache_*`` families are built per scrape from the caches' own
  ledgers (:meth:`~repro.obs.caches.CacheStatsRegistry.metrics`).

The JSON ``GET /metrics`` reads these instruments and the Prometheus page
(:mod:`repro.obs.prometheus`) renders them, so the two views cannot
disagree.  Instruments take labels as keyword arguments, stored as a sorted
``(key, value)`` tuple; each instrument has one lock.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bounds in seconds (the final bucket is +Inf).  Tight at
#: the low end: fsyncs are sub-millisecond on a healthy disk and the
#: interesting signal is the tail above that.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
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
)

LabelSet = Tuple[Tuple[str, str], ...]

#: A bucket's most recent exemplar: ``(trace_id, value, unix time)``.
Exemplar = Tuple[str, float, float]


def _labels_key(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """One value per label set: the shared body of counters and gauges."""

    kind = ""

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _labels_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_labels_key(labels), 0.0)

    def samples(self) -> List[Tuple[str, LabelSet, float]]:
        with self._lock:
            return [
                (self.name, key, value) for key, value in sorted(self._values.items())
            ]

    def exemplars(self) -> Dict[Tuple[str, LabelSet], Exemplar]:
        return {}


class Counter(_Instrument):
    """Monotonic counter, optionally broken down by labels."""

    kind = "counter"


class Gauge(_Instrument):
    """Point-in-time value, optionally broken down by labels."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[_labels_key(labels)] = float(value)


class _Series:
    """The buckets of one label set of a :class:`Histogram`."""

    __slots__ = ("counts", "sum", "count", "overflow_sum", "exemplars")

    def __init__(self, bounds: int) -> None:
        self.counts = [0] * (bounds + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self.overflow_sum = 0.0
        self.exemplars: Dict[int, Exemplar] = {}

    def percentile(self, quantile: float, bounds: Tuple[float, ...]) -> Optional[float]:
        if self.count == 0:
            return None
        rank = quantile * self.count
        cumulative = 0
        for index, upper in enumerate(bounds):
            below = cumulative
            in_bucket = self.counts[index]
            cumulative += in_bucket
            if cumulative >= rank:
                if in_bucket == 0:
                    return upper
                lower = bounds[index - 1] if index > 0 else 0.0
                fraction = min(1.0, max(0.0, (rank - below) / in_bucket))
                return lower + (upper - lower) * fraction
        overflow = self.counts[-1]
        return self.overflow_sum / overflow if overflow else bounds[-1]


class Histogram:
    """Fixed-bucket histogram, optionally broken down by labels.

    Bounds must be strictly increasing; the final bucket is +Inf.  Negative
    observations clamp to 0.  Each label set keeps its bucket counts, sum,
    and the most recent exemplar per bucket (observations made with a
    ``trace_id``), which links a latency spike to ``GET /traces/{id}``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} bounds must be strictly increasing")
        self.name = name
        self.help = help_text
        self.bounds = bounds
        # Bucket labels, shared by the JSON keys and the ``le`` label.
        self._les = tuple(repr(bound) for bound in bounds) + ("+Inf",)
        self._lock = threading.Lock()
        self._series: Dict[LabelSet, _Series] = {}

    def observe(
        self, value: float, trace_id: Optional[str] = None, **labels: object
    ) -> None:
        value = max(0.0, float(value))
        index = bisect_left(self.bounds, value)
        key = _labels_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(len(self.bounds))
            series.counts[index] += 1
            series.sum += value
            series.count += 1
            if index == len(self.bounds):
                series.overflow_sum += value
            if trace_id:
                series.exemplars[index] = (trace_id, value, time.time())

    def percentile(self, quantile: float, **labels: object) -> Optional[float]:
        """Estimated value at ``quantile`` in [0, 1], or None when empty.

        Interpolates linearly *within* the bucket that holds the rank (the
        ``histogram_quantile`` estimator), so a p50 whose bucket spans
        1–2.5ms reports where in that range the rank falls rather than the
        2.5ms upper bound.  A rank in the +Inf bucket reports the mean of
        the overflow observations, which is never below the top bound.
        """
        with self._lock:
            series = self._series.get(_labels_key(labels))
            return None if series is None else series.percentile(quantile, self.bounds)

    def snapshot(self, **labels: object) -> Dict[str, object]:
        """One label set as JSON: count, sum, p50/p95/p99 in milliseconds,
        per-bucket counts keyed by bound, and per-bucket exemplars if any."""
        with self._lock:
            series = self._series.get(_labels_key(labels)) or _Series(len(self.bounds))
            out: Dict[str, object] = {
                "count": series.count,
                "sum_seconds": series.sum,
                "p50_ms": _to_ms(series.percentile(0.50, self.bounds)),
                "p95_ms": _to_ms(series.percentile(0.95, self.bounds)),
                "p99_ms": _to_ms(series.percentile(0.99, self.bounds)),
                "buckets": dict(zip(self._les, series.counts)),
            }
            if series.exemplars:
                out["exemplars"] = {
                    self._les[index]: {
                        "trace_id": trace_id,
                        "value_seconds": value,
                        "ts": ts,
                    }
                    for index, (trace_id, value, ts) in sorted(series.exemplars.items())
                }
        return out

    def samples(self) -> List[Tuple[str, LabelSet, float]]:
        """Cumulative ``_bucket{...,le=...}`` series plus ``_sum`` and
        ``_count`` per label set, ready for text exposition."""
        out: List[Tuple[str, LabelSet, float]] = []
        with self._lock:
            items = sorted(self._series.items(), key=lambda item: item[0])
            for labels, series in items or [((), _Series(len(self.bounds)))]:
                cumulative = 0
                for le, count in zip(self._les, series.counts):
                    cumulative += count
                    bucket = labels + (("le", le),)
                    out.append((f"{self.name}_bucket", bucket, float(cumulative)))
                out.append((f"{self.name}_sum", labels, series.sum))
                out.append((f"{self.name}_count", labels, float(series.count)))
        return out

    def exemplars(self) -> Dict[Tuple[str, LabelSet], Exemplar]:
        """Each bucket sample's most recent exemplar, keyed like ``samples()``."""
        with self._lock:
            return {
                (f"{self.name}_bucket", labels + (("le", self._les[index]),)): exemplar
                for labels, series in self._series.items()
                for index, exemplar in series.exemplars.items()
            }


def _to_ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1000.0, 3)


class MetricsRegistry:
    """Create-or-get registry of named instruments, in creation order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {type(existing).__name__}"
                    )
                return existing
            instrument = cls(name, help_text, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        kwargs = {"buckets": buckets} if buckets is not None else {}
        return self._get_or_create(Histogram, name, help_text, **kwargs)

    def instruments(self) -> Iterable[object]:
        with self._lock:
            return list(self._instruments.values())


#: The process-global registry every layer below the HTTP layer records into.
REGISTRY = MetricsRegistry()
