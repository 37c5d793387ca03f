"""Unified cache telemetry: one LRU ledger, one report schema, five caches.

The stack has five caches — the engine plan cache, the process-wide SQL
memo, the sharded summary cache, the worker-pool spool residency, and the
cost table.  This module gives them one ledger and one reporting surface:

* :class:`PlanCache` — the bounded, thread-safe LRU that four of them are
  built on (the spool's residency lives in worker processes and reports
  through :func:`cache_report` directly).  It counts hits, misses and
  evictions once, records entry ages at eviction, and optionally
  attributes each lookup and eviction to a label derived from the key.
* :class:`CacheStatsRegistry` — caches register a zero-argument *provider*
  under a stable name; :meth:`CacheStatsRegistry.snapshot` calls every
  provider (each inside its own ``cache.stats`` span, so scrapes are
  traceable per cache) and returns a list of reports in the common schema.
  ``GET /debug/caches`` serves the snapshot; :meth:`publish` mirrors it
  into the ``repro_cache_*`` Prometheus families.
* :func:`cache_report` — the schema constructor: size, capacity,
  hit/miss/eviction counters, hit rate, per-``instance`` attribution,
  an eviction-age histogram, and approximate resident bytes.
* :func:`approx_sizeof` — recursive ``sys.getsizeof`` over a *sample* of
  entries, extrapolated to the population; exact sizing of thousands of
  plan objects on every scrape would cost more than the caches save.

Per-instance attribution is keyed by whatever the cache naturally keys on
(a registry name, a lineage token).  Lineage tokens are opaque, so the
serving layer calls :func:`label_instance` when it registers an instance
and the registry translates tokens back to names at report time —
``repro.obs`` stays import-clean of ``engine``/``serve``.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry
from repro.obs.trace import span as obs_span

V = TypeVar("V")

#: Eviction-age bucket upper bounds, in seconds (strictly increasing; the
#: implicit final bucket is +Inf).  Spans sub-second churn through
#: "lived half an hour" — outside that range the age itself stops being
#: actionable.
DEFAULT_AGE_BOUNDS: Tuple[float, ...] = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0)

#: A provider returns a report dict (see :func:`cache_report`) or ``None``
#: to be skipped (cache gone, pool closed, weakref dead).
Provider = Callable[[], Optional[Dict[str, Any]]]


def _deep_sizeof(obj: Any, seen: set, depth: int) -> int:
    """Recursive ``sys.getsizeof`` with cycle protection and a depth bound."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    try:
        total = sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic C objects
        return 0
    if depth <= 0:
        return total
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += _deep_sizeof(key, seen, depth - 1)
            total += _deep_sizeof(value, seen, depth - 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += _deep_sizeof(item, seen, depth - 1)
    elif hasattr(obj, "__dict__"):
        total += _deep_sizeof(vars(obj), seen, depth - 1)
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            value = getattr(obj, slot, None)
            if value is not None:
                total += _deep_sizeof(value, seen, depth - 1)
    return total


def approx_sizeof(
    values: Iterable[Any],
    *,
    total: Optional[int] = None,
    sample: int = 16,
    max_depth: int = 6,
) -> Optional[int]:
    """Approximate resident bytes of a cache from a sample of its values.

    Measures up to ``sample`` values with a recursive ``sys.getsizeof``
    (shared objects counted once per call via a seen-set) and extrapolates
    the mean to ``total`` entries.  Returns ``None`` for an empty cache —
    "unknown" and "zero" are different answers.
    """
    sampled = list(itertools.islice(values, max(1, sample)))
    if not sampled:
        return None
    seen: set = set()
    measured = sum(_deep_sizeof(value, seen, max_depth) for value in sampled)
    population = len(sampled) if total is None else max(total, len(sampled))
    return int(measured * (population / len(sampled)))


def cache_report(
    name: str,
    *,
    size: int,
    capacity: Optional[int] = None,
    hits: int = 0,
    misses: int = 0,
    evictions: int = 0,
    by_instance: Optional[Dict[str, Dict[str, int]]] = None,
    eviction_ages: Optional[Dict[str, Any]] = None,
    approx_bytes: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one cache report in the common schema.

    ``by_instance`` maps an instance label to partial counters
    (``{"hits": ..., "misses": ..., "evictions": ...}``); caches that
    cannot attribute a counter simply omit it.
    """
    lookups = hits + misses
    report: Dict[str, Any] = {
        "name": name,
        "size": int(size),
        "capacity": capacity if capacity is None else int(capacity),
        "hits": int(hits),
        "misses": int(misses),
        "evictions": int(evictions),
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "by_instance": {
            label: {k: int(v) for k, v in counters.items()}
            for label, counters in sorted((by_instance or {}).items())
        },
        "eviction_ages": eviction_ages
        or {"bounds": list(DEFAULT_AGE_BOUNDS), "counts": [], "count": 0},
    }
    if approx_bytes is not None:
        report["approx_bytes"] = int(approx_bytes)
    if extra:
        report["extra"] = dict(extra)
    return report


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of the cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never probed)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"size={self.size}/{self.maxsize} hit_rate={self.hit_rate:.2%}"
        )


class PlanCache(Generic[V]):
    """A bounded, thread-safe LRU and the one ledger of its cache.

    Hits, misses and evictions are counted here and nowhere else; each
    eviction records the entry's age in an unregistered :class:`Histogram`
    over :data:`DEFAULT_AGE_BOUNDS`.  With ``attribute``, every lookup and
    eviction is also counted under ``attribute(key)`` — at most
    :attr:`MAX_ATTRIBUTED` labels, the oldest dropped first, so
    long-running multi-tenant processes stay bounded.
    """

    MAX_ATTRIBUTED = 4096

    def __init__(
        self,
        maxsize: int = 128,
        attribute: Optional[Callable[[Hashable], str]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._inserted_at: Dict[Hashable, float] = {}
        self._ages = Histogram("cache_eviction_age_seconds", "", DEFAULT_AGE_BOUNDS)
        self._attribute = attribute
        self._attributed: Dict[str, Dict[str, int]] = {}

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def _attribute_locked(self, key: Hashable, outcome: str) -> None:
        if self._attribute is None:
            return
        label = self._attribute(key)
        row = self._attributed.get(label)
        if row is None:
            if len(self._attributed) >= self.MAX_ATTRIBUTED:
                self._attributed.pop(next(iter(self._attributed)))
            row = self._attributed[label] = {"hits": 0, "misses": 0, "evictions": 0}
        row[outcome] += 1

    def get(self, key: Hashable) -> Optional[V]:
        """Return the cached value and mark it most-recently-used, or None."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                self._attribute_locked(key, "misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._attribute_locked(key, "hits")
            return value

    def peek(self, key: Hashable) -> Optional[V]:
        """The cached value or None, without counting or touching LRU order."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU one when full."""
        now = time.monotonic()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            self._inserted_at[key] = now
            self._evict_locked(now)

    def resize(self, maxsize: int) -> None:
        """Re-bound the cache (0 caches nothing), evicting LRU-first."""
        with self._lock:
            self._maxsize = max(0, maxsize)
            self._evict_locked(time.monotonic())

    def _evict_locked(self, now: float) -> None:
        while len(self._entries) > self._maxsize:
            key, _ = self._entries.popitem(last=False)
            self._evictions += 1
            self._ages.observe(now - self._inserted_at.pop(key))
            self._attribute_locked(key, "evictions")

    def clear(self) -> None:
        """Drop every entry (statistics are kept; clears are not evictions)."""
        with self._lock:
            self._entries.clear()
            self._inserted_at.clear()

    def items(self) -> List[Tuple[Hashable, V]]:
        """A snapshot of the entries, least-recently-used first."""
        with self._lock:
            return list(self._entries.items())

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )

    def report(
        self, name: str, label: Callable[[str], str] = str
    ) -> Dict[str, object]:
        """This cache in the common report schema.

        ``label`` turns attribution keys into ``by_instance`` labels; keys
        that share a label are summed.  Value sizing samples up to 16
        entries under the lock and measures them outside it — the deep
        ``sys.getsizeof`` walk must not stall concurrent lookups.
        """
        stats = self.stats()
        with self._lock:
            rows = [(key, dict(row)) for key, row in self._attributed.items()]
            sample: List[V] = list(itertools.islice(self._entries.values(), 16))
        by_instance: Dict[str, Dict[str, int]] = {}
        for key, row in rows:
            merged = by_instance.setdefault(label(key), {})
            for outcome, count in row.items():
                merged[outcome] = merged.get(outcome, 0) + count
        ages = self._ages.snapshot()
        return cache_report(
            name,
            size=stats.size,
            capacity=stats.maxsize,
            hits=stats.hits,
            misses=stats.misses,
            evictions=stats.evictions,
            by_instance=by_instance,
            eviction_ages={
                "bounds": list(self._ages.bounds),
                "counts": list(ages["buckets"].values()),
                "count": ages["count"],
                "sum_seconds": round(ages["sum_seconds"], 6),
            },
            approx_bytes=approx_sizeof(sample, total=stats.size),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class CacheStatsRegistry:
    """Registry of cache stat providers with a common report schema.

    Registration is last-wins per name: when a server replaces its engine
    (or a test boots a fresh pool), the newest provider owns the name.  A
    provider that raises is reported as an ``"error"`` entry rather than
    taking the whole scrape down; one returning ``None`` is skipped.
    """

    #: Cap on remembered instance labels — lineage tokens are per-instance
    #: and long-running multi-tenant processes must not grow unboundedly.
    MAX_LABELS = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._providers: "Dict[str, Provider]" = {}
        self._labels: "Dict[str, str]" = {}

    def register(self, name: str, provider: Provider) -> None:
        with self._lock:
            self._providers[name] = provider

    def unregister(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._providers)

    # -- instance-label translation (lineage token -> registry name) ------

    def label_instance(self, key: str, name: str) -> None:
        with self._lock:
            if key not in self._labels and len(self._labels) >= self.MAX_LABELS:
                self._labels.pop(next(iter(self._labels)))
            self._labels[key] = name

    def instance_label(self, key: str) -> str:
        with self._lock:
            return self._labels.get(key, key)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """Call every provider (inside a per-cache span) and collect reports."""
        with self._lock:
            providers = sorted(self._providers.items())
        reports: List[Dict[str, Any]] = []
        for name, provider in providers:
            with obs_span("cache.stats", cache=name):
                try:
                    report = provider()
                except Exception as exc:  # noqa: BLE001 - isolate bad providers
                    reports.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
                    continue
            if report is not None:
                report.setdefault("name", name)
                reports.append(report)
        return reports

    def publish(self, registry: MetricsRegistry = REGISTRY) -> List[Dict[str, Any]]:
        """Mirror a snapshot into the ``repro_cache_*`` Prometheus families."""
        reports = self.snapshot()
        size = registry.gauge("repro_cache_size", "Entries resident per cache.")
        capacity = registry.gauge("repro_cache_capacity", "Configured capacity per cache.")
        approx = registry.gauge(
            "repro_cache_approx_bytes",
            "Approximate resident bytes per cache (sampled recursive sizeof).",
        )
        hits = registry.counter("repro_cache_hits_total", "Cache hits per cache.")
        misses = registry.counter("repro_cache_misses_total", "Cache misses per cache.")
        evictions = registry.counter(
            "repro_cache_evictions_total", "Cache evictions per cache."
        )
        inst_hits = registry.counter(
            "repro_cache_instance_hits_total", "Cache hits attributed per instance."
        )
        inst_evictions = registry.counter(
            "repro_cache_instance_evictions_total",
            "Cache evictions attributed per instance.",
        )
        age_sum = registry.gauge(
            "repro_cache_eviction_age_seconds_sum",
            "Summed entry age at eviction per cache.",
        )
        age_count = registry.gauge(
            "repro_cache_eviction_age_seconds_count",
            "Evictions contributing to the age histogram per cache.",
        )
        for report in reports:
            name = report.get("name", "?")
            if "error" in report:
                continue
            size.set(report["size"], cache=name)
            if report.get("capacity") is not None:
                capacity.set(report["capacity"], cache=name)
            if report.get("approx_bytes") is not None:
                approx.set(report["approx_bytes"], cache=name)
            hits.set_total(report["hits"], cache=name)
            misses.set_total(report["misses"], cache=name)
            evictions.set_total(report["evictions"], cache=name)
            for label, counters in report.get("by_instance", {}).items():
                if "hits" in counters:
                    inst_hits.set_total(counters["hits"], cache=name, instance=label)
                if "evictions" in counters:
                    inst_evictions.set_total(
                        counters["evictions"], cache=name, instance=label
                    )
            ages = report.get("eviction_ages") or {}
            age_sum.set(float(ages.get("sum_seconds", 0.0)), cache=name)
            age_count.set(float(ages.get("count", 0)), cache=name)
        return reports


#: The process-global registry the five caches register with.
CACHE_REGISTRY = CacheStatsRegistry()


def register_cache(name: str, provider: Provider) -> None:
    """Register a provider with the process-global registry (last wins)."""
    CACHE_REGISTRY.register(name, provider)


def label_instance(key: str, name: str) -> None:
    """Teach the global registry that attribution key ``key`` is ``name``."""
    CACHE_REGISTRY.label_instance(key, name)
