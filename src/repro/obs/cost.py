"""Per-query cost accounting: who is burning the CPU right now?

Spans already time every phase of a request; this module adds *cost*:

* :func:`add_cost` accumulates domain counters (``facts_scanned``,
  ``blocks_touched``, ``repairs_expanded``, ``shard_fallbacks``,
  ``store_fsyncs``, ``summary_states``, ``summary_cache_hits``,
  ``summary_cache_misses``) on the active span — one dict
  update at sites that already open spans, no new wiring;
* :func:`rollup` sums a finished trace tree's domain counters across all
  its spans;
* :class:`CostTable` aggregates them per ``(instance, plan)`` key into a
  bounded, LRU-evicting table with EWMA latency/CPU and a recent-window
  p95, which the server serves at ``GET /debug/top?sort=cpu|p95|count``.

The CPU column has one source: the engine thread's own CPU clock, measured
around the request's engine job (``engine_cpu_ms``).  Summing span CPU over
the trace is no substitute — the root span's clock is the event loop's,
which under concurrency includes work done for other requests.
"""

from __future__ import annotations

import threading
from collections import deque
from operator import itemgetter
from typing import Any, Dict, List, Optional

from repro.obs.caches import PlanCache
from repro.obs.trace import current_span

#: The domain counters fed by the engine/sharding/worker/store span sites.
DOMAIN_COUNTERS = (
    "facts_scanned",
    "blocks_touched",
    "repairs_expanded",
    "shard_fallbacks",
    "store_fsyncs",
    "summary_states",
    "summary_cache_hits",
    "summary_cache_misses",
)


def add_cost(key: str, amount: float = 1) -> None:
    """Accumulate a domain counter on the active span (no-op untraced)."""
    span = current_span()
    if span is not None:
        span.add_metric(key, amount)


def rollup(tree: Dict[str, Any]) -> Dict[str, float]:
    """Sum the domain counters of one serialized trace tree."""
    counters: Dict[str, float] = {}

    def walk(node: Dict[str, Any]) -> None:
        for key, value in (node.get("metrics") or {}).items():
            counters[key] = counters.get(key, 0) + value
        for child in node.get("children", ()):
            walk(child)

    walk(tree)
    return counters


class _CostEntry:
    __slots__ = (
        "count",
        "ewma_latency_ms",
        "ewma_cpu_ms",
        "total_cpu_ms",
        "counters",
        "recent_ms",
        "last_trace_id",
    )

    def __init__(self, window: int) -> None:
        self.count = 0
        self.ewma_latency_ms = 0.0
        self.ewma_cpu_ms = 0.0
        self.total_cpu_ms = 0.0
        self.counters: Dict[str, float] = {}
        self.recent_ms: "deque[float]" = deque(maxlen=window)
        self.last_trace_id: Optional[str] = None

    def p95_ms(self) -> Optional[float]:
        if not self.recent_ms:
            return None
        ordered = sorted(self.recent_ms)
        index = min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))
        return round(ordered[index], 3)


class CostTable:
    """Bounded concurrent rollup of per-(instance, plan) execution cost.

    EWMA smoothing (``alpha``) makes the latency/CPU columns reflect *now*
    rather than the process's whole lifetime; the recent window backs the
    p95 column.  When the table is full, the least-recently-updated key is
    evicted — a key that stopped receiving traffic stops being interesting.
    """

    def __init__(
        self, capacity: int = 512, alpha: float = 0.2, window: int = 64
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("CostTable alpha must be in (0, 1]")
        self._alpha = alpha
        self._window = max(1, window)
        # Guards each entry's read-modify-write; the LRU ledger counts an
        # observation on an existing key as a hit and a new key as a miss,
        # attributed to the instance half of the key.
        self._lock = threading.Lock()
        self._entries: "PlanCache[_CostEntry]" = PlanCache(
            capacity, attribute=itemgetter(0)
        )

    @property
    def capacity(self) -> int:
        return self._entries.maxsize

    def observe(
        self,
        instance: str,
        plan: str,
        duration_ms: float,
        cpu_ms: float,
        counters: Optional[Dict[str, float]] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        key = (instance, plan)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _CostEntry(self._window)
                self._entries.put(key, entry)
            alpha = self._alpha
            if entry.count == 0:
                entry.ewma_latency_ms = duration_ms
                entry.ewma_cpu_ms = cpu_ms
            else:
                entry.ewma_latency_ms += alpha * (duration_ms - entry.ewma_latency_ms)
                entry.ewma_cpu_ms += alpha * (cpu_ms - entry.ewma_cpu_ms)
            entry.count += 1
            entry.total_cpu_ms += cpu_ms
            entry.recent_ms.append(duration_ms)
            if trace_id:
                entry.last_trace_id = trace_id
            for name, value in (counters or {}).items():
                entry.counters[name] = entry.counters.get(name, 0) + value

    def lookup(self, instance: str, plan: str) -> Optional[Dict[str, float]]:
        """A read-only peek at one key's EWMA columns, or ``None`` when cold.

        Unlike :meth:`observe` this neither touches LRU order nor counts as
        a hit/miss: admission-control predictions must not keep a key warm
        that traffic alone would have evicted.
        """
        with self._lock:
            entry = self._entries.peek((instance, plan))
            if entry is None:
                return None
            return {
                "count": entry.count,
                "ewma_latency_ms": round(entry.ewma_latency_ms, 3),
                "ewma_cpu_ms": round(entry.ewma_cpu_ms, 3),
                "p95_ms": entry.p95_ms(),
            }

    def report(self, name: str = "cost_table") -> Dict[str, object]:
        """This table in the :mod:`repro.obs.caches` common report schema."""
        return self._entries.report(name)

    def top(self, sort: str = "cpu", limit: int = 20) -> List[Dict[str, object]]:
        """The ``limit`` most expensive keys by ``cpu``, ``p95`` or ``count``."""
        if sort not in ("cpu", "p95", "count"):
            raise ValueError(f"unknown sort {sort!r}; use cpu, p95 or count")
        with self._lock:
            rows = [
                {
                    "instance": instance,
                    "plan": plan,
                    "count": entry.count,
                    "ewma_latency_ms": round(entry.ewma_latency_ms, 3),
                    "ewma_cpu_ms": round(entry.ewma_cpu_ms, 3),
                    "total_cpu_ms": round(entry.total_cpu_ms, 3),
                    "p95_ms": entry.p95_ms(),
                    "counters": dict(entry.counters),
                    "last_trace_id": entry.last_trace_id,
                }
                for (instance, plan), entry in self._entries.items()
            ]
        sort_key = {
            "cpu": lambda row: row["ewma_cpu_ms"],
            "p95": lambda row: row["p95_ms"] or 0.0,
            "count": lambda row: row["count"],
        }[sort]
        rows.sort(key=sort_key, reverse=True)
        return rows[: max(1, limit)]

    def summary(self) -> Dict[str, object]:
        """The ``/metrics`` digest: table shape plus aggregate totals."""
        with self._lock:
            stats = self._entries.stats()
            entries = [entry for _, entry in self._entries.items()]
            total_cpu = sum(entry.total_cpu_ms for entry in entries)
            counters: Dict[str, float] = {}
            for entry in entries:
                for name, value in entry.counters.items():
                    counters[name] = counters.get(name, 0) + value
        return {
            "entries": stats.size,
            "capacity": stats.maxsize,
            "evictions": stats.evictions,
            "observations": stats.lookups,
            "total_cpu_ms": round(total_cpu, 3),
            "counters": counters,
        }

    def __len__(self) -> int:
        return len(self._entries)
