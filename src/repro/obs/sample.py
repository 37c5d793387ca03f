"""Trace sampling: head-based 1-in-N with a tail-based keep rule.

Under sustained load, tracing every request fills the trace buffer with
healthy traffic and ships megabytes of spans nobody reads.  The sampler
splits the decision in two:

* **Head** (:meth:`TraceSampler.sample`, at request ingress): a
  deterministic 1-in-N rotation decides whether the trace is *provisionally
  kept*.  The decision propagates: a head-dropped trace still records its
  local spans (cheaply, in memory) but ships no cross-process context, so
  workers never serialize spans that are overwhelmingly likely to be
  discarded.
* **Tail** (:meth:`TraceSampler.decide`, at trace close): the *retention*
  decision.  Head-kept traces are retained; head-dropped traces are
  rescued when they turn out slow (over the server's ``slow_query_ms``) or
  erroneous (5xx) — exactly the traces worth keeping at 100%.

The rate is fixed for the sampler's lifetime: the server sets it with
``--trace-sample N`` (or ``1/N``; anything else is a usage error) and
otherwise traces every request.

:class:`DroppedTraceLog` remembers recently sampled-out trace ids so
``GET /traces/{id}`` can tell "sampled out" apart from "evicted".
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional, Set

from repro.obs.metrics import REGISTRY

#: Retention decisions, in precedence order.
DECISION_HEAD = "head"
DECISION_SLOW = "slow"
DECISION_ERROR = "error"
DECISION_DROP = "sampled_out"

_RETENTION_HELP = "Trace retention decisions at trace close, by decision."


class TraceSampler:
    """Head-samples 1-in-``rate`` traces and applies the tail-keep rule.

    The head decision is a deterministic rotation (the first request and
    every ``rate``-th after it are kept) rather than a coin flip: tests and
    capacity planning both want "≤ ceil(n/rate) of n traces kept" to be a
    guarantee, not an expectation.
    """

    def __init__(self, rate: Optional[int] = None) -> None:
        self._rate = 1 if rate is None else max(1, int(rate))
        self._lock = threading.Lock()
        self._counter = 0

    @property
    def rate(self) -> int:
        return self._rate

    def sample(self) -> bool:
        """The head decision for the next trace (True = provisionally keep)."""
        if self._rate <= 1:
            return True
        with self._lock:
            index = self._counter
            self._counter += 1
        return index % self._rate == 0

    def decide(
        self,
        *,
        sampled: bool,
        status: int,
        duration_ms: float,
        slow_ms: Optional[float],
    ) -> str:
        """The retention decision at trace close.

        Head-kept traces stay; head-dropped traces are rescued when slow
        (``duration_ms >= slow_ms``) or erroneous (5xx).  Every decision is
        counted in the registry for the ``/metrics`` sampling summary.
        """
        if sampled:
            decision = DECISION_HEAD
        elif status >= 500:
            decision = DECISION_ERROR
        elif slow_ms is not None and duration_ms >= slow_ms:
            decision = DECISION_SLOW
        else:
            decision = DECISION_DROP
        REGISTRY.counter("repro_trace_retention_total", _RETENTION_HELP).inc(
            decision=decision
        )
        return decision

    def stats(self) -> dict:
        with self._lock:
            seen = self._counter if self._rate > 1 else None
        counter = REGISTRY.counter("repro_trace_retention_total", _RETENTION_HELP)
        return {
            "rate": self._rate,
            "decisions": {
                decision: counter.value(decision=decision)
                for decision in (
                    DECISION_HEAD,
                    DECISION_SLOW,
                    DECISION_ERROR,
                    DECISION_DROP,
                )
            },
            **({"head_decisions": seen} if seen is not None else {}),
        }


class DroppedTraceLog:
    """A bounded ring of trace ids that were sampled out (not retained).

    Lets ``GET /traces/{id}`` answer its 404 with *why* the trace is gone:
    membership here means the sampler dropped it; absence means it was
    either evicted from the trace buffer or never existed.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("DroppedTraceLog capacity must be >= 1")
        self._lock = threading.Lock()
        self._ring: "deque[str]" = deque(maxlen=capacity)
        self._members: Set[str] = set()

    def record(self, trace_id: str) -> None:
        with self._lock:
            if trace_id in self._members:
                return
            if len(self._ring) == self._ring.maxlen:
                self._members.discard(self._ring[0])
            self._ring.append(trace_id)
            self._members.add(trace_id)

    def __contains__(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._members

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
