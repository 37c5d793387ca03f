"""Request-scoped tracing: a ``contextvars``-based span tree.

A *trace* is one request's tree of timed spans.  The root span is opened at
HTTP ingress (see :mod:`repro.serve.app`), child spans instrument each phase
the request passes through — plan compile, backend execution, per-shard
summarisation, worker dispatch, store writes — and the finished tree is
retained in a bounded :class:`~repro.obs.buffer.TraceBuffer`, returned
inline for ``"explain": true`` requests, and emitted whole by the
slow-query log.

Design constraints, in order:

1. **Near-zero cost when idle.**  :func:`span` is a no-op context manager
   both when tracing is globally disabled and when no trace is active on
   the current context (library code called outside a request).  The fast
   path is one ``ContextVar.get`` and one boolean.
2. **Explicit propagation across pools.**  ``contextvars`` do *not* flow
   into ``ThreadPoolExecutor`` threads or worker processes by themselves.
   Thread hops use :func:`contextvars.copy_context`; process hops ship a
   compact ``(trace_id, span_id)`` pair — :func:`propagation_context` — in
   the job payload, and the worker's spans come back as plain dicts that
   :func:`reparent` grafts under the dispatching span.
3. **No global collection.**  A span tree is reachable only from its root;
   when the request is done the tree is serialized (or dropped) and the
   context variable is reset.  Nothing here can leak across requests.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Header carrying the trace id into and out of the HTTP layer.
TRACE_HEADER = "X-Repro-Trace-Id"

#: A compact cross-process trace context: ``(trace_id, parent_span_id)``.
TraceContext = Tuple[str, str]


_tracing_enabled: bool = True


def set_tracing(enabled: bool) -> None:
    """Globally enable/disable tracing (per-process switch; on by default,
    off with the server's ``--no-tracing``)."""
    global _tracing_enabled
    _tracing_enabled = bool(enabled)


def tracing_enabled() -> bool:
    return _tracing_enabled


# Ids come from a process-local PRNG, not ``uuid4``: uuid4 reads
# ``os.urandom`` per call, and that syscall is a GIL release point — at
# ~7 ids per traced request it measurably inflates tail latency under
# concurrency.  Seeded from OS entropy once per process; forked worker
# processes reseed so they cannot emit colliding span ids.
_rng = random.Random()

#: Cached per-process id, part of every span's ``tid`` (thread identity).
#: Refreshed after fork so worker-side spans are attributed to the worker.
_PID = os.getpid()


def _reseed_rng() -> None:
    global _PID
    _rng.seed(os.urandom(16))
    _PID = os.getpid()


_reseed_rng()
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_reseed_rng)


def new_trace_id() -> str:
    return f"{_rng.getrandbits(128):032x}"


def new_span_id() -> str:
    return f"{_rng.getrandbits(64):016x}"


class Span:
    """One timed node in a trace tree.

    Wall-clock anchor is ``time.time`` (for log correlation); duration is
    measured with ``time.perf_counter``; ``cpu_ms`` is the opening thread's
    CPU time between open and close (``time.thread_time``).  Children
    created in-process are :class:`Span` objects; children received from a
    worker process arrive as already-serialized dicts and live in
    ``remote_children``.

    ``sampled`` is the trace's head-sampling decision, inherited root to
    leaf: spans of a head-dropped trace are still recorded locally (the
    tail-keep rule may retain the trace at close), but
    :func:`propagation_context` withholds the cross-process context so a
    worker never records spans for such a trace.

    ``metrics`` holds additive domain counters (facts scanned, blocks
    touched, ...) fed by :func:`repro.obs.cost.add_cost` at span sites.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "tags",
        "children",
        "remote_children",
        "started_at",
        "_started_pc",
        "_started_cpu",
        "duration_ms",
        "cpu_ms",
        "sampled",
        "thread_id",
        "metrics",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        tags: Optional[Dict[str, Any]] = None,
        sampled: bool = True,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.children: List["Span"] = []
        self.remote_children: List[Dict[str, Any]] = []
        self.started_at = time.time()
        self._started_pc = time.perf_counter()
        self._started_cpu = time.thread_time()
        self.duration_ms: Optional[float] = None  # None while open
        self.cpu_ms: Optional[float] = None
        self.sampled = sampled
        self.thread_id = threading.get_ident()
        self.metrics: Dict[str, float] = {}

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def add_metric(self, key: str, amount: float = 1) -> None:
        """Accumulate a domain counter on this span (additive)."""
        self.metrics[key] = self.metrics.get(key, 0) + amount

    def finish(self) -> None:
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._started_pc) * 1000.0
            self.cpu_ms = (time.thread_time() - self._started_cpu) * 1000.0

    @property
    def finished(self) -> bool:
        return self.duration_ms is not None

    def add_remote_children(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Graft spans serialized by a worker process under this span.

        Each dict is re-parented in place: its ``trace_id`` is rewritten
        recursively (a worker that raced a retry may carry a stale one)
        and the top-level ``parent_id`` becomes this span's id.
        """
        for span_dict in span_dicts:
            reparent(span_dict, self.trace_id, self.span_id)
            self.remote_children.append(span_dict)

    def to_dict(self) -> Dict[str, Any]:
        children = [child.to_dict() for child in self.children]
        children.extend(self.remote_children)
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_ms": (
                None if self.duration_ms is None else round(self.duration_ms, 3)
            ),
            "cpu_ms": (None if self.cpu_ms is None else round(self.cpu_ms, 3)),
            # Thread identity is pid-qualified: a worker-process span must
            # never alias a parent-process thread when CPU is rolled up.
            "tid": f"{_PID}:{self.thread_id}",
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        if children:
            out["children"] = children
        return out


def reparent(span_dict: Dict[str, Any], trace_id: str, parent_id: str) -> None:
    """Rewrite a serialized span tree onto ``trace_id`` under ``parent_id``."""
    span_dict["trace_id"] = trace_id
    span_dict["parent_id"] = parent_id
    for child in span_dict.get("children", ()):
        reparent(child, trace_id, span_dict.get("span_id", parent_id))


_current_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional[Span]:
    return _current_span.get()


def current_trace_id() -> Optional[str]:
    active = _current_span.get()
    return active.trace_id if active is not None else None


@contextmanager
def start_trace(
    name: str,
    trace_id: Optional[str] = None,
    sampled: bool = True,
    **tags: Any,
) -> Iterator[Optional[Span]]:
    """Open a trace's root span on the current context.

    Yields ``None`` (and does nothing) when tracing is disabled, so call
    sites can be unconditional.  ``sampled=False`` records the head
    sampler's drop decision: spans are still built (the tail-keep rule may
    retain the trace at close) but the decision is inherited by every child
    and withheld from :func:`propagation_context`.
    """
    if not _tracing_enabled:
        yield None
        return
    root = Span(name, trace_id or new_trace_id(), None, tags, sampled=sampled)
    token = _current_span.set(root)
    try:
        yield root
    finally:
        root.finish()
        _current_span.reset(token)


@contextmanager
def span(name: str, **tags: Any) -> Iterator[Optional[Span]]:
    """Open a child of the current span; no-op outside an active trace."""
    parent = _current_span.get()
    if parent is None or not _tracing_enabled:
        yield None
        return
    child = Span(name, parent.trace_id, parent.span_id, tags, sampled=parent.sampled)
    parent.children.append(child)
    token = _current_span.set(child)
    try:
        yield child
    finally:
        child.finish()
        _current_span.reset(token)


@contextmanager
def remote_root(
    name: str, context: Optional[TraceContext], **tags: Any
) -> Iterator[Optional[Span]]:
    """Worker-process side of cross-process propagation.

    ``context`` is the ``(trace_id, parent_span_id)`` pair shipped in the
    job payload (or ``None`` for untraced jobs).  The span opened here is a
    *local* root — it is serialized with the job result and grafted under
    the dispatching span by :meth:`Span.add_remote_children`.
    """
    if context is None or not _tracing_enabled:
        yield None
        return
    trace_id, parent_span_id = context
    root = Span(name, trace_id, parent_span_id, tags)
    token = _current_span.set(root)
    try:
        yield root
    finally:
        root.finish()
        _current_span.reset(token)


def propagation_context() -> Optional[TraceContext]:
    """The ``(trace_id, span_id)`` pair to ship across a process boundary.

    Head-dropped traces (``sampled=False``) ship no context: worker spans
    for a trace the sampler already decided against would cross the result
    pipe only to be discarded.
    """
    active = _current_span.get()
    if active is None or not _tracing_enabled or not active.sampled:
        return None
    return (active.trace_id, active.span_id)
