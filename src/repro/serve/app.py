"""The asyncio HTTP/JSON server fronting the :class:`ConsistentAnswerEngine`.

Architecture (stdlib only — no third-party web framework):

* one asyncio event loop accepts connections and parses a minimal but
  correct subset of HTTP/1.1 (keep-alive, ``Content-Length`` bodies);
* query execution is CPU-bound library code, so handlers dispatch it to a
  fixed thread pool via ``run_in_executor``; the engine's plan cache and the
  process-wide SQL memo are thread-safe and shared by every worker, so one
  request's compiled plan is every later request's cache hit;
* with ``worker_processes > 0`` (the CLI's ``--workers N``) the server
  additionally runs a long-lived :class:`~repro.engine.workers.WorkerPool`
  and the thread pool merely *waits* on it: CPU-bound plan execution
  happens on persistent worker processes (sidestepping the GIL), instances
  transfer to the workers once, sharded instances send the shards their
  summary cache missed to the least busy workers (the cache itself stays
  in this process), and ``/answer_many`` parallelises across the pool by
  default; threads remain the execution fallback when the pool is off or
  fails;
* admission control is a counting gate sized ``workers + max_pending``:
  when it is full the server answers ``503`` *immediately* instead of
  queueing unboundedly (load-shedding beats collapse);
* every engine-bound request has a timeout (server default, optionally
  lowered per request) and times out with ``504`` — the worker thread
  finishes in the background but the client is released;
* batched requests (``POST /answer_many``) reuse the
  :mod:`repro.engine.batch` machinery: serially on the serving thread in
  thread mode (the path that warms the shared plan cache, and one that
  never forks from this threaded process), as chunks across the worker
  pool under ``--workers``.

* with ``store_dir`` set (the CLI's ``--store-dir``) the registry is backed
  by a durable :class:`~repro.store.InstanceStore`: every registered
  instance persists as a snapshot, every ``PATCH /instances/{name}``
  mutation appends to its fsync'd fact log before becoming visible, and a
  restarted server reloads the whole registry — versions intact — from the
  same directory.  Writes take an optional ``If-Match: <version>``
  precondition (``409`` on mismatch).

Endpoints::

    POST   /answer                  {"instance", "query", "binding"?, "timeout_s"?}
    POST   /answer_group_by         {"instance", "query", "timeout_s"?}
    POST   /answer_many             {"items": [{"instance", "query"}, ...], ...}
    POST   /instances               {"name", "schema", "rows", "replace"?}
    PATCH  /instances/{name}        {"ops": [...]} + If-Match: <version>?
    DELETE /instances/{name}        {"expected_version"?}
    GET    /instances               registered instances + fingerprints + versions
    GET    /metrics                 counters, histograms, cache + store stats
                                    (``?format=prometheus`` → text exposition)
    GET    /traces/{id}             retained span tree of a recent request
    GET    /healthz                 liveness + config summary

Every response (errors included) echoes ``X-Repro-Trace-Id``: the id the
request carried in, or a freshly minted one.  ``"explain": true`` on the
answer endpoints inlines the request's finished span tree in the response;
``slow_query_ms`` logs the same tree as one structured-JSON line.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.range_answers import RangeAnswer
from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    WorkerPool,
    WorkerPoolError,
    shard_plan_cache_stats,
    sql_memo_stats,
)
from repro.engine.cancellation import CancelToken, JobCancelledError, token_scope
from repro.exceptions import (
    BackendError,
    ParseError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.obs import (
    CACHE_REGISTRY,
    REGISTRY,
    TRACE_HEADER,
    CostTable,
    DroppedTraceLog,
    EventLoopLagProbe,
    SpanExporter,
    TraceBuffer,
    TraceSampler,
    get_logger,
    render_prometheus,
)
from repro.obs.admission import (
    REASON_COLD_KEY,
    REASON_COST_OK,
    REASON_DEPTH,
    REASON_PREDICTED_COST,
    AdmissionDecision,
    CostPredictor,
    record_decision,
    retry_after_s,
)
from repro.obs.cost import rollup as cost_rollup
from repro.obs.sample import DECISION_DROP
from repro.obs.trace import (
    current_span,
    current_trace_id,
    new_trace_id,
    start_trace,
)
from repro.query.aggregation import AggregationQuery
from repro.query.parser import parse_aggregation_query
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ProtocolError,
    decode_constant,
    decode_mutation_ops,
    dumps,
    encode_block_key,
    encode_group_answers,
    encode_range_answer,
    error_body,
    expected_version_from_headers,
    expected_version_of,
    loads,
)
from repro.serve.registry import (
    DuplicateInstanceError,
    InstanceRegistry,
    RegisteredInstance,
    UnknownInstanceError,
    VersionConflictError,
    builtin_registry,
)
from repro.store import InstanceStore

SERVER_NAME = "repro-serve"

#: A ``Content-Length`` above this answers 413 before any body byte is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

_LOG = get_logger("serve")
_TRACE_HEADER_LOWER = TRACE_HEADER.lower()

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class AdmissionError(ReproError):
    """The server sheds this request instead of queueing it.

    ``reason`` lands in the structured 503 body (``"depth"`` for a full
    gate, ``"predicted_cost"`` for a cost-budget shed) and
    ``retry_after_s`` becomes the ``Retry-After`` response header.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = REASON_DEPTH,
        retry_after_s: Optional[int] = None,
        decision: Optional[AdmissionDecision] = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.decision = decision


class AdmissionGate:
    """Counting gate bounding engine-bound work (in-flight + queued).

    ``try_acquire``/``admit`` never block: a full gate is an immediate
    ``503``.  Beyond the slot count the gate keeps a *queued-cost ledger*:
    each admitted request may deposit its predicted engine CPU, and
    :meth:`admit` sheds with ``predicted_cost`` when admitting would push
    the ledger over ``budget_ms``.  Two carve-outs keep the budget from
    shedding the traffic it exists to protect:

    * an idle gate always admits — shedding the only request in the
      building would livelock any plan whose prediction alone exceeds the
      budget;
    * a request predicted under ``COST_EXEMPT_FRACTION`` of the budget
      bypasses the budget check (depth still applies): it extends the
      backlog's drain time negligibly, so shedding it frees nothing —
      without the exemption a saturated ledger starves the cheap traffic
      alongside the expensive flood that filled it.

    The gate is intentionally test-accessible — filling it by hand is the
    deterministic way to exercise the rejection path.
    """

    #: Predicted costs at or below this fraction of the budget are never
    #: cost-shed (they still ride the ledger and the depth check).
    COST_EXEMPT_FRACTION = 0.05

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("admission gate capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._in_use = 0
        self._queued_cost_ms = 0.0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._in_use

    @property
    def queued_cost_ms(self) -> float:
        with self._lock:
            return self._queued_cost_ms

    def admit(
        self,
        cost_ms: Optional[float] = None,
        budget_ms: Optional[float] = None,
    ) -> Tuple[bool, str, float]:
        """One admission verdict: ``(admitted, reason, queued_cost_ms)``.

        ``cost_ms`` is the request's predicted engine CPU (``None`` = cold
        key, no prediction); ``budget_ms`` the ``--max-queue-cost-ms``
        budget (``None`` = depth-only).  The returned queued cost is the
        ledger *after* an admit / at the time of a shed.
        """
        with self._lock:
            if self._in_use >= self._capacity:
                return False, REASON_DEPTH, self._queued_cost_ms
            if (
                budget_ms is not None
                and cost_ms is not None
                and cost_ms > budget_ms * self.COST_EXEMPT_FRACTION
                and self._in_use > 0
                and self._queued_cost_ms + cost_ms > budget_ms
            ):
                return False, REASON_PREDICTED_COST, self._queued_cost_ms
            self._in_use += 1
            if cost_ms is not None:
                self._queued_cost_ms += max(0.0, cost_ms)
            if budget_ms is None:
                reason = REASON_DEPTH
            elif cost_ms is None:
                reason = REASON_COLD_KEY
            else:
                reason = REASON_COST_OK
            return True, reason, self._queued_cost_ms

    def try_acquire(self) -> bool:
        return self.admit()[0]

    def release(self, cost_ms: Optional[float] = None) -> None:
        with self._lock:
            if self._in_use > 0:
                self._in_use -= 1
            if cost_ms is not None:
                self._queued_cost_ms = max(0.0, self._queued_cost_ms - cost_ms)
            if self._in_use == 0:
                self._queued_cost_ms = 0.0  # idle gate: no float drift carryover


def _default_workers() -> int:
    return max(2, min(os.cpu_count() or 2, 8))


@dataclass
class ServeConfig:
    """Boot configuration of one server: the settings a deployment sets.

    ``workers`` sizes the engine thread pool (``None`` → cpu-derived);
    ``max_pending`` bounds the admission queue beyond the in-flight slots.
    The server never forks per request: forking this multithreaded process
    could inherit locks held by other request threads.  So in thread mode
    ``/answer_many`` runs serially (the cache-warming path), and for
    instances registered with ``shards > 1`` shard summaries run
    in-process on the serving thread, or on the worker pool below, with
    one summary cache in this process either way.

    ``worker_processes`` is the opt-in process mode: the server boots a
    long-lived :class:`~repro.engine.workers.WorkerPool` of that many
    engine worker processes at ``start()`` and dispatches CPU-bound plan
    execution, ``/answer_many`` chunks (one per worker, from two items up)
    and the shard summaries the cache missed to it.  A request that runs
    unsharded goes to the pool whole, including one on a sharded instance
    whose query the sharded executor cannot merge.  Threads remain the
    fallback (``0`` keeps the pure thread-pool behaviour).

    ``store_dir`` opts into durability: registered instances and their
    mutations persist under that directory and are reloaded at boot.

    Everything else is fixed by the library (a 256-plan cache, the
    ``branch_and_bound`` fallback, compaction every 64 log records, a
    256-trace buffer, uncompressed OTLP batches, :data:`MAX_BODY_BYTES`).
    Tracing, the log level and the summary-cache capacity are process-wide,
    set by ``set_tracing``, ``set_log_level`` and ``configure_summary_cache``;
    building a server changes none of them.
    """

    host: str = "127.0.0.1"
    port: int = 8421
    backend: str = "operational"
    workers: Optional[int] = None
    max_pending: int = 64
    request_timeout_s: float = 30.0
    register_builtins: bool = True
    worker_processes: int = 0
    store_dir: Optional[str] = None
    #: Requests at or above this wall time (ms) log their full span tree;
    #: ``None`` disables the slow-query log, ``0`` logs every request.
    slow_query_ms: Optional[float] = None
    #: Head-sample 1 in N traces, a fixed rate.  ``None`` (the default)
    #: traces every request.  Slow and 5xx traces are always retained
    #: (tail keep), whatever the rate.
    trace_sample: Optional[int] = None
    #: Cost-predictive admission: shed (503, ``reason="predicted_cost"``)
    #: when the predicted queued engine CPU would exceed this budget.
    #: ``None`` keeps depth-only admission.  Predictions come from the cost
    #: table's per-(instance, plan) EWMA, so the knob needs tracing enabled
    #: to learn; cold keys fall back to depth-only.
    max_queue_cost_ms: Optional[float] = None
    #: OTLP/JSON export target for retained traces: an ``http(s)://`` URL
    #: (POST per batch) or a file path (NDJSON append).  ``None`` disables.
    otlp_export: Optional[str] = None

    def resolved_workers(self) -> int:
        return self.workers if self.workers else _default_workers()


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    query: str = ""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class _TextResponse:
    """A non-JSON response body (the Prometheus exposition page)."""

    text: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    """An error with a fixed HTTP status and a structured body."""

    def __init__(self, status: int, error_type: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


def _classify_exception(exc: Exception) -> Tuple[int, str]:
    """Map an exception to (status, error type) for the structured body."""
    if isinstance(exc, _HttpError):
        return exc.status, exc.error_type
    if isinstance(exc, UnknownInstanceError):
        return 404, type(exc).__name__
    if isinstance(exc, (DuplicateInstanceError, VersionConflictError)):
        return 409, type(exc).__name__
    if isinstance(exc, AdmissionError):
        return 503, type(exc).__name__
    if isinstance(exc, (ProtocolError, ParseError, QueryError, SchemaError)):
        return 400, type(exc).__name__
    if isinstance(exc, (BackendError, WorkerPoolError)):
        return 500, type(exc).__name__
    if isinstance(exc, ReproError):
        return 400, type(exc).__name__
    return 500, type(exc).__name__


class ConsistentAnswerServer:
    """The serving app: registry + engine pool + router, bound to a socket."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        workers = self.config.resolved_workers()
        pool_size = max(0, self.config.worker_processes)
        self.engine = ConsistentAnswerEngine(backend=self.config.backend)
        self._pool: Optional[WorkerPool] = (
            WorkerPool(workers=pool_size, engine_config=self.engine.config())
            if pool_size > 0
            else None
        )
        self.store: Optional[InstanceStore] = (
            InstanceStore(self.config.store_dir) if self.config.store_dir else None
        )
        if self.config.register_builtins:
            self.registry = builtin_registry(store=self.store)
        else:
            self.registry = InstanceRegistry(store=self.store)
            self.registry.load_store()
        self.registry.subscribe(self._on_registry_event)
        self.traces = TraceBuffer()
        self.sampler = TraceSampler(self.config.trace_sample)
        self.sampled_out = DroppedTraceLog()
        self.cost_table = CostTable()
        self.predictor = CostPredictor(self.cost_table)
        # The cost table doubles as the fifth registered cache; weakref so a
        # replaced server's table can be collected (last registration wins).
        table_ref = weakref.ref(self.cost_table)
        CACHE_REGISTRY.register(
            "cost_table",
            lambda: (
                table.report("cost_table")
                if (table := table_ref()) is not None
                else None
            ),
        )
        self.exporter: Optional[SpanExporter] = (
            SpanExporter(self.config.otlp_export) if self.config.otlp_export else None
        )
        self._lag_probe = EventLoopLagProbe()
        self._lag_task: Optional[asyncio.Task] = None
        self.metrics = ServerMetrics()
        self.gate = AdmissionGate(workers + max(0, self.config.max_pending))
        self._workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._stopped = False
        self._routes: Dict[Tuple[str, str], Callable] = {
            ("POST", "/answer"): self._handle_answer,
            ("POST", "/answer_group_by"): self._handle_answer_group_by,
            ("POST", "/answer_many"): self._handle_answer_many,
            ("POST", "/instances"): self._handle_register_instance,
            ("GET", "/instances"): self._handle_list_instances,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/debug/top"): self._handle_debug_top,
            ("GET", "/debug/caches"): self._handle_debug_caches,
            ("GET", "/healthz"): self._handle_healthz,
        }

    # -- registry events ---------------------------------------------------------------

    def _on_registry_event(self, event: str, name: str) -> None:
        """Broadcast write-path invalidation to the worker pool.

        A drop frees the workers' resident copy immediately.  Mutations and
        replacements need no push: the registry swapped in a new instance
        object, so the pool's named ref goes stale and the next request
        re-pickles under a bumped version (the existing version-bump
        machinery).  Plan caches are untouched either way — the schema
        fingerprint is unchanged by fact-level writes.
        """
        pool = self._pool
        if event == "drop" and pool is not None and pool.is_running:
            pool.invalidate(name)

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the socket (``port=0`` picks an ephemeral one) and accept.

        The worker pool (if configured) starts *before* the socket binds:
        workers fork while the process is still single-request, and a
        port-bind failure tears the pool down again via :meth:`stop`.
        A server object starts once: :meth:`stop` shuts its thread pool and
        worker pool down for good, so serving again takes a new server.
        """
        if self._stopped or self._server is not None:
            raise RuntimeError(
                "this server already started and cannot start again; "
                "build a new ConsistentAnswerServer"
            )
        if self._pool is not None and not self._pool.is_running:
            self._pool.start()
            self.engine.set_worker_pool(self._pool)
        if self.exporter is not None:
            self.exporter.start()
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.config.host, port=self.config.port
        )
        if self._lag_task is None or self._lag_task.done():
            self._lag_task = asyncio.get_running_loop().create_task(
                self._lag_probe.run(), name="repro-loop-lag-probe"
            )
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        return self._address

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self._stopped = True
        if self._lag_task is not None:
            self._lag_task.cancel()
            try:
                await self._lag_task
            except asyncio.CancelledError:
                pass
            self._lag_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.exporter is not None:
            self.exporter.close()
        if self._pool is not None:
            self.engine.set_worker_pool(None)
            self._pool.shutdown()

    async def __aenter__(self) -> "ConsistentAnswerServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -----------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # The request never got far enough to carry a trace, but
                    # the error response still correlates via a fresh id.
                    trace_id = new_trace_id()
                    payload = error_body(exc.error_type, str(exc))
                    payload["error"]["trace_id"] = trace_id
                    await self._write_response(
                        writer,
                        exc.status,
                        payload,
                        keep_alive=False,
                        extra_headers={TRACE_HEADER: trace_id},
                    )
                    break
                if request is None:
                    break
                status, payload, extra_headers = await self._process(request)
                await self._write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=request.keep_alive,
                    extra_headers=extra_headers,
                )
                if not request.keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down with the connection open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(400, "ProtocolError", "request line too long")
        if not request_line:
            return None  # clean EOF between keep-alive requests
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "ProtocolError", "malformed request line")
        method, target, _version = parts
        path, _, query = target.partition("?")
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _HttpError(400, "ProtocolError", "header line too long")
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None  # EOF mid-headers: treat as a closed connection
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "ProtocolError", "malformed header line")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "ProtocolError", "bad Content-Length")
        if length < 0:
            raise _HttpError(400, "ProtocolError", "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "ProtocolError",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES} byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(
            method=method.upper(), path=path, headers=headers, body=body, query=query
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, _TextResponse):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = dumps(payload)
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Server: {SERVER_NAME}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------------------

    def _match_dynamic(
        self, method: str, path: str
    ) -> Tuple[Optional[Callable], Tuple[str, ...], Optional[str], List[str]]:
        """Match the parametrized instance routes.

        Returns ``(handler, args, endpoint_template, allowed_methods)`` —
        handler ``None`` with non-empty ``allowed_methods`` means 405, and
        all-empty means 404.  The endpoint template (not the raw instance
        name) labels the metrics in *both* the matched and the 405 case,
        bounding their cardinality.
        """
        from urllib.parse import unquote

        segments = path.strip("/").split("/")
        if len(segments) == 2 and segments[0] == "instances" and segments[1]:
            if method == "PATCH":
                return (
                    self._handle_patch_instance,
                    (unquote(segments[1]),),
                    "PATCH /instances/{name}",
                    [],
                )
            if method == "DELETE":
                return (
                    self._handle_drop_instance,
                    (unquote(segments[1]),),
                    "DELETE /instances/{name}",
                    [],
                )
            return None, (), "/instances/{name}", ["DELETE", "PATCH"]
        if len(segments) == 2 and segments[0] == "traces" and segments[1]:
            if method == "GET":
                return (
                    self._handle_get_trace,
                    (unquote(segments[1]),),
                    "GET /traces/{id}",
                    [],
                )
            return None, (), "/traces/{id}", ["GET"]
        return None, (), None, []

    async def _process(self, request: _Request) -> Tuple[int, object, Dict[str, str]]:
        """Trace one request end to end, then answer it.

        The root span opens here (honoring an inbound ``X-Repro-Trace-Id``
        or minting one) and every layer below hangs children off it via the
        context variable.  The head sampler decides *provisional* retention
        up front (the decision propagates, so workers skip span recording
        for head-dropped traces); the tail-keep rule re-decides at close, so
        slow and 5xx traces are retained at 100% regardless of the rate.
        Retained trees land in the trace buffer and the OTLP exporter, are
        emitted as one structured-JSON line when the request breaches
        ``slow_query_ms``, and are inlined into the response for
        ``"explain": true`` requests (explain forces retention).  Cost is
        rolled up for *every* traced query request, retained or not.  The
        trace id is echoed on every response, errors included.
        """
        incoming = request.headers.get(_TRACE_HEADER_LOWER) or None
        trace_id = incoming or new_trace_id()
        head = self.sampler.sample()
        with start_trace(
            "http.request",
            trace_id=trace_id,
            sampled=head,
            method=request.method,
            path=request.path,
        ) as root:
            status, payload, response_headers = await self._process_inner(request)
            if root is not None:
                root.set_tag("status", status)
        if (
            status >= 400
            and isinstance(payload, dict)
            and isinstance(payload.get("error"), dict)
        ):
            payload["error"].setdefault("trace_id", trace_id)
        if root is not None:
            tree = root.to_dict()
            threshold = self.config.slow_query_ms
            duration_ms = root.duration_ms or 0.0
            decision = self.sampler.decide(
                sampled=head,
                status=status,
                duration_ms=duration_ms,
                slow_ms=threshold,
            )
            retained = decision != DECISION_DROP or bool(root.tags.get("explain"))
            self._account_cost(root, tree, duration_ms)
            if retained:
                self.traces.record(tree)
                if self.exporter is not None:
                    self.exporter.submit(tree)
            else:
                self.sampled_out.record(trace_id)
            if threshold is not None and duration_ms >= threshold:
                _LOG.warning(
                    "slow_query",
                    trace_id=trace_id,
                    method=request.method,
                    path=request.path,
                    status=status,
                    duration_ms=round(duration_ms, 3),
                    trace=tree,
                )
            if (
                root.tags.get("explain")
                and 200 <= status < 300
                and isinstance(payload, dict)
            ):
                payload = dict(payload)
                payload["trace"] = tree
                admission = root.tags.get("admission")
                if isinstance(admission, dict):
                    payload["admission"] = admission
        return status, payload, {**response_headers, TRACE_HEADER: trace_id}

    def _account_cost(self, root, tree: Dict[str, object], duration_ms: float) -> None:
        """Roll one finished trace into the per-(instance, plan) cost table.

        Only query requests that ran an engine job participate:
        :meth:`_parse_query_request` tags the root span with the instance
        and plan label (the table key), and :meth:`_dispatch` measures the
        engine thread's CPU into the root's ``engine_cpu_ms`` — exact per
        request, sampled or not; under ``--workers`` the worker CPU of each
        pool job is added (the thread only waits on the pool).  A request
        shed by admission (503) never reached an engine thread; observing
        it would teach the predictor that its plan is cheap.  Runs for
        sampled-out traces too — cost accounting must see all the traffic
        to rank plans honestly.
        """
        instance = root.tags.get("instance")
        plan = root.tags.get("plan")
        if not instance or not plan:
            return
        counters = cost_rollup(tree)
        engine_cpu = counters.get("engine_cpu_ms")
        if engine_cpu is None:
            return
        self.cost_table.observe(
            str(instance),
            str(plan),
            duration_ms=duration_ms,
            cpu_ms=float(engine_cpu),
            counters=counters,
            trace_id=root.trace_id,
        )

    async def _process_inner(
        self, request: _Request
    ) -> Tuple[int, object, Dict[str, str]]:
        handler = self._routes.get((request.method, request.path))
        handler_args: Tuple[str, ...] = ()
        endpoint = f"{request.method} {request.path}"
        if handler is None:
            handler, handler_args, template, allowed = self._match_dynamic(
                request.method, request.path
            )
            if handler is not None:
                endpoint = template
        if handler is None:
            known_methods = sorted(
                set(m for m, p in self._routes if p == request.path) | set(allowed)
            )
            if known_methods:
                endpoint, status = template or request.path, 405
                payload = error_body(
                    "MethodNotAllowed",
                    f"{request.path} supports {known_methods}",
                )
            else:
                endpoint, status = "unknown", 404
                payload = error_body("NotFound", f"no route for {request.path!r}")
            self.metrics.request_started()
            self.metrics.request_finished(endpoint, status, 0.0)
            return status, payload, {}
        if handler in (  # bound methods: compare, not `is`
            self._handle_metrics,
            self._handle_debug_top,
        ):
            handler_args = (request.query,)
        elif handler == self._handle_patch_instance:  # If-Match precondition
            handler_args = handler_args + (request.headers,)
        self.metrics.request_started()
        started = time.perf_counter()
        response_headers: Dict[str, str] = {}
        try:
            payload_in = loads(request.body)
            status, payload = await handler(payload_in, *handler_args)
        except (asyncio.TimeoutError, JobCancelledError):
            # JobCancelledError is the same deadline observed from the other
            # side: the job's own token expired at a cancellation point just
            # before the event-loop timer fired.
            status = 504
            payload = error_body(
                "Timeout",
                f"request exceeded its {self._effective_timeout(None):.3f}s budget",
            )
        except Exception as exc:  # noqa: BLE001 — every error becomes JSON
            status, error_type = _classify_exception(exc)
            payload = error_body(error_type, str(exc))
            if isinstance(exc, AdmissionError):
                # The structured 503 envelope: why the shed happened, what
                # was predicted, and when to come back.
                payload["error"]["reason"] = exc.reason
                if exc.decision is not None:
                    payload["error"]["admission"] = exc.decision.to_payload()
                response_headers = {"Retry-After": str(exc.retry_after_s or 1)}
        self.metrics.request_finished(
            endpoint,
            status,
            time.perf_counter() - started,
            trace_id=current_trace_id(),
        )
        return status, payload, response_headers

    # -- engine dispatch ---------------------------------------------------------------

    def _effective_timeout(self, requested: Optional[float]) -> float:
        timeout = self.config.request_timeout_s
        if requested is not None and requested > 0:
            timeout = min(timeout, requested)
        return timeout

    def _admission_decision(self) -> AdmissionDecision:
        """Consult the predictor and the gate for the current request."""
        budget = self.config.max_queue_cost_ms
        predicted: Optional[float] = None
        if budget is not None:
            root = current_span()
            if root is not None:
                predicted = self.predictor.predict_ms(
                    root.tags.get("instance"), root.tags.get("plan")
                )
        admitted, reason, queued = self.gate.admit(predicted, budget)
        return AdmissionDecision(
            admitted=admitted,
            reason=reason,
            predicted_cost_ms=predicted,
            queued_cost_ms=queued,
            retry_after_s=None if admitted else retry_after_s(queued),
        )

    async def _dispatch(self, fn: Callable[[], object], timeout_s: float) -> object:
        """Run ``fn`` on the engine pool under admission control + timeout.

        ``asyncio.wait_for`` would block until a *running* executor job
        finishes (thread futures do not cancel), so the timeout is enforced
        with ``asyncio.wait``: the client gets its 504 immediately while a
        :class:`~repro.engine.cancellation.CancelToken` — installed in the
        job's context with the request deadline, and flipped here on
        timeout — makes the abandoned job stop cooperatively at its next
        batch-item or shard boundary instead of computing to completion.

        The gate slot is released when the *job* completes, not when the
        request does — a timed-out request whose thread is still computing
        keeps its slot, so the workers+max_pending bound holds under
        timeout storms instead of the executor queue growing unboundedly.

        With ``--max-queue-cost-ms`` set, admission is cost-predictive: the
        request's (instance, plan) — tagged on the root span by
        :meth:`_parse_query_request` — is looked up in the cost table, and
        the predicted engine CPU both gates the request against the queued
        budget and rides the gate's ledger until the job finishes.  Cold
        keys (and non-query requests) fall back to depth-only.
        """
        decision = self._admission_decision()
        record_decision(decision)
        root = current_span()
        if root is not None:
            root.set_tag("admission", decision.to_payload())
        if not decision.admitted:
            if decision.reason == REASON_PREDICTED_COST:
                message = (
                    f"predicted cost {decision.predicted_cost_ms:.1f}ms would "
                    f"push the queued {decision.queued_cost_ms:.1f}ms over the "
                    f"{self.config.max_queue_cost_ms:g}ms budget; retry later"
                )
            else:
                message = (
                    f"server at capacity ({self.gate.capacity} in flight or "
                    f"queued); retry later"
                )
            raise AdmissionError(
                message,
                reason=decision.reason,
                retry_after_s=decision.retry_after_s,
                decision=decision,
            )
        ledger_cost = decision.predicted_cost_ms
        loop = asyncio.get_running_loop()
        # contextvars do not flow into executor threads on their own; the
        # copied context carries the active span so engine/store spans land
        # under this request's trace, plus the cancel token governing the
        # job (the deadline also rides fan-out payloads into worker
        # processes, which the parent-side cancel flag cannot reach).
        token = CancelToken(deadline=time.monotonic() + timeout_s)

        def run_with_token():
            with token_scope(token):
                span = current_span()
                if span is None:
                    return fn()
                # Engine CPU measured on the executor thread itself, so the
                # cost table learns real CPU even for head-dropped traces
                # (which record no child spans to roll up).
                started_cpu = time.thread_time()
                try:
                    return fn()
                finally:
                    span.add_metric(
                        "engine_cpu_ms", (time.thread_time() - started_cpu) * 1000.0
                    )

        context = contextvars.copy_context()
        try:
            job = self._executor.submit(context.run, run_with_token)
        except BaseException:
            self.gate.release(ledger_cost)
            raise
        # The release hangs off the *concurrent* future: its callbacks fire
        # only when the job really finished (or was dropped unstarted) —
        # cancelling the asyncio wrapper below would fire immediately and
        # free a slot whose thread is still computing.
        job.add_done_callback(lambda f: self.gate.release(ledger_cost))
        future = asyncio.wrap_future(job, loop=loop)
        done, _pending = await asyncio.wait({future}, timeout=timeout_s)
        if not done:
            token.cancel()  # running job stops at its next cancellation point
            if not job.cancel():  # drops the job if it has not started yet
                REGISTRY.counter(
                    "repro_jobs_abandoned_total",
                    "Engine jobs whose client timed out (504) while the job "
                    "was still running; the job is cancelled cooperatively.",
                ).inc()
            # Consume any late failure so it never logs as unretrieved.
            future.add_done_callback(lambda f: f.cancelled() or f.exception())
            raise asyncio.TimeoutError
        return future.result()

    # -- request parsing helpers -------------------------------------------------------

    @staticmethod
    def _require_object(payload: object) -> Mapping:
        if not isinstance(payload, Mapping):
            raise ProtocolError("request body must be a JSON object")
        return payload

    @staticmethod
    def _require_str(payload: Mapping, field: str) -> str:
        value = payload.get(field)
        if not isinstance(value, str) or not value:
            raise ProtocolError(f"request requires a non-empty string {field!r}")
        return value

    def _parse_query_request(
        self, payload: Mapping
    ) -> Tuple[RegisteredInstance, AggregationQuery]:
        entry = self.registry.get(self._require_str(payload, "instance"))
        query_text = self._require_str(payload, "query")
        query = parse_aggregation_query(entry.instance.schema, query_text)
        # The (instance, plan) tag pair keys the cost table; handlers run on
        # the event-loop context inside _process's start_trace block, so the
        # current span is the request's root.
        active = current_span()
        if active is not None:
            active.set_tag("instance", entry.name)
            active.set_tag("plan", query_text)
        return entry, query

    @staticmethod
    def _parse_binding(payload: Mapping) -> Dict[str, object]:
        raw = payload.get("binding") or {}
        if not isinstance(raw, Mapping):
            raise ProtocolError("'binding' must be an object of {variable: constant}")
        return {str(name): decode_constant(value) for name, value in raw.items()}

    @staticmethod
    def _timeout_of(payload: Mapping) -> Optional[float]:
        raw = payload.get("timeout_s")
        if raw is None:
            return None
        if not isinstance(raw, (int, float)) or raw <= 0:
            raise ProtocolError("'timeout_s' must be a positive number")
        return float(raw)

    @staticmethod
    def _mark_explain(payload: Mapping) -> None:
        """Tag the request's root span when the client asked to explain.

        Handlers run on the event-loop context inside :meth:`_process`'s
        ``start_trace`` block, so the current span *is* the root; the tag
        tells :meth:`_process` to inline the finished tree into the
        response.  A no-op when tracing is disabled.
        """
        if payload.get("explain"):
            active = current_span()
            if active is not None:
                active.set_tag("explain", True)

    @staticmethod
    def _plan_summary(plan) -> Dict[str, object]:
        return {
            "glb_strategy": plan.glb_strategy,
            "lub_strategy": plan.lub_strategy,
            "certainty_class": plan.certainty_class,
            "cached": plan.cached,
        }

    def _execute_answer(
        self,
        entry: RegisteredInstance,
        query: AggregationQuery,
        binding: Optional[Dict[str, object]],
    ):
        """Look the plan up once and run one engine-bound request on a
        serving thread; returns ``(plan, answer)``.

        In process mode, a request that the engine's ``shards_for`` runs
        unsharded goes to the least busy worker's persistent engine (the
        instance ships once, keyed by registry name, so a replacement bumps
        the version of the same key); sharded execution stays on the parent
        engine, whose sharded executor looks every shard up in this
        process's summary cache and sends only the misses to the pool.
        ``binding`` of ``None`` with free variables means GROUP BY (both
        here and on the worker).
        """
        plan = self.engine.compile(query)
        options = AnswerOptions(shards=entry.shards)
        pool = self._pool
        if pool is not None and pool.is_running:
            if self.engine.shards_for(plan, options) is None:
                # The asyncio layer 504s the client at the request timeout;
                # this backstop bounds the *thread*, so a wedged pool job
                # cannot hold an executor thread and its admission slot.
                return plan, pool.answer(
                    query,
                    entry.instance,
                    binding,
                    name=entry.name,
                    timeout=self.config.request_timeout_s * 2 + 5,
                )
            # The sharded executor ships its misses without a registry name;
            # priming the named ref makes them share it, so the next write
            # ships a delta over it instead of pickling a second copy.
            pool.ref_for(entry.instance, name=entry.name)
        return plan, self.engine.execute(plan, entry.instance, binding, options)

    # -- handlers ----------------------------------------------------------------------

    async def _handle_answer(self, payload: object) -> Tuple[int, object]:
        payload = self._require_object(payload)
        self._mark_explain(payload)
        entry, query = self._parse_query_request(payload)
        binding = self._parse_binding(payload)
        missing = [v.name for v in query.free_variables if v.name not in binding]
        if missing:
            raise ProtocolError(
                f"query has free variables {missing}; bind them via 'binding' "
                f"or use /answer_group_by"
            )
        timeout = self._effective_timeout(self._timeout_of(payload))
        plan, answer = await self._dispatch(
            lambda: self._execute_answer(entry, query, binding), timeout
        )
        assert isinstance(answer, RangeAnswer)
        return 200, {
            "instance": entry.name,
            "answer": encode_range_answer(answer),
            "plan": self._plan_summary(plan),
            "shards": entry.shards,
        }

    async def _handle_answer_group_by(self, payload: object) -> Tuple[int, object]:
        payload = self._require_object(payload)
        self._mark_explain(payload)
        entry, query = self._parse_query_request(payload)
        if not query.free_variables:
            raise ProtocolError(
                "query has no free variables; use /answer for closed queries"
            )
        timeout = self._effective_timeout(self._timeout_of(payload))
        plan, answers = await self._dispatch(
            lambda: self._execute_answer(entry, query, None), timeout
        )
        return 200, {
            "instance": entry.name,
            "group_by": [v.name for v in query.free_variables],
            "groups": encode_group_answers(answers),
            "plan": self._plan_summary(plan),
            "shards": entry.shards,
        }

    async def _handle_answer_many(self, payload: object) -> Tuple[int, object]:
        payload = self._require_object(payload)
        raw_items = payload.get("items")
        if not isinstance(raw_items, list) or not raw_items:
            raise ProtocolError("request requires a non-empty 'items' list")
        pairs = []
        names = []
        entries = []
        for position, raw in enumerate(raw_items):
            if not isinstance(raw, Mapping):
                raise ProtocolError(f"items[{position}] must be an object")
            try:
                entry, query = self._parse_query_request(raw)
            except ReproError as exc:
                raise type(exc)(f"items[{position}]: {exc}") from exc
            pairs.append((query, entry.instance))
            names.append(entry.name)
            entries.append(entry)
        pool = self._pool
        if pool is not None and pool.is_running:
            # Process mode: the batch fans out across the persistent pool
            # (no fork risk — the workers already exist).  Prime the *named*
            # refs first so the batch path shares each registry entry's
            # pickled-once ref instead of minting anonymous keys (one
            # resident copy per worker, invalidatable by name).
            for entry in entries:
                pool.ref_for(entry.instance, name=entry.name)
            options = AnswerOptions()
        else:
            # Thread mode: serial on this thread, never a fork.
            options = AnswerOptions(max_workers=1)
        timeout = self._effective_timeout(self._timeout_of(payload))
        results = await self._dispatch(
            lambda: self.engine.answer_many(pairs, options), timeout
        )
        encoded = []
        for result, name in zip(results, names):
            item: Dict[str, object] = {
                "index": result.index,
                "instance": name,
                "seconds": result.seconds,
                "glb_strategy": result.glb_strategy,
                "lub_strategy": result.lub_strategy,
                "plan_cached": result.plan_cached,
            }
            if isinstance(result.answer, RangeAnswer):
                item["answer"] = encode_range_answer(result.answer)
            else:
                item["groups"] = encode_group_answers(result.answer)
            encoded.append(item)
        return 200, {"results": encoded}

    async def _handle_register_instance(self, payload: object) -> Tuple[int, object]:
        payload = self._require_object(payload)
        replace = bool(payload.get("replace", False))
        timeout = self._effective_timeout(self._timeout_of(payload))
        # Registration builds the instance and — with a store attached —
        # pickles and fsyncs it; like every write it runs on the engine
        # pool so the event loop never blocks on disk.
        entry = await self._dispatch(
            lambda: self.registry.register_payload(payload, replace=replace),
            timeout,
        )
        return 201, {"registered": entry.describe()}

    def _ship_delta(self, outcome) -> None:
        """Push a committed write's fact delta to the worker pool.

        Runs on the mutation's executor thread right after the registry
        commit: workers holding the previous version resident fast-forward
        in place instead of re-unpickling the whole database on their next
        job.  Purely an optimization — the pool's ``ref_for`` identity and
        data-version guards keep correctness even when the push is skipped
        or arrives out of order, so pool failures never fail the write.
        """
        pool = self._pool
        if pool is None or not pool.is_running:
            return
        delta_ops = tuple(
            ("add" if kind == "add_fact" else "remove", fact)
            for kind, fact in outcome.applied
        )
        try:
            pool.apply_named_delta(outcome.name, outcome.instance, delta_ops)
        except WorkerPoolError:
            pass  # pool mid-shutdown: the write itself already committed

    async def _handle_patch_instance(
        self, payload: object, name: str, headers: Optional[Mapping] = None
    ) -> Tuple[int, object]:
        """``PATCH /instances/{name}`` — the durable write path.

        Body: ``{"ops": [{"op": "add"|"remove", "relation": R,
        "values": [...]}, ...]}``; optimistic concurrency via
        ``If-Match: <version>`` (or a body-level ``expected_version``),
        answered with 409 on mismatch, so concurrent writers get clean
        409s instead of silent interleavings.  The response reports the
        write's footprint: the new ``version`` and the ``touched_blocks``.

        The mutation (copy-on-write apply + fsync'd log append) runs on the
        engine pool via :meth:`_dispatch` so disk I/O never blocks the
        event loop.

        Timeout semantics are at-most-once-but-maybe-committed: a 504 means
        the *response* was abandoned, while the mutation thread may still
        commit in the background (threads cannot be cancelled).  Clients
        that see a 504 on a write should confirm with ``GET /instances``
        before retrying — which is exactly what the precondition makes
        safe: a retry of an already-committed write fails with 409 instead
        of applying twice.
        """
        payload = self._require_object(payload)
        ops = decode_mutation_ops(payload)
        expected = expected_version_from_headers(headers, payload)
        timeout = self._effective_timeout(self._timeout_of(payload))

        def work():
            outcome = self.registry.mutate(name, ops, expected_version=expected)
            self._ship_delta(outcome)
            return outcome

        outcome = await self._dispatch(work, timeout)
        return 200, {
            "mutated": outcome.describe(),
            "applied": len(ops),
            "version": outcome.version,
            "touched_blocks": [
                encode_block_key(key) for key in outcome.touched_blocks
            ],
        }

    async def _handle_drop_instance(
        self, payload: object, name: str
    ) -> Tuple[int, object]:
        """``DELETE /instances/{name}`` — unregister and durably drop."""
        payload = self._require_object(payload)
        expected = expected_version_of(payload)
        timeout = self._effective_timeout(self._timeout_of(payload))
        entry = await self._dispatch(
            lambda: self.registry.drop(name, expected_version=expected), timeout
        )
        return 200, {"dropped": name, "version": entry.version}

    async def _handle_list_instances(self, payload: object) -> Tuple[int, object]:
        return 200, {"instances": self.registry.describe_all()}

    async def _handle_get_trace(
        self, payload: object, trace_id: str
    ) -> Tuple[int, object]:
        """``GET /traces/{id}`` — a retained trace's full span tree.

        The 404 uses the structured error envelope and says *why* the trace
        is gone: ``sampled_out`` means the head sampler dropped it (and the
        tail-keep rule found nothing worth rescuing); otherwise it was
        evicted from the bounded buffer or never existed.
        """
        trace = self.traces.get(trace_id)
        if trace is None:
            sampled_out = trace_id in self.sampled_out
            payload = error_body(
                "NotFound",
                f"no retained trace {trace_id!r} "
                + (
                    "(sampled out; slow and 5xx traces are always kept)"
                    if sampled_out
                    else f"(buffer keeps the last {self.traces.capacity})"
                ),
            )
            payload["error"]["sampled_out"] = sampled_out
            payload["error"]["reason"] = (
                "sampled_out" if sampled_out else "evicted_or_unknown"
            )
            return 404, payload
        return 200, {"trace": trace}

    def _refresh_registry_gauges(self) -> None:
        """Re-derive scrape-time gauges: uptime and pool queue depth.

        Queue depth is observed inside the worker machinery and surfaces
        through ``pool.stats()``; setting it lazily at exposition keeps the
        request path free of extra bookkeeping.
        """
        self.metrics.uptime_seconds()
        pool = self._pool
        if pool is None or not pool.is_running:
            return
        queue_gauge = REGISTRY.gauge(
            "repro_worker_queue_depth", "Jobs queued or running per worker process."
        )
        for worker in pool.stats().get("per_worker", []):
            queue_gauge.set(
                float(worker.get("queue_depth", 0)),
                worker=worker.get("worker", "?"),
            )

    async def _handle_metrics(
        self, payload: object, query: str = ""
    ) -> Tuple[int, object]:
        from urllib.parse import parse_qs

        wants_prometheus = "prometheus" in parse_qs(query).get("format", [])
        if wants_prometheus:
            self._refresh_registry_gauges()
            page = render_prometheus(
                self.metrics.registry, REGISTRY, CACHE_REGISTRY.metrics()
            )
            return 200, _TextResponse(page)
        stats = self.engine.cache_stats()
        snapshot = self.metrics.snapshot()
        snapshot.update(
            {
                "plan_cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "size": stats.size,
                    "maxsize": stats.maxsize,
                    "hit_rate": stats.hit_rate,
                },
                "sql_memo": sql_memo_stats(),
                "sharding": {
                    **self.engine.shard_stats(),
                    "plan_cache": shard_plan_cache_stats(),
                },
                "admission": {
                    "capacity": self.gate.capacity,
                    "in_use": self.gate.in_use,
                    "workers": self._workers,
                    "max_pending": self.config.max_pending,
                    "queued_cost_ms": round(self.gate.queued_cost_ms, 3),
                    "max_queue_cost_ms": self.config.max_queue_cost_ms,
                },
                "worker_pool": (
                    self._pool.stats()
                    if self._pool is not None
                    else {"enabled": False}
                ),
                "store": (
                    self.store.stats()
                    if self.store is not None
                    else {"enabled": False}
                ),
                "instances": self.registry.names(),
                "sampling": self.sampler.stats(),
                "otlp_export": (
                    self.exporter.stats()
                    if self.exporter is not None
                    else {"enabled": False}
                ),
                "cost": self.cost_table.summary(),
                "event_loop": self._lag_probe.stats(),
            }
        )
        return 200, snapshot

    _TOP_SORTS = ("cpu", "p95", "count")

    async def _handle_debug_top(
        self, payload: object, query: str = ""
    ) -> Tuple[int, object]:
        """``GET /debug/top?sort=cpu|p95|count&limit=N`` — the cost table."""
        from urllib.parse import parse_qs

        # keep_blank_values: `?sort=` must 400 like any other unknown key,
        # not silently fall back to the default.
        params = parse_qs(query, keep_blank_values=True)
        sort = (params.get("sort") or ["cpu"])[0]
        if sort not in self._TOP_SORTS:
            body = error_body(
                "Protocol",
                f"unknown sort {sort!r}; use one of {', '.join(self._TOP_SORTS)}",
            )
            body["error"]["valid_sorts"] = list(self._TOP_SORTS)
            return 400, body
        raw_limit = (params.get("limit") or ["20"])[0]
        try:
            limit = max(1, int(raw_limit))
        except ValueError:
            raise _HttpError(
                400, "Protocol", f"'limit' must be an integer, got {raw_limit!r}"
            )
        return 200, {
            "sort": sort,
            "summary": self.cost_table.summary(),
            "top": self.cost_table.top(sort=sort, limit=limit),
        }

    async def _handle_debug_caches(self, payload: object) -> Tuple[int, object]:
        """``GET /debug/caches`` — every registered cache, one report schema.

        The snapshot opens a ``cache.stats`` span per provider, so a traced
        scrape shows where the stats time went, cache by cache.
        """
        return 200, {"caches": CACHE_REGISTRY.snapshot()}

    async def _handle_healthz(self, payload: object) -> Tuple[int, object]:
        if self.store is not None:
            store_stats = self.store.stats()
            store_summary: Dict[str, object] = {
                "enabled": True,
                "dir": store_stats["dir"],
                "instances": store_stats["instances"],
                "versions": store_stats["versions"],
                "log_records_pending": store_stats["log_records_pending"],
                "last_compaction_at": store_stats["last_compaction_at"],
            }
        else:
            store_summary = {"enabled": False}
        return 200, {
            "status": "ok",
            "uptime_seconds": self.metrics.uptime_seconds(),
            "backend": self.engine.backend_name,
            "fallback": "branch_and_bound",
            "workers": self._workers,
            "worker_processes": self._pool.size if self._pool is not None else 0,
            "instances": len(self.registry),
            "store": store_summary,
        }


async def run_server(config: Optional[ServeConfig] = None) -> None:
    """Boot a server and serve until cancelled (the ``__main__`` entry).

    ``stop()`` runs even when ``start()`` itself fails (e.g. the port is
    already bound), so a started worker pool never outlives the attempt.
    """
    server = ConsistentAnswerServer(config)
    try:
        host, port = await server.start()
        _LOG.info("listening", server=SERVER_NAME, host=host, port=port)
        if server.config.worker_processes > 0:
            _LOG.info(
                "worker_pool_started",
                processes=server.config.worker_processes,
            )
        if server.store is not None:
            _LOG.info(
                "store_attached",
                dir=server.store.root,
                instances_loaded=len(server.registry),
                compact_every=server.store.compact_every,
            )
        _LOG.info("instances_registered", names=server.registry.names())
        await server.serve_forever()
    finally:
        await server.stop()
