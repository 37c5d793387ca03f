"""Async HTTP client and load generator for the serving layer.

:class:`ServeClient` is a minimal HTTP/1.1 client over asyncio streams
(keep-alive, ``Content-Length`` framing) with typed helpers for every
endpoint; answers decode back into :class:`RangeAnswer` objects so client
code round-trips the library's exact arithmetic.

:class:`LoadGenerator` drives a server with a mixed workload at a fixed
concurrency, recording per-request latency; :meth:`LoadGenerator.run`
returns a :class:`LoadReport` with throughput and p50/p95 — the measurement
``benchmarks/bench_serve.py`` and the CI smoke job are built on.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.range_answers import RangeAnswer
from repro.datamodel.facts import Constant
from repro.datamodel.instance import DatabaseInstance
from repro.exceptions import ReproError
from repro.obs.trace import TRACE_HEADER
from repro.serve.protocol import (
    ProtocolError,
    decode_group_answers,
    decode_range_answer,
    dumps,
    encode_constant,
    encode_mutation_op,
    instance_to_payload,
    loads,
)


class ServeClientError(ReproError):
    """A non-2xx response surfaced as an exception by the typed helpers.

    Carries the server's ``X-Repro-Trace-Id`` (``trace_id``) and the
    structured error body (``body``), so a failed call can be correlated
    with the server-side trace and slow-query log without re-issuing it.
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        trace_id: Optional[str] = None,
        body: Optional[object] = None,
    ) -> None:
        suffix = f" (trace {trace_id})" if trace_id else ""
        super().__init__(f"[{status} {error_type}] {message}{suffix}")
        self.status = status
        self.error_type = error_type
        self.trace_id = trace_id
        self.body = body


class ServeClient:
    """One keep-alive connection to a repro-serve server."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Trace id echoed by the most recent response (None before any).
        self.last_trace_id: Optional[str] = None
        #: Lower-cased headers of the most recent response (empty before any).
        self.last_response_headers: Dict[str, str] = {}

    # -- connection management ---------------------------------------------------------

    async def open(self) -> "ServeClient":
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return await self.open()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- raw request / response --------------------------------------------------------

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[object] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object]:
        """Send one request, returning ``(status, decoded JSON body)``.

        The connection is kept alive across calls.  A timed-out exchange
        closes the connection (a late response would otherwise be read as
        the answer to the *next* request).  Broken connections are retried
        once, but only for GETs — a POST may already have executed
        server-side, and re-sending it is not idempotent.  ``headers``
        are extra request headers (e.g. ``If-Match`` preconditions).
        """
        try:
            return await asyncio.wait_for(
                self._request_once(method, path, payload, headers), self._timeout_s
            )
        except asyncio.TimeoutError:
            await self.close()  # connection is mid-response: desynchronized
            raise
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            await self.close()
            if method.upper() != "GET":
                raise
            return await asyncio.wait_for(
                self._request_once(method, path, payload, headers), self._timeout_s
            )

    async def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[object],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object]:
        await self.open()
        assert self._reader is not None and self._writer is not None
        body = dumps(payload) if payload is not None else b""
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            f"{extra}"
            f"\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ProtocolError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionResetError("server closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        self.last_response_headers = dict(headers)
        trace_id = headers.get(TRACE_HEADER.lower())
        if trace_id:
            self.last_trace_id = trace_id
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, loads(raw)

    def _checked(self, status: int, payload: object) -> object:
        if 200 <= status < 300:
            return payload
        error = {}
        if isinstance(payload, dict):
            error = payload.get("error") or {}
        raise ServeClientError(
            status,
            error.get("type", "Unknown"),
            error.get("message", ""),
            trace_id=error.get("trace_id") or self.last_trace_id,
            body=payload,
        )

    # -- typed endpoint helpers --------------------------------------------------------

    async def answer(
        self,
        instance: str,
        query: str,
        binding: Optional[Dict[str, Constant]] = None,
        timeout_s: Optional[float] = None,
    ) -> RangeAnswer:
        payload: Dict[str, object] = {"instance": instance, "query": query}
        if binding:
            payload["binding"] = {
                name: encode_constant(value) for name, value in binding.items()
            }
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        status, body = await self.request("POST", "/answer", payload)
        result = self._checked(status, body)
        return decode_range_answer(result["answer"])

    async def answer_group_by(
        self, instance: str, query: str, timeout_s: Optional[float] = None
    ) -> Dict[Tuple[Constant, ...], RangeAnswer]:
        payload: Dict[str, object] = {"instance": instance, "query": query}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        status, body = await self.request("POST", "/answer_group_by", payload)
        result = self._checked(status, body)
        return decode_group_answers(result["groups"])

    async def answer_many(
        self,
        items: Sequence[Tuple[str, str]],
        timeout_s: Optional[float] = None,
    ) -> List[Dict[str, object]]:
        """Answer a batch of ``(instance_name, query_text)`` pairs.

        The server sizes the batch: serial in thread mode, one chunk per
        worker under ``--workers``.
        """
        payload: Dict[str, object] = {
            "items": [
                {"instance": instance, "query": query} for instance, query in items
            ]
        }
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        status, body = await self.request("POST", "/answer_many", payload)
        result = self._checked(status, body)
        return result["results"]

    async def register_instance(
        self,
        name: str,
        instance: DatabaseInstance,
        replace: bool = False,
        shards: Optional[int] = None,
    ) -> Dict[str, object]:
        payload = instance_to_payload(name, instance)
        payload["replace"] = replace
        if shards is not None:
            payload["shards"] = shards
        status, body = await self.request("POST", "/instances", payload)
        return self._checked(status, body)["registered"]

    async def mutate_instance(
        self,
        name: str,
        ops: Sequence[object],
        expected_version: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Apply fact mutations to a registered instance (the write path).

        Speaks ``PATCH /instances/{name}`` with the typed ops envelope;
        ``ops`` are ``("add"|"remove", relation, values)`` triples (or
        equivalently shaped mappings).  ``expected_version`` is sent as an
        ``If-Match`` header, turning a lost optimistic-concurrency race
        into a :class:`ServeClientError` with status 409.  Returns the
        mutated instance's description (bumped ``version`` included)
        merged with the write's footprint: ``applied`` and
        ``touched_blocks``.
        """
        from urllib.parse import quote

        payload: Dict[str, object] = {"ops": [encode_mutation_op(op) for op in ops]}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        headers = (
            {"If-Match": str(expected_version)}
            if expected_version is not None
            else None
        )
        status, body = await self.request(
            "PATCH", f"/instances/{quote(name, safe='')}", payload, headers=headers
        )
        result = self._checked(status, body)
        return {
            **result["mutated"],
            "applied": result["applied"],
            "touched_blocks": result["touched_blocks"],
        }

    async def drop_instance(
        self, name: str, expected_version: Optional[int] = None
    ) -> Dict[str, object]:
        """Unregister (and durably drop, if the server has a store) ``name``."""
        from urllib.parse import quote

        payload: Dict[str, object] = {}
        if expected_version is not None:
            payload["expected_version"] = expected_version
        status, body = await self.request(
            "DELETE", f"/instances/{quote(name, safe='')}", payload
        )
        return self._checked(status, body)

    async def instances(self) -> List[Dict[str, object]]:
        status, body = await self.request("GET", "/instances")
        return self._checked(status, body)["instances"]

    async def metrics(self) -> Dict[str, object]:
        status, body = await self.request("GET", "/metrics")
        return self._checked(status, body)

    async def trace(self, trace_id: str) -> Dict[str, object]:
        """Fetch a retained trace's span tree from ``GET /traces/{id}``."""
        from urllib.parse import quote

        status, body = await self.request(
            "GET", f"/traces/{quote(trace_id, safe='')}"
        )
        return self._checked(status, body)["trace"]

    async def debug_top(
        self, sort: str = "cpu", limit: Optional[int] = None
    ) -> Dict[str, object]:
        """Fetch the per-(instance, plan) cost table from ``GET /debug/top``."""
        path = f"/debug/top?sort={sort}"
        if limit is not None:
            path += f"&limit={limit}"
        status, body = await self.request("GET", path)
        return self._checked(status, body)

    async def healthz(self) -> Dict[str, object]:
        status, body = await self.request("GET", "/healthz")
        return self._checked(status, body)


# -- load generation --------------------------------------------------------------------

#: One planned request: (method, path, payload-or-None).
PlannedRequest = Tuple[str, str, Optional[object]]


@dataclass
class LoadObservation:
    """Outcome of one load-generated request."""

    path: str
    status: int
    seconds: float


@dataclass
class LoadReport:
    """Aggregate of one load-generation run."""

    requests: int
    concurrency: int
    seconds: float
    observations: List[LoadObservation] = field(repr=False, default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for obs in self.observations:
            key = str(obs.status)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def error_5xx(self) -> int:
        return sum(1 for obs in self.observations if obs.status >= 500)

    def percentile_ms(self, quantile: float) -> Optional[float]:
        if not self.observations:
            return None
        ordered = sorted(obs.seconds for obs in self.observations)
        index = min(len(ordered) - 1, max(0, round(quantile * (len(ordered) - 1))))
        return round(ordered[index] * 1000.0, 3)

    def summary(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "concurrency": self.concurrency,
            "seconds": round(self.seconds, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
            "p99_ms": self.percentile_ms(0.99),
            "statuses": self.status_counts(),
            "errors_5xx": self.error_5xx(),
        }


class LoadGenerator:
    """Drives a server with a fixed-concurrency closed-loop workload.

    ``concurrency`` worker coroutines each hold one keep-alive connection
    and pull planned requests from a shared queue until it drains — the
    classic closed-loop load model, so measured throughput is end-to-end
    (connection reuse, parsing, engine, serialization).
    """

    def __init__(self, host: str, port: int, concurrency: int = 8) -> None:
        self._host = host
        self._port = port
        self._concurrency = max(1, concurrency)

    async def run(self, planned: Sequence[PlannedRequest]) -> LoadReport:
        queue: "asyncio.Queue[PlannedRequest]" = asyncio.Queue()
        for item in planned:
            queue.put_nowait(item)
        observations: List[LoadObservation] = []

        async def worker() -> None:
            async with ServeClient(self._host, self._port) as client:
                while True:
                    try:
                        method, path, payload = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    started = time.perf_counter()
                    try:
                        status, _body = await client.request(method, path, payload)
                    except (OSError, asyncio.TimeoutError, ReproError):
                        status = 599  # transport-level failure bucket
                    observations.append(
                        LoadObservation(
                            path=path,
                            status=status,
                            seconds=time.perf_counter() - started,
                        )
                    )

        started = time.perf_counter()
        workers = min(self._concurrency, max(1, len(planned)))
        await asyncio.gather(*(worker() for _ in range(workers)))
        elapsed = time.perf_counter() - started
        return LoadReport(
            requests=len(observations),
            concurrency=workers,
            seconds=elapsed,
            observations=observations,
        )
