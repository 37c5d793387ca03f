"""Observability tests: span trees, cross-process re-parenting, structured
logs, the metrics registry, and Prometheus text exposition.

The serving-layer pieces (trace-id echo, explain mode, ``GET /traces/{id}``,
the slow-query log) are exercised end to end against a live server on an
ephemeral port; the worker-pool pieces use the pool's deterministic
``sleep`` diagnostic job so a worker can be killed provably mid-span.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import sys
import threading
import time

import pytest

from repro.engine import WorkerPool
from repro.obs import TRACE_HEADER, TraceBuffer, get_logger, render_prometheus
from repro.obs.admission import (
    REASON_COLD_KEY,
    REASON_COST_OK,
    REASON_DEPTH,
    REASON_PREDICTED_COST,
    CostPredictor,
    retry_after_s,
)
from repro.obs.cost import CostTable, add_cost, rollup
from repro.obs.export import SpanExporter
from repro.obs.log import set_log_level
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sample import DroppedTraceLog, TraceSampler
from repro.obs.trace import (
    current_span,
    current_trace_id,
    new_trace_id,
    propagation_context,
    remote_root,
    set_tracing,
    span,
    start_trace,
    tracing_enabled,
)
from repro.serve.app import AdmissionGate, ConsistentAnswerServer, ServeConfig
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.metrics import LATENCY_BUCKETS, ServerMetrics
from repro.workloads.queries import stock_sum_query
from repro.workloads.scenarios import fig1_stock_instance

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"


@pytest.fixture(autouse=True)
def _tracing_on():
    """Tests (and servers built inside them) flip the process-global tracing
    switch; every test starts and ends with it on."""
    set_tracing(True)
    yield
    set_tracing(True)


def serve_scenario(coro_fn, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("workers", 2)

    async def main():
        server = ConsistentAnswerServer(ServeConfig(**config_kwargs))
        await server.start()
        try:
            host, port = server.address
            async with ServeClient(host, port) as client:
                return await coro_fn(server, client)
        finally:
            await server.stop()

    return asyncio.run(main())


async def _raw_request(host, port, method, path, headers=None, body=b""):
    """One HTTP exchange over a raw socket: (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
    head += f"Content-Length: {len(body)}\r\n"
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    parsed = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return status, parsed, payload


# -- span trees --------------------------------------------------------------------------


class TestSpans:
    def test_nested_spans_build_a_tree(self):
        with start_trace("root", method="POST") as root:
            assert current_span() is root
            assert current_trace_id() == root.trace_id
            with span("child", layer=1) as child:
                assert current_span() is child
                with span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
            assert current_span() is root
        assert current_span() is None
        tree = root.to_dict()
        assert tree["name"] == "root"
        assert tree["tags"] == {"method": "POST"}
        assert tree["duration_ms"] is not None
        (child_dict,) = tree["children"]
        assert child_dict["name"] == "child"
        assert child_dict["parent_id"] == tree["span_id"]
        (grandchild_dict,) = child_dict["children"]
        assert grandchild_dict["trace_id"] == root.trace_id

    def test_span_is_noop_outside_a_trace(self):
        with span("orphan") as opened:
            assert opened is None
        assert current_span() is None

    def test_disabled_tracing_short_circuits_everything(self):
        set_tracing(False)
        assert not tracing_enabled()
        with start_trace("root") as root:
            assert root is None
            with span("child") as child:
                assert child is None
            assert propagation_context() is None
        assert current_trace_id() is None

    def test_remote_root_grafts_under_the_dispatch_span(self):
        with start_trace("root") as root:
            with span("pool.answer") as dispatch:
                context = propagation_context()
                assert context == (root.trace_id, dispatch.span_id)
        # Simulate the worker side of the hop (it runs in another process,
        # where the parent's contextvar is absent).
        with remote_root("worker.answer", context, worker=3) as worker_span:
            with span("shard.summarize", shard=0):
                pass
        shipped = [worker_span.to_dict()]
        dispatch.add_remote_children(shipped)
        tree = root.to_dict()
        (dispatch_dict,) = tree["children"]
        (worker_dict,) = dispatch_dict["children"]
        assert worker_dict["name"] == "worker.answer"
        assert worker_dict["trace_id"] == root.trace_id
        assert worker_dict["parent_id"] == dispatch_dict["span_id"]
        (summarize,) = worker_dict["children"]
        assert summarize["trace_id"] == root.trace_id
        assert summarize["parent_id"] == worker_dict["span_id"]

    def test_remote_root_without_context_is_noop(self):
        with remote_root("worker.answer", None) as worker_span:
            assert worker_span is None


# -- latency histogram percentiles -------------------------------------------------------


def _latency_histogram(buckets=LATENCY_BUCKETS) -> Histogram:
    return Histogram("repro_request_latency_seconds", "", buckets)


class TestHistogramPercentiles:
    def test_empty_histogram_has_no_percentiles(self):
        histogram = _latency_histogram()
        assert histogram.percentile(0.5) is None
        assert histogram.percentile(0.99) is None
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_ms"] is None
        assert snapshot["p95_ms"] is None
        assert snapshot["p99_ms"] is None

    def test_overflow_observations_fall_back_to_the_mean(self):
        histogram = _latency_histogram()
        histogram.observe(20.0)  # beyond the 10s top bound: +Inf bucket
        histogram.observe(40.0)
        assert histogram.percentile(0.5) == pytest.approx(30.0)
        assert histogram.percentile(0.99) == pytest.approx(30.0)

    def test_overflow_rank_reports_the_overflow_mean_not_the_overall_mean(self):
        # 3% of requests hit a 30 s timeout: p99 lands in the +Inf bucket
        # and must report those requests, not the 0.9 s mean of everything.
        histogram = _latency_histogram()
        for _ in range(97):
            histogram.observe(0.002)
        for _ in range(3):
            histogram.observe(30.0)
        assert histogram.percentile(0.99) == pytest.approx(30.0)
        assert histogram.snapshot()["p99_ms"] == pytest.approx(30000.0)
        assert histogram.percentile(0.99) >= histogram.bounds[-1]

    def test_percentile_interpolates_within_the_bucket(self):
        histogram = _latency_histogram(buckets=(0.1, 0.2))
        for _ in range(10):
            histogram.observe(0.15)  # all land in the (0.1, 0.2] bucket
        # rank 5 of 10 → halfway through the containing bucket
        assert histogram.percentile(0.5) == pytest.approx(0.15)
        assert histogram.percentile(1.0) == pytest.approx(0.2)

    def test_label_sets_are_independent_series(self):
        histogram = _latency_histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05, endpoint="a")
        histogram.observe(0.5, endpoint="b")
        histogram.observe(0.5, endpoint="b")
        assert histogram.percentile(1.0, endpoint="a") == pytest.approx(0.1)
        assert histogram.percentile(1.0, endpoint="b") == pytest.approx(1.0)
        assert histogram.percentile(0.5) is None  # the unlabelled series
        assert histogram.snapshot(endpoint="b")["count"] == 2


# -- registry instruments ----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_with_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "help")
        counter.inc(reason="single_shard")
        counter.inc(reason="single_shard")
        counter.inc(reason="empty_body")
        assert counter.value(reason="single_shard") == 2
        assert counter.value(reason="empty_body") == 1
        assert counter.value(reason="missing") == 0

    def test_histogram_samples_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "help", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        samples = dict(
            ((name, labels), value) for name, labels, value in histogram.samples()
        )
        assert samples[("lat_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_bucket", (("le", "1.0"),))] == 2
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 3
        assert samples[("lat_count", ())] == 3

    def test_kind_mismatch_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("thing", "help")
        with pytest.raises(TypeError):
            registry.gauge("thing", "help")

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


# -- trace buffer ------------------------------------------------------------------------


class TestTraceBuffer:
    def test_eviction_is_oldest_first(self):
        buffer = TraceBuffer(capacity=2)
        buffer.record({"trace_id": "a"})
        buffer.record({"trace_id": "b"})
        buffer.record({"trace_id": "c"})
        assert buffer.get("a") is None
        assert buffer.get("b") is not None
        assert buffer.trace_ids() == ["b", "c"]

    def test_re_record_latest_wins(self):
        buffer = TraceBuffer(capacity=2)
        buffer.record({"trace_id": "a", "attempt": 1})
        buffer.record({"trace_id": "b"})
        buffer.record({"trace_id": "a", "attempt": 2})
        assert buffer.get("a")["attempt"] == 2
        assert buffer.trace_ids() == ["b", "a"]

    def test_capacity_is_validated(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


# -- structured logging ------------------------------------------------------------------


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@pytest.fixture()
def captured_log():
    handler = _Capture()
    logger = logging.getLogger("repro.obs")
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)


class TestStructuredLog:
    def test_events_are_one_json_line_with_the_trace_id(self, captured_log):
        log = get_logger("test")
        with start_trace("root") as root:
            log.info("something_happened", detail=42)
        (line,) = captured_log.lines
        event = json.loads(line)
        assert event["component"] == "test"
        assert event["event"] == "something_happened"
        assert event["detail"] == 42
        assert event["trace_id"] == root.trace_id
        assert event["level"] == "info"

    def test_trace_id_is_null_outside_a_request(self, captured_log):
        get_logger("test").warning("standalone")
        event = json.loads(captured_log.lines[0])
        assert event["trace_id"] is None


# -- Prometheus exposition ---------------------------------------------------------------


def _parse_label_blob(label_blob, line_number):
    """Parse a ``label="value",...`` blob (no braces) into sorted pairs."""
    labels = []
    for pair in filter(None, label_blob.split(",")):
        label, _, quoted = pair.partition("=")
        assert quoted.startswith('"') and quoted.endswith('"'), (
            f"line {line_number}: unquoted label value in {pair!r}"
        )
        labels.append((label, quoted[1:-1]))
    return tuple(sorted(labels))


def parse_prometheus(text):
    """A tiny exposition-format parser: validates line shapes as it goes.

    Returns ``{family: {"type": kind, "samples": {...}, "exemplars": {...}}}``
    where ``samples`` maps ``(name, labels)`` to the float value, ``labels``
    is a sorted tuple of ``(label, value)`` pairs, and ``exemplars`` maps the
    same keys to ``(exemplar_labels, exemplar_value, timestamp_or_None)`` for
    sample lines carrying OpenMetrics exemplar syntax
    (``... # {trace_id="..."} value [ts]``).
    """
    families = {}
    current = None
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            family = rest.split(" ", 1)[0]
            current = families.setdefault(
                family, {"type": None, "samples": {}, "exemplars": {}}
            )
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) >= 4, f"line {line_number}: malformed TYPE"
            family, kind = parts[2], parts[3]
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped")
            current = families.setdefault(
                family, {"type": None, "samples": {}, "exemplars": {}}
            )
            current["type"] = kind
            continue
        assert not line.startswith("#"), f"line {line_number}: unknown comment"
        sample_part, exemplar_sep, exemplar_part = line.partition(" # ")
        exemplar = None
        if exemplar_sep:
            # OpenMetrics exemplar: `{label="value",...} value [timestamp]`
            assert exemplar_part.startswith("{"), (
                f"line {line_number}: exemplar must start with labels"
            )
            blob, _, rest = exemplar_part[1:].partition("}")
            exemplar_labels = _parse_label_blob(blob, line_number)
            assert exemplar_labels, f"line {line_number}: empty exemplar labels"
            fields = rest.split()
            assert 1 <= len(fields) <= 2, (
                f"line {line_number}: exemplar needs a value and optional ts"
            )
            exemplar = (
                exemplar_labels,
                float(fields[0]),
                float(fields[1]) if len(fields) == 2 else None,
            )
        name_and_labels, _, value_text = sample_part.rpartition(" ")
        assert name_and_labels, f"line {line_number}: no sample name"
        if "{" in name_and_labels:
            name, _, label_blob = name_and_labels.partition("{")
            assert label_blob.endswith("}"), f"line {line_number}: unclosed labels"
            labels = _parse_label_blob(label_blob[:-1], line_number)
        else:
            name, labels = name_and_labels, ()
        value = float(value_text)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
        assert family in families, f"line {line_number}: sample {name!r} before TYPE"
        families[family]["samples"][(name, labels)] = value
        if exemplar is not None:
            assert name.endswith("_bucket"), (
                f"line {line_number}: exemplar on a non-bucket sample"
            )
            families[family]["exemplars"][(name, labels)] = exemplar
    return families


class TestPrometheusRender:
    def test_rendered_page_parses_and_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_test_seconds", "help", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        registry.counter("repro_test_total", "help").inc(reason="a b\"c\\d\n")
        server = ServerMetrics()
        for seconds in (0.0005, 0.005, 0.005):
            server.request_started()
            server.request_finished("POST /answer", 200, seconds)
        families = parse_prometheus(render_prometheus(server.registry, registry))
        latency = families["repro_request_latency_seconds"]
        assert latency["type"] == "histogram"
        endpoint = ("endpoint", "POST /answer")
        assert latency["samples"][
            ("repro_request_latency_seconds_bucket", tuple(sorted((endpoint, ("le", "0.001")))))
        ] == 1
        assert latency["samples"][
            ("repro_request_latency_seconds_bucket", tuple(sorted((endpoint, ("le", "0.01")))))
        ] == 3  # cumulative, not per-bucket
        assert latency["samples"][
            ("repro_request_latency_seconds_count", (endpoint,))
        ] == 3
        test_hist = families["repro_test_seconds"]
        assert test_hist["samples"][("repro_test_seconds_bucket", (("le", "+Inf"),))] == 2
        # label escaping survives the round trip
        counter_samples = families["repro_test_total"]["samples"]
        ((_, labels),) = counter_samples.keys()
        assert labels == (("reason", 'a b\\"c\\\\d\\n'),)
        assert families["repro_requests_total"]["samples"][
            ("repro_requests_total", (("endpoint", "POST /answer"), ("status", "200")))
        ] == 3
        assert families["repro_requests_in_flight"]["samples"][
            ("repro_requests_in_flight", ())
        ] == 0

    def test_deleted_duplicate_families_are_not_rendered(self):
        server = ServerMetrics()
        for status in (503, 504):
            server.request_started()
            server.request_finished("POST /answer", status, 0.001)
        page = render_prometheus(server.registry)
        families = parse_prometheus(page)
        assert "repro_requests_rejected_total" not in families
        assert "repro_request_timeouts_total" not in families
        requests = families["repro_requests_total"]["samples"]
        for status in ("503", "504"):
            key = (("endpoint", "POST /answer"), ("status", status))
            assert requests[("repro_requests_total", key)] == 1
        snapshot = server.snapshot()
        assert snapshot["rejected_total"] == 1 and snapshot["timeout_total"] == 1

    def test_each_server_counts_only_its_own_requests(self):
        first, second = ServerMetrics(), ServerMetrics()
        first.request_started()
        first.request_finished("POST /answer", 503, 0.001)
        assert first.snapshot()["rejected_total"] == 1
        assert second.snapshot()["rejected_total"] == 0
        assert second.snapshot()["requests_total"] == {}


# -- server integration ------------------------------------------------------------------


class TestServerTracing:
    def test_trace_header_echoed_on_success_and_errors(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)
            success_id = client.last_trace_id
            assert success_id
            with pytest.raises(ServeClientError) as excinfo:
                await client.answer("no_such_instance", STOCK_SUM)
            error = excinfo.value
            assert error.status == 404
            assert error.trace_id
            assert error.trace_id != success_id
            assert error.body["error"]["trace_id"] == error.trace_id

        serve_scenario(scenario)

    def test_inbound_trace_id_is_honored_and_echoed(self):
        async def scenario(server, client):
            host, port = server.address
            inbound = new_trace_id()
            status, headers, payload = await _raw_request(
                host,
                port,
                "POST",
                "/answer",
                headers={TRACE_HEADER: inbound},
                body=json.dumps({"instance": "stock", "query": STOCK_SUM}).encode(),
            )
            assert status == 200
            assert headers[TRACE_HEADER.lower()] == inbound
            retained = await client.trace(inbound)
            assert retained["trace_id"] == inbound
            assert retained["name"] == "http.request"

        serve_scenario(scenario)

    def test_explain_inlines_the_span_tree(self):
        async def scenario(server, client):
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "explain": True},
            )
            assert status == 200
            tree = body["trace"]
            assert tree["trace_id"] == client.last_trace_id
            names = _span_names(tree)
            assert "plan.lookup" in names
            assert any(n.startswith("execute.") for n in names)
            # Same request without explain stays lean.
            status, body = await client.request(
                "POST", "/answer", {"instance": "stock", "query": STOCK_SUM}
            )
            assert status == 200 and "trace" not in body

        serve_scenario(scenario)

    def test_unknown_trace_is_a_404(self):
        async def scenario(server, client):
            with pytest.raises(ServeClientError) as excinfo:
                await client.trace("deadbeef")
            assert excinfo.value.status == 404

        serve_scenario(scenario)

    def test_tracing_disabled_still_echoes_ids_but_retains_nothing(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)
            assert client.last_trace_id
            with pytest.raises(ServeClientError) as excinfo:
                await client.trace(client.last_trace_id)
            assert excinfo.value.status == 404

        set_tracing(False)  # the autouse fixture turns it back on
        serve_scenario(scenario)

    def test_slow_query_log_emits_the_full_tree(self):
        captured = _Capture()
        logging.getLogger("repro.obs").addHandler(captured)
        try:

            async def scenario(server, client):
                await client.answer("stock", STOCK_SUM)
                return client.last_trace_id

            trace_id = serve_scenario(scenario, slow_query_ms=0)
        finally:
            logging.getLogger("repro.obs").removeHandler(captured)
        events = [json.loads(line) for line in captured.lines]
        slow = [
            e
            for e in events
            if e["event"] == "slow_query" and e["trace_id"] == trace_id
        ]
        assert slow, f"no slow_query event for {trace_id} in {events}"
        assert slow[0]["trace"]["trace_id"] == trace_id
        assert slow[0]["path"] == "/answer"

    def test_metrics_prometheus_format_is_parseable(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)
            host, port = server.address
            status, headers, payload = await _raw_request(
                host, port, "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            families = parse_prometheus(payload.decode("utf-8"))
            assert "repro_uptime_seconds" in families
            requests_total = families["repro_requests_total"]["samples"]
            assert any(
                labels == (("endpoint", "POST /answer"), ("status", "200"))
                for _, labels in requests_total
            )
            # JSON snapshot is unchanged by the new format knob.
            plain = await client.metrics()
            assert "requests_total" in plain and "latency" in plain

        serve_scenario(scenario)

    def test_trace_propagates_through_answer_many_fan_out(self):
        async def scenario(server, client):
            host, port = server.address
            inbound = new_trace_id()
            body = json.dumps(
                {
                    "items": [
                        {"instance": "stock", "query": STOCK_SUM},
                        {"instance": "stock", "query": STOCK_SUM},
                        {"instance": "stock", "query": STOCK_SUM},
                    ]
                }
            ).encode()
            status, headers, _ = await _raw_request(
                host,
                port,
                "POST",
                "/answer_many",
                headers={TRACE_HEADER: inbound},
                body=body,
            )
            assert status == 200
            assert headers[TRACE_HEADER.lower()] == inbound
            tree = await client.trace(inbound)
            names = _span_names(tree)
            assert "pool.chunks" in names, names
            assert any(n.startswith("worker.chunk") for n in names), names
            _assert_single_trace_id(tree, inbound)

        serve_scenario(scenario, worker_processes=2)

    def test_sharded_worker_spans_reparent_under_the_request(self):
        async def scenario(server, client):
            await client.register_instance("sharded", fig1_stock_instance(), shards=2)
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "sharded", "query": STOCK_SUM, "explain": True},
            )
            assert status == 200
            tree = body["trace"]
            names = _span_names(tree)
            assert "shard.plan" in names
            assert "pool.shards" in names
            assert "worker.shards" in names
            assert "shard.summarize" in names
            assert "shard.merge" in names
            _assert_single_trace_id(tree, tree["trace_id"])
            _assert_all_closed(tree)

        serve_scenario(scenario, worker_processes=2)


def _span_names(tree):
    names = [tree["name"]]
    for child in tree.get("children", ()):
        names.extend(_span_names(child))
    return names


def _assert_single_trace_id(tree, trace_id):
    assert tree["trace_id"] == trace_id, (tree["name"], tree["trace_id"])
    for child in tree.get("children", ()):
        _assert_single_trace_id(child, trace_id)


def _assert_all_closed(tree):
    assert tree["duration_ms"] is not None, f"span {tree['name']} never finished"
    for child in tree.get("children", ()):
        _assert_all_closed(child)


# -- cross-process re-parenting under crashes --------------------------------------------


class TestWorkerCrashTracing:
    def test_killed_worker_leaks_no_open_span_and_the_retry_reparents(self):
        with WorkerPool(workers=2) as pool:
            with start_trace("request") as root:
                with span("pool.answer") as dispatch:
                    future = pool._submit(0, "sleep", (0.4,), parent_span=dispatch)
                    time.sleep(0.1)  # the job is provably running now
                    os.kill(pool.worker_pids()[0], signal.SIGKILL)
                    assert future.result(timeout=15) == 0.4  # retried on respawn
            assert current_span() is None  # nothing leaked onto the context
            tree = root.to_dict()
            _assert_all_closed(tree)
            _assert_single_trace_id(tree, root.trace_id)
            names = _span_names(tree)
            # The respawned worker's attempt grafted under the dispatch span.
            assert "worker.sleep" in names, names
            assert pool.stats()["retries"] >= 1

    def test_pool_answer_collects_worker_spans(self):
        instance = fig1_stock_instance()
        query = stock_sum_query()
        with WorkerPool(workers=2) as pool:
            with start_trace("request") as root:
                pool.answer(query, instance)
            names = _span_names(root.to_dict())
            assert "pool.answer" in names
            assert "worker.answer" in names
            assert "worker.instance_load" in names

    def test_untraced_pool_calls_ship_no_context(self):
        instance = fig1_stock_instance()
        query = stock_sum_query()
        with WorkerPool(workers=2) as pool:
            # No active trace: jobs carry context None and return no spans.
            expected = pool.answer(query, instance)
            assert current_span() is None
            assert expected is not None


# -- sampling ----------------------------------------------------------------------------


class TestSampler:
    def test_head_rotation_is_deterministic(self):
        sampler = TraceSampler(3)
        decisions = [sampler.sample() for _ in range(9)]
        assert decisions == [True, False, False] * 3
        # the ≤ ceil(n/rate) bound is a guarantee, not an expectation
        assert sum(decisions) == 3

    def test_rate_one_keeps_everything(self):
        sampler = TraceSampler(1)
        assert all(sampler.sample() for _ in range(20))

    @pytest.mark.parametrize("raw", ["10", "1/10"])
    def test_trace_sample_flag_accepts_both_spellings(self, raw):
        from repro.serve.__main__ import build_parser, config_from_args

        config = config_from_args(build_parser().parse_args(["--trace-sample", raw]))
        assert config.trace_sample == 10
        assert TraceSampler(config.trace_sample).rate == 10

    def test_unpinned_rate_starts_at_one(self):
        from repro.serve.__main__ import build_parser, config_from_args

        assert config_from_args(build_parser().parse_args([])).trace_sample is None
        assert TraceSampler().rate == 1

    @pytest.mark.parametrize("raw", ["banana", "2/10", "0"])
    def test_malformed_trace_sample_is_a_usage_error(self, raw, capsys):
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["--trace-sample", raw])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--trace-sample" in err

    def test_trace_target_rps_is_not_an_option(self, capsys):
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["--trace-target-rps", "5"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --trace-target-rps" in capsys.readouterr().err
        with pytest.raises(TypeError):
            ServeConfig(trace_target_rps=5.0)

    def test_stats_count_head_decisions_only_when_pinned(self):
        pinned = TraceSampler(4)
        for _ in range(5):
            pinned.sample()
        stats = pinned.stats()
        assert set(stats) == {"rate", "decisions", "head_decisions"}
        assert (stats["rate"], stats["head_decisions"]) == (4, 5)
        unpinned = TraceSampler()
        assert all(unpinned.sample() for _ in range(5))
        stats = unpinned.stats()
        assert set(stats) == {"rate", "decisions"}
        assert set(stats["decisions"]) == {"head", "slow", "error", "sampled_out"}

    def test_decide_precedence_head_error_slow_drop(self):
        sampler = TraceSampler(10)
        decide = sampler.decide
        assert decide(sampled=True, status=500, duration_ms=0, slow_ms=None) == "head"
        assert decide(sampled=False, status=500, duration_ms=0, slow_ms=None) == "error"
        assert decide(sampled=False, status=200, duration_ms=90, slow_ms=50) == "slow"
        assert (
            decide(sampled=False, status=200, duration_ms=10, slow_ms=50)
            == "sampled_out"
        )
        # no slow threshold configured → nothing is rescued for slowness
        assert (
            decide(sampled=False, status=200, duration_ms=1e9, slow_ms=None)
            == "sampled_out"
        )
        stats = sampler.stats()
        assert stats["rate"] == 10
        assert stats["decisions"]["error"] >= 1

    def test_dropped_trace_log_is_bounded_and_deduped(self):
        log = DroppedTraceLog(capacity=2)
        log.record("a")
        log.record("a")
        assert len(log) == 1
        log.record("b")
        log.record("c")  # evicts "a"
        assert "a" not in log
        assert "b" in log and "c" in log
        with pytest.raises(ValueError):
            DroppedTraceLog(capacity=0)

    def test_unsampled_trace_withholds_propagation_context(self):
        with start_trace("request", sampled=False) as root:
            assert root.sampled is False
            assert propagation_context() is None
            with span("child") as child:
                assert child.sampled is False  # inherited
                assert propagation_context() is None
        with start_trace("request", sampled=True):
            assert propagation_context() is not None

    def test_unsampled_pool_jobs_ship_no_worker_spans(self):
        instance = fig1_stock_instance()
        query = stock_sum_query()
        with WorkerPool(workers=2) as pool:
            with start_trace("request", sampled=False) as root:
                answer = pool.answer(query, instance)
            assert answer is not None
            names = _span_names(root.to_dict())
            # parent-side spans still record; worker spans never cross the pipe
            assert "pool.answer" in names
            assert not any(n.startswith("worker.") for n in names), names


class TestSamplingIntegration:
    def test_tail_keep_retains_slow_and_error_traces(self, tmp_path):
        export_path = str(tmp_path / "spans.ndjson")

        async def scenario(server, client):
            async def boom(payload):
                raise RuntimeError("deliberate 5xx")

            server._routes[("GET", "/boom")] = boom
            kept, dropped, errors = [], [], []
            for index in range(12):
                if index % 4 == 3:
                    status, _ = await client.request("GET", "/boom")
                    assert status == 500
                    errors.append(client.last_trace_id)
                else:
                    await client.answer("stock", STOCK_SUM)
                    (kept if index == 0 else dropped).append(client.last_trace_id)
            # index 0 is the head-kept rotation slot; errors are tail-kept
            for trace_id in kept + errors:
                retained = await client.trace(trace_id)
                assert retained["trace_id"] == trace_id
            for trace_id in dropped:
                with pytest.raises(ServeClientError) as excinfo:
                    await client.trace(trace_id)
                assert excinfo.value.status == 404
                assert excinfo.value.body["error"]["sampled_out"] is True
                assert excinfo.value.body["error"]["reason"] == "sampled_out"
            # an id the server never saw reports evicted_or_unknown instead
            with pytest.raises(ServeClientError) as excinfo:
                await client.trace("feedfacefeedface")
            assert excinfo.value.body["error"]["sampled_out"] is False
            assert excinfo.value.body["error"]["reason"] == "evicted_or_unknown"
            metrics = await client.metrics()
            assert metrics["sampling"]["rate"] == 1000
            assert metrics["sampling"]["decisions"]["error"] >= len(errors)
            assert server.exporter.flush(timeout_s=10)
            return kept + errors, dropped

        retained_ids, dropped_ids = serve_scenario(
            scenario, trace_sample=1000, otlp_export=export_path
        )
        exported = set()
        with open(export_path, "r", encoding="utf-8") as handle:
            for line in handle:
                doc = json.loads(line)
                for resource in doc["resourceSpans"]:
                    for scope in resource["scopeSpans"]:
                        for otlp_span in scope["spans"]:
                            exported.add(otlp_span["traceId"])
        assert set(retained_ids) <= exported
        assert not (set(dropped_ids) & exported)

    def test_unpinned_server_retains_every_trace(self):
        async def scenario(server, client):
            ids = []
            for _ in range(6):
                await client.answer("stock", STOCK_SUM)
                ids.append(client.last_trace_id)
            for trace_id in ids:
                retained = await client.trace(trace_id)
                assert retained["trace_id"] == trace_id
            return (await client.metrics())["sampling"]

        sampling = serve_scenario(scenario)
        assert sampling["rate"] == 1

    def test_prometheus_exposes_retention_but_no_rate_families(self):
        async def scenario(server, client):
            for _ in range(3):
                await client.answer("stock", STOCK_SUM)
            host, port = server.address
            status, _, page = await _raw_request(
                host, port, "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            return parse_prometheus(page.decode("utf-8"))

        families = serve_scenario(scenario, trace_sample=5)
        retention = families["repro_trace_retention_total"]["samples"]
        assert any(labels == (("decision", "head"),) for _, labels in retention)
        removed = {
            "repro_sample_rate",
            "repro_sample_observed_rps",
            "repro_sample_rate_adjustments_total",
        }
        assert not removed & set(families)

    def test_slow_threshold_rescues_sampled_out_traces(self):
        async def scenario(server, client):
            ids = []
            for _ in range(6):
                await client.answer("stock", STOCK_SUM)
                ids.append(client.last_trace_id)
            for trace_id in ids:  # slow_query_ms=0: every request is "slow"
                retained = await client.trace(trace_id)
                assert retained["trace_id"] == trace_id
            metrics = await client.metrics()
            decisions = metrics["sampling"]["decisions"]
            assert decisions["slow"] >= len(ids) - 1  # all but the head slot

        serve_scenario(scenario, trace_sample=1000, slow_query_ms=0)

    def test_explain_forces_retention_when_sampled_out(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)  # burn the head-kept slot
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "explain": True},
            )
            assert status == 200 and "trace" in body
            explained_id = client.last_trace_id
            retained = await client.trace(explained_id)
            assert retained["trace_id"] == explained_id

        serve_scenario(scenario, trace_sample=1000)


# -- OTLP export -------------------------------------------------------------------------


class _FlakyExporter(SpanExporter):
    """Delivery fails ``failures`` times, then succeeds (or keeps failing)."""

    def __init__(self, *args, failures=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures = failures
        self.delivered = []

    def _deliver(self, payload):
        if self.failures > 0:
            self.failures -= 1
            raise OSError("sink unavailable")
        self.delivered.append(payload)


def _finished_tree(name="http.request", **tags):
    with start_trace(name, **tags) as root:
        with span("child"):
            pass
    return root.to_dict()


class TestExporter:
    def test_ndjson_sink_round_trips_valid_otlp(self, tmp_path):
        path = str(tmp_path / "out.ndjson")
        exporter = SpanExporter(path, flush_interval_s=0.05).start()
        tree = _finished_tree(status=502)
        assert exporter.submit(tree)
        assert exporter.flush(timeout_s=5)
        exporter.close()
        (line,) = open(path, "r", encoding="utf-8").read().strip().splitlines()
        doc = json.loads(line)
        (resource,) = doc["resourceSpans"]
        attrs = {
            a["key"]: a["value"] for a in resource["resource"]["attributes"]
        }
        assert attrs["service.name"] == {"stringValue": "repro-serve"}
        (scope,) = resource["scopeSpans"]
        spans = scope["spans"]
        assert len(spans) == 2
        root_span, child_span = spans
        assert root_span["name"] == "http.request"
        assert root_span["parentSpanId"] == ""
        assert child_span["parentSpanId"] == root_span["spanId"]
        assert root_span["traceId"] == tree["trace_id"]
        assert int(root_span["endTimeUnixNano"]) >= int(
            root_span["startTimeUnixNano"]
        )
        assert root_span["status"]["code"] == 2  # 502 → STATUS_CODE_ERROR
        assert child_span["status"]["code"] == 1

    def test_retry_with_backoff_counts_retries(self, tmp_path):
        exporter = _FlakyExporter(
            str(tmp_path / "x"), failures=2, retries=3, backoff_s=0.0
        ).start()
        before = exporter.stats()
        exporter.submit(_finished_tree())
        assert exporter.flush(timeout_s=5)
        exporter.close()
        after = exporter.stats()
        assert len(exporter.delivered) == 1
        assert after["retries"] - before["retries"] == 2
        assert after["exported"] - before["exported"] == 1

    def test_delivery_failure_past_the_budget_drops_and_counts(self, tmp_path):
        exporter = _FlakyExporter(
            str(tmp_path / "x"), failures=99, retries=1, backoff_s=0.0
        ).start()
        before = exporter.stats()
        exporter.submit(_finished_tree())
        assert exporter.flush(timeout_s=5)
        exporter.close()
        after = exporter.stats()
        assert not exporter.delivered
        assert after["dropped_delivery"] - before["dropped_delivery"] == 1

    def test_full_queue_drops_without_blocking(self, tmp_path):
        exporter = SpanExporter(
            str(tmp_path / "x"), queue_size=1, flush_interval_s=30.0
        )
        before = exporter.stats()
        # never started: the queue cannot drain, so the second submit drops
        assert exporter.submit(_finished_tree())
        assert not exporter.submit(_finished_tree())
        after = exporter.stats()
        assert after["dropped_queue_full"] - before["dropped_queue_full"] == 1

    def test_empty_target_is_rejected(self):
        with pytest.raises(ValueError):
            SpanExporter("")

    def test_http_sink_round_trips_valid_otlp(self, tmp_path):
        import http.server
        import threading

        received = []

        class Sink(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                received.append((dict(self.headers), self.rfile.read(length)))
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
                pass

        httpd = http.server.HTTPServer(("127.0.0.1", 0), Sink)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        tree = _finished_tree(status=502)
        try:
            exporter = SpanExporter(
                f"http://127.0.0.1:{httpd.server_address[1]}/v1/traces",
                flush_interval_s=0.05,
            ).start()
            assert exporter.stats()["sink"] == "http"
            assert exporter.submit(tree)
            assert exporter.flush(timeout_s=5)
            exporter.close()
        finally:
            httpd.shutdown()
            thread.join(timeout=5)

        (headers, body) = received[0]
        assert "Content-Encoding" not in headers  # batches go uncompressed
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body.decode("utf-8"))
        # the posted payload is identical to the NDJSON sink's line for the
        # same trace: one re-validation path covers both sinks
        path = str(tmp_path / "out.ndjson")
        file_exporter = SpanExporter(path, flush_interval_s=0.05).start()
        assert file_exporter.submit(tree)
        assert file_exporter.flush(timeout_s=5)
        file_exporter.close()
        (line,) = open(path, "r", encoding="utf-8").read().strip().splitlines()
        assert doc == json.loads(line)
        (resource,) = doc["resourceSpans"]
        (scope,) = resource["scopeSpans"]
        assert len(scope["spans"]) == 2
        assert scope["spans"][0]["status"]["code"] == 2  # 502 is an error


# -- cost accounting ---------------------------------------------------------------------


class TestCostRollup:
    def test_counters_sum_across_every_span_and_cpu_is_not_rolled_up(self):
        tree = {
            "cpu_ms": 10.0,
            "tid": "1:1",
            "metrics": {"facts_scanned": 5, "engine_cpu_ms": 1.5},
            "children": [
                {"cpu_ms": 8.0, "tid": "1:1", "metrics": {"facts_scanned": 2}},
                {"cpu_ms": 3.0, "tid": "1:2", "metrics": {"blocks_touched": 4}},
                {"cpu_ms": 4.0, "tid": "2:1"},
            ],
        }
        # Span CPU is not a cost measure: the only CPU figure is the
        # executor-measured engine_cpu_ms counter.
        assert rollup(tree) == {
            "facts_scanned": 7,
            "engine_cpu_ms": 1.5,
            "blocks_touched": 4,
        }

    def test_live_spans_carry_cpu_and_tid(self):
        with start_trace("root") as root:
            with span("child") as child:
                child.add_metric("facts_scanned", 3)
                sum(range(10000))
        tree = root.to_dict()
        assert tree["cpu_ms"] is not None and tree["cpu_ms"] >= 0
        assert ":" in tree["tid"]
        (child_dict,) = tree["children"]
        assert child_dict["tid"] == tree["tid"]  # same thread
        assert child_dict["metrics"] == {"facts_scanned": 3}
        assert rollup(tree) == {"facts_scanned": 3}

    def test_add_cost_is_a_noop_outside_a_trace(self):
        add_cost("facts_scanned", 5)  # must not raise
        with start_trace("root") as root:
            add_cost("facts_scanned", 5)
            add_cost("facts_scanned", 2)
        assert root.metrics == {"facts_scanned": 7}


class TestCostTable:
    def test_ewma_and_counter_rollup(self):
        table = CostTable(alpha=0.5)
        table.observe("i", "q", 10.0, 4.0, {"facts_scanned": 10}, "t1")
        table.observe("i", "q", 20.0, 8.0, {"facts_scanned": 30}, "t2")
        (row,) = table.top()
        assert row["count"] == 2
        assert row["ewma_latency_ms"] == pytest.approx(15.0)
        assert row["ewma_cpu_ms"] == pytest.approx(6.0)
        assert row["total_cpu_ms"] == pytest.approx(12.0)
        assert row["counters"] == {"facts_scanned": 40}
        assert row["last_trace_id"] == "t2"
        assert row["p95_ms"] == pytest.approx(20.0)

    def test_top_sort_orders(self):
        table = CostTable()
        table.observe("i", "cheap_but_frequent", 1.0, 1.0)
        table.observe("i", "cheap_but_frequent", 1.0, 1.0)
        table.observe("i", "cheap_but_frequent", 1.0, 1.0)
        table.observe("i", "expensive", 50.0, 40.0)
        assert table.top(sort="cpu")[0]["plan"] == "expensive"
        assert table.top(sort="p95")[0]["plan"] == "expensive"
        assert table.top(sort="count")[0]["plan"] == "cheap_but_frequent"
        with pytest.raises(ValueError):
            table.top(sort="alphabetical")

    def test_lru_eviction_drops_the_stalest_key(self):
        table = CostTable(capacity=2)
        table.observe("i", "a", 1.0, 1.0)
        table.observe("i", "b", 1.0, 1.0)
        table.observe("i", "a", 1.0, 1.0)  # refresh "a"
        table.observe("i", "c", 1.0, 1.0)  # evicts "b"
        plans = {row["plan"] for row in table.top(limit=10)}
        assert plans == {"a", "c"}
        assert table.summary()["evictions"] == 1

    def test_concurrent_observations_are_not_lost(self):
        table = CostTable(capacity=4)
        threads, per_thread = 8, 1000

        def observe_many():
            for n in range(per_thread):
                table.observe("i", f"p{n % 3}", 1.0, 1.0)

        workers = [threading.Thread(target=observe_many) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * per_thread
        assert sum(row["count"] for row in table.top(limit=10)) == total
        assert table.summary()["observations"] == total
        assert table.report()["misses"] == 3  # one per key, never a duplicate

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CostTable(capacity=0)
        with pytest.raises(ValueError):
            CostTable(alpha=0.0)


class TestDebugTopIntegration:
    def test_debug_top_ranks_the_workload(self):
        group_query = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"

        async def scenario(server, client):
            for _ in range(5):
                await client.answer("stock", STOCK_SUM)
            await client.answer_group_by("stock", group_query)
            top = await client.debug_top(sort="count")
            assert top["sort"] == "count"
            rows = top["top"]
            assert rows[0]["plan"] == STOCK_SUM
            assert rows[0]["count"] == 5
            by_plan = {row["plan"]: row for row in rows}
            assert group_query in by_plan
            assert by_plan[STOCK_SUM]["counters"]["facts_scanned"] > 0
            assert by_plan[STOCK_SUM]["counters"]["blocks_touched"] > 0
            assert by_plan[STOCK_SUM]["last_trace_id"]
            # group-by scans instance × groups: more facts per request
            assert (
                by_plan[group_query]["counters"]["facts_scanned"]
                > by_plan[STOCK_SUM]["counters"]["facts_scanned"] / 5
            )
            # the /metrics JSON snapshot summarises the same table
            metrics = await client.metrics()
            assert metrics["cost"]["entries"] == len(rows)
            assert metrics["cost"]["counters"]["facts_scanned"] > 0
            assert "event_loop" in metrics
            # invalid sort is a structured 400
            status, body = await client.request("GET", "/debug/top?sort=bogus")
            assert status == 400 and body["error"]["type"] == "Protocol"

        serve_scenario(scenario)

    def test_cost_is_accounted_even_for_sampled_out_traces(self):
        async def scenario(server, client):
            for _ in range(4):
                await client.answer("stock", STOCK_SUM)
            top = await client.debug_top(sort="count")
            assert top["top"][0]["count"] == 4  # dropped traces still counted

        serve_scenario(scenario, trace_sample=1000)

    def test_worker_cpu_reaches_the_cost_table(self):
        """Under ``--workers`` the serving thread only waits on the pool: the
        job's CPU is spent in a worker and must count all the same."""

        async def scenario(server, client):
            for _ in range(30):
                await client.answer("stock", STOCK_SUM)
            top = await client.debug_top(sort="count")
            return top["top"][0]["ewma_cpu_ms"]

        threads = serve_scenario(scenario)
        pooled = serve_scenario(scenario, worker_processes=2)
        assert threads / 2 <= pooled <= threads * 2, (threads, pooled)


# -- exemplars ---------------------------------------------------------------------------


class TestExemplars:
    def test_prometheus_buckets_carry_trace_id_exemplars(self):
        async def scenario(server, client):
            for _ in range(3):
                await client.answer("stock", STOCK_SUM)
            host, port = server.address
            status, _, payload = await _raw_request(
                host, port, "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            families = parse_prometheus(payload.decode("utf-8"))
            exemplars = families["repro_request_latency_seconds"]["exemplars"]
            answer_exemplars = {
                key: ex
                for key, ex in exemplars.items()
                if ("endpoint", "POST /answer") in key[1]
            }
            assert answer_exemplars, "no exemplar on any POST /answer bucket"
            for (name, labels), (ex_labels, value, ts) in answer_exemplars.items():
                assert name == "repro_request_latency_seconds_bucket"
                (label, trace_id) = ex_labels[0]
                assert label == "trace_id" and len(trace_id) == 32
                assert value > 0 and ts is not None
            # the JSON snapshot carries the same exemplars
            metrics = await client.metrics()
            snapshot_exemplars = metrics["latency"]["POST /answer"]["exemplars"]
            assert any(
                ex["trace_id"] and ex["value_seconds"] > 0
                for ex in snapshot_exemplars.values()
            )

        serve_scenario(scenario)

    def test_histogram_exemplar_is_most_recent_per_bucket(self):
        histogram = _latency_histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05, trace_id="first")
        histogram.observe(0.06, trace_id="second")
        histogram.observe(5.0, trace_id="overflow")
        histogram.observe(0.5)  # no trace id: bucket gets no exemplar
        snap = histogram.snapshot()
        assert snap["exemplars"]["0.1"]["trace_id"] == "second"
        assert snap["exemplars"]["+Inf"]["trace_id"] == "overflow"
        assert "1.0" not in snap["exemplars"]


# -- one source per number ---------------------------------------------------------------

GROUP_QUERY = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"


def _mixed_load_scrapes():
    """Drive a mixed load on a fresh server, then scrape both views.

    Every request is head-sampled (``trace_sample=1``).
    """

    async def scenario(server, client):
        await client.register_instance("sharded", fig1_stock_instance(), shards=2)
        for _ in range(3):
            await client.answer("stock", STOCK_SUM)
        for _ in range(2):
            await client.answer_group_by("sharded", GROUP_QUERY)
        body = {"instance": "no_such_instance", "query": STOCK_SUM}
        status, _ = await client.request("POST", "/answer", body)
        assert status == 404
        filled = 0
        while server.gate.try_acquire():
            filled += 1
        try:
            body = {"instance": "stock", "query": STOCK_SUM}
            status, _ = await client.request("POST", "/answer", body)
            assert status == 503
        finally:
            for _ in range(filled):
                server.gate.release()
        metrics = await client.metrics()
        host, port = server.address
        status, _, page = await _raw_request(
            host, port, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        return metrics, page.decode("utf-8")

    return serve_scenario(scenario, trace_sample=1)


class TestOneSourcePerNumber:
    def test_json_and_prometheus_views_agree(self):
        metrics, page = _mixed_load_scrapes()
        families = parse_prometheus(page)

        def by_labels(family):
            samples = families[family]["samples"].items()
            return {labels: value for (_, labels), value in samples}

        # The JSON scrape's own row lands between the two scrapes.
        json_requests = {
            (("endpoint", endpoint), ("status", status)): count
            for endpoint, by_status in metrics["requests_total"].items()
            for status, count in by_status.items()
            if endpoint != "GET /metrics"
        }
        prom_requests = {
            labels: count
            for labels, count in by_labels("repro_requests_total").items()
            if labels[0] != ("endpoint", "GET /metrics")
        }
        assert json_requests == prom_requests
        assert {"404", "503"} <= {status for _, (_, status) in json_requests}
        assert metrics["rejected_total"] == 1
        assert metrics["rejected_total"] == sum(
            count
            for (_, status), count in prom_requests.items()
            if status == ("status", "503")
        )

        latency = families["repro_request_latency_seconds"]["samples"]
        endpoints = set(metrics["latency"]) - {"GET /metrics"}
        assert {"POST /answer", "POST /answer_group_by"} <= endpoints
        for endpoint in endpoints:
            snap = metrics["latency"][endpoint]
            key = (("endpoint", endpoint),)
            observed = latency[("repro_request_latency_seconds_count", key)]
            assert observed == snap["count"]
            seconds = latency[("repro_request_latency_seconds_sum", key)]
            assert seconds == snap["sum_seconds"]
            cumulative = 0
            for le, count in snap["buckets"].items():
                cumulative += count
                bucket = ("repro_request_latency_seconds_bucket", key + (("le", le),))
                assert latency[bucket] == cumulative

        caches = {
            "plan_cache": metrics["plan_cache"],
            "summary_cache": metrics["sharding"]["summary_cache"],
        }
        assert caches["summary_cache"]["hits"] > 0  # the repeated sharded GROUP BY
        for cache, stats in caches.items():
            for counter in ("hits", "misses", "evictions"):
                mirrored = by_labels(f"repro_cache_{counter}_total")
                assert mirrored[(("cache", cache),)] == stats[counter], counter

        decisions = by_labels("repro_trace_retention_total")
        for decision, count in metrics["sampling"]["decisions"].items():
            # the JSON scrape's own trace closed (head-sampled) after its
            # snapshot was taken
            expected = count + (1 if decision == "head" else 0)
            assert decisions.get((("decision", decision),), 0) == expected, decision


# -- log levels --------------------------------------------------------------------------


class TestLogLevel:
    def test_set_log_level_filters_below_threshold(self, captured_log):
        log = get_logger("test")
        try:
            set_log_level("error")
            log.debug("quiet")
            log.info("quiet_too")
            log.error("loud")
        finally:
            set_log_level("info")
        events = [json.loads(line)["event"] for line in captured_log.lines]
        assert events == ["loud"]

    def test_set_log_level_accepts_known_names_in_any_case(self):
        logger = logging.getLogger("repro.obs")
        try:
            set_log_level("WARNING")
            assert logger.level == logging.WARNING
            set_log_level("debug")
            assert logger.level == logging.DEBUG
        finally:
            set_log_level("info")

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError, match="loudest"):
            set_log_level("loudest")
        assert logging.getLogger("repro.obs").level == logging.INFO

    def test_cli_sets_the_level_before_the_server_boots(
        self, captured_log, monkeypatch
    ):
        import repro.serve.__main__ as cli

        async def fake_run_server(config):
            get_logger("test").info("should_be_filtered")
            get_logger("test").error("should_pass")

        monkeypatch.setattr(cli, "run_server", fake_run_server)
        try:
            assert cli.main(["--log-level", "error"]) == 0
        finally:
            set_log_level("info")
        events = [json.loads(line)["event"] for line in captured_log.lines]
        assert "should_be_filtered" not in events
        assert "should_pass" in events


# -- cost-predictive admission -----------------------------------------------------------


class TestCostPredictor:
    def test_cold_and_single_observation_keys_return_none(self):
        table = CostTable()
        predictor = CostPredictor(table, min_observations=2)
        assert predictor.predict_ms("stock", "Q") is None
        table.observe("stock", "Q", 100.0, 40.0)
        assert predictor.predict_ms("stock", "Q") is None  # one outlier != signal
        table.observe("stock", "Q", 100.0, 40.0)
        assert predictor.predict_ms("stock", "Q") == pytest.approx(40.0)

    def test_prediction_uses_cpu_not_wall_latency(self):
        table = CostTable()
        predictor = CostPredictor(table, min_observations=1)
        # queueing inflates wall latency; CPU is the workload's true cost
        table.observe("stock", "Q", 5000.0, 2.0)
        assert predictor.predict_ms("stock", "Q") == pytest.approx(2.0)

    def test_missing_identifiers_return_none(self):
        predictor = CostPredictor(CostTable(), min_observations=1)
        assert predictor.predict_ms(None, "Q") is None
        assert predictor.predict_ms("stock", None) is None

    def test_lookup_does_not_perturb_the_table(self):
        table = CostTable(capacity=2)
        predictor = CostPredictor(table, min_observations=1)
        table.observe("i", "old", 1.0, 1.0)
        table.observe("i", "warm", 1.0, 1.0)
        # a prediction storm on the LRU-cold key must not keep it warm
        for _ in range(10):
            predictor.predict_ms("i", "old")
        table.observe("i", "new", 1.0, 1.0)  # evicts the true LRU tail
        assert predictor.predict_ms("i", "old") is None
        assert predictor.predict_ms("i", "warm") is not None


class TestAdmissionGateLedger:
    def test_depth_shed_when_full(self):
        gate = AdmissionGate(1)
        assert gate.admit() == (True, REASON_DEPTH, 0.0)
        admitted, reason, _ = gate.admit()
        assert not admitted and reason == REASON_DEPTH

    def test_cost_budget_sheds_expensive_backlog(self):
        gate = AdmissionGate(8)
        admitted, reason, queued = gate.admit(40.0, 100.0)
        assert admitted and reason == REASON_COST_OK and queued == 40.0
        admitted, reason, queued = gate.admit(50.0, 100.0)
        assert admitted and reason == REASON_COST_OK and queued == 90.0
        admitted, reason, queued = gate.admit(40.0, 100.0)
        assert not admitted and reason == REASON_PREDICTED_COST
        assert queued == 90.0

    def test_empty_gate_always_admits(self):
        gate = AdmissionGate(8)
        # a prediction alone over budget must still run on an idle server
        admitted, reason, _ = gate.admit(10_000.0, 1.0)
        assert admitted and reason == REASON_COST_OK

    def test_small_costs_are_exempt_from_the_budget_check(self):
        gate = AdmissionGate(8)
        gate.admit(95.0, 100.0)
        # a 2 ms point query extends the backlog negligibly: admitted even
        # though the ledger is saturated (it still deposits its cost)
        admitted, reason, queued = gate.admit(2.0, 100.0)
        assert admitted and reason == REASON_COST_OK
        assert queued == 97.0
        # a significant cost against the same ledger sheds
        admitted, reason, _ = gate.admit(20.0, 100.0)
        assert not admitted and reason == REASON_PREDICTED_COST

    def test_cold_keys_fall_back_to_depth(self):
        gate = AdmissionGate(8)
        gate.admit(40.0, 100.0)
        admitted, reason, queued = gate.admit(None, 100.0)
        assert admitted and reason == REASON_COLD_KEY
        assert queued == 40.0  # cold keys deposit nothing

    def test_release_drains_and_zeroes_the_ledger(self):
        gate = AdmissionGate(8)
        gate.admit(40.0, 100.0)
        gate.admit(50.0, 100.0)
        gate.release(40.0)
        assert gate.queued_cost_ms == 50.0
        gate.release(50.0)
        assert gate.in_use == 0
        assert gate.queued_cost_ms == 0.0  # idle gate carries no drift

    def test_retry_after_scales_with_backlog(self):
        assert retry_after_s(0.0) == 1
        assert retry_after_s(2500.0) == 3
        assert retry_after_s(1e9) == 30


class TestCostShedIntegration:
    def test_predicted_cost_shed_is_a_structured_503(self):
        async def scenario(server, client):
            # warm the cost table past min_observations
            for _ in range(3):
                await client.answer("stock", STOCK_SUM)
            # occupy the gate with an expensive backlog by hand — the
            # deterministic way to exercise the budget check
            admitted, _, _ = server.gate.admit(50.0, server.config.max_queue_cost_ms)
            assert admitted
            try:
                host, port = server.address
                status, headers, payload = await _raw_request(
                    host,
                    port,
                    "POST",
                    "/answer",
                    headers={"Content-Type": "application/json"},
                    body=json.dumps(
                        {"instance": "stock", "query": STOCK_SUM}
                    ).encode(),
                )
                body = json.loads(payload)
                assert status == 503
                error = body["error"]
                assert error["type"] == "AdmissionError"
                assert error["reason"] == "predicted_cost"
                admission = error["admission"]
                assert admission["admitted"] is False
                assert admission["predicted_cost_ms"] > 0.0
                assert admission["queued_cost_ms"] >= 50.0
                assert int(headers["retry-after"]) >= 1
            finally:
                server.gate.release(50.0)
            # with the backlog drained the same request is admitted again
            answer = await client.answer("stock", STOCK_SUM)
            assert answer is not None
            metrics = await client.metrics()
            assert metrics["admission"]["max_queue_cost_ms"] == 0.5
            return None

        serve_scenario(scenario, max_queue_cost_ms=0.5)

    def test_explain_payload_carries_the_admission_verdict(self):
        async def scenario(server, client):
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "explain": True},
            )
            assert status == 200
            admission = body["admission"]
            # an idle server admits; the cold cost table gives no prediction
            assert admission["admitted"] is True
            assert admission["reason"] == REASON_COLD_KEY
            assert admission["predicted_cost_ms"] is None
            # once the key is warm, the verdict carries the prediction
            for _ in range(2):
                await client.answer("stock", STOCK_SUM)
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "explain": True},
            )
            assert status == 200
            admission = body["admission"]
            assert admission["reason"] == REASON_COST_OK
            assert admission["predicted_cost_ms"] >= 0.0
            return None

        serve_scenario(scenario, max_queue_cost_ms=10_000.0)

    def test_depth_only_servers_report_depth_reason(self):
        async def scenario(server, client):
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "explain": True},
            )
            assert status == 200
            assert body["admission"]["reason"] == REASON_DEPTH
            return None

        serve_scenario(scenario)  # no max_queue_cost_ms: depth-only

    def test_shed_requests_do_not_teach_the_cost_table(self):
        async def scenario(server, client):
            for _ in range(3):
                await client.answer("stock", STOCK_SUM)
            learned = server.cost_table.lookup("stock", STOCK_SUM)
            filled = 0
            while server.gate.try_acquire():
                filled += 1
            try:
                body = {"instance": "stock", "query": STOCK_SUM}
                for _ in range(10):
                    status, _ = await client.request("POST", "/answer", body)
                    assert status == 503
            finally:
                for _ in range(filled):
                    server.gate.release()
            # A shed request never ran on an engine thread: it has no CPU
            # measure and must leave the plan's EWMA and count alone.
            assert server.cost_table.lookup("stock", STOCK_SUM) == learned
            return learned

        learned = serve_scenario(scenario)
        assert learned["count"] == 3


class TestDebugTopValidation:
    def test_unknown_sort_is_a_structured_400(self):
        async def scenario(server, client):
            status, body = await client.request("GET", "/debug/top?sort=bogus")
            assert status == 400
            assert body["error"]["type"] == "Protocol"
            assert body["error"]["valid_sorts"] == ["cpu", "p95", "count"]
            # an explicitly empty sort is an unknown key, not the default
            status, body = await client.request("GET", "/debug/top?sort=")
            assert status == 400
            assert body["error"]["valid_sorts"] == ["cpu", "p95", "count"]
            status, body = await client.request("GET", "/debug/top?limit=x")
            assert status == 400
            return None

        serve_scenario(scenario)
