"""Tests for the repro.serve subsystem: protocol, registry, app, client."""

import asyncio
from fractions import Fraction

import pytest

from repro.core.evaluator import BOTTOM
from repro.core.range_answers import RangeAnswer
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.engine import ConsistentAnswerEngine, schema_fingerprint
from repro.obs.metrics import Histogram
from repro.query.parser import parse_aggregation_query
from repro.serve import (
    AdmissionGate,
    ConsistentAnswerServer,
    DuplicateInstanceError,
    InstanceRegistry,
    ProtocolError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    UnknownInstanceError,
    builtin_registry,
    decode_constant,
    decode_range_answer,
    encode_constant,
    encode_range_answer,
    instance_from_payload,
    instance_to_payload,
    schema_from_payload,
    schema_to_payload,
)
from repro.serve.metrics import LATENCY_BUCKETS
from repro.workloads.scenarios import (
    fig1_stock_instance,
    fig1_stock_schema,
    fig3_running_example_instance,
)

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
STOCK_GROUP_BY = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"
RUNNING_SUM = "SUM(r) <- R(x,y), S(y,z,'d',r)"
RUNNING_AVG = "AVG(r) <- R(x,y), S(y,z,'d',r)"  # non-rewritable: exact B&B


def serve_scenario(coro_fn, **config_kwargs):
    """Boot a server on an ephemeral port, run ``coro_fn(server, client)``."""
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


# -- protocol ----------------------------------------------------------------------------


class TestProtocol:
    def test_constant_round_trip(self):
        for value in ("Boston", 42, -7, 3.5, Fraction(70, 3), Fraction(8, 2)):
            assert decode_constant(encode_constant(value)) == value

    def test_fraction_encoding_is_exact(self):
        encoded = encode_constant(Fraction(1, 3))
        assert encoded == {"$fraction": "1/3"}
        assert decode_constant(encoded) == Fraction(1, 3)

    def test_whole_fractions_collapse_to_ints(self):
        assert encode_constant(Fraction(6, 2)) == 3

    def test_bad_tagged_constant_rejected(self):
        with pytest.raises(ProtocolError):
            decode_constant({"$mystery": 1})
        with pytest.raises(ProtocolError):
            decode_constant({"$fraction": "1/0"})

    def test_range_answer_round_trip(self):
        answer = RangeAnswer(Fraction(70), Fraction(289, 3))
        assert decode_range_answer(encode_range_answer(answer)) == answer

    def test_bottom_encodes_as_null(self):
        payload = encode_range_answer(RangeAnswer(BOTTOM, BOTTOM))
        assert payload == {"glb": None, "lub": None, "bottom": True}
        assert decode_range_answer(payload).is_bottom

    def test_schema_round_trip_preserves_fingerprint(self):
        schema = fig1_stock_schema()
        rebuilt = schema_from_payload(schema_to_payload(schema))
        assert schema_fingerprint(rebuilt) == schema_fingerprint(schema)

    def test_instance_round_trip(self):
        original = fig1_stock_instance()
        name, rebuilt = instance_from_payload(instance_to_payload("db", original))
        assert name == "db"
        assert rebuilt == original

    def test_malformed_instance_payloads(self):
        with pytest.raises(ProtocolError):
            instance_from_payload({"schema": {"relations": []}})
        with pytest.raises(ProtocolError):
            instance_from_payload({"name": "x", "schema": {"relations": []}})
        with pytest.raises(ProtocolError):
            instance_from_payload({"name": "x", "schema": {"relations": [{}]}})


# -- registry ----------------------------------------------------------------------------


class TestInstanceRegistry:
    def test_register_and_get(self):
        registry = InstanceRegistry()
        entry = registry.register("stock", fig1_stock_instance())
        assert registry.get("stock").instance == fig1_stock_instance()
        assert entry.fingerprint == schema_fingerprint(fig1_stock_schema())
        assert "stock" in registry and len(registry) == 1

    def test_duplicate_requires_replace(self):
        registry = InstanceRegistry()
        registry.register("db", fig1_stock_instance())
        with pytest.raises(DuplicateInstanceError):
            registry.register("db", fig1_stock_instance())
        registry.register("db", fig3_running_example_instance(), replace=True)
        assert registry.get("db").instance == fig3_running_example_instance()

    def test_unknown_instance(self):
        with pytest.raises(UnknownInstanceError):
            InstanceRegistry().get("missing")

    def test_payload_registration_round_trip(self):
        registry = InstanceRegistry()
        payload = instance_to_payload("wired", fig1_stock_instance())
        entry = registry.register_payload(payload)
        assert entry.instance == fig1_stock_instance()
        described = entry.describe()
        assert described["facts"] == len(fig1_stock_instance())
        assert described["inconsistent_blocks"] == 3

    def test_builtin_registry_serves_paper_examples(self):
        registry = builtin_registry()
        assert registry.names() == ["running_example", "stock"]


# -- metrics primitives ------------------------------------------------------------------


def _latency_histogram() -> Histogram:
    return Histogram("repro_request_latency_seconds", "", LATENCY_BUCKETS)


class TestLatencyHistogram:
    def test_percentiles_from_buckets(self):
        histogram = _latency_histogram()
        for _ in range(99):
            histogram.observe(0.002)
        histogram.observe(4.0)
        # p50's rank (50) falls 50/99ths of the way through the 1–2.5ms
        # bucket: the estimate interpolates within it rather than snapping
        # to the 2.5ms upper bound.
        expected_p50 = 0.001 + (0.0025 - 0.001) * (50 / 99)
        assert histogram.percentile(0.50) == pytest.approx(expected_p50)
        assert histogram.percentile(0.99) == pytest.approx(0.0025)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p50_ms"] == pytest.approx(expected_p50 * 1000.0, abs=1e-3)

    def test_empty_histogram(self):
        assert _latency_histogram().percentile(0.5) is None


class TestAdmissionGate:
    def test_acquire_until_full(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)


# -- end-to-end: answering ---------------------------------------------------------------


class TestServerAnswers:
    def test_closed_query(self):
        async def scenario(server, client):
            return await client.answer("stock", STOCK_SUM)

        answer = serve_scenario(scenario)
        assert answer == RangeAnswer(Fraction(70), Fraction(96))

    def test_group_by_matches_engine(self):
        async def scenario(server, client):
            return await client.answer_group_by("stock", STOCK_GROUP_BY)

        groups = serve_scenario(scenario)
        engine = ConsistentAnswerEngine()
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_GROUP_BY)
        assert groups == engine.answer_group_by(query, fig1_stock_instance())

    def test_free_variables_bound_per_request(self):
        async def scenario(server, client):
            return await client.answer(
                "stock", STOCK_GROUP_BY, binding={"x": "James"}
            )

        answer = serve_scenario(scenario)
        assert answer == RangeAnswer(Fraction(70), Fraction(75))

    def test_answer_many_mixed_batch_in_order(self):
        async def scenario(server, client):
            return await client.answer_many(
                [
                    ("stock", STOCK_SUM),
                    ("stock", STOCK_GROUP_BY),
                    ("running_example", RUNNING_SUM),
                    ("stock", STOCK_SUM),
                ]
            )

        results = serve_scenario(scenario)
        assert [r["index"] for r in results] == [0, 1, 2, 3]
        assert decode_range_answer(results[0]["answer"]) == RangeAnswer(70, 96)
        assert "groups" in results[1] and len(results[1]["groups"]) == 2
        assert decode_range_answer(results[2]["answer"]) == RangeAnswer(9, 19)
        # The serial batch path shares one engine: the repeat is a plan hit.
        assert results[3]["plan_cached"] is True

    def test_non_rewritable_query_served_by_fallback(self):
        async def scenario(server, client):
            return await client.answer("running_example", RUNNING_AVG)

        answer = serve_scenario(scenario)
        assert not answer.is_bottom
        assert answer.glb <= answer.lub


# -- end-to-end: errors, admission, timeouts ---------------------------------------------


class TestServerErrors:
    def test_malformed_query_is_structured_400(self):
        async def scenario(server, client):
            return await client.request(
                "POST", "/answer", {"instance": "stock", "query": "SUM(y <- oops"}
            )

        status, body = serve_scenario(scenario)
        assert status == 400
        assert body["error"]["type"] == "ParseError"
        assert body["error"]["message"]

    def test_unknown_instance_is_404(self):
        async def scenario(server, client):
            return await client.request(
                "POST", "/answer", {"instance": "nope", "query": STOCK_SUM}
            )

        status, body = serve_scenario(scenario)
        assert status == 404
        assert body["error"]["type"] == "UnknownInstanceError"

    def test_unbound_free_variables_rejected(self):
        async def scenario(server, client):
            return await client.request(
                "POST", "/answer", {"instance": "stock", "query": STOCK_GROUP_BY}
            )

        status, body = serve_scenario(scenario)
        assert status == 400
        assert "free variables" in body["error"]["message"]

    def test_group_by_endpoint_rejects_closed_queries(self):
        async def scenario(server, client):
            return await client.request(
                "POST", "/answer_group_by", {"instance": "stock", "query": STOCK_SUM}
            )

        status, body = serve_scenario(scenario)
        assert status == 400

    def test_bad_json_body(self):
        async def scenario(server, client):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            body = b"{not json"
            head = (
                f"POST /answer HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode()
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            rest = await reader.read()
            writer.close()
            await writer.wait_closed()
            return status_line, rest

        status_line, rest = serve_scenario(scenario)
        assert b" 400 " in status_line
        assert b"ProtocolError" in rest

    def test_unknown_route_and_wrong_method(self):
        async def scenario(server, client):
            missing = await client.request("GET", "/nope")
            wrong = await client.request("POST", "/healthz", {})
            return missing, wrong

        (missing_status, missing_body), (wrong_status, wrong_body) = serve_scenario(
            scenario
        )
        assert missing_status == 404
        assert missing_body["error"]["type"] == "NotFound"
        assert wrong_status == 405
        assert wrong_body["error"]["type"] == "MethodNotAllowed"

    def test_admission_control_rejects_when_full(self):
        async def scenario(server, client):
            filled = 0
            while server.gate.try_acquire():
                filled += 1
            assert filled == server.gate.capacity
            try:
                status, body = await client.request(
                    "POST", "/answer", {"instance": "stock", "query": STOCK_SUM}
                )
            finally:
                for _ in range(filled):
                    server.gate.release()
            recovered, _ = await client.request(
                "POST", "/answer", {"instance": "stock", "query": STOCK_SUM}
            )
            metrics = await client.metrics()
            return status, body, recovered, metrics

        status, body, recovered, metrics = serve_scenario(scenario, max_pending=1)
        assert status == 503
        assert body["error"]["type"] == "AdmissionError"
        assert recovered == 200
        assert metrics["rejected_total"] == 1

    def test_request_timeout_is_504(self):
        async def scenario(server, client):
            # Make execution reliably slower than the request budget (a
            # sleep releases the GIL, so the event loop's timeout always
            # fires first — pure CPU-bound work could finish in the same
            # loop iteration on a starved loop).
            original = server.engine.answer

            def slow_answer(*args, **kwargs):
                import time as _time

                _time.sleep(0.2)
                return original(*args, **kwargs)

            server.engine.answer = slow_answer
            status, body = await client.request(
                "POST",
                "/answer",
                {
                    "instance": "running_example",
                    "query": RUNNING_AVG,
                    "timeout_s": 0.001,
                },
            )
            metrics = await client.metrics()
            return status, body, metrics

        status, body, metrics = serve_scenario(scenario)
        assert status == 504
        assert body["error"]["type"] == "Timeout"
        assert metrics["timeout_total"] == 1

    def test_timed_out_job_holds_its_gate_slot_until_done(self):
        async def scenario(server, client):
            import time as _time

            original = server.engine.answer

            def slow_answer(*args, **kwargs):
                _time.sleep(0.3)
                return original(*args, **kwargs)

            server.engine.answer = slow_answer
            status, _body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "timeout_s": 0.001},
            )
            # The worker thread is still computing: its admission slot must
            # stay occupied (the workers+max_pending bound holds under
            # timeout storms) and be freed once the job really finishes.
            held = server.gate.in_use
            await asyncio.sleep(0.5)
            return status, held, server.gate.in_use

        status, held_during, held_after = serve_scenario(scenario)
        assert status == 504
        assert held_during == 1
        assert held_after == 0


# -- end-to-end: registry over HTTP ------------------------------------------------------


class TestServerRegistry:
    def test_register_then_query(self):
        schema = Schema(
            [
                RelationSignature(
                    "T", 2, 1, numeric_positions=(2,), attribute_names=("k", "v")
                )
            ]
        )
        instance = DatabaseInstance.from_rows(
            schema, {"T": [("a", 1), ("a", 2), ("b", 5)]}
        )

        async def scenario(server, client):
            registered = await client.register_instance("mine", instance)
            answer = await client.answer("mine", "SUM(v) <- T(k, v)")
            listed = await client.instances()
            return registered, answer, listed

        registered, answer, listed = serve_scenario(scenario)
        assert registered["facts"] == 3
        assert registered["inconsistent_blocks"] == 1
        assert answer == RangeAnswer(6, 7)
        assert {entry["name"] for entry in listed} == {
            "mine",
            "running_example",
            "stock",
        }

    def test_duplicate_registration_conflicts_unless_replace(self):
        async def scenario(server, client):
            instance = fig1_stock_instance()
            await client.register_instance("db", instance)
            with pytest.raises(ServeClientError) as excinfo:
                await client.register_instance("db", instance)
            replaced = await client.register_instance("db", instance, replace=True)
            return excinfo.value, replaced

        error, replaced = serve_scenario(scenario)
        assert error.status == 409
        assert replaced["name"] == "db"

    def test_builtins_can_be_disabled(self):
        async def scenario(server, client):
            return await client.instances()

        assert serve_scenario(scenario, register_builtins=False) == []


# -- end-to-end: concurrency and plan reuse ----------------------------------------------


class TestServerConcurrency:
    def test_concurrent_requests_share_one_cached_plan(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)  # compile once
            before = (await client.metrics())["plan_cache"]

            host, port = server.address

            async def one_request():
                async with ServeClient(host, port) as c:
                    return await c.answer("stock", STOCK_SUM)

            answers = await asyncio.gather(*(one_request() for _ in range(10)))
            after = (await client.metrics())["plan_cache"]
            return answers, before, after

        answers, before, after = serve_scenario(scenario, workers=4)
        assert all(a == RangeAnswer(70, 96) for a in answers)
        # Every concurrent request was served from the shared plan cache.
        assert after["misses"] == before["misses"]
        assert after["hits"] >= before["hits"] + 10

    def test_metrics_shape(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)
            await client.healthz()
            return await client.metrics()

        metrics = serve_scenario(scenario)
        assert metrics["requests_total"]["POST /answer"]["200"] == 1
        latency = metrics["latency"]["POST /answer"]
        assert latency["count"] == 1 and latency["p95_ms"] is not None
        assert metrics["plan_cache"]["maxsize"] == 256
        assert set(metrics["admission"]) == {
            "capacity",
            "in_use",
            "workers",
            "max_pending",
            "queued_cost_ms",
            "max_queue_cost_ms",
        }
        assert metrics["instances"] == ["running_example", "stock"]
        assert metrics["in_flight"] >= 0

    def test_healthz(self):
        async def scenario(server, client):
            return await client.healthz()

        health = serve_scenario(scenario)
        assert health["status"] == "ok"
        assert health["instances"] == 2
        assert health["backend"] == "operational"
