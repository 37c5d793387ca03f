"""Tests for the repro.serve subsystem: protocol, registry, app, client."""

import asyncio
import inspect
import json
import logging
from dataclasses import fields
from fractions import Fraction

import pytest

from repro.core.evaluator import BOTTOM
from repro.core.range_answers import RangeAnswer
from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.engine import (
    ConsistentAnswerEngine,
    configure_summary_cache,
    schema_fingerprint,
    summary_cache_stats,
)
from repro.obs import set_log_level, set_tracing
from repro.obs.metrics import REGISTRY
from repro.obs.trace import tracing_enabled
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
from repro.serve.__main__ import build_parser, config_from_args, main
from repro.serve.app import MAX_BODY_BYTES
from repro.serve.metrics import LATENCY_BUCKETS
from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec
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

    def test_each_request_item_looks_its_plan_up_once(self):
        """One ``compile`` per /answer, /answer_group_by and /answer_many
        item, sharded or not, and ``plan.cached`` reports that lookup."""

        async def scenario(server, client):
            lookups = []
            compile_plan = server.engine.compile

            def counting_compile(query):
                lookups.append(query)
                return compile_plan(query)

            server.engine.compile = counting_compile
            await client.register_instance("stock8", fig1_stock_instance(), shards=8)

            async def post(path, instance, query):
                before = len(lookups)
                status, body = await client.request(
                    "POST", path, {"instance": instance, "query": query}
                )
                assert status == 200, body
                return len(lookups) - before, body["plan"]["cached"]

            seen = [
                await post("/answer", "stock", STOCK_SUM),
                await post("/answer", "stock", STOCK_SUM),
                await post("/answer", "stock8", STOCK_SUM),
                await post("/answer_group_by", "stock8", STOCK_GROUP_BY),
                await post("/answer_group_by", "stock", STOCK_GROUP_BY),
            ]
            server.engine.clear_cache()
            seen.append(await post("/answer", "stock8", STOCK_SUM))
            seen.append(await post("/answer_group_by", "stock", STOCK_GROUP_BY))
            before = len(lookups)
            results = await client.answer_many(
                [
                    ("stock", STOCK_SUM),
                    ("stock8", STOCK_GROUP_BY),
                    ("running_example", RUNNING_SUM),
                ]
            )
            many = (len(lookups) - before, [r["plan_cached"] for r in results])
            return seen, many

        seen, many = serve_scenario(scenario)
        assert seen == [
            (1, False),
            (1, True),
            (1, True),
            (1, False),
            (1, True),
            (1, False),
            (1, False),
        ]
        assert many == (3, [True, True, False])

    def test_a_query_that_cannot_shard_runs_on_the_pool(self):
        """On a sharded instance, a query the sharded executor cannot merge
        (a cartesian product) runs unsharded: under ``--workers`` on the
        pool like any unsharded request, counted once as a fallback."""
        text = "SUM(y) <- Dealers(d, t), Stock(p, t2, y)"
        fallbacks = REGISTRY.counter("repro_shard_fallback_total")

        def answer_jobs(metrics):
            pool = metrics["worker_pool"]
            if not pool.get("enabled"):
                return 0
            return sum(w.get("answer_jobs", 0) for w in pool["per_worker"])

        async def scenario(server, client):
            await client.register_instance("stock4", fig1_stock_instance(), shards=4)
            before = await client.metrics()
            prometheus = fallbacks.value(reason="disconnected_joins")
            answer = await client.answer("stock4", text)
            after = await client.metrics()
            return (
                answer,
                answer_jobs(after) - answer_jobs(before),
                after["sharding"]["fallbacks"] - before["sharding"]["fallbacks"],
                fallbacks.value(reason="disconnected_joins") - prometheus,
            )

        pooled = serve_scenario(scenario, worker_processes=1)
        threaded = serve_scenario(scenario)
        assert pooled[1:] == (1, 1, 1)
        assert threaded[1:] == (0, 1, 1)
        assert pooled[0] == threaded[0]


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

    @pytest.mark.parametrize(
        "raw, status, message",
        [
            (
                b"POST /answer HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n"
                b"Connection: close\r\n\r\n{not json",
                400,
                "",
            ),
            (
                b"POST /answer HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
                413,
                "byte limit",
            ),
            (
                b"POST /answer HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                400,
                "bad Content-Length",
            ),
            (
                b"POST /answer HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                400,
                "bad Content-Length",
            ),
            (b"POST /answer\r\n", 400, "malformed request line"),
            (b"POST /answer HTTP/1.1\r\nno colon\r\n", 400, "malformed header"),
        ],
        ids=[
            "bad-json",
            "body-over-limit",
            "negative-length",
            "non-integer-length",
            "request-line",
            "header-line",
        ],
    )
    def test_framing_errors_answer_structured_and_close(self, raw, status, message):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(raw)
            await writer.drain()
            # read() returns at EOF only: the server must close the connection
            response = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return response

        head, _, body = serve_scenario(scenario).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close" in head
        error = json.loads(body)["error"]
        assert error["type"] == "ProtocolError"
        assert message in error["message"]
        assert error["trace_id"]

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
            original = server.engine.execute

            def slow_answer(*args, **kwargs):
                import time as _time

                _time.sleep(0.2)
                return original(*args, **kwargs)

            server.engine.execute = slow_answer
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

            original = server.engine.execute

            def slow_answer(*args, **kwargs):
                _time.sleep(0.3)
                return original(*args, **kwargs)

            server.engine.execute = slow_answer
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


class TestServerWritePath:
    @pytest.mark.parametrize("worker_processes", [0, 2], ids=["threads", "pool"])
    def test_each_write_recomputes_one_shard_of_a_sharded_group_by(
        self, worker_processes
    ):
        """A single-op PATCH touches one block, so the next sharded GROUP BY
        recomputes that block's shard and reads the other seven from the
        summary cache, in-process or on the worker pool."""
        spec = WorkloadSpec(
            dealers=24,
            products=30,
            towns=8,
            stock_facts=168,
            inconsistency=0.1,
            seed=1,
        )
        instance = InconsistentDatabaseGenerator(spec).generate()
        stock = sorted(
            (tuple(f.values) for f in instance.facts if f.relation == "Stock"),
            key=repr,
        )
        writes = []
        for step in range(3):
            writes.append(("remove", stock[step * 17]))
            product, town, _qty = stock[step * 17 + 5]
            writes.append(("add", (product, town, 990 + step)))
        text = "(t, SUM(y)) <- Stock(p, t, y)"
        query = parse_aggregation_query(instance.schema, text)

        async def scenario(server, client):
            async def counted_read():
                before = (await client.metrics())["sharding"]["summary_cache"]
                groups = await client.answer_group_by("w", text)
                after = (await client.metrics())["sharding"]["summary_cache"]
                moved = (
                    after["misses"] - before["misses"],
                    after["hits"] - before["hits"],
                )
                return groups, moved

            await client.register_instance("w", instance, shards=8)
            _, cold = await counted_read()
            reads = []
            for op, values in writes:
                await client.mutate_instance("w", [(op, "Stock", values)])
                reads.append(await counted_read())
            return cold, reads

        cold, reads = serve_scenario(
            scenario, worker_processes=worker_processes, register_builtins=False
        )
        assert cold[0] == 8
        facts = set(instance.facts)
        for (op, values), (groups, moved) in zip(writes, reads):
            fact = Fact("Stock", values)
            if op == "add":
                facts.add(fact)
            else:
                facts.discard(fact)
            assert moved == (1, 7)
            rebuilt = DatabaseInstance(instance.schema, facts)
            assert groups == ConsistentAnswerEngine().answer_group_by(query, rebuilt)


class TestServerLifecycle:
    def test_a_server_starts_once(self):
        async def scenario():
            server = ConsistentAnswerServer(ServeConfig(port=0, workers=2))
            await server.start()
            with pytest.raises(RuntimeError, match="cannot start again"):
                await server.start()  # would leak a second listener
            async with ServeClient(*server.address) as client:
                assert await client.answer("stock", STOCK_SUM) == RangeAnswer(70, 96)
            await server.stop()
            with pytest.raises(RuntimeError, match="cannot start again"):
                await server.start()

        asyncio.run(scenario())


#: One non-default value per ``python -m repro.serve`` option (None: a switch).
CLI_SAMPLES = {
    "--host": "0.0.0.0",
    "--port": "9",
    "--backend": "sqlite",
    "--workers": "3",
    "--threads": "5",
    "--max-pending": "7",
    "--request-timeout": "2.5",
    "--store-dir": "instances",
    "--no-builtins": None,
    "--slow-query-ms": "4",
    "--trace-sample": "3",
    "--max-queue-cost-ms": "6",
    "--otlp-export": "traces.ndjson",
    "--no-tracing": None,
    "--log-level": "error",
}
#: Process-wide switches: ``main()`` applies them, no ServeConfig field does.
PROCESS_WIDE = {"--no-tracing", "--log-level"}


class TestCommandLine:
    def test_the_server_takes_only_its_config(self):
        assert list(inspect.signature(ConsistentAnswerServer).parameters) == ["config"]

    def test_every_option_sets_one_config_field(self):
        parser = build_parser()
        options = {
            action.option_strings[-1]
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        }
        assert options == set(CLI_SAMPLES)
        default = config_from_args(parser.parse_args([]))
        field_of = {}
        for option, value in CLI_SAMPLES.items():
            argv = [option] if value is None else [option, value]
            config = config_from_args(build_parser().parse_args(argv))
            changed = {
                f.name
                for f in fields(ServeConfig)
                if getattr(config, f.name) != getattr(default, f.name)
            }
            if option in PROCESS_WIDE:
                assert changed == set(), option
            else:
                (field_of[option],) = changed
        assert field_of["--threads"] == "workers"
        assert field_of["--workers"] == "worker_processes"
        # one option per field, and every field has its option
        assert sorted(field_of.values()) == sorted(f.name for f in fields(ServeConfig))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--plan-cache-size", "5"],
            ["--fallback", "exhaustive"],
            ["--store-compact-every", "5"],
            ["--trace-buffer", "5"],
            ["--summary-cache-size", "5"],
            ["--otlp-gzip"],
        ],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err

    def test_main_applies_the_process_wide_switches_before_the_boot(self, monkeypatch):
        import repro.serve.__main__ as cli

        seen = {}

        async def fake_run_server(config):
            seen["tracing"] = tracing_enabled()
            seen["level"] = logging.getLogger("repro.obs").level

        monkeypatch.setattr(cli, "run_server", fake_run_server)
        try:
            assert main(["--no-tracing", "--log-level", "warning"]) == 0
        finally:
            set_tracing(True)
            set_log_level("info")
        assert seen == {"tracing": False, "level": logging.WARNING}

    def test_building_a_server_changes_no_process_wide_state(self):
        capacity = summary_cache_stats()["capacity"]
        set_tracing(False)
        set_log_level("error")
        configure_summary_cache(7)
        try:
            ConsistentAnswerServer(ServeConfig(port=0, workers=2))
            assert not tracing_enabled()
            assert logging.getLogger("repro.obs").level == logging.ERROR
            assert summary_cache_stats()["capacity"] == 7
        finally:
            set_tracing(True)
            set_log_level("info")
            configure_summary_cache(capacity)
