"""Unified cache telemetry: the ledger, the registry, the report schema, the wire.

Unit tests cover :mod:`repro.obs.caches` in isolation — the monotone
eviction-age histogram, the ``PlanCache`` ledger (attribution, peek,
resize), the sampled recursive sizeof, the common report schema, and the
provider registry (last-wins names, error isolation, the ``repro_cache_*``
Prometheus families built per scrape).  The integration tests boot a live
server with several registered tenants, interleave mutations with
answers, and assert that ``GET /debug/caches`` reports every cache in
the common schema with per-*instance* (not per-lineage-token)
attribution.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import AnswerOptions, ConsistentAnswerEngine
from repro.engine.sharding import (
    clear_summary_cache,
    configure_summary_cache,
    summary_cache_report,
    summary_cache_stats,
)
from repro.obs import render_prometheus
from repro.obs.caches import (
    DEFAULT_AGE_BOUNDS,
    CacheStatsRegistry,
    PlanCache,
    approx_sizeof,
    cache_report,
)
from repro.obs.metrics import Histogram
from repro.query.parser import parse_aggregation_query
from repro.obs.trace import set_tracing
from repro.datamodel.instance import DatabaseInstance
from repro.serve.app import ConsistentAnswerServer, ServeConfig
from repro.serve.client import ServeClient
from repro.workloads.scenarios import fig1_stock_instance, fig1_stock_schema

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"


def _tenant_instance(seed: int) -> DatabaseInstance:
    """A per-tenant variant of the Fig. 1 instance.

    Content-identical instances deliberately share shard plans and summary
    entries (content-addressed dedup), which would collapse per-tenant
    attribution — so each tenant gets one distinguishing fact.
    """
    return DatabaseInstance.from_rows(
        fig1_stock_schema(),
        {
            "Dealers": [
                ("Smith", "Boston"),
                ("Smith", "New York"),
                ("James", "Boston"),
            ],
            "Stock": [
                ("Tesla X", "Boston", 35),
                ("Tesla X", "Boston", 40),
                ("Tesla Y", "New York", 95),
                ("Tesla Z", "Boston", 10 + seed),
            ],
        },
    )


@pytest.fixture(autouse=True)
def _tracing_on():
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


# -- eviction-age histogram --------------------------------------------------------------


def _ages(bounds=DEFAULT_AGE_BOUNDS) -> Histogram:
    return Histogram("eviction_age_seconds", "", bounds)


class TestEvictionAges:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            _ages(())
        with pytest.raises(ValueError):
            _ages((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            _ages((2.0, 1.0))

    def test_observations_land_in_monotone_buckets(self):
        ages = _ages((1.0, 5.0, 60.0))
        for value in (0.2, 0.9, 3.0, 59.0, 1e6):
            ages.observe(value)
        snap = ages.snapshot()
        # one more bucket than bounds: the implicit +Inf overflow bucket
        assert list(snap["buckets"].values()) == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum_seconds"] == pytest.approx(0.2 + 0.9 + 3.0 + 59.0 + 1e6)

    def test_negative_ages_clamp_to_zero(self):
        ages = _ages((1.0,))
        ages.observe(-5.0)
        snap = ages.snapshot()
        assert list(snap["buckets"].values()) == [1, 0]
        assert snap["sum_seconds"] == 0.0

    def test_reset_zeroes_everything(self):
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)
        engine = ConsistentAnswerEngine()
        configure_summary_cache(1)
        try:
            # two shards through a one-entry cache: the second evicts the first
            engine.answer(query, fig1_stock_instance(), options=AnswerOptions(shards=2))
            assert summary_cache_stats()["evictions"] >= 1
            clear_summary_cache()
            report = summary_cache_report()
        finally:
            configure_summary_cache(512)
        assert report["capacity"] == 1  # a reset keeps the configured bound
        assert report["evictions"] == report["hits"] == report["misses"] == 0
        assert report["eviction_ages"]["count"] == 0
        assert report["by_instance"] == {}

    def test_default_bounds_are_strictly_increasing(self):
        assert all(
            a < b for a, b in zip(DEFAULT_AGE_BOUNDS, DEFAULT_AGE_BOUNDS[1:])
        )


# -- the LRU ledger ----------------------------------------------------------------------


class TestPlanCacheLedger:
    def test_attribution_counts_lookups_and_evictions_per_label(self):
        cache = PlanCache(maxsize=2, attribute=lambda key: key[0])
        cache.put(("a", 1), "x")
        cache.get(("a", 1))
        cache.get(("b", 1))
        cache.put(("b", 1), "y")
        cache.put(("b", 2), "z")  # evicts ("a", 1), the LRU entry
        report = cache.report("c", label=str.upper)
        assert report["by_instance"] == {
            "A": {"hits": 1, "misses": 0, "evictions": 1},
            "B": {"hits": 0, "misses": 1, "evictions": 0},
        }
        assert report["eviction_ages"]["count"] == 1
        assert len(report["eviction_ages"]["counts"]) == len(DEFAULT_AGE_BOUNDS) + 1

    def test_attribution_rows_are_bounded_oldest_first(self):
        cache = PlanCache(maxsize=1, attribute=lambda key: key)
        for i in range(PlanCache.MAX_ATTRIBUTED + 5):
            cache.get(f"k{i}")
        by_instance = cache.report("c")["by_instance"]
        assert len(by_instance) == PlanCache.MAX_ATTRIBUTED
        assert "k0" not in by_instance
        assert f"k{PlanCache.MAX_ATTRIBUTED + 4}" in by_instance

    def test_peek_neither_counts_nor_refreshes(self):
        cache = PlanCache(maxsize=2)
        cache.put("old", 1)
        cache.put("new", 2)
        assert cache.peek("old") == 1
        assert cache.peek("missing") is None
        cache.put("newest", 3)  # "old" is still the LRU entry
        assert "old" not in cache
        stats = cache.stats()
        assert stats.hits == stats.misses == 0

    def test_items_snapshot_is_lru_first(self):
        cache = PlanCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.get("a")
        assert cache.items() == [("b", "B"), ("c", "C"), ("a", "A")]

    def test_resize_evicts_lru_first_and_zero_caches_nothing(self):
        cache = PlanCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        cache.resize(1)
        assert cache.items() == [("a", "a")]
        assert cache.stats().evictions == 2
        cache.resize(0)
        cache.put("d", "d")
        assert len(cache) == 0 and cache.get("d") is None
        assert cache.stats().maxsize == 0
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)  # only an explicit resize may disable a cache


# -- approximate sizing ------------------------------------------------------------------


class _Slotted:
    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload


class TestApproxSizeof:
    def test_empty_cache_is_unknown_not_zero(self):
        assert approx_sizeof([]) is None

    def test_bigger_values_measure_bigger(self):
        small = approx_sizeof(["x"] * 4)
        large = approx_sizeof(["x" * 4096] * 4)
        assert small is not None and large is not None
        assert large > small

    def test_extrapolates_sample_to_population(self):
        one = approx_sizeof(["x" * 100], total=1)
        ten = approx_sizeof(["x" * 100], total=10)
        assert one is not None and ten is not None
        assert ten == 10 * one

    def test_handles_cycles_and_slots(self):
        loop = []
        loop.append(loop)  # self-reference must not recurse forever
        assert approx_sizeof([loop]) is not None
        nested = approx_sizeof([_Slotted({"k": "v" * 512})])
        bare = approx_sizeof([_Slotted(None)])
        assert nested is not None and bare is not None
        assert nested > bare


# -- the report schema -------------------------------------------------------------------


class TestCacheReport:
    def test_schema_and_hit_rate(self):
        report = cache_report(
            "c",
            size=3,
            capacity=8,
            hits=9,
            misses=1,
            evictions=2,
            by_instance={"b": {"hits": 4}, "a": {"hits": 5, "evictions": 2}},
            approx_bytes=1234,
            extra={"note": 1},
        )
        assert report["name"] == "c"
        assert report["hit_rate"] == 0.9
        assert list(report["by_instance"]) == ["a", "b"]  # sorted
        assert report["approx_bytes"] == 1234
        assert report["extra"] == {"note": 1}

    def test_no_lookups_means_zero_hit_rate(self):
        report = cache_report("c", size=0)
        assert report["hit_rate"] == 0.0
        assert "approx_bytes" not in report


# -- the registry ------------------------------------------------------------------------


class TestCacheStatsRegistry:
    def test_last_registration_wins(self):
        registry = CacheStatsRegistry()
        registry.register("c", lambda: cache_report("c", size=1))
        registry.register("c", lambda: cache_report("c", size=2))
        (report,) = registry.snapshot()
        assert report["size"] == 2
        registry.unregister("c")
        assert registry.snapshot() == []

    def test_bad_provider_is_isolated_not_fatal(self):
        registry = CacheStatsRegistry()
        registry.register("bad", lambda: 1 / 0)
        registry.register("gone", lambda: None)  # dead weakref convention
        registry.register("good", lambda: cache_report("good", size=1))
        reports = registry.snapshot()
        by_name = {r["name"]: r for r in reports}
        assert set(by_name) == {"bad", "good"}  # None-providers are skipped
        assert "ZeroDivisionError" in by_name["bad"]["error"]
        assert by_name["good"]["size"] == 1

    def test_instance_label_translation(self):
        registry = CacheStatsRegistry()
        registry.label_instance("lineage-token-1", "tenant_a")
        assert registry.instance_label("lineage-token-1") == "tenant_a"
        # unlabelled tokens pass through raw
        assert registry.instance_label("unknown") == "unknown"

    def test_label_table_is_bounded(self):
        registry = CacheStatsRegistry()
        for i in range(registry.MAX_LABELS + 10):
            registry.label_instance(f"token-{i}", f"name-{i}")
        assert registry.instance_label("token-0") == "token-0"  # evicted
        last = registry.MAX_LABELS + 9
        assert registry.instance_label(f"token-{last}") == f"name-{last}"

    def test_scrape_builds_prometheus_families_from_reports(self):
        registry = CacheStatsRegistry()
        ages = {"bounds": [1.0], "counts": [1, 0], "count": 1, "sum_seconds": 0.5}
        registry.register(
            "c",
            lambda: cache_report(
                "c",
                size=2,
                capacity=4,
                hits=7,
                misses=3,
                evictions=1,
                by_instance={"tenant_a": {"hits": 7, "evictions": 1}},
                eviction_ages=ages,
                approx_bytes=999,
            ),
        )
        page = render_prometheus(registry.metrics())
        assert 'repro_cache_size{cache="c"} 2' in page
        assert 'repro_cache_capacity{cache="c"} 4' in page
        assert 'repro_cache_approx_bytes{cache="c"} 999' in page
        assert 'repro_cache_hits_total{cache="c"} 7' in page
        assert 'repro_cache_misses_total{cache="c"} 3' in page
        assert 'repro_cache_evictions_total{cache="c"} 1' in page
        assert (
            'repro_cache_instance_hits_total{cache="c",instance="tenant_a"} 7'
            in page
        )
        assert (
            'repro_cache_instance_evictions_total{cache="c",instance="tenant_a"} 1'
            in page
        )
        assert 'repro_cache_eviction_age_seconds_count{cache="c"} 1' in page

    def test_scrape_after_a_cache_reset_reads_the_ledger(self):
        registry = CacheStatsRegistry()
        counters = {"hits": 10}
        registry.register(
            "c", lambda: cache_report("c", size=0, hits=counters["hits"])
        )
        page = render_prometheus(registry.metrics())
        assert 'repro_cache_hits_total{cache="c"} 10' in page
        counters["hits"] = 3  # the cache was cleared and served 3 hits since
        page = render_prometheus(registry.metrics())
        assert 'repro_cache_hits_total{cache="c"} 3' in page


# -- live-server integration -------------------------------------------------------------


def _assert_common_schema(report):
    assert report["size"] >= 0
    assert report["hits"] >= 0 and report["misses"] >= 0
    ages = report["eviction_ages"]
    bounds = ages["bounds"]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    if ages["counts"]:
        assert len(ages["counts"]) == len(bounds) + 1
        assert sum(ages["counts"]) == ages["count"]


async def _prometheus_page(server) -> str:
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        b"GET /metrics?format=prometheus HTTP/1.1\r\n"
        b"Host: x\r\nConnection: close\r\n\r\n"
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw.decode("utf-8", "replace")


def _spool_scrapes_after_a_delta_write():
    """Answer, write, answer again through a two-process pool, then scrape."""

    async def scenario(server, client):
        await client.answer("stock", STOCK_SUM)
        await client.mutate_instance(
            "stock", [("add", "Stock", ("Tesla W", "Chicago", 5))]
        )
        await client.answer("stock", STOCK_SUM)  # ships the write as a delta
        page = await _prometheus_page(server)
        status, body = await client.request("GET", "/debug/caches")
        assert status == 200
        return page, body["caches"]

    return serve_scenario(scenario, worker_processes=2)


class TestServerCacheTelemetry:
    def test_multi_tenant_attribution_in_debug_caches(self):
        tenants = ("tenant_a", "tenant_b", "tenant_c")

        async def scenario(server, client):
            for seed, name in enumerate(tenants):
                await client.register_instance(
                    name, _tenant_instance(seed), shards=2
                )
            # Interleaved workload: answers on every tenant, a mutation on
            # tenant_b between rounds (its summaries must be invalidated
            # and recomputed, attributed to tenant_b — not to a token).
            for round_no in range(3):
                for name in tenants:
                    await client.answer(name, STOCK_SUM)
                if round_no == 1:
                    await client.mutate_instance(
                        "tenant_b", [("add", "Stock", ("p9", "t1", round_no))]
                    )
            status, body = await client.request("GET", "/debug/caches")
            assert status == 200
            return body["caches"]

        clear_summary_cache()
        configure_summary_cache(4)
        try:
            reports = serve_scenario(scenario)
        finally:
            configure_summary_cache(512)
        by_name = {r["name"]: r for r in reports if "error" not in r}
        assert {"cost_table", "plan_cache", "sql_memo", "summary_cache"} <= set(
            by_name
        )
        for report in by_name.values():
            _assert_common_schema(report)

        cost = by_name["cost_table"]
        assert set(tenants) <= set(cost["by_instance"])
        for name in tenants:
            row = cost["by_instance"][name]
            # first answer per tenant is a cold key (miss), the rest hits
            assert row["misses"] >= 1
            assert row["hits"] >= 1

        summary = by_name["summary_cache"]
        assert summary["capacity"] == 4
        # 3 tenants x 2 shards > 4 slots: the interleaving must evict, and
        # every eviction contributes an age observation.
        assert summary["evictions"] > 0
        assert summary["eviction_ages"]["count"] == summary["evictions"]
        # lineage tokens were translated to registry names
        assert set(tenants) <= set(summary["by_instance"])
        # every lookup is attributed to its tenant, tenant_b's after the
        # write included (the mutated copy keeps its lineage): 3 rounds x 2
        for name in tenants:
            row = summary["by_instance"][name]
            assert row["hits"] + row["misses"] == 6

        plan = by_name["plan_cache"]
        assert plan["capacity"] == 256
        assert plan["hits"] > 0  # repeated STOCK_SUM plans come from cache

    def test_debug_caches_includes_worker_spool_with_processes(self):
        async def scenario(server, client):
            await client.register_instance(
                "sharded", fig1_stock_instance(), shards=2
            )
            for _ in range(3):
                await client.answer("sharded", STOCK_SUM)
            status, body = await client.request("GET", "/debug/caches")
            assert status == 200
            return body["caches"]

        clear_summary_cache()
        reports = serve_scenario(scenario, worker_processes=2)
        by_name = {r["name"]: r for r in reports if "error" not in r}
        assert "worker_spool" in by_name
        spool = by_name["worker_spool"]
        _assert_common_schema(spool)
        assert spool["extra"]["workers"] == 2
        # the instance crossed the pipe at least once and stayed resident
        assert spool["misses"] >= 1
        assert spool["size"] >= 1
        # residency is attributed by spool key (the registry name for named
        # refs, instance-N for anonymous ones) — some row must show traffic
        assert any(
            row.get("hits", 0) + row.get("misses", 0) > 0
            for row in spool["by_instance"].values()
        )

    def test_worker_spool_hits_have_one_source(self):
        page, reports = _spool_scrapes_after_a_delta_write()
        spool = {r["name"]: r for r in reports}["worker_spool"]
        assert spool["hits"] >= 1
        # the deleted gauge left out delta fast-forwards and disagreed
        assert "repro_worker_spool_hits" not in page
        line = f'repro_cache_hits_total{{cache="worker_spool"}} {spool["hits"]}\n'
        assert line in page

    def test_prometheus_reads_the_summary_cache_ledger_after_a_reset(self):
        group_query = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"
        line = 'repro_cache_hits_total{{cache="summary_cache"}} {}\n'

        async def scenario(server, client):
            await client.register_instance(
                "sharded", fig1_stock_instance(), shards=2
            )
            for _ in range(4):
                await client.answer_group_by("sharded", group_query)
            before = await _prometheus_page(server)
            clear_summary_cache()
            for _ in range(2):
                await client.answer_group_by("sharded", group_query)
            return before, await _prometheus_page(server)

        clear_summary_cache()
        before, after = serve_scenario(scenario)
        assert line.format(6) in before  # 3 repeats x 2 shards
        assert summary_cache_stats()["hits"] == 2
        assert line.format(2) in after

    def test_prometheus_page_carries_cache_families(self):
        async def scenario(server, client):
            await client.answer("stock", STOCK_SUM)
            return await _prometheus_page(server)

        clear_summary_cache()
        page = serve_scenario(scenario)
        assert 'repro_cache_size{cache="plan_cache"}' in page
        assert 'repro_cache_size{cache="cost_table"}' in page
        assert 'repro_cache_size{cache="summary_cache"}' in page
        assert "repro_cache_hits_total" in page
        assert "repro_admission_total" in page
