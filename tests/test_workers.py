"""Worker-pool tests: lifecycle, instance transfer, shard routing, crash
recovery, and — most importantly — parity with in-process execution.

The pool is only allowed to exist because it is indistinguishable from the
in-process engine (same Fraction-exact bounds, same GROUP BY keys, same ⊥
cases) on the very workloads the shard-parity harness pins down; the
recovery tests use the pool's deterministic ``sleep`` diagnostic job so a
worker can be killed provably *mid-job*.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time

import pytest

from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    WorkerCrashError,
    WorkerPool,
    clear_summary_cache,
)
from repro.engine.sharding import _cached_shard_plan, summarize_planned_shard
from repro.engine.workers import WorkerPoolError
from repro.workloads.generators import (
    InconsistentDatabaseGenerator,
    WorkloadSpec,
    derive_seed,
)
from repro.workloads.queries import (
    stock_groupby_query,
    stock_sum_query,
    stock_total_query,
    stock_town_groupby_query,
)
from repro.workloads.scenarios import fig1_stock_instance


def _workload(seed: int, stock_facts: int = 24):
    spec = WorkloadSpec(
        dealers=8,
        products=6,
        towns=5,
        stock_facts=stock_facts,
        inconsistency=0.25,
        extra_facts_per_block=1,
        seed=seed,
    )
    return InconsistentDatabaseGenerator(spec).generate()


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- lifecycle ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_start_and_shutdown_are_idempotent(self):
        pool = WorkerPool(workers=2)
        assert not pool.is_running
        pool.start()
        pool.start()  # second start is a no-op
        assert pool.is_running
        assert len([pid for pid in pool.worker_pids() if pid]) == 2
        pool.shutdown()
        pool.shutdown()  # second shutdown is a no-op
        assert not pool.is_running

    def test_start_after_shutdown_raises(self):
        pool = WorkerPool(workers=1)
        pool.start()
        pool.shutdown()
        with pytest.raises(WorkerPoolError):
            pool.start()

    def test_context_manager_tears_down_workers(self):
        with WorkerPool(workers=2) as pool:
            pids = [pid for pid in pool.worker_pids() if pid]
            assert len(pids) == 2
        assert not pool.is_running
        for pid in pids:
            assert _wait_until(lambda: not _alive(pid)), f"worker {pid} survived"

    def test_submitting_after_shutdown_fails_cleanly(self):
        pool = WorkerPool(workers=1)
        pool.start()
        pool.shutdown()
        with pytest.raises(WorkerPoolError):
            pool.answer(stock_sum_query(), fig1_stock_instance())

    def test_stats_shape(self):
        with WorkerPool(workers=2) as pool:
            pool.answer(stock_sum_query(), fig1_stock_instance())
            stats = pool.stats()
            assert stats["enabled"] and stats["running"]
            assert stats["workers"] == 2
            assert stats["jobs_submitted"] >= 1
            assert stats["restarts"] == 0
            assert len(stats["per_worker"]) == 2
            worked = [w for w in stats["per_worker"] if w.get("jobs")]
            assert worked, "no worker reported a completed job"
            assert "plan_cache" in worked[0]
            assert worked[0]["resident_instances"] == 1

    @pytest.mark.parametrize("worker", [0, 2])
    def test_a_worker_exits_when_its_job_pipe_closes(self, worker):
        """The pool must be the only writer of a worker's job pipe, so that
        closing the pool's end ends the worker at EOF.  The first worker's
        end was also inherited by its two forked siblings; the last
        worker's end only by the worker itself."""
        with WorkerPool(workers=3) as pool:
            pid = pool.worker_pids()[worker]
            pool._handles[worker].job_conn.close()
            assert _wait_until(lambda: not _running(pid), timeout=5.0), (
                f"worker {worker} (pid {pid}) outlived its job pipe"
            )


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _running(pid: int) -> bool:
    """Alive and not a zombie: an exited orphan may wait a while for its
    new parent to reap it, and that parent is outside the test's control."""
    if not _alive(pid):
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:  # gone since the probe, or no procfs: probe again
        return _alive(pid)
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# -- instance registration and transfer --------------------------------------------------


class TestInstanceTransfer:
    def test_instance_is_pickled_once_and_reused(self):
        instance = fig1_stock_instance()
        query = stock_sum_query()
        with WorkerPool(workers=1) as pool:
            ref_first = pool.ref_for(instance)
            ref_second = pool.ref_for(instance)
            assert ref_first is ref_second  # no re-pickle for the same object
            expected = ConsistentAnswerEngine().answer(query, instance)
            for _ in range(3):
                assert pool.answer(query, instance) == expected
            (worker,) = pool.stats()["per_worker"]
            assert worker["instance_loads"] == 1  # transferred exactly once
            assert worker["jobs"] == 3

    def test_mutated_instance_is_re_shipped(self):
        instance = fig1_stock_instance()
        query = stock_total_query("MAX")
        engine = ConsistentAnswerEngine()
        with WorkerPool(workers=1) as pool:
            before = pool.answer(query, instance)
            assert before == engine.answer(query, instance)
            version_before = pool.ref_for(instance).version
            instance.add_row("Stock", "Tesla Z", "Chicago", 4000)
            after = pool.answer(query, instance)
            assert pool.ref_for(instance).version > version_before
            assert after == engine.answer(query, instance)
            assert after != before

    def test_named_reregistration_bumps_version_and_changes_answers(self):
        query = stock_total_query("MAX")
        small = fig1_stock_instance()
        bigger = fig1_stock_instance()
        bigger.add_row("Stock", "Tesla Z", "Chicago", 4000)
        with WorkerPool(workers=1) as pool:
            first = pool.answer(query, small, name="db")
            ref_small = pool.ref_for(small, name="db")
            second = pool.answer(query, bigger, name="db")  # replacement
            ref_bigger = pool.ref_for(bigger, name="db")
            assert ref_bigger.key == ref_small.key  # same logical instance
            assert ref_bigger.version > ref_small.version
            assert first != second
            assert second == ConsistentAnswerEngine().answer(query, bigger)

    def test_invalidate_drops_worker_residency(self):
        instance = fig1_stock_instance()
        with WorkerPool(workers=1) as pool:
            pool.answer(stock_sum_query(), instance, name="db")
            assert pool.stats()["per_worker"][0]["resident_instances"] == 1
            pool.invalidate("db")
            # Residency counters update with the next completed job.
            pool.answer(stock_sum_query(), fig1_stock_instance())
            assert _wait_until(
                lambda: all(
                    w["resident_instances"] == 1 and w["instance_loads"] == 2
                    for w in pool.stats()["per_worker"]
                )
            ), pool.stats()

    def test_instances_spool_to_disk_and_jobs_carry_thin_refs(self):
        instance = _workload(7, stock_facts=60)
        query = stock_total_query("MIN")
        with WorkerPool(workers=2) as pool:
            ref = pool.ref_for(instance)
            assert os.path.exists(ref.spool_path)
            # The job payload is the thin ref, never the database: its
            # pickle must stay tiny however large the instance is.
            import pickle

            assert len(pickle.dumps(ref)) < 1024
            assert pool.answer(query, instance) == ConsistentAnswerEngine().answer(
                query, instance
            )
            spool_path = ref.spool_path
        assert not os.path.exists(spool_path)  # shutdown removes the spool

    def test_spool_files_retire_on_a_grandfather_schedule(self):
        """Version bumps must not accumulate pickles: building version v
        deletes v-2's file (never v-1's, which an in-flight job may still
        load), so a long-lived server stays at <= 2 files per key."""
        query = stock_total_query("MAX")
        with WorkerPool(workers=1) as pool:
            instance = fig1_stock_instance()
            paths = []
            for round_index in range(6):
                instance.add_row("Stock", f"Tesla {round_index}", "Chicago", 10)
                ref = pool.ref_for(instance, name="db")
                paths.append(ref.spool_path)
                assert pool.answer(query, instance, name="db").lub >= 10
                live = [p for p in paths if os.path.exists(p)]
                assert len(live) <= 2, live
                assert paths[-1] in live  # the current version always exists

    def test_named_and_anonymous_paths_share_one_ref(self):
        # /answer registers by name, /answer_many goes through the anonymous
        # path — both must resolve to one key (one resident copy per worker).
        instance = fig1_stock_instance()
        with WorkerPool(workers=1) as pool:
            named = pool.ref_for(instance, name="db")
            anonymous = pool.ref_for(instance)
            assert anonymous is named
            pool.answer(stock_sum_query(), instance, name="db")
            pool.run_chunks([[(0, stock_sum_query(), instance)]])
            (worker,) = pool.stats()["per_worker"]
            assert worker["resident_instances"] == 1
            assert worker["instance_loads"] == 1

    def test_id_reuse_cannot_serve_a_stale_named_ref(self):
        # CPython reuses object ids: replacing a named instance with an
        # equal-cardinality database allocated at the same address must
        # still bump the version (the weakref guard, not (id, len)).
        query = stock_total_query("MAX")
        with WorkerPool(workers=1) as pool:
            for round_index in range(5):
                instance = fig1_stock_instance()
                instance.add_row("Stock", "Tesla Z", "Chicago", round_index)
                ref = pool.ref_for(instance, name="db")
                assert ref.load() == instance, f"stale pickle in round {round_index}"
                assert pool.answer(query, instance, name="db") == (
                    ConsistentAnswerEngine().answer(query, instance)
                )
                del instance  # free the object so the next round may reuse its id


# -- shard routing -----------------------------------------------------------------------


class TestShardRouting:
    def test_shard_runs_avoid_a_wedged_worker_and_keep_index_order(self):
        instance = _workload(11, stock_facts=40)
        engine = ConsistentAnswerEngine()
        plan = engine.compile(stock_total_query("MAX"))
        indices = [3, 0, 2, 1]
        with WorkerPool(workers=2, engine_config=engine.config()) as pool:
            # Wedge worker 0 under three slow jobs; the shard runs must then
            # go to worker 1 (depth 0..1 vs 3), whatever the shard indices.
            blockers = [pool._submit(0, "sleep", (0.6,)) for _ in range(3)]
            summaries = pool.summarize_shards(
                plan.query, instance, 4, indices, binding={}, timeout=30
            )
            for blocker in blockers:
                blocker.result(timeout=30)
            per_worker = {w["worker"]: w for w in pool.stats()["per_worker"]}
            assert per_worker[0].get("shard_jobs", 0) == 0
            assert per_worker[1]["shard_jobs"] == 2  # at most one run per worker
        shard_plan = _cached_shard_plan(plan, instance, 4, grouped=False)
        expected = [
            summarize_planned_shard(plan, shard_plan, index, instance.schema, {})
            for index in indices
        ]
        assert len(set(expected)) > 1  # distinct summaries: the order is visible
        assert summaries == expected

    def test_misses_split_into_at_most_one_run_per_worker(self):
        instance = _workload(12, stock_facts=60)
        engine = ConsistentAnswerEngine()
        plan = engine.compile(stock_total_query("SUM"))
        shard_plan = _cached_shard_plan(plan, instance, 7, grouped=False)
        assert len(shard_plan.shards) == 7

        def shard_jobs(pool):
            return sum(w.get("shard_jobs", 0) for w in pool.stats()["per_worker"])

        indices = [6, 1, 4, 0, 5, 2, 3]
        with WorkerPool(workers=2, engine_config=engine.config()) as pool:
            summaries = pool.summarize_shards(
                plan.query, instance, 7, indices, binding={}, timeout=30
            )
            assert shard_jobs(pool) == 2  # seven misses, two runs
            single = pool.summarize_shards(
                plan.query, instance, 7, [5], binding={}, timeout=30
            )
            assert shard_jobs(pool) == 3  # one miss, one run
        expected = [
            summarize_planned_shard(plan, shard_plan, index, instance.schema, {})
            for index in indices
        ]
        assert summaries == expected
        assert single == [expected[indices.index(5)]]


# -- crash recovery ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_idle_worker_is_respawned(self):
        instance = fig1_stock_instance()
        query = stock_sum_query()
        with WorkerPool(workers=2) as pool:
            expected = pool.answer(query, instance)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(lambda: pool.stats()["restarts"] >= 1)
            assert _wait_until(lambda: pool.worker_pids()[0] not in (None, victim))
            assert pool.answer(query, instance) == expected
            assert pool.stats()["restarts"] == 1

    def test_job_killed_mid_flight_is_retried_once(self):
        with WorkerPool(workers=2) as pool:
            future = pool._submit(0, "sleep", (0.4,))
            time.sleep(0.1)  # the job is provably running now
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            assert future.result(timeout=15) == 0.4  # retried on the respawn
            stats = pool.stats()
            assert stats["restarts"] >= 1 and stats["retries"] >= 1

    def test_second_crash_fails_with_worker_crash_error(self):
        with WorkerPool(workers=2) as pool:
            future = pool._submit(0, "sleep", (2.0,))
            time.sleep(0.1)
            first = pool.worker_pids()[0]
            os.kill(first, signal.SIGKILL)
            assert _wait_until(lambda: pool.worker_pids()[0] not in (None, first))
            time.sleep(0.2)  # the retry is sleeping on the respawned worker
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=15)

    def test_sibling_workers_are_unaffected_by_a_crash(self):
        instance = fig1_stock_instance()
        query = stock_sum_query()
        with WorkerPool(workers=2) as pool:
            expected = pool.answer(query, instance)
            os.kill(pool.worker_pids()[1], signal.SIGKILL)
            # Worker 0 keeps answering while worker 1 respawns.
            for _ in range(3):
                assert pool.answer(query, instance) == expected


# -- parity with in-process execution (the shard-parity workloads) -----------------------


class TestPoolParity:
    """Pool results must be Fraction-exact equal to in-process results."""

    QUERIES = (
        stock_sum_query(),
        stock_sum_query("dealer0"),
        stock_total_query("SUM"),
        stock_total_query("MIN"),
        stock_total_query("MAX"),
        stock_groupby_query(),
        stock_town_groupby_query(),
    )

    @pytest.mark.parametrize("backend", ("operational", "sqlite"))
    def test_single_answers_match_in_process(self, backend, repro_seed):
        engine = ConsistentAnswerEngine(backend=backend)
        instances = [
            fig1_stock_instance(),
            _workload(derive_seed(repro_seed, "pool-parity", backend)),
        ]
        with WorkerPool(workers=2, engine_config=engine.config()) as pool:
            for instance in instances:
                for query in self.QUERIES:
                    if query.free_variables:
                        expected = engine.answer_group_by(query, instance)
                    else:
                        expected = engine.answer(query, instance)
                    assert pool.answer(query, instance) == expected, str(query)

    def test_sharded_execution_through_attached_pool(self, repro_seed):
        engine = ConsistentAnswerEngine()
        instance = _workload(derive_seed(repro_seed, "pool-shards"), stock_facts=40)
        query = stock_total_query("MAX")
        group_query = stock_town_groupby_query()
        baseline = engine.answer(query, instance, options=AnswerOptions(shards=3))
        group_baseline = engine.answer_group_by(
            group_query, instance, AnswerOptions(shards=3)
        )
        # The baselines filled this process's summary cache; without it the
        # pooled answers below miss every shard and summarise on the pool.
        clear_summary_cache()
        with WorkerPool(workers=2, engine_config=engine.config()) as pool:
            engine.set_worker_pool(pool)
            try:
                assert (
                    engine.answer(query, instance, options=AnswerOptions(shards=3))
                    == baseline
                )
                assert (
                    engine.answer_group_by(group_query, instance, AnswerOptions(shards=3))
                    == group_baseline
                )
                pool_stats = engine.shard_stats()["worker_pool"]
                shard_jobs = sum(
                    w.get("shard_jobs", 0) for w in pool_stats["per_worker"]
                )
                assert shard_jobs >= 1  # summaries really ran on the pool
            finally:
                engine.set_worker_pool(None)

    def test_answer_many_through_attached_pool(self, repro_seed):
        engine = ConsistentAnswerEngine()
        instance = _workload(derive_seed(repro_seed, "pool-batch"))
        items = [(query, instance) for query in self.QUERIES]
        serial = engine.answer_many(items, AnswerOptions(max_workers=1))
        with WorkerPool(workers=2, engine_config=engine.config()) as pool:
            engine.set_worker_pool(pool)
            try:
                pooled = engine.answer_many(items)
                assert [r.index for r in pooled] == [r.index for r in serial]
                assert [r.answer for r in pooled] == [r.answer for r in serial]
                chunk_jobs = sum(
                    w.get("chunk_jobs", 0)
                    for w in pool.stats()["per_worker"]
                )
                assert chunk_jobs >= 2  # the batch really fanned out
            finally:
                engine.set_worker_pool(None)


class TestWorkerErrorPropagation:
    def test_worker_side_client_errors_keep_their_type(self):
        """A query error raised inside a worker must surface as the original
        exception class — the serving layer's 4xx/5xx classification (and
        thread/process parity) depend on it."""
        from repro.exceptions import NotSelfJoinFreeError
        from repro.query.parser import parse_aggregation_query
        from repro.workloads.scenarios import fig1_stock_schema

        query = parse_aggregation_query(
            fig1_stock_schema(), "SUM(y) <- Stock(p, t, y), Stock(p2, t2, y2)"
        )
        with WorkerPool(workers=1) as pool:
            with pytest.raises(NotSelfJoinFreeError):
                pool.answer(query, fig1_stock_instance())

    def test_serve_returns_400_for_worker_side_query_errors(self):
        from repro.serve import ConsistentAnswerServer, ServeClient, ServeConfig

        async def scenario():
            server = ConsistentAnswerServer(
                ServeConfig(port=0, workers=2, worker_processes=2)
            )
            await server.start()
            try:
                async with ServeClient(*server.address) as client:
                    return await client.request(
                        "POST",
                        "/answer",
                        {
                            "instance": "stock",
                            "query": "SUM(y) <- Stock(p, t, y), Stock(p2, t2, y2)",
                        },
                    )
            finally:
                await server.stop()

        status, body = asyncio.run(scenario())
        assert status == 400, body  # same classification as thread mode
        assert body["error"]["type"] == "NotSelfJoinFreeError"


# -- the serving layer in --workers mode -------------------------------------------------


class TestServeWorkerMode:
    def _serve(self, coroutine):
        return asyncio.run(coroutine)

    def test_pool_mode_answers_match_thread_mode(self):
        from repro.serve import ConsistentAnswerServer, ServeClient, ServeConfig

        async def scenario():
            thread_server = ConsistentAnswerServer(ServeConfig(port=0, workers=2))
            pool_server = ConsistentAnswerServer(
                ServeConfig(port=0, workers=2, worker_processes=2)
            )
            await thread_server.start()
            await pool_server.start()
            try:
                query = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
                group_query = "(t, SUM(y)) <- Stock(p, t, y)"
                async with ServeClient(*thread_server.address) as threads:
                    async with ServeClient(*pool_server.address) as pooled:
                        answers = (
                            await threads.answer("stock", query),
                            await pooled.answer("stock", query),
                        )
                        groups = (
                            await threads.answer_group_by("stock", group_query),
                            await pooled.answer_group_by("stock", group_query),
                        )
                        batch = await pooled.answer_many(
                            [("stock", query)] * 4
                        )
                        metrics = await pooled.metrics()
                        health = await pooled.healthz()
                return answers, groups, batch, metrics, health
            finally:
                await thread_server.stop()
                await pool_server.stop()

        answers, groups, batch, metrics, health = self._serve(scenario())
        assert answers[0] == answers[1]
        assert groups[0] == groups[1]
        assert len(batch) == 4
        pool_stats = metrics["worker_pool"]
        assert pool_stats["enabled"] and pool_stats["workers"] == 2
        assert pool_stats["jobs_submitted"] >= 1
        assert len(pool_stats["per_worker"]) == 2
        assert health["worker_processes"] == 2

    def test_summary_cache_hits_show_in_worker_mode_telemetry(self):
        """A repeated sharded GROUP BY on a ``--workers 2`` server is served
        from the serving process's summary cache, and both telemetry views
        (``/metrics`` and ``/debug/caches``) say so."""
        from repro.serve import ConsistentAnswerServer, ServeClient, ServeConfig

        group_query = "(t, SUM(y)) <- Stock(p, t, y)"
        instance = _workload(11, stock_facts=40)
        shards = 4

        async def scenario():
            server = ConsistentAnswerServer(
                ServeConfig(port=0, workers=2, worker_processes=2)
            )
            await server.start()
            try:
                async with ServeClient(*server.address) as client:
                    await client.register_instance("sharded", instance, shards=shards)
                    first = await client.answer_group_by("sharded", group_query)
                    jobs = (await client.metrics())["worker_pool"]["jobs_submitted"]
                    second = await client.answer_group_by("sharded", group_query)
                    metrics = await client.metrics()
                    status, body = await client.request("GET", "/debug/caches")
                    assert status == 200
                return first, second, jobs, metrics, body["caches"]
            finally:
                await server.stop()

        clear_summary_cache()
        first, second, jobs, metrics, caches = self._serve(scenario())
        assert first == second
        summary = metrics["sharding"]["summary_cache"]
        assert (summary["misses"], summary["hits"]) == (shards, shards)
        report = next(r for r in caches if r["name"] == "summary_cache")
        assert report["hits"] == shards
        assert report["by_instance"]["sharded"]["hits"] == shards
        pool = metrics["worker_pool"]
        # The cold answer's misses ran on the workers; the repeated answer
        # came from the cache and sent the pool nothing.
        assert sum(w.get("shard_jobs", 0) for w in pool["per_worker"]) >= 1
        assert pool["jobs_submitted"] == jobs

    def test_first_write_after_a_sharded_read_ships_a_delta(self):
        """Sharded reads and writes share the registry name's ref, so the
        first write after a pooled sharded read ships a fact delta instead
        of pickling the instance a second time."""
        from repro.query.parser import parse_aggregation_query
        from repro.serve import ConsistentAnswerServer, ServeClient, ServeConfig

        group_query = "(t, SUM(y)) <- Stock(p, t, y)"
        instance = _workload(11, stock_facts=40)
        removed = min((f for f in instance.facts if f.relation == "Stock"), key=repr)

        async def scenario():
            server = ConsistentAnswerServer(
                ServeConfig(port=0, workers=2, worker_processes=2)
            )
            await server.start()
            try:
                async with ServeClient(*server.address) as client:
                    await client.register_instance("sharded", instance, shards=4)
                    await client.answer_group_by("sharded", group_query)
                    await client.mutate_instance(
                        "sharded", [("remove", "Stock", tuple(removed.values))]
                    )
                    after = await client.answer_group_by("sharded", group_query)
                    return after, (await client.metrics())["worker_pool"]
            finally:
                await server.stop()

        clear_summary_cache()
        after, pool = self._serve(scenario())
        assert (pool["delta_ships"], pool["delta_reships"]) == (1, 0)
        mutated = instance.copy()
        mutated.remove_fact(removed)
        query = parse_aggregation_query(instance.schema, group_query)
        assert after == ConsistentAnswerEngine().answer_group_by(query, mutated)

    def test_worker_killed_mid_request_releases_the_gate(self):
        """The PR's serve bugfix contract: a worker crash mid-request must
        produce a retried 200 or a structured 500 — never a hung admission
        slot — and the pool must have respawned the worker."""
        from repro.serve import ConsistentAnswerServer, ServeClient, ServeConfig

        async def scenario():
            server = ConsistentAnswerServer(
                ServeConfig(port=0, workers=4, worker_processes=2)
            )
            await server.start()
            try:
                # bench_serve.py's CPU-bound instance at 120 facts
                spec = WorkloadSpec(
                    dealers=12,
                    products=12,
                    towns=6,
                    stock_facts=120,
                    inconsistency=0.2,
                    seed=7,
                )
                instance = InconsistentDatabaseGenerator(spec).generate()
                server.registry.register("workload", instance)
                group_query = "(t, SUM(y)) <- Stock(p, t, y)"

                async def one_request(client):
                    status, body = await client.request(
                        "POST",
                        "/answer_group_by",
                        {"instance": "workload", "query": group_query},
                    )
                    return status, body

                async def killer():
                    await asyncio.sleep(0.05)
                    pids = server._pool.worker_pids()
                    os.kill(pids[0], signal.SIGKILL)

                clients = [ServeClient(*server.address) for _ in range(6)]
                for client in clients:
                    await client.open()
                try:
                    outcomes, _ = await asyncio.gather(
                        asyncio.gather(*(one_request(c) for c in clients)),
                        killer(),
                    )
                finally:
                    for client in clients:
                        await client.close()
                # The admission gate must drain back to zero.
                for _ in range(100):
                    if server.gate.in_use == 0:
                        break
                    await asyncio.sleep(0.05)
                gate_in_use = server.gate.in_use
                restarts = server._pool.stats()["restarts"]
                return outcomes, gate_in_use, restarts
            finally:
                await server.stop()

        outcomes, gate_in_use, restarts = self._serve(scenario())
        assert gate_in_use == 0
        assert restarts >= 1
        for status, body in outcomes:
            assert status in (200, 500), (status, body)
            if status == 500:  # structured, typed error body — not a hang
                assert body["error"]["type"] in ("WorkerCrashError", "WorkerPoolError")
            else:
                assert body["groups"]

    def test_port_busy_exits_with_structured_error(self, capsys):
        from repro.serve.__main__ import main

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["--port", str(port), "--no-builtins"])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cannot listen on" in err
        assert str(port) in err

    def test_sigterm_leaves_no_orphaned_workers(self, tmp_path):
        """SIGTERM skips the pool's shutdown: the workers must exit on the
        EOF of their job pipes instead of living on under another parent."""
        import json
        import subprocess
        import sys
        import urllib.request

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        log_path = tmp_path / "server.log"
        pids = []
        with open(log_path, "w") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "2"],
                stderr=log,
                env=env,
            )
        try:
            port = None

            def listening() -> bool:
                nonlocal port
                for line in log_path.read_text().splitlines():
                    if '"event":"listening"' in line:
                        port = json.loads(line)["port"]
                return port is not None

            assert _wait_until(listening, timeout=30), log_path.read_text()
            url = f"http://127.0.0.1:{port}/metrics"
            with urllib.request.urlopen(url, timeout=30) as response:
                pool = json.load(response)["worker_pool"]
            pids = [worker["pid"] for worker in pool["per_worker"]]
            assert len(pids) == 2 and all(pids)
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            _wait_until(lambda: not any(map(_running, pids)), timeout=5.0)
            survivors = [pid for pid in pids if _running(pid)]
            assert not survivors, f"workers outlived the server: {survivors}"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_port_busy_in_worker_mode_tears_the_pool_down(self, capsys):
        from repro.serve.__main__ import main

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["--port", str(port), "--workers", "2", "--no-builtins"])
        finally:
            blocker.close()
        assert code == 1
        assert "error: cannot listen on" in capsys.readouterr().err
        # No orphaned worker processes: every repro-worker child is gone.
        import multiprocessing

        children = multiprocessing.active_children()
        assert not [c for c in children if c.name.startswith("repro-worker")]
