"""Tests for the repro.engine subsystem: plans, cache, backends, batching."""

import pickle

import pytest

from repro.baselines.branch_and_bound import BranchAndBoundSolver
from repro.core.evaluator import BOTTOM
from repro.core.range_answers import compute_range_answer, compute_range_answers
from repro.datamodel.signature import RelationSignature, Schema
from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    PlanCache,
    STRATEGY_BRANCH_AND_BOUND,
    STRATEGY_MINMAX,
    STRATEGY_OPERATIONAL,
    available_backends,
    normalize_query,
    plan_key,
    register_backend,
    schema_fingerprint,
)
from repro.engine.backends import OperationalBackend
from repro.exceptions import BackendError
from repro.query.parser import parse_aggregation_query
from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec
from repro.workloads.queries import (
    running_example_query,
    stock_groupby_query,
    stock_query,
    stock_sum_query,
)
from repro.workloads.scenarios import (
    fig1_stock_instance,
    fig1_stock_schema,
    fig3_running_example_instance,
)


def _workload_instance(blocks: int, inconsistency: float, seed: int):
    return InconsistentDatabaseGenerator(
        WorkloadSpec(
            dealers=max(5, blocks // 5),
            products=max(4, blocks // 5),
            towns=4,
            stock_facts=blocks,
            inconsistency=inconsistency,
            seed=seed,
        )
    ).generate()


# -- plan cache unit tests ---------------------------------------------------------------


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 1
        assert stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_put_existing_key_does_not_evict(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.stats().evictions == 0
        assert cache.get("a") == 10

    def test_clear_keeps_counters(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


# -- plan keys: fingerprinting and normalization -----------------------------------------


class TestPlanKeys:
    def test_fingerprint_stable_across_schema_rebuilds(self):
        assert schema_fingerprint(fig1_stock_schema()) == schema_fingerprint(
            fig1_stock_schema()
        )

    def test_fingerprint_sensitive_to_key_size(self):
        a = Schema([RelationSignature("R", 2, 1)])
        b = Schema([RelationSignature("R", 2, 2)])
        assert schema_fingerprint(a) != schema_fingerprint(b)

    def test_alpha_equivalent_queries_share_a_key(self):
        schema = fig1_stock_schema()
        q1 = parse_aggregation_query(
            schema, "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
        )
        q2 = parse_aggregation_query(
            schema, "SUM(qty) <- Dealers('Smith', town), Stock(prod, town, qty)"
        )
        assert q1 != q2
        assert normalize_query(q1) == normalize_query(q2)
        assert plan_key(schema, q1) == plan_key(schema, q2)

    def test_normalization_preserves_free_variables(self):
        query = stock_groupby_query()
        normalized = normalize_query(query)
        assert [v.name for v in normalized.free_variables] == [
            v.name for v in query.free_variables
        ]

    def test_different_constants_get_different_keys(self):
        schema = fig1_stock_schema()
        smith = stock_sum_query("Smith")
        james = stock_sum_query("James")
        assert plan_key(schema, smith) != plan_key(schema, james)


# -- engine: figure scenarios and cache behaviour ----------------------------------------


class TestEngineAnswers:
    def test_fig1_matches_direct_computation(self):
        engine = ConsistentAnswerEngine()
        query = stock_sum_query()
        instance = fig1_stock_instance()
        assert engine.answer(query, instance) == compute_range_answer(query, instance)

    def test_fig35_matches_direct_computation(self):
        engine = ConsistentAnswerEngine()
        query = running_example_query()
        instance = fig3_running_example_instance()
        assert engine.answer(query, instance) == compute_range_answer(query, instance)

    def test_groupby_matches_direct_computation(self):
        engine = ConsistentAnswerEngine()
        query = stock_groupby_query()
        instance = fig1_stock_instance()
        assert engine.answer_group_by(query, instance) == compute_range_answers(
            query, instance
        )

    @pytest.mark.parametrize("aggregate", ["MIN", "MAX", "COUNT", "AVG"])
    def test_other_aggregates_match_direct_computation(self, aggregate):
        engine = ConsistentAnswerEngine()
        query = stock_query(aggregate)
        instance = fig1_stock_instance()
        assert engine.answer(query, instance) == compute_range_answer(query, instance)

    def test_consistent_answers_drops_bottom_groups(self):
        engine = ConsistentAnswerEngine()
        query = stock_groupby_query()
        instance = fig1_stock_instance()
        answers = engine.consistent_answers(query, instance)
        assert answers
        assert all(not answer.is_bottom for answer in answers.values())

    def test_free_variable_query_needs_binding_or_groupby(self):
        engine = ConsistentAnswerEngine()
        with pytest.raises(BackendError):
            engine.answer(stock_groupby_query(), fig1_stock_instance())

    def test_binding_must_cover_free_variables(self):
        engine = ConsistentAnswerEngine()
        query = stock_groupby_query()
        instance = fig1_stock_instance()
        with pytest.raises(BackendError, match="covering \\['x'\\]"):
            engine.answer(query, instance, binding={"wrong_name": "Smith"})
        answer = engine.answer(query, instance, binding={"x": "Smith"})
        assert answer == compute_range_answers(query, instance)[("Smith",)]

    def test_groupby_requires_free_variables(self):
        engine = ConsistentAnswerEngine()
        with pytest.raises(BackendError):
            engine.answer_group_by(stock_sum_query(), fig1_stock_instance())


class TestEngineCache:
    def test_repeated_query_hits_plan_cache(self):
        engine = ConsistentAnswerEngine()
        query = stock_sum_query()
        instance = fig1_stock_instance()
        engine.answer(query, instance)
        stats = engine.cache_stats()
        assert stats.misses == 1
        engine.answer(query, instance)
        stats = engine.cache_stats()
        assert stats.hits >= 1
        assert stats.misses == 1  # the second call compiled nothing

    def test_alpha_equivalent_query_is_a_cache_hit(self):
        engine = ConsistentAnswerEngine()
        schema = fig1_stock_schema()
        instance = fig1_stock_instance()
        q1 = parse_aggregation_query(
            schema, "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
        )
        q2 = parse_aggregation_query(
            schema, "SUM(b) <- Dealers('Smith', a), Stock(c, a, b)"
        )
        first = engine.answer(q1, instance)
        assert engine.compile(q2).cached
        assert engine.answer(q2, instance) == first
        assert engine.cache_stats().misses == 1

    def test_clear_cache_forces_recompilation(self):
        engine = ConsistentAnswerEngine()
        query = stock_sum_query()
        engine.compile(query)
        engine.clear_cache()
        assert not engine.compile(query).cached
        assert engine.cache_stats().misses == 2

    def test_each_answer_looks_its_plan_up_once(self):
        engine = ConsistentAnswerEngine()
        lookups = []
        compile_plan = engine.compile

        def counting_compile(query):
            lookups.append(query)
            return compile_plan(query)

        engine.compile = counting_compile
        instance = fig1_stock_instance()
        sharded = AnswerOptions(shards=4)
        engine.answer(stock_sum_query(), instance, options=sharded)
        engine.answer_group_by(stock_groupby_query(), instance, sharded)
        assert len(lookups) == 2
        results = engine.answer_many(
            [(stock_sum_query(), instance), (stock_groupby_query(), instance)] * 2,
            AnswerOptions(max_workers=1),
        )
        assert len(lookups) == 6
        assert [r.plan_cached for r in results] == [True] * 4
        engine.clear_cache()
        assert [
            r.plan_cached
            for r in engine.answer_many(
                [(stock_sum_query(), instance)] * 2, AnswerOptions(max_workers=1)
            )
        ] == [False, True]
        assert len(lookups) == 8


# -- strategy selection and fallback dispatch --------------------------------------------


class TestStrategySelection:
    def test_sum_plan_strategies(self):
        plan = ConsistentAnswerEngine().compile(stock_sum_query())
        assert plan.glb_strategy == STRATEGY_OPERATIONAL
        assert plan.lub_strategy == STRATEGY_BRANCH_AND_BOUND
        assert plan.uses_rewriting("glb") and not plan.uses_rewriting("lub")

    def test_minmax_plan_strategies(self):
        plan = ConsistentAnswerEngine().compile(stock_query("MIN"))
        assert plan.glb_strategy == STRATEGY_MINMAX
        assert plan.lub_strategy == STRATEGY_MINMAX

    def test_cyclic_query_dispatches_to_fallback(self):
        schema = Schema(
            [
                RelationSignature("U", 2, 1),
                RelationSignature("V", 2, 1),
                RelationSignature("T", 3, 2, numeric_positions=(3,)),
            ]
        )
        query = parse_aggregation_query(
            schema, "SUM(r) <- U(x, y), V(y, x), T(x, y, r)"
        )
        engine = ConsistentAnswerEngine()
        plan = engine.compile(query)
        assert not plan.glb_verdict.attack_graph_acyclic
        assert plan.glb_strategy == STRATEGY_BRANCH_AND_BOUND
        assert plan.lub_strategy == STRATEGY_BRANCH_AND_BOUND
        assert plan.executors["glb"].backend_name == "branch_and_bound"
        # The fallback still computes the exact answer.
        instance = make_cyclic_instance(schema)
        assert engine.answer(query, instance) == compute_range_answer(query, instance)

    def test_avg_dispatches_to_fallback(self):
        plan = ConsistentAnswerEngine().compile(stock_query("AVG"))
        assert plan.glb_strategy == STRATEGY_BRANCH_AND_BOUND
        assert plan.executors["glb"].backend_name == "branch_and_bound"

    def test_explain_mentions_strategy_and_backend(self):
        text = ConsistentAnswerEngine().explain(stock_sum_query())
        assert "strategy=operational" in text
        assert "backend=operational" in text


def make_cyclic_instance(schema):
    from repro.datamodel.instance import DatabaseInstance

    return DatabaseInstance.from_rows(
        schema,
        {
            "U": [("a", "b"), ("a", "c")],
            "V": [("b", "a"), ("c", "a")],
            "T": [("a", "b", 3), ("a", "c", 5)],
        },
    )


# -- backend registry --------------------------------------------------------------------


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        for expected in ("operational", "sqlite", "branch_and_bound", "exhaustive"):
            assert expected in names

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            ConsistentAnswerEngine(backend="no-such-dbms")

    def test_custom_backend_plugs_in(self):
        class TracingBackend(OperationalBackend):
            name = "tracing"

        register_backend("tracing", TracingBackend)
        try:
            engine = ConsistentAnswerEngine(backend="tracing")
            assert engine.answer(
                stock_sum_query(), fig1_stock_instance()
            ) == compute_range_answer(stock_sum_query(), fig1_stock_instance())
        finally:
            from repro.engine.backends import _BACKEND_FACTORIES

            _BACKEND_FACTORIES.pop("tracing", None)


# -- backend parity (randomized property test) -------------------------------------------


class TestBackendParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_operational_and_sqlite_agree_on_generated_workloads(self, seed):
        blocks = 12 + 3 * seed
        inconsistency = (0.1, 0.3, 0.5)[seed % 3]
        instance = _workload_instance(blocks, inconsistency, seed)
        query = stock_sum_query(f"dealer{seed % 5}")
        operational = ConsistentAnswerEngine(backend="operational")
        sql = ConsistentAnswerEngine(backend="sqlite")
        assert operational.glb(query, instance) == sql.glb(query, instance)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("aggregate", ["SUM", "COUNT", "MIN", "MAX"])
    def test_parity_across_aggregates(self, seed, aggregate):
        instance = _workload_instance(10 + seed, 0.4, 100 + seed)
        query = stock_query(aggregate, f"dealer{seed}")
        operational = ConsistentAnswerEngine(backend="operational")
        sql = ConsistentAnswerEngine(backend="sqlite")
        assert operational.glb(query, instance) == sql.glb(query, instance)

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_agrees_with_branch_and_bound(self, seed):
        instance = _workload_instance(10, 0.5, 200 + seed)
        query = stock_sum_query(f"dealer{seed}")
        engine = ConsistentAnswerEngine()
        assert engine.glb(query, instance) == BranchAndBoundSolver(query).glb(instance)


# -- batch execution ---------------------------------------------------------------------


class TestBatchExecution:
    def _items(self, count: int):
        query = stock_sum_query("dealer0")
        return [
            (query, _workload_instance(10 + i, 0.3, 300 + i)) for i in range(count)
        ]

    def test_serial_batch_preserves_order_and_warms_cache(self):
        engine = ConsistentAnswerEngine()
        items = self._items(3)
        results = engine.answer_many(items, AnswerOptions(max_workers=1))
        assert [r.index for r in results] == [0, 1, 2]
        assert results[0].plan_cached is False
        assert all(r.plan_cached for r in results[1:])
        assert all(r.seconds >= 0 for r in results)
        for result, (query, instance) in zip(results, items):
            assert result.answer == ConsistentAnswerEngine().answer(query, instance)

    def test_parallel_batch_matches_serial(self):
        items = self._items(6)
        serial = ConsistentAnswerEngine().answer_many(items, AnswerOptions(max_workers=1))
        parallel = ConsistentAnswerEngine().answer_many(items, AnswerOptions(max_workers=3))
        assert [r.answer for r in serial] == [r.answer for r in parallel]
        assert [r.index for r in parallel] == list(range(6))

    def test_batch_mixes_closed_and_groupby_queries(self):
        instance = fig1_stock_instance()
        items = [
            (stock_sum_query(), instance),
            (stock_groupby_query(), instance),
        ]
        results = ConsistentAnswerEngine().answer_many(items, AnswerOptions(max_workers=1))
        assert results[0].answer == compute_range_answer(stock_sum_query(), instance)
        assert results[1].answer == compute_range_answers(
            stock_groupby_query(), instance
        )

    def test_batch_records_strategies(self):
        results = ConsistentAnswerEngine().answer_many(
            [(stock_sum_query(), fig1_stock_instance())]
        )
        assert results[0].glb_strategy == STRATEGY_OPERATIONAL
        assert results[0].lub_strategy == STRATEGY_BRANCH_AND_BOUND

    def test_empty_batch(self):
        assert ConsistentAnswerEngine().answer_many([]) == []


# -- serialization invariants ------------------------------------------------------------


class TestSerialization:
    def test_bottom_survives_pickling_as_singleton(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(BOTTOM, protocol)) is BOTTOM

    def test_range_answer_with_bottom_survives_pickling(self):
        from repro.core.range_answers import RangeAnswer

        answer = RangeAnswer(BOTTOM, BOTTOM)
        restored = pickle.loads(pickle.dumps(answer))
        assert restored.is_bottom


# -- batch parallelism is derived, not configured ---------------------------------------


class TestDerivedBatchPolicy:
    def test_small_batch_without_a_pool_runs_serially_and_warms_the_cache(self):
        engine = ConsistentAnswerEngine()
        items = [(stock_sum_query(), fig1_stock_instance())] * 3
        results = engine.answer_many(items)
        # Below the serial threshold the calling engine runs every item
        # itself, so later items see the plan the first one compiled.
        assert [r.plan_cached for r in results] == [False, True, True]
        assert engine.compile(stock_sum_query()).cached

    def test_two_item_batch_goes_to_a_running_pool_as_chunks(self):
        from repro.engine import WorkerPool

        engine = ConsistentAnswerEngine()
        items = [(stock_sum_query(), fig1_stock_instance())] * 2
        with WorkerPool(workers=2, engine_config=engine.config()) as pool:
            engine.set_worker_pool(pool)
            try:
                results = engine.answer_many(items)
                chunk_jobs = sum(
                    w.get("chunk_jobs", 0) for w in pool.stats()["per_worker"]
                )
            finally:
                engine.set_worker_pool(None)
        assert chunk_jobs > 0
        expected = compute_range_answer(stock_sum_query(), fig1_stock_instance())
        assert [r.answer for r in results] == [expected, expected]

    def test_config_holds_only_the_constructor_arguments(self):
        engine = ConsistentAnswerEngine(backend="sqlite")
        assert engine.config() == {"backend": "sqlite"}
        # Worker processes rebuild an identical engine from it.
        assert ConsistentAnswerEngine(**engine.config()).config() == engine.config()

    def test_a_failing_pool_degrades_to_serial_never_to_a_fork(self, monkeypatch):
        import repro.engine.batch as batch_module
        from repro.engine import WorkerPoolError

        class FailingPool:
            is_running = True
            size = 2

            def run_chunks(self, chunks):
                raise WorkerPoolError("every worker crashed")

        def no_fork(*args, **kwargs):
            pytest.fail("the batch forked while a worker pool was attached")

        monkeypatch.setattr(batch_module, "run_in_fork_pool", no_fork)
        engine = ConsistentAnswerEngine()
        engine.set_worker_pool(FailingPool())
        items = [(stock_sum_query(), fig1_stock_instance())] * 4
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            results = engine.answer_many(items)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.plan_cached for r in results] == [False, True, True, True]


# -- process-wide generated-SQL memo -----------------------------------------------------


class TestSqlMemo:
    def setup_method(self):
        from repro.engine import clear_sql_memo

        clear_sql_memo()

    def test_fresh_engines_share_generated_sql(self):
        from repro.engine import sql_memo_stats

        instance = fig1_stock_instance()
        query = stock_groupby_query()

        first = ConsistentAnswerEngine(backend="sqlite").answer_group_by(
            query, instance
        )
        after_first = sql_memo_stats()
        assert after_first["misses"] > 0
        assert after_first["size"] == after_first["misses"]

        # A fresh engine (e.g. a new serving worker) re-prepares executors
        # but must not regenerate identical per-binding SQL.
        second = ConsistentAnswerEngine(backend="sqlite").answer_group_by(
            query, instance
        )
        after_second = sql_memo_stats()
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]
        assert first == second

    def test_closed_query_sql_memoized_across_engines(self):
        from repro.engine import sql_memo_stats

        instance = fig1_stock_instance()
        query = stock_sum_query()
        answers = [
            ConsistentAnswerEngine(backend="sqlite").answer(query, instance)
            for _ in range(3)
        ]
        stats = sql_memo_stats()
        assert stats["misses"] == 1  # generated exactly once process-wide
        assert stats["hits"] >= 2
        assert answers[0] == answers[1] == answers[2]

    def test_memo_distinguishes_instantiations(self):
        from repro.engine import sql_memo_stats

        instance = fig1_stock_instance()
        engine = ConsistentAnswerEngine(backend="sqlite")
        engine.answer(stock_sum_query("Smith"), instance)
        engine.answer(stock_sum_query("James"), instance)
        stats = sql_memo_stats()
        # Different constants are different rewritings: two distinct entries.
        assert stats["size"] == 2
