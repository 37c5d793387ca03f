"""Incremental answering: mutate-then-answer == rebuild-then-answer, exactly.

PR 9's tentpole lets a point write re-answer in O(one shard): the summary
cache keyed on ``(lineage, plan, shard token)`` serves the untouched
shards, the worker pool fast-forwards resident instances from fact deltas,
and the registry reports the write's blast radius (touched blocks, shard
slots).  None of that is allowed to change a single answer — this harness
pins *incremental* execution (warm caches, delta-shipped residents,
concurrent writers) against a cold rebuild of the same final fact set,
which shares no lineage and therefore no cache entries.

Scenario seeds derive from the session ``repro_seed`` fixture via
``derive_seed`` (re-run with ``REPRO_TEST_SEED=<seed>`` to explore other
slices deterministically).
"""

from __future__ import annotations

import threading

import pytest

from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    WorkerPool,
    clear_summary_cache,
    summary_cache_stats,
)
from repro.serve.registry import InstanceRegistry
from repro.workloads.generators import (
    InconsistentDatabaseGenerator,
    WorkloadSpec,
    derive_seed,
)
from repro.workloads.queries import (
    stock_sum_query,
    stock_total_query,
    stock_town_groupby_query,
)

BACKENDS = ("operational", "sqlite", "branch_and_bound")
SHARD_COUNTS = (1, 2, 3, 7)


def _engine(backend: str = "operational") -> ConsistentAnswerEngine:
    return ConsistentAnswerEngine(backend=backend)


def _workload(seed: int, stock_facts: int = 24, max_inconsistent: int = 6):
    """Small generated workload, deterministic in ``seed`` (see
    test_shard_parity for the bounded-inconsistency retry rationale)."""
    spec = WorkloadSpec(
        dealers=8,
        products=6,
        towns=5,
        stock_facts=stock_facts,
        inconsistency=0.3,
        extra_facts_per_block=2,
        seed=seed,
    )
    generator = InconsistentDatabaseGenerator(spec)
    instance = generator.generate()
    attempt = 0
    while len(instance.inconsistent_blocks()) > max_inconsistent:
        attempt += 1
        assert attempt < 64, "workload shape cannot satisfy the bound"
        instance = generator.generate(seed=derive_seed(seed, "retry", attempt))
    return instance


def _point_ops(instance: DatabaseInstance, seed: int):
    """Deterministic point write: remove one Stock fact, add a conflicting
    sibling into another block.  Returns ``[(kind, Fact), ...]``."""
    stock = sorted(
        (f for f in instance.facts if f.relation == "Stock"), key=repr
    )
    victim = stock[seed % len(stock)]
    donor = stock[(seed + 7) % len(stock)]
    sibling = Fact("Stock", (donor.values[0], donor.values[1], 997))
    ops = [("remove", victim)]
    if sibling not in instance.facts:
        ops.append(("add", sibling))
    return ops


def _apply(instance: DatabaseInstance, ops) -> DatabaseInstance:
    """Copy-on-write mutation: same lineage, so warm caches stay live."""
    mutated = instance.copy()
    for kind, fact in ops:
        if kind == "add":
            mutated.add_fact(fact)
        else:
            mutated.remove_fact(fact)
    return mutated


def _rebuild(instance: DatabaseInstance) -> DatabaseInstance:
    """Cold rebuild of the same fact set: fresh lineage, zero shared cache."""
    return DatabaseInstance(instance.schema, instance.facts)


def _answer(engine, query, instance, options=None):
    if query.free_variables:
        return engine.answer_group_by(query, instance, options)
    return engine.answer(query, instance, {}, options)


def _worker_counter(pool, key: str) -> int:
    return sum(w.get(key, 0) for w in pool.stats()["per_worker"])


# -- mutate-then-answer == rebuild-then-answer -------------------------------------------


class TestMutateEqualsRebuild:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serial_across_shard_counts(self, backend, repro_seed):
        engine = _engine(backend)
        seed = derive_seed(repro_seed, "incr-serial", backend)
        instance = _workload(seed)
        ops = _point_ops(instance, seed)
        mutated = _apply(instance, ops)
        rebuilt = _rebuild(mutated)
        for query in (
            stock_sum_query("dealer0"),
            stock_total_query("SUM"),
            stock_town_groupby_query(),
        ):
            baseline = _answer(engine, query, rebuilt)
            for shards in SHARD_COUNTS:
                options = AnswerOptions(shards=shards)
                # Warm the cache on the pre-image first: the incremental
                # answer below must mix cached (untouched) and fresh
                # (touched) shard summaries and still match the rebuild.
                _answer(engine, query, instance, options)
                incremental = _answer(engine, query, mutated, options)
                assert incremental == baseline, (
                    f"{backend}/shards={shards}: incremental answer diverged "
                    f"from rebuild for {query}"
                )

    def test_pool_matches_rebuild(self, repro_seed):
        seed = derive_seed(repro_seed, "incr-pool")
        instance = _workload(seed)
        ops = _point_ops(instance, seed)
        mutated = _apply(instance, ops)
        rebuilt = _rebuild(mutated)
        engine = _engine()
        with WorkerPool(workers=2) as pool:
            engine.set_worker_pool(pool)
            for query in (stock_total_query("SUM"), stock_town_groupby_query()):
                baseline = _answer(engine, query, rebuilt)
                for shards in (2, 3):
                    options = AnswerOptions(shards=shards)
                    _answer(engine, query, instance, options)
                    incremental = _answer(engine, query, mutated, options)
                    assert incremental == baseline, (
                        f"pool/shards={shards}: incremental answer diverged "
                        f"from rebuild for {query}"
                    )


# -- delta-shipped residents -------------------------------------------------------------


class TestDeltaShipping:
    def test_resident_fast_forward_matches_rebuild(self, repro_seed):
        seed = derive_seed(repro_seed, "delta-ship")
        instance = _workload(seed)
        query = stock_total_query("SUM")
        with WorkerPool(workers=1) as pool:
            pool.ref_for(instance, name="w")
            before = pool.answer(query, instance, name="w")
            assert _worker_counter(pool, "instance_loads") == 1

            ops = _point_ops(instance, seed)
            mutated = _apply(instance, ops)
            ref = pool.apply_named_delta("w", mutated, ops)
            assert ref.delta is not None and len(ref.delta) == 1
            assert ref.data_version == mutated.data_version

            after = pool.answer(query, mutated, name="w")
            assert _worker_counter(pool, "delta_applies") == 1
            assert _worker_counter(pool, "delta_fallbacks") == 0
            # The delta ship did not re-pickle: still exactly one full load.
            assert _worker_counter(pool, "instance_loads") == 1
            assert pool.stats()["delta_ships"] == 1

        expected = _engine().answer(query, _rebuild(mutated))
        assert after == expected
        assert before != after or instance.facts == mutated.facts

    def test_stale_resident_falls_back_to_full_load(self, repro_seed):
        seed = derive_seed(repro_seed, "delta-stale")
        instance = _workload(seed)
        query = stock_total_query("SUM")
        with WorkerPool(workers=1) as pool:
            pool.ref_for(instance, name="w")
            pool.answer(query, instance, name="w")  # resident at v0

            # Re-register a newer full snapshot the worker never resolves,
            # then ship a delta whose base is that unseen snapshot: the
            # resident's version matches no chain segment.
            middle = _apply(instance, _point_ops(instance, seed))
            pool.ref_for(middle, name="w")
            ops = _point_ops(middle, seed + 1)
            final = _apply(middle, ops)
            ref = pool.apply_named_delta("w", final, ops)
            assert ref.delta is not None

            answer = pool.answer(query, final, name="w")
            assert _worker_counter(pool, "delta_fallbacks") == 1
            assert _worker_counter(pool, "delta_applies") == 0
            assert _worker_counter(pool, "instance_loads") == 2

        assert answer == _engine().answer(query, _rebuild(final))

    def test_oversized_delta_reships(self, repro_seed, monkeypatch):
        import repro.engine.workers as workers_module

        monkeypatch.setattr(workers_module, "_DELTA_MAX_OPS", 1)
        seed = derive_seed(repro_seed, "delta-size")
        instance = _workload(seed)
        with WorkerPool(workers=1) as pool:
            pool.ref_for(instance, name="w")
            ops = _point_ops(instance, seed)
            assert len(ops) > 1
            mutated = _apply(instance, ops)
            ref = pool.apply_named_delta("w", mutated, ops)
            assert ref.delta is None  # over the threshold: full re-pickle
            assert pool.stats()["delta_reships"] == 1
            answer = pool.answer(stock_total_query("SUM"), mutated, name="w")
        assert answer == _engine().answer(
            stock_total_query("SUM"), _rebuild(mutated)
        )


# -- acceptance: point write on a >=10^4-fact instance recomputes one shard --------------


class TestOneShardRecompute:
    def test_point_write_recomputes_exactly_one_shard(self):
        spec = WorkloadSpec(
            dealers=30,
            products=120,
            towns=100,
            stock_facts=10_000,
            inconsistency=0.2,
            extra_facts_per_block=1,
            seed=11,
        )
        instance = InconsistentDatabaseGenerator(spec).generate()
        assert len(instance) >= 10_000
        engine = _engine()
        # MIN is rewritable in both directions: per-shard summaries stay
        # polynomial at this scale (whole-relation SUM's lub would hit the
        # exponential branch-and-bound fallback on ~2000 open blocks), and
        # its shards are placed by hash, so a point write moves one shard.
        query = stock_total_query("MIN")
        shards = 8
        options = AnswerOptions(shards=shards)

        def hits() -> int:
            return summary_cache_stats()["hits"]

        def misses() -> int:
            return summary_cache_stats()["misses"]

        clear_summary_cache()
        hits0, misses0 = hits(), misses()
        cold = engine.answer(query, instance, {}, options)
        assert misses() - misses0 == shards
        assert hits() - hits0 == 0

        ops = _point_ops(instance, 11)[:1]  # a single-block point write
        mutated = _apply(instance, ops)
        hits1, misses1 = hits(), misses()
        warm = engine.answer(query, mutated, {}, options)
        # Exactly one shard summary recomputed; the other N-1 came from the
        # cache.  This is the tentpole's O(one shard) re-answer.  (Parity
        # against a cold rebuild is pinned at small scale above — the
        # unsharded baseline takes minutes at 10^4 facts.)
        assert misses() - misses1 == 1
        assert hits() - hits1 == shards - 1

        stats = summary_cache_stats()
        assert stats["entries"] >= shards + 1
        # A fully-cached re-answer (all N shards hit) reproduces the warm
        # answer bit-for-bit.
        hits2, misses2 = hits(), misses()
        assert engine.answer(query, mutated, {}, options) == warm
        assert hits() - hits2 == shards
        assert misses() - misses2 == 0
        assert cold == engine.answer(query, instance, {}, options)

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
    def test_caller_counts_one_miss_per_write_on_every_path(self, pooled):
        """The same arithmetic, in-process and with an attached, running
        worker pool: the summary cache and its counters live in the calling
        process, whichever way the misses are computed."""
        spec = WorkloadSpec(
            dealers=10,
            products=40,
            towns=20,
            stock_facts=400,
            inconsistency=0.2,
            extra_facts_per_block=1,
            seed=11,
        )
        instance = InconsistentDatabaseGenerator(spec).generate()
        mutated = _apply(instance, _point_ops(instance, 11)[:1])
        query = stock_total_query("MIN")
        shards = 8
        options = AnswerOptions(shards=shards)
        engine = _engine()
        pool = None
        if pooled:
            pool = WorkerPool(workers=2, engine_config=engine.config()).start()
            engine.set_worker_pool(pool)

        def answer_counted(db):
            before = summary_cache_stats()
            answer = engine.answer(query, db, {}, options)
            after = summary_cache_stats()
            return answer, (
                after["misses"] - before["misses"],
                after["hits"] - before["hits"],
            )

        try:
            clear_summary_cache()
            cold, counts = answer_counted(instance)
            assert counts == (shards, 0)
            warm, counts = answer_counted(mutated)
            assert counts == (1, shards - 1)
            jobs = pool.stats()["jobs_submitted"] if pool is not None else 0
            again, counts = answer_counted(mutated)
            assert counts == (0, shards)
            if pool is not None:
                # The misses ran on the pool; a fully cached answer sends
                # it nothing.
                assert _worker_counter(pool, "shard_jobs") >= 2
                assert pool.stats()["jobs_submitted"] == jobs
        finally:
            if pool is not None:
                engine.set_worker_pool(None)
                pool.shutdown()
        assert again == warm
        assert cold == _engine().answer(query, instance)
        assert warm == _engine().answer(query, _rebuild(mutated))


# -- cache-invalidation ordering under concurrent mutate + answer ------------------------


class TestConcurrentMutateAnswer:
    def test_readers_always_see_a_consistent_snapshot(self, repro_seed):
        seed = derive_seed(repro_seed, "incr-concurrent")
        registry = InstanceRegistry()
        registry.register("w", _workload(seed), shards=3)
        engine = _engine()
        query = stock_total_query("SUM")
        options = AnswerOptions(shards=3)
        errors = []
        done = threading.Event()

        def mutator():
            try:
                for i in range(25):
                    # Fresh block per write (new product key): every write
                    # touches exactly one block.
                    outcome = registry.mutate(
                        "w",
                        [("add_fact", "Stock", (f"delta-p{i}", "town0", i + 1))],
                    )
                    assert len(outcome.touched_blocks) == 1
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            while True:
                finishing = done.is_set()
                snapshot = registry.get("w").instance
                got = engine.answer(query, snapshot, {}, options)
                want = engine.answer(query, _rebuild(snapshot))
                if got != want:
                    errors.append(
                        AssertionError(
                            f"stale answer at data_version="
                            f"{snapshot.data_version}: {got} != {want}"
                        )
                    )
                if finishing:
                    # One full pass after the last write: the final state
                    # was checked too.
                    return

        threads = [threading.Thread(target=mutator)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        entry = registry.get("w")
        assert entry.version == 26


# -- AnswerOptions front door ------------------------------------------------------------


class TestAnswerOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnswerOptions(shards=0)
        with pytest.raises(ValueError):
            AnswerOptions(max_workers=0)

    def test_positional_and_keyword_options_agree(self, repro_seed):
        engine = _engine()
        instance = _workload(derive_seed(repro_seed, "opts"))
        query = stock_total_query("SUM")
        options = AnswerOptions(shards=2)
        assert engine.answer(query, instance, {}, options) == engine.answer(
            query, instance, options=options
        )
