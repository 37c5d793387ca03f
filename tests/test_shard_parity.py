"""Differential parity harness: sharded execution must equal unsharded, exactly.

The sharded executor (``repro.engine.sharding``) is only allowed to exist
because it is *indistinguishable* from the unsharded engine: for every
workload scenario, every backend and every shard count, ``answer(...,
shards=N)`` must return the very same Fraction-exact bounds (and the very
same GROUP BY keys and ⊥ cases) as ``answer(...)``.  A wrong merge would
silently corrupt glb/lub bounds, so this harness is the tentpole's safety
net, not an afterthought.

Scenario seeds derive from the session ``repro_seed`` fixture via
``derive_seed``, so every failure message pins the exact instance that
produced it (re-run with ``REPRO_TEST_SEED=<seed>`` to explore other
slices deterministically).
"""

from __future__ import annotations

import asyncio
from fractions import Fraction

import pytest

from repro.core.evaluator import BOTTOM
from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.embeddings.embeddings import embeddings_of
from repro.engine import AnswerOptions, ConsistentAnswerEngine, ShardPlanner
from repro.engine.sharding import (
    PLACEMENT_BALANCED,
    PLACEMENT_HASHED,
    placement_for,
)
from repro.query.parser import parse_aggregation_query
from repro.workloads.generators import (
    InconsistentDatabaseGenerator,
    WorkloadSpec,
    derive_seed,
)
from repro.workloads.queries import (
    stock_count_query,
    stock_groupby_query,
    stock_query,
    stock_sum_query,
    stock_total_query,
    stock_town_groupby_query,
)
from repro.workloads.scenarios import (
    fig1_stock_instance,
    fig3_running_example_instance,
    fig3_running_example_schema,
)

from tests.conftest import make_random_instance

BACKENDS = ("operational", "sqlite", "branch_and_bound")
SHARD_COUNTS = (1, 2, 3, 7)


def _engine(backend: str) -> ConsistentAnswerEngine:
    return ConsistentAnswerEngine(backend=backend)


def _assert_exact(answer) -> None:
    """Every bound is ⊥ or an exact Fraction — never a float."""
    for value in (answer.glb, answer.lub):
        assert value is BOTTOM or isinstance(value, Fraction), repr(value)


def assert_parity(engine, query, instance, shard_counts=SHARD_COUNTS, label=""):
    """The harness core: sharded == unsharded for every shard count."""
    if query.free_variables:
        baseline = engine.answer_group_by(query, instance)
        for answer in baseline.values():
            _assert_exact(answer)
        for shards in shard_counts:
            sharded = engine.answer_group_by(
                query, instance, AnswerOptions(shards=shards)
            )
            assert sharded == baseline, (
                f"{label}: GROUP BY parity broken for shards={shards}, "
                f"query={query}"
            )
            assert list(sharded) == list(baseline), (
                f"{label}: group order changed for shards={shards}"
            )
    else:
        baseline = engine.answer(query, instance)
        _assert_exact(baseline)
        for shards in shard_counts:
            sharded = engine.answer(
                query, instance, options=AnswerOptions(shards=shards)
            )
            assert sharded == baseline, (
                f"{label}: parity broken for shards={shards}, query={query}: "
                f"{sharded} != {baseline}"
            )
    return baseline


# -- worked examples (Fig. 1 and Fig. 3) ------------------------------------------------


class TestWorkedExampleParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stock_queries_all_aggregates(self, backend):
        engine = _engine(backend)
        instance = fig1_stock_instance()
        for query in (
            stock_sum_query(),
            stock_count_query(),
            stock_query("MIN"),
            stock_query("MAX"),
            stock_total_query("SUM"),
            stock_total_query("MIN"),
            stock_total_query("MAX"),
        ):
            assert_parity(engine, query, instance, label=f"fig1/{backend}")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stock_group_by(self, backend):
        engine = _engine(backend)
        # Extend Fig. 1 with a dealer whose second possible town has no
        # stock: Jones's group answer is ⊥, and ⊥ groups must survive
        # sharding bit-for-bit.
        instance = fig1_stock_instance()
        instance.add_row("Dealers", "Jones", "Boston")
        instance.add_row("Dealers", "Jones", "Nowhere")
        answers = assert_parity(
            engine, stock_groupby_query(), instance, label=f"fig1-gb/{backend}"
        )
        assert any(answer.is_bottom for answer in answers.values())
        assert any(not answer.is_bottom for answer in answers.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_running_example(self, backend):
        engine = _engine(backend)
        query = parse_aggregation_query(
            fig3_running_example_schema(), "SUM(r) <- R(x,y), S(y,z,'d',r)"
        )
        assert_parity(
            engine, query, fig3_running_example_instance(), label=f"fig3/{backend}"
        )


# -- generated workloads ----------------------------------------------------------------


def _workload(
    seed: int,
    stock_facts: int = 24,
    inconsistency: float = 0.3,
    extra_facts_per_block: int = 2,
    max_inconsistent: int = None,
):
    """A small generated workload instance, deterministic in ``seed``.

    ``max_inconsistent`` bounds the number of inconsistent blocks by
    regenerating under derived sub-seeds until the bound holds: the
    branch_and_bound baseline is exponential in that count, so tests that
    run it over the *whole* relation must stay seed-robust — whatever base
    seed CI picks, the search space stays small.  The retry loop is
    deterministic (sub-seeds derive from ``seed``) and in practice exits
    within a few attempts.
    """
    spec = WorkloadSpec(
        dealers=8,
        products=6,
        towns=5,
        stock_facts=stock_facts,
        inconsistency=inconsistency,
        extra_facts_per_block=extra_facts_per_block,
        seed=seed,
    )
    generator = InconsistentDatabaseGenerator(spec)
    instance = generator.generate()
    if max_inconsistent is None:
        return instance
    attempt = 0
    while len(instance.inconsistent_blocks()) > max_inconsistent:
        attempt += 1
        assert attempt < 64, "workload shape cannot satisfy the bound"
        instance = generator.generate(seed=derive_seed(seed, "retry", attempt))
    return instance


class TestGeneratedWorkloadParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dealer_join_queries(self, backend, repro_seed):
        engine = _engine(backend)
        instance = _workload(
            derive_seed(repro_seed, "dealer-join", backend), max_inconsistent=8
        )
        for dealer in ("dealer0", "dealer3"):
            assert_parity(
                engine,
                stock_sum_query(dealer),
                instance,
                label=f"workload/{backend}/{dealer}",
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_whole_relation_queries(self, backend, repro_seed):
        engine = _engine(backend)
        # Keep the open-block count small and *bounded*: lub(SUM) has no
        # rewriting (Theorem 7.8), so its baseline branches over every
        # inconsistent block of the whole relation.
        instance = _workload(
            derive_seed(repro_seed, "whole-relation", backend),
            stock_facts=18,
            inconsistency=0.25,
            extra_facts_per_block=1,
            max_inconsistent=7,
        )
        for aggregate in ("SUM", "MIN", "MAX", "COUNT"):
            query = (
                stock_count_query()
                if aggregate == "COUNT"
                else stock_total_query(aggregate)
            )
            assert_parity(
                engine, query, instance, label=f"workload-total/{backend}/{aggregate}"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_group_by_workloads(self, backend, repro_seed):
        engine = _engine(backend)
        instance = _workload(
            derive_seed(repro_seed, "group-by", backend), max_inconsistent=8
        )
        for query in (stock_groupby_query(), stock_town_groupby_query()):
            assert_parity(engine, query, instance, label=f"workload-gb/{backend}")


# -- random instances: ⊥ cases and locally uncertain shards -----------------------------


_TWO_ATOM_SCHEMA = Schema(
    [
        RelationSignature("R", 2, 1, attribute_names=("a", "b")),
        RelationSignature(
            "S", 3, 1, numeric_positions=(3,), attribute_names=("c", "d", "e")
        ),
    ]
)

_TWO_ATOM_QUERIES = tuple(
    parse_aggregation_query(_TWO_ATOM_SCHEMA, text)
    for text in (
        "SUM(e) <- R(x,y), S(y,z,e)",
        "COUNT(1) <- R(x,y), S(y,z,e)",
        "MIN(e) <- R(x,y), S(y,z,e)",
        "MAX(e) <- R(x,y), S(y,z,e)",
        "AVG(e) <- R(x,y), S(y,z,e)",
        "COUNT_DISTINCT(e) <- R(x,y), S(y,z,e)",
        "(x, SUM(e)) <- R(x,y), S(y,z,e)",
    )
)

SUMMARY_AGGREGATE_NAMES = ("AVG", "PRODUCT", "COUNT_DISTINCT", "SUM_DISTINCT")


class TestRandomInstanceParity:
    """Sparse random instances hit the cases structured workloads miss:
    bodies that are not certain (⊥ answers) and shards whose body is not
    *locally* certain (the empty-repair merge cases)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sparse_instances(self, backend, repro_seed):
        engine = _engine(backend)
        # Seeds are backend-independent on purpose: the three backends see
        # the same instances, which makes this a three-way differential test.
        for trial in range(6):
            seed = derive_seed(repro_seed, "sparse", trial)
            instance = make_random_instance(
                _TWO_ATOM_SCHEMA, seed, facts_per_relation=4, domain_size=4
            )
            for query in _TWO_ATOM_QUERIES:
                assert_parity(
                    engine,
                    query,
                    instance,
                    label=f"sparse/{backend}/seed={seed}",
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bottom_instances(self, backend, repro_seed):
        """Parity on instances whose closed answers are ⊥ — found by a
        deterministic scan over derived seeds, so the ⊥ path is exercised
        whatever base seed CI picks."""
        probe = ConsistentAnswerEngine()
        closed = [q for q in _TWO_ATOM_QUERIES if not q.free_variables]
        found = []
        for trial in range(64):
            seed = derive_seed(repro_seed, "bottom-scan", trial)
            instance = make_random_instance(
                _TWO_ATOM_SCHEMA, seed, facts_per_relation=3, domain_size=5
            )
            if probe.answer(closed[0], instance).is_bottom:
                found.append((seed, instance))
            if len(found) == 3:
                break
        assert found, "no ⊥ instance in 64 derived seeds; shape too dense"
        engine = _engine(backend)
        for seed, instance in found:
            for query in _TWO_ATOM_QUERIES:
                baseline = assert_parity(
                    engine, query, instance, label=f"bottom/{backend}/seed={seed}"
                )
                if not query.free_variables:
                    assert baseline.is_bottom

    def test_uncertain_shard_contributes_through_merge(self):
        """Full instance certain, one component locally uncertain: the
        uncertain component must contribute 0/value to SUM, ±∞-style
        neutrality to MIN/MAX — exactly as the unsharded answer does."""
        schema = Schema(
            [
                RelationSignature("R", 2, 1, attribute_names=("a", "b")),
                RelationSignature(
                    "S", 2, 1, numeric_positions=(2,), attribute_names=("c", "v")
                ),
            ]
        )
        instance = DatabaseInstance.from_rows(
            schema,
            {
                "R": [("a1", "b1"), ("a2", "b2"), ("a2", "b3")],
                "S": [("b1", 5), ("b2", 7)],
            },
        )
        engine = ConsistentAnswerEngine()
        expected = {
            "SUM(v)": (Fraction(5), Fraction(12)),
            "MIN(v)": (Fraction(5), Fraction(5)),
            "MAX(v)": (Fraction(5), Fraction(7)),
            "COUNT(1)": (Fraction(1), Fraction(2)),
        }
        for head, (glb, lub) in expected.items():
            query = parse_aggregation_query(schema, f"{head} <- R(x,y), S(y,v)")
            baseline = engine.answer(query, instance)
            assert (baseline.glb, baseline.lub) == (glb, lub)
            assert_parity(engine, query, instance, label=f"uncertain/{head}")


# -- structural invariants of the planner -----------------------------------------------


class TestShardPlanStructure:
    @staticmethod
    def _plan(query, instance, shards, grouped=False):
        plan = ConsistentAnswerEngine().compile(query)
        return ShardPlanner().plan(
            plan.query, instance, shards, placement_for(plan, grouped)
        )

    @pytest.mark.parametrize(
        "text, grouped, placement",
        [
            # Both directions rewrite (minmax): hashed, so a point write
            # recomputes one shard.
            ("MIN(y) <- Stock(p, t, y)", False, PLACEMENT_HASHED),
            ("MAX(y) <- Stock(p, t, y)", False, PLACEMENT_HASHED),
            # A summary that enumerates repairs costs what the heaviest
            # shard's open blocks cost: balanced.
            ("SUM(y) <- Stock(p, t, y)", False, PLACEMENT_BALANCED),
            (
                "SUM(y) <- Dealers('dealer0', t), Stock(p, t, y)",
                False,
                PLACEMENT_BALANCED,
            ),
            ("AVG(y) <- Stock(p, t, y)", False, PLACEMENT_BALANCED),
            ("COUNT_DISTINCT(y) <- Stock(p, t, y)", False, PLACEMENT_BALANCED),
            # Every GROUP BY hashes; the same query bound to one group does not.
            ("(t, SUM(y)) <- Stock(p, t, y)", True, PLACEMENT_HASHED),
            ("(t, AVG(y)) <- Stock(p, t, y)", True, PLACEMENT_HASHED),
            ("(t, SUM(y)) <- Stock(p, t, y)", False, PLACEMENT_BALANCED),
        ],
    )
    def test_placement_follows_the_plan(self, text, grouped, placement):
        query = parse_aggregation_query(fig1_stock_instance().schema, text)
        plan = ConsistentAnswerEngine().compile(query)
        assert placement_for(plan, grouped) == placement

    @pytest.mark.parametrize(
        "query, grouped, placement",
        [
            (stock_sum_query("dealer0"), False, PLACEMENT_BALANCED),
            (stock_groupby_query(), True, PLACEMENT_HASHED),
        ],
        ids=["closed-sum", "group-by"],
    )
    def test_partition_is_exact_and_block_closed(
        self, query, grouped, placement, repro_seed
    ):
        instance = _workload(derive_seed(repro_seed, "structure", placement))
        shard_plan = self._plan(query, instance, 3, grouped)
        assert shard_plan.is_sharded
        assert shard_plan.describe()["placement"] == placement
        # Every fact lands in exactly one shard.
        all_facts = [fact for shard in shard_plan.shards for fact in shard]
        assert len(all_facts) == len(instance)
        assert set(all_facts) == set(instance.facts)
        # Blocks are never split across shards.
        for block in instance.blocks():
            owners = {
                index
                for index, shard in enumerate(shard_plan.shards)
                for fact in block
                if fact in shard
            }
            assert len(owners) == 1, f"block {sorted(block, key=repr)} split"

    def test_partition_is_embedding_closed(self, repro_seed):
        instance = _workload(derive_seed(repro_seed, "embedding-closed"))
        for query, grouped in (
            (stock_sum_query("dealer0"), False),
            (stock_groupby_query(), True),
        ):
            shard_plan = self._plan(query, instance, 4, grouped)
            total = len(embeddings_of(query.body, instance))
            schema = instance.schema
            per_shard = sum(
                len(embeddings_of(query.body, DatabaseInstance(schema, shard)))
                for shard in shard_plan.shards
            )
            # No embedding is lost and none spans two shards.
            assert per_shard == total

    def test_balanced_placement_balances_weights(self, repro_seed):
        instance = _workload(derive_seed(repro_seed, "balance"), stock_facts=40)
        shard_plan = self._plan(stock_total_query(), instance, 4)
        assert shard_plan.is_sharded
        assert shard_plan.placement == PLACEMENT_BALANCED
        weights = shard_plan.weights
        assert sum(weights) == len(instance)
        # Single-block components over ~40 blocks: greedy stays within one
        # maximal block size of perfect balance.
        assert max(weights) - min(weights) <= max(
            len(block) for block in instance.blocks()
        )

    @pytest.mark.parametrize("write", ["add", "remove"])
    @pytest.mark.parametrize(
        "query, grouped",
        [(stock_town_groupby_query(), True), (stock_total_query("MIN"), False)],
        ids=["group-by", "closed-min"],
    )
    def test_hashed_placement_moves_one_shard_per_write(
        self, query, grouped, write, repro_seed
    ):
        instance = _workload(derive_seed(repro_seed, "hash-stable", write))
        stock = sorted(
            (f for f in instance.facts if f.relation == "Stock"), key=repr
        )
        mutated = instance.copy()
        if write == "add":
            donor = stock[0]
            fact = Fact("Stock", (donor.values[0], donor.values[1], 997))
            mutated.add_fact(fact)
        else:
            fact = next(f for f in stock if len(instance.block_of(f)) > 1)
            mutated.remove_fact(fact)
        before = self._plan(query, instance, 5, grouped)
        after = self._plan(query, mutated, 5, grouped)
        assert before.placement == after.placement == PLACEMENT_HASHED
        changed = [
            index
            for index in range(5)
            if before.shard_tokens[index] != after.shard_tokens[index]
        ]
        assert len(changed) == 1
        for index in range(5):
            difference = set(before.shards[index]) ^ set(after.shards[index])
            assert difference == ({fact} if index in changed else set())

    def test_more_shards_than_components_leaves_empty_shards(self):
        instance = fig1_stock_instance()
        shard_plan = self._plan(stock_total_query(), instance, 7)
        assert shard_plan.is_sharded
        assert len(shard_plan.shards) == 7
        assert 0 in shard_plan.weights


# -- shard-plan cache -------------------------------------------------------------------


class TestShardPlanCache:
    def setup_method(self):
        from repro.engine import clear_shard_plan_cache

        clear_shard_plan_cache()

    def test_repeat_requests_reuse_the_partition(self, monkeypatch):
        from repro.engine import shard_plan_cache_stats

        calls = []
        original = ShardPlanner.plan

        def counting_plan(self, query, instance, shards, placement):
            calls.append((shards, placement))
            return original(self, query, instance, shards, placement)

        monkeypatch.setattr(ShardPlanner, "plan", counting_plan)
        engine = ConsistentAnswerEngine()
        instance = fig1_stock_instance()
        query = stock_total_query()
        first = engine.answer(query, instance, options=AnswerOptions(shards=3))
        assert engine.answer(query, instance, options=AnswerOptions(shards=3)) == first
        assert engine.answer(query, instance, options=AnswerOptions(shards=3)) == first
        # One partition computation, two cache hits (the serving pattern:
        # many requests against one registered instance).
        assert len(calls) == 1
        assert shard_plan_cache_stats()["hits"] == 2
        # A different shard count is a different partition.
        engine.answer(query, instance, options=AnswerOptions(shards=2))
        assert len(calls) == 2
        # One plan key, answered grouped and bound to one group, places
        # differently: the derived placement is part of the key.
        grouped = stock_town_groupby_query()
        engine.answer_group_by(grouped, instance, AnswerOptions(shards=3))
        engine.answer(grouped, instance, {"t": "Boston"}, AnswerOptions(shards=3))
        assert calls[2:] == [(3, PLACEMENT_HASHED), (3, PLACEMENT_BALANCED)]

    def test_mutated_instance_invalidates_the_cached_partition(self):
        engine = ConsistentAnswerEngine()
        instance = fig1_stock_instance()
        query = stock_total_query()
        before = engine.answer(query, instance, options=AnswerOptions(shards=3))
        instance.add_row("Stock", "Tesla Z", "Chicago", 400)
        after = engine.answer(query, instance, options=AnswerOptions(shards=3))
        assert after == engine.answer(query, instance)
        assert after != before  # the new fact raised the MAX/SUM bounds


# -- summary-state aggregates (AVG / PRODUCT / DISTINCT) --------------------------------


class TestSummaryAggregateParity:
    """The lifted aggregates ride on summary states instead of scalar
    monoid values; the same harness must hold: sharded == unsharded for
    every backend, every shard count, ⊥ groups, empty shards and the
    pickled pool path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worked_example(self, backend):
        engine = _engine(backend)
        instance = fig1_stock_instance()
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            for query in (stock_query(aggregate), stock_total_query(aggregate)):
                assert_parity(
                    engine, query, instance, label=f"fig1/{backend}/{aggregate}"
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generated_workloads(self, backend, repro_seed):
        engine = _engine(backend)
        instance = _workload(
            derive_seed(repro_seed, "summary-workload", backend),
            stock_facts=18,
            inconsistency=0.25,
            extra_facts_per_block=1,
            max_inconsistent=6,
        )
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            assert_parity(
                engine,
                stock_total_query(aggregate),
                instance,
                label=f"summary-workload/{backend}/{aggregate}",
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_group_by_with_bottom_groups(self, backend):
        engine = _engine(backend)
        instance = fig1_stock_instance()
        # Jones's only possible towns include one with no stock: the body is
        # not certain in that group, so its answer is ⊥ and must stay ⊥
        # through the summary-state merge.
        instance.add_row("Dealers", "Jones", "Boston")
        instance.add_row("Dealers", "Jones", "Nowhere")
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            query = parse_aggregation_query(
                instance.schema, f"(d, {aggregate}(y)) <- Dealers(d, t), Stock(p, t, y)"
            )
            answers = assert_parity(
                engine, query, instance, label=f"summary-gb/{backend}/{aggregate}"
            )
            assert any(answer.is_bottom for answer in answers.values())
            assert any(not answer.is_bottom for answer in answers.values())

    def test_empty_shards_merge_as_identity(self):
        # 7 shards over Fig. 1's handful of components leaves empty shards;
        # their summaries must be neutral in the merge.
        engine = ConsistentAnswerEngine()
        instance = fig1_stock_instance()
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            assert_parity(
                engine,
                stock_total_query(aggregate),
                instance,
                shard_counts=(7,),
                label=f"empty-shards/{aggregate}",
            )

    def test_negative_and_zero_values(self):
        """PRODUCT sign flips and SUM_DISTINCT's negative-value pruning
        guard need mixed-sign domains, which the stock workloads never
        produce."""
        schema = Schema(
            [
                RelationSignature("R", 2, 1, attribute_names=("a", "b")),
                RelationSignature(
                    "S", 2, 1, numeric_positions=(2,), attribute_names=("c", "v")
                ),
            ]
        )
        instance = DatabaseInstance.from_rows(
            schema,
            {
                "R": [("a1", "b1"), ("a1", "b2"), ("a2", "b2"), ("a2", "b3")],
                "S": [("b1", -2), ("b1", 3), ("b2", -5), ("b2", 0), ("b3", 7)],
            },
        )
        engine = ConsistentAnswerEngine()
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            query = parse_aggregation_query(schema, f"{aggregate}(v) <- R(x,y), S(y,v)")
            assert_parity(engine, query, instance, label=f"signed/{aggregate}")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_instances(self, backend, repro_seed):
        engine = _engine(backend)
        for trial in range(3):
            seed = derive_seed(repro_seed, "summary-sparse", trial)
            instance = make_random_instance(
                _TWO_ATOM_SCHEMA, seed, facts_per_relation=4, domain_size=4
            )
            for aggregate in SUMMARY_AGGREGATE_NAMES:
                query = parse_aggregation_query(
                    _TWO_ATOM_SCHEMA, f"{aggregate}(e) <- R(x,y), S(y,z,e)"
                )
                assert_parity(
                    engine,
                    query,
                    instance,
                    label=f"summary-sparse/{backend}/{aggregate}/seed={seed}",
                )

    def test_worker_pool_parity(self, repro_seed):
        """The long-lived worker pool keeps the instances it was sent
        resident; its workers return pickled summary states that must
        re-merge identically."""
        from repro.engine.workers import WorkerPool

        instance = _workload(
            derive_seed(repro_seed, "summary-pool"),
            stock_facts=18,
            inconsistency=0.25,
            extra_facts_per_block=1,
            max_inconsistent=6,
        )
        engine = ConsistentAnswerEngine()
        pool = WorkerPool(workers=2)
        pool.start()
        try:
            engine.set_worker_pool(pool)
            for aggregate in SUMMARY_AGGREGATE_NAMES:
                query = stock_total_query(aggregate)
                baseline = engine.answer(query, instance)
                assert engine.answer(query, instance, options=AnswerOptions(shards=3)) == baseline, aggregate
            group_query = parse_aggregation_query(
                instance.schema, "(t, AVG(y)) <- Stock(p, t, y)"
            )
            assert engine.answer_group_by(
                group_query, instance, AnswerOptions(shards=3)
            ) == engine.answer_group_by(group_query, instance)
        finally:
            pool.shutdown()


# -- fallbacks --------------------------------------------------------------------------


class TestShardingFallbacks:
    def test_summary_aggregates_shard_without_fallback(self):
        """AVG/PRODUCT/DISTINCT used to force the unsharded fallback; with
        mergeable summary states they shard like every other aggregate."""
        instance = fig1_stock_instance()
        engine = ConsistentAnswerEngine()
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            query = stock_query(aggregate)
            assert ShardPlanner.fallback_reason(query) is None
            baseline = engine.answer(query, instance)
            assert engine.answer(query, instance, options=AnswerOptions(shards=4)) == baseline
        stats = engine.shard_stats()
        assert stats["fallbacks"] == 0
        assert stats["sharded"] == len(SUMMARY_AGGREGATE_NAMES)
        for aggregate in SUMMARY_AGGREGATE_NAMES:
            assert aggregate in stats["shardable_aggregates"]

    def test_unknown_aggregate_reports_reason(self):
        query = stock_query("SUM").with_aggregate("MEDIAN")
        reason = ShardPlanner.fallback_reason(query)
        assert reason is not None and "MEDIAN" in reason

    def test_cartesian_product_falls_back(self):
        schema = Schema(
            [
                RelationSignature("A", 1, 1, attribute_names=("a",)),
                RelationSignature(
                    "B", 2, 1, numeric_positions=(2,), attribute_names=("b", "v")
                ),
            ]
        )
        query = parse_aggregation_query(schema, "SUM(v) <- A(x), B(y, v)")
        reason = ShardPlanner.fallback_reason(query)
        assert reason is not None and "disconnected" in reason
        instance = DatabaseInstance.from_rows(
            schema, {"A": [("a1",), ("a2",)], "B": [("b1", 3), ("b1", 4), ("b2", 5)]}
        )
        engine = ConsistentAnswerEngine()
        baseline = engine.answer(query, instance)
        assert engine.answer(query, instance, options=AnswerOptions(shards=3)) == baseline

    def test_shardable_queries_report_no_reason(self):
        for query in (stock_sum_query(), stock_total_query(), stock_groupby_query()):
            assert ShardPlanner.fallback_reason(query) is None

    def test_stats_count_sharded_requests(self):
        engine = ConsistentAnswerEngine()
        instance = fig1_stock_instance()
        engine.answer(stock_total_query(), instance, options=AnswerOptions(shards=3))
        stats = engine.shard_stats()
        assert stats["requests"] == stats["sharded"] == 1
        assert stats["shards_planned"] == 3


# -- the serving layer's opt-in sharded path --------------------------------------------


class TestServeShardedPath:
    def test_registry_shard_config_validation(self):
        from repro.serve import InstanceRegistry
        from repro.serve.registry import RegistryError

        registry = InstanceRegistry()
        entry = registry.register("stock", fig1_stock_instance(), shards=4)
        assert entry.shards == 4
        assert entry.describe()["shards"] == 4
        with pytest.raises(RegistryError):
            registry.register("bad", fig1_stock_instance(), shards=0)

    def test_sharded_instance_answers_match_unsharded(self):
        from repro.serve import ConsistentAnswerServer, ServeClient, ServeConfig

        async def scenario():
            server = ConsistentAnswerServer(ServeConfig(port=0, workers=2))
            await server.start()
            try:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.register_instance(
                        "stock_sharded", fig1_stock_instance(), shards=3
                    )
                    query = "SUM(y) <- Stock(p, t, y)"
                    plain = await client.answer("stock", query)
                    sharded = await client.answer("stock_sharded", query)
                    group_plain = await client.answer_group_by(
                        "stock", "(t, SUM(y)) <- Stock(p, t, y)"
                    )
                    group_sharded = await client.answer_group_by(
                        "stock_sharded", "(t, SUM(y)) <- Stock(p, t, y)"
                    )
                    metrics = await client.metrics()
                    return plain, sharded, group_plain, group_sharded, metrics
            finally:
                await server.stop()

        plain, sharded, group_plain, group_sharded, metrics = asyncio.run(scenario())
        assert sharded == plain
        assert group_sharded == group_plain
        sharding = metrics["sharding"]
        assert sharding["requests"] >= 2
        assert sharding["sharded"] >= 2
        assert sharding["shards_planned"] >= 6
