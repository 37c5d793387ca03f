"""The :class:`ConsistentAnswerEngine` facade.

The engine is the front door the production service uses: it compiles each
query once into a :class:`~repro.engine.plan.QueryPlan` (classification,
strategy selection and executor preparation), caches the plan in an LRU
keyed by (schema fingerprint, normalized query), executes it on a
pluggable backend, and fans batches out across processes.

    >>> engine = ConsistentAnswerEngine()
    >>> engine.answer(query, instance)          # RangeAnswer(glb, lub)
    >>> engine.answer_group_by(groupby, inst)   # {group: RangeAnswer}
    >>> plan = engine.compile(query)            # plan.cached: a cache hit?
    >>> engine.execute(plan, instance)          # what answer() returns
    >>> engine.answer_many([(q1, db1), (q2, db2)])
    >>> engine.cache_stats()                    # hits/misses/evictions
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.range_answers import RangeAnswer
from repro.datamodel.facts import Constant
from repro.datamodel.instance import DatabaseInstance
from repro.embeddings.embeddings import embeddings_of
from repro.exceptions import BackendError
from repro.obs.caches import CacheStats, PlanCache, register_cache
from repro.obs.cost import add_cost
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.query.aggregation import AggregationQuery

from repro.engine.backends import (
    Binding,
    ExecutionBackend,
    PreparedExecutor,
    create_backend,
)
from repro.engine.plan import (
    QueryPlan,
    STRATEGY_BRANCH_AND_BOUND,
    classify_both_directions,
    plan_key,
    select_strategy,
)
from repro.engine import sharding


@dataclass(frozen=True)
class AnswerOptions:
    """Consolidated execution options for the engine's answer entry points.

    One frozen bag replaces the kwargs tail that had been accreting on
    ``answer`` / ``answer_group_by`` / ``answer_many`` — callers build it
    once and pass it via ``options=`` or as that positional argument:

        >>> engine.answer(query, instance, options=AnswerOptions(shards=4))
        >>> engine.answer_many(items, AnswerOptions(max_workers=2))

    Fields that a given entry point does not use are ignored there
    (``max_workers`` only matters to batches), so one options value can
    drive a mixed workload.  Shard placement is not an option: the sharded
    executor derives it from the compiled plan (see
    :func:`repro.engine.sharding.placement_for`).
    """

    shards: Optional[int] = None
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError("AnswerOptions.shards must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("AnswerOptions.max_workers must be >= 1")


def _fallback_reason_slug(reason: str) -> str:
    """A bounded-cardinality label for the shard-fallback counter.

    The planner's human-readable reasons embed query details (aggregate
    names etc.); metric labels must not, or the series would be unbounded.
    """
    if "does not merge" in reason:
        return "non_mergeable_aggregate"
    if "self-join-free" in reason:
        return "not_self_join_free"
    if "no atoms" in reason:
        return "empty_body"
    if "disconnected" in reason:
        return "disconnected_joins"
    return "other"


class ConsistentAnswerEngine:
    """Cached, batched computation of range consistent answers.

    Parameters
    ----------
    backend:
        Name of the preferred backend for rewriting-based execution
        (``"operational"`` or ``"sqlite"``; custom backends register with
        :func:`repro.engine.backends.register_backend`).  Directions the
        preferred backend cannot execute (e.g. lub on ``"sqlite"``) fall
        back to the operational backend automatically.

    Non-rewritable directions run on branch-and-bound; 256 plans are cached.
    Batch parallelism is not configured either: :meth:`answer_many` derives
    it from ``AnswerOptions.max_workers``, the attached worker pool and the
    cpu count (see :mod:`repro.engine.batch`).
    """

    def __init__(self, backend: str = "operational") -> None:
        self._backend_name = backend
        self._primary: ExecutionBackend = create_backend(backend)
        self._operational: ExecutionBackend = (
            self._primary if backend == "operational" else create_backend("operational")
        )
        self._fallback: ExecutionBackend = create_backend("branch_and_bound")
        self._cache: PlanCache[QueryPlan] = PlanCache(256)
        # Unified cache telemetry: the newest engine owns the "plan_cache"
        # name (last-wins), and the weakref keeps short-lived test engines
        # collectable — a dead cache reports None and is skipped.
        cache_ref = weakref.ref(self._cache)
        register_cache(
            "plan_cache",
            lambda: (
                cache.report("plan_cache")
                if (cache := cache_ref()) is not None
                else None
            ),
        )
        self._shard_lock = threading.Lock()
        self._shard_stats: Dict[str, int] = {
            "requests": 0,
            "sharded": 0,
            "fallbacks": 0,
            "shards_planned": 0,
        }
        self._worker_pool = None

    # -- configuration ----------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self._backend_name

    def config(self) -> Dict[str, object]:
        """Picklable constructor arguments (used by the batch executor).

        The attached worker pool is deliberately excluded: worker engines
        rebuilt from this config must never hold (or fork) pools themselves.
        """
        return {"backend": self._backend_name}

    @property
    def worker_pool(self):
        """The attached :class:`~repro.engine.workers.WorkerPool` (or None)."""
        return self._worker_pool

    def set_worker_pool(self, pool) -> None:
        """Attach (or detach, with ``None``) a long-lived worker pool.

        While a running pool is attached, :meth:`answer_many` chunks are
        submitted to its persistent workers instead of forking per-call
        process pools, and sharded execution computes its summary-cache
        misses there instead of in-process.
        """
        self._worker_pool = pool

    # -- plan compilation --------------------------------------------------------------

    def compile(self, query: AggregationQuery) -> QueryPlan:
        """Return the plan for ``query``, compiling it on a cache miss.

        The engine's only plan lookup: ``plan.cached`` says whether it hit.
        """
        key = plan_key(query.body.schema(), query)
        with obs_span("plan.lookup") as lookup:
            plan = self._cache.get(key)
            if lookup is not None:
                lookup.set_tag("hit", plan is not None)
        if plan is not None:
            return plan
        with obs_span("plan.compile") as compiling:
            started = time.perf_counter()
            normalized = key.query
            glb_verdict, lub_verdict = classify_both_directions(normalized)
            executors: Dict[str, PreparedExecutor] = {}
            strategies: Dict[str, str] = {}
            for direction, verdict in (("glb", glb_verdict), ("lub", lub_verdict)):
                strategy = select_strategy(verdict, normalized.aggregate)
                strategies[direction] = strategy
                executors[direction] = self._prepare(normalized, strategy, direction)
            plan = QueryPlan(
                key=key,
                query=normalized,
                glb_verdict=glb_verdict,
                lub_verdict=lub_verdict,
                glb_strategy=strategies["glb"],
                lub_strategy=strategies["lub"],
                executors=executors,
                compile_seconds=time.perf_counter() - started,
                shard_fallback=sharding.ShardPlanner.fallback_reason(normalized),
            )
            if compiling is not None:
                compiling.set_tag("glb_strategy", plan.glb_strategy)
                compiling.set_tag("lub_strategy", plan.lub_strategy)
        self._cache.put(key, dataclasses.replace(plan, cached=True))
        return plan

    def _prepare(
        self, query: AggregationQuery, strategy: str, direction: str
    ) -> PreparedExecutor:
        if strategy == STRATEGY_BRANCH_AND_BOUND:
            return self._fallback.prepare(query, strategy, direction)
        if self._primary.supports(query, strategy, direction):
            return self._primary.prepare(query, strategy, direction)
        if self._operational.supports(query, strategy, direction):
            return self._operational.prepare(query, strategy, direction)
        # No rewriting executor can run this direction (e.g. lub of SUM,
        # Theorem 7.8 gives no rewriting): exact fallback.
        return self._fallback.prepare(query, STRATEGY_BRANCH_AND_BOUND, direction)

    def explain(self, query: AggregationQuery) -> str:
        """Compile (or fetch) the plan and describe it."""
        return self.compile(query).explain()

    # -- single-query execution --------------------------------------------------------

    @staticmethod
    def _checked_binding(plan: QueryPlan, binding: Optional[Binding]) -> Binding:
        """Reject bindings that do not cover the free variables — a silently
        ignored binding key would otherwise yield an unrelated answer."""
        binding = dict(binding or {})
        missing = [v.name for v in plan.query.free_variables if v.name not in binding]
        if missing:
            raise BackendError(
                f"query has free variables; use answer_group_by() or pass a "
                f"binding covering {missing}"
            )
        return binding

    def glb(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        binding: Optional[Binding] = None,
    ):
        """GLB-CQA through the compiled plan (⊥ when the body is not certain)."""
        plan = self.compile(query)
        return plan.executors["glb"].evaluate(
            instance, self._checked_binding(plan, binding)
        )

    def lub(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        binding: Optional[Binding] = None,
    ):
        """LUB-CQA through the compiled plan (⊥ when the body is not certain)."""
        plan = self.compile(query)
        return plan.executors["lub"].evaluate(
            instance, self._checked_binding(plan, binding)
        )

    def answer(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        binding: Optional[Binding] = None,
        options: Optional[AnswerOptions] = None,
    ) -> RangeAnswer:
        """Both bounds for a closed query (or one instantiation of the free
        variables via ``binding``): :meth:`compile`, then :meth:`execute`.

        Execution knobs ride an :class:`AnswerOptions` value, passed after
        the binding or as ``options=``; ``AnswerOptions(shards=N)`` runs
        the sharded executor when the plan's query merges over shards (see
        :meth:`execute`).
        """
        return self.execute(self.compile(query), instance, binding or {}, options)

    # -- GROUP BY execution ------------------------------------------------------------

    def answer_group_by(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        options: Optional[AnswerOptions] = None,
    ) -> Dict[Tuple[Constant, ...], RangeAnswer]:
        """Range consistent answers per possible answer tuple (Section 6.2).

        Tuples that are not consistent answers map to ⊥ on both bounds, as
        in Section 5.3.  ``AnswerOptions(shards=N)`` evaluates each shard's
        local groups against that shard only and merges the per-group
        summaries — this shrinks the per-group evaluation cost from
        O(groups × instance) to O(groups × shard).
        """
        plan = self.compile(query)
        if not plan.query.free_variables:
            raise BackendError("answer_group_by() requires a query with free variables")
        return self.execute(plan, instance, None, options)

    # -- plan execution ----------------------------------------------------------------

    def execute(
        self,
        plan: QueryPlan,
        instance: DatabaseInstance,
        binding: Optional[Binding] = None,
        options: Optional[AnswerOptions] = None,
    ):
        """Run a compiled ``plan`` on ``instance``: the engine's one entry.

        GROUP BY (a ``{group: RangeAnswer}`` dict) when
        :meth:`QueryPlan.grouped`, else closed (a :class:`RangeAnswer`,
        whose binding must cover the free variables); sharded (see
        :mod:`repro.engine.sharding`) when :meth:`shards_for` says so.
        """
        grouped = plan.grouped(binding)
        if not grouped:
            binding = self._checked_binding(plan, binding)
        shards = self.shards_for(plan, options)
        if shards is not None:
            self._record_shard_execution(plan, shards)
            return sharding.execute_sharded(self, plan, instance, shards, binding)
        if grouped:
            return self._execute_group_by(plan, instance)
        with obs_span("execute.glb", strategy=plan.glb_strategy):
            add_cost("facts_scanned", len(instance))
            add_cost("blocks_touched", instance.block_count())
            glb = plan.executors["glb"].evaluate(instance, binding)
        with obs_span("execute.lub", strategy=plan.lub_strategy):
            add_cost("facts_scanned", len(instance))
            add_cost("blocks_touched", instance.block_count())
            lub = plan.executors["lub"].evaluate(instance, binding)
        return RangeAnswer(glb, lub)

    def shards_for(
        self, plan: QueryPlan, options: Optional[AnswerOptions]
    ) -> Optional[int]:
        """The shards ``plan`` runs on under ``options``; ``None`` is unsharded.

        The one place that decides: ``options.shards > 1`` on a plan whose
        query merges over shards.  A plan that cannot (``shard_fallback``)
        counts as a fallback here, once per call, so a caller that runs it
        elsewhere (the server's worker pool) asks instead of :meth:`execute`.
        """
        shards = options.shards if options is not None else None
        if shards is None or shards < 2:
            return None
        if plan.shard_fallback is not None:
            self._record_shard_execution(plan, shards)
            return None
        return shards

    def _execute_group_by(
        self, plan: QueryPlan, instance: DatabaseInstance
    ) -> Dict[Tuple[Constant, ...], RangeAnswer]:
        free = plan.query.free_variables
        with obs_span("groupby.candidates") as candidates_span:
            add_cost("facts_scanned", len(instance))
            candidates = self._possible_answers(plan, instance)
            if candidates_span is not None:
                candidates_span.set_tag("groups", len(candidates))
        bindings = [
            {v.name: value for v, value in zip(free, candidate)}
            for candidate in candidates
        ]
        # Per-group evaluation touches the whole instance per binding, which
        # is exactly why group-by queries dominate /debug/top.
        with obs_span("execute.glb", strategy=plan.glb_strategy, groups=len(bindings)):
            add_cost("facts_scanned", len(instance) * max(1, len(bindings)))
            add_cost("blocks_touched", instance.block_count())
            glbs = plan.executors["glb"].evaluate_many(instance, bindings)
        with obs_span("execute.lub", strategy=plan.lub_strategy, groups=len(bindings)):
            add_cost("facts_scanned", len(instance) * max(1, len(bindings)))
            add_cost("blocks_touched", instance.block_count())
            lubs = plan.executors["lub"].evaluate_many(instance, bindings)
        return {
            candidate: RangeAnswer(glb, lub)
            for candidate, glb, lub in zip(candidates, glbs, lubs)
        }

    def consistent_answers(
        self, query: AggregationQuery, instance: DatabaseInstance
    ) -> Dict[Tuple[Constant, ...], RangeAnswer]:
        """Like :meth:`answer_group_by` but keeping only non-⊥ tuples."""
        return {
            candidate: answer
            for candidate, answer in self.answer_group_by(query, instance).items()
            if not answer.is_bottom
        }

    def _possible_answers(
        self, plan: QueryPlan, instance: DatabaseInstance
    ) -> List[Tuple[Constant, ...]]:
        free = plan.query.free_variables
        seen = set()
        ordered: List[Tuple[Constant, ...]] = []
        for embedding in embeddings_of(plan.query.body, instance):
            candidate = tuple(embedding[v.name] for v in free)
            if candidate not in seen:
                seen.add(candidate)
                ordered.append(candidate)
        return sorted(ordered, key=repr)

    # -- batch execution ---------------------------------------------------------------

    def answer_many(
        self,
        items: Sequence[Tuple[AggregationQuery, DatabaseInstance]],
        options: Optional[AnswerOptions] = None,
    ):
        """Answer a batch of (query, instance) pairs with per-item timings.

        Work is chunked and fanned out across processes; see
        :func:`repro.engine.batch.execute_batch`.  ``AnswerOptions.max_workers``
        pins the width (1 = serial on this engine); by default it is the
        attached pool's size, else derived from the cpu count.  Closed
        queries yield a :class:`RangeAnswer`, GROUP BY queries a per-group
        dict.  Results come back in submission order.
        """
        from repro.engine.batch import execute_batch

        opts = options if options is not None else AnswerOptions()
        return execute_batch(self, items, max_workers=opts.max_workers)

    # -- sharding telemetry ------------------------------------------------------------

    def _record_shard_execution(self, plan: QueryPlan, shards: int) -> None:
        """Count one request for ``shards`` shards: sharded, or a fallback
        when the plan's query does not merge over shards."""
        reason = plan.shard_fallback
        with self._shard_lock:
            self._shard_stats["requests"] += 1
            if reason is None:
                self._shard_stats["sharded"] += 1
                self._shard_stats["shards_planned"] += shards
            else:
                self._shard_stats["fallbacks"] += 1
        if reason is not None:
            add_cost("shard_fallbacks", 1)
            REGISTRY.counter(
                "repro_shard_fallback_total",
                "Sharded executions that fell back to the unsharded path, by reason.",
            ).inc(reason=_fallback_reason_slug(reason))

    def shard_stats(self) -> Dict[str, object]:
        """Counters of the sharded execution path (requests / sharded /
        fallbacks / shards_planned), the aggregates the seam can merge, plus
        per-worker pool statistics when a worker pool is attached."""
        with self._shard_lock:
            stats: Dict[str, object] = dict(self._shard_stats)
        stats["shardable_aggregates"] = list(sharding.SHARDABLE_AGGREGATES)
        stats["summary_cache"] = sharding.summary_cache_stats()
        pool = self._worker_pool
        if pool is not None:
            stats["worker_pool"] = pool.stats()
        return stats

    # -- cache management --------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the plan cache."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        self._cache.clear()
