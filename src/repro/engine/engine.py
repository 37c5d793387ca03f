"""The :class:`ConsistentAnswerEngine` facade.

The engine is the front door the production service uses: it compiles each
query once into a :class:`~repro.engine.plan.QueryPlan` (classification,
strategy selection and executor preparation), caches the plan in an LRU
keyed by (schema fingerprint, normalized query), dispatches execution to a
pluggable backend, and fans batches out across processes.

    >>> engine = ConsistentAnswerEngine()
    >>> engine.answer(query, instance)          # RangeAnswer(glb, lub)
    >>> engine.answer_group_by(groupby, inst)   # {group: RangeAnswer}
    >>> engine.answer_many([(q1, db1), (q2, db2)])
    >>> engine.cache_stats()                    # hits/misses/evictions
"""

from __future__ import annotations

import contextlib
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


@dataclass(frozen=True)
class AnswerOptions:
    """Consolidated execution options for the engine's answer entry points.

    One frozen bag replaces the kwargs tail that had been accreting on
    ``answer`` / ``answer_group_by`` / ``answer_many`` — callers build it
    once and pass it positionally or via ``options=``:

        >>> engine.answer(query, instance, options=AnswerOptions(shards=4))
        >>> engine.answer_many(items, AnswerOptions(max_workers=2))

    Fields that a given entry point does not use are ignored there
    (``max_workers`` and ``chunk_size`` only matter to batches, ``strategy``
    only to sharded execution), so one options value can drive a mixed
    workload.

    ``deadline`` is a *relative* budget in seconds: execution runs under a
    cooperative cancellation token that expires that many seconds after the
    call starts (see :mod:`repro.engine.cancellation`), covering shard
    boundaries, batch items and worker-pool jobs.
    """

    shards: Optional[int] = None
    strategy: str = "balanced"
    max_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError("AnswerOptions.shards must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("AnswerOptions.max_workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("AnswerOptions.chunk_size must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("AnswerOptions.deadline must be > 0 seconds")


def _fallback_reason_slug(reason: Optional[str]) -> str:
    """A bounded-cardinality label for the shard-fallback counter.

    The planner's human-readable reasons embed query details (aggregate
    names etc.); metric labels must not, or the series would be unbounded.
    """
    if reason is None:
        return "single_shard"
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
    fallback:
        Backend used for non-rewritable directions (``"branch_and_bound"``
        by default, ``"exhaustive"`` for ground-truth testing).
    plan_cache_size:
        Capacity of the LRU plan cache.
    batch_workers:
        Default worker-process count for :meth:`answer_many` (``None`` defers
        to ``REPRO_BATCH_WORKERS`` or a cpu-derived default; servers size
        their pools through this knob).
    min_parallel_items:
        Batch size below which :meth:`answer_many` always runs serially on
        this engine (``None`` defers to ``REPRO_MIN_PARALLEL_ITEMS`` or the
        built-in threshold).
    """

    def __init__(
        self,
        backend: str = "operational",
        fallback: str = "branch_and_bound",
        plan_cache_size: int = 128,
        batch_workers: Optional[int] = None,
        min_parallel_items: Optional[int] = None,
    ) -> None:
        self._backend_name = backend
        self._fallback_name = fallback
        self._primary: ExecutionBackend = create_backend(backend)
        self._operational: ExecutionBackend = (
            self._primary if backend == "operational" else create_backend("operational")
        )
        self._fallback: ExecutionBackend = create_backend(fallback)
        self._cache: PlanCache[QueryPlan] = PlanCache(plan_cache_size)
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
        self._batch_workers = None if batch_workers is None else max(1, batch_workers)
        self._min_parallel_items = (
            None if min_parallel_items is None else max(1, min_parallel_items)
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

    @property
    def fallback_name(self) -> str:
        return self._fallback_name

    @property
    def batch_workers(self) -> int:
        """Effective worker count for batches (kwarg, else env/cpu default)."""
        from repro.engine.batch import default_worker_count

        return (
            self._batch_workers
            if self._batch_workers is not None
            else default_worker_count()
        )

    @property
    def min_parallel_items(self) -> int:
        """Effective serial/parallel threshold for batches."""
        from repro.engine.batch import default_min_parallel_items

        return (
            self._min_parallel_items
            if self._min_parallel_items is not None
            else default_min_parallel_items()
        )

    def config(self) -> Dict[str, object]:
        """Picklable constructor arguments (used by the batch executor).

        The attached worker pool is deliberately excluded: worker engines
        rebuilt from this config must never hold (or fork) pools themselves.
        """
        return {
            "backend": self._backend_name,
            "fallback": self._fallback_name,
            "plan_cache_size": self._cache.maxsize,
            "batch_workers": self._batch_workers,
            "min_parallel_items": self._min_parallel_items,
        }

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
        """Return the plan for ``query``, compiling it on a cache miss."""
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
            )
            if compiling is not None:
                compiling.set_tag("glb_strategy", plan.glb_strategy)
                compiling.set_tag("lub_strategy", plan.lub_strategy)
        self._cache.put(key, plan)
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

    def _deadline_scope(self, options: AnswerOptions):
        if options.deadline is None:
            return contextlib.nullcontext()
        from repro.engine.cancellation import deadline_token, token_scope

        return token_scope(deadline_token(time.monotonic() + options.deadline))

    def answer(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        binding: Optional[Binding] = None,
        options: Optional[AnswerOptions] = None,
    ) -> RangeAnswer:
        """Both bounds for a closed query (or one instantiation of the free
        variables via ``binding``).

        Execution knobs ride an :class:`AnswerOptions` value, accepted via
        ``options=`` or positionally in the ``binding`` slot when no binding
        is given.  ``AnswerOptions(shards=N)`` (N > 1) partitions the
        instance into block-closed fact shards, summarises each shard the
        summary cache misses (on the attached worker pool when one is
        running, else in-process), and merges the per-shard summaries
        exactly; see :mod:`repro.engine.sharding`.  Queries the sharding
        seam cannot merge fall back to the unsharded path transparently.
        """
        if isinstance(binding, AnswerOptions):
            if options is not None:
                raise TypeError("answer() got two AnswerOptions values")
            binding, options = None, binding
        opts = options if options is not None else AnswerOptions()
        plan = self.compile(query)
        binding = self._checked_binding(plan, binding)
        with self._deadline_scope(opts):
            if opts.shards is not None and opts.shards > 1:
                from repro.engine.sharding import execute_sharded

                return execute_sharded(
                    self,
                    query,
                    instance,
                    opts.shards,
                    binding=binding,
                    strategy=opts.strategy,
                )
            with obs_span("execute.glb", strategy=plan.glb_strategy):
                add_cost("facts_scanned", len(instance))
                add_cost("blocks_touched", instance.block_count())
                glb = plan.executors["glb"].evaluate(instance, binding)
            with obs_span("execute.lub", strategy=plan.lub_strategy):
                add_cost("facts_scanned", len(instance))
                add_cost("blocks_touched", instance.block_count())
                lub = plan.executors["lub"].evaluate(instance, binding)
            return RangeAnswer(glb, lub)

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
        opts = options if options is not None else AnswerOptions()
        plan = self.compile(query)
        free = plan.query.free_variables
        if not free:
            raise BackendError("answer_group_by() requires a query with free variables")
        with self._deadline_scope(opts):
            return self._answer_group_by_inner(plan, query, instance, opts)

    def _answer_group_by_inner(
        self,
        plan: QueryPlan,
        query: AggregationQuery,
        instance: DatabaseInstance,
        opts: AnswerOptions,
    ) -> Dict[Tuple[Constant, ...], RangeAnswer]:
        free = plan.query.free_variables
        if opts.shards is not None and opts.shards > 1:
            from repro.engine.sharding import execute_sharded

            return execute_sharded(
                self,
                query,
                instance,
                opts.shards,
                strategy=opts.strategy,
            )
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

        Work is chunked and fanned out across processes when
        ``AnswerOptions.max_workers`` allows it; see
        :func:`repro.engine.batch.execute_batch`.  Closed queries yield a
        :class:`RangeAnswer`, GROUP BY queries a per-group dict.  Results
        come back in submission order.  ``max_workers`` defaults to the
        engine's ``batch_workers`` configuration.
        """
        from repro.engine.batch import execute_batch

        opts = options if options is not None else AnswerOptions()
        with self._deadline_scope(opts):
            return execute_batch(
                self,
                items,
                max_workers=(
                    self._batch_workers
                    if opts.max_workers is None
                    else opts.max_workers
                ),
                chunk_size=opts.chunk_size,
                min_parallel_items=self._min_parallel_items,
            )

    # -- sharding telemetry ------------------------------------------------------------

    def _record_shard_execution(self, shard_plan) -> None:
        """Called by the sharded executor once per planned execution."""
        with self._shard_lock:
            self._shard_stats["requests"] += 1
            if shard_plan.is_sharded:
                self._shard_stats["sharded"] += 1
                self._shard_stats["shards_planned"] += len(shard_plan.shards)
            else:
                self._shard_stats["fallbacks"] += 1
        if not shard_plan.is_sharded:
            add_cost("shard_fallbacks", 1)
            REGISTRY.counter(
                "repro_shard_fallback_total",
                "Sharded executions that fell back to the unsharded path, by reason.",
            ).inc(reason=_fallback_reason_slug(shard_plan.fallback_reason))

    def shard_stats(self) -> Dict[str, object]:
        """Counters of the sharded execution path (requests / sharded /
        fallbacks / shards_planned), the aggregates the seam can merge, plus
        per-worker pool statistics when a worker pool is attached."""
        from repro.engine.sharding import SHARDABLE_AGGREGATES, summary_cache_stats

        with self._shard_lock:
            stats: Dict[str, object] = dict(self._shard_stats)
        stats["shardable_aggregates"] = list(SHARDABLE_AGGREGATES)
        stats["summary_cache"] = summary_cache_stats()
        pool = self._worker_pool
        if pool is not None:
            stats["worker_pool"] = pool.stats()
        return stats

    # -- cache management --------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the plan cache."""
        return self._cache.stats()

    def is_cached(self, query: AggregationQuery) -> bool:
        """Whether a plan for ``query`` is currently cached (no side effects
        on the hit/miss counters)."""
        return plan_key(query.body.schema(), query) in self._cache

    def clear_cache(self) -> None:
        self._cache.clear()
