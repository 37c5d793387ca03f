"""Batched execution: chunking, process fan-out and per-item timings.

``execute_batch`` splits a sequence of (query, instance) pairs into
contiguous chunks and executes them either serially on the calling engine
(small batches — the shared plan cache stays warm) or on worker processes
(large batches).  When the engine has a long-lived
:class:`~repro.engine.workers.WorkerPool` attached, chunks are submitted to
its persistent workers (warm plan caches, instances transferred once);
otherwise each call fans out over a fresh fork pool whose workers rebuild an
engine from the parent's configuration, so plans are compiled at most once
per chunk even in that path.

The pool prefers the ``fork`` start method (cheap on Linux, inherits the
imported library); when process pools are unavailable (restricted
environments) execution degrades to the serial path rather than failing.

Parallelism is tunable: the engine passes its ``batch_workers`` /
``min_parallel_items`` configuration down, and both fall back to the
``REPRO_BATCH_WORKERS`` / ``REPRO_MIN_PARALLEL_ITEMS`` environment
variables so deployments (e.g. the serving layer) can size pools without
code changes.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.datamodel.instance import DatabaseInstance
from repro.engine.cancellation import (
    active_deadline,
    check_cancelled,
    deadline_token,
    token_scope,
)
from repro.query.aggregation import AggregationQuery

# Batches smaller than this never pay process start-up costs.
_MIN_PARALLEL_ITEMS = 4

#: Environment overrides for deployments that cannot pass constructor kwargs.
ENV_BATCH_WORKERS = "REPRO_BATCH_WORKERS"
ENV_MIN_PARALLEL_ITEMS = "REPRO_MIN_PARALLEL_ITEMS"


#: Environment names a malformed-value warning was already issued for.  A
#: deployment typo (``REPRO_BATCH_WORKERS=eight``) should be visible, but
#: exactly once — ``_env_int`` runs on every batch dispatch.
_WARNED_ENV_NAMES: Set[str] = set()


def _reset_env_warnings() -> None:
    """Re-arm the warn-once guard (test hook)."""
    _WARNED_ENV_NAMES.clear()


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        if name not in _WARNED_ENV_NAMES:
            _WARNED_ENV_NAMES.add(name)
            warnings.warn(
                f"ignoring malformed {name}={raw!r} (expected an integer); "
                f"using the built-in default",
                RuntimeWarning,
                stacklevel=3,
            )
        return None


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch item.

    ``answer`` is a :class:`~repro.core.range_answers.RangeAnswer` for a
    closed query and a ``{group: RangeAnswer}`` dict for a GROUP BY query.
    ``plan_cached`` records whether the executing engine already had the
    plan when the item ran.
    """

    index: int
    answer: object
    seconds: float
    glb_strategy: str
    lub_strategy: str
    plan_cached: bool


def _answer_one(
    engine, query: AggregationQuery, instance: DatabaseInstance, index: int
) -> BatchResult:
    # Item boundaries are the batch executor's cancellation points: an
    # abandoned job (504 already sent) stops before starting its next item
    # instead of computing answers nobody will read.
    check_cancelled()
    cached = engine.is_cached(query)
    started = time.perf_counter()
    if query.free_variables:
        answer = engine.answer_group_by(query, instance)
    else:
        answer = engine.answer(query, instance)
    seconds = time.perf_counter() - started
    plan = engine.compile(query)
    return BatchResult(
        index=index,
        answer=answer,
        seconds=seconds,
        glb_strategy=plan.glb_strategy,
        lub_strategy=plan.lub_strategy,
        plan_cached=cached,
    )


def _run_chunk(
    config: dict,
    chunk: List[Tuple[int, AggregationQuery, DatabaseInstance]],
    deadline: Optional[float] = None,
):
    """Worker entry point: build an engine from config, answer the chunk.

    The parent's ``cancel()`` cannot reach a forked child, so the request
    deadline rides the payload instead and a deadline-only token makes the
    chunk self-abort at item boundaries once the client is gone.
    """
    from repro.engine.engine import ConsistentAnswerEngine

    engine = ConsistentAnswerEngine(**config)
    with token_scope(deadline_token(deadline)):
        return [
            _answer_one(engine, query, instance, index)
            for index, query, instance in chunk
        ]


def _chunked(
    items: Sequence[Tuple[AggregationQuery, DatabaseInstance]], chunk_size: int
) -> List[List[Tuple[int, AggregationQuery, DatabaseInstance]]]:
    indexed = [(i, query, instance) for i, (query, instance) in enumerate(items)]
    return [indexed[i : i + chunk_size] for i in range(0, len(indexed), chunk_size)]


def default_worker_count() -> int:
    """Worker processes used when the caller does not pin ``max_workers``.

    ``REPRO_BATCH_WORKERS`` overrides the cpu-derived default.
    """
    env = _env_int(ENV_BATCH_WORKERS)
    if env is not None:
        return max(1, env)
    return max(1, min(os.cpu_count() or 1, 8))


def default_min_parallel_items() -> int:
    """Batch size below which execution is always serial.

    ``REPRO_MIN_PARALLEL_ITEMS`` overrides the built-in threshold.
    """
    env = _env_int(ENV_MIN_PARALLEL_ITEMS)
    if env is not None:
        return max(1, env)
    return _MIN_PARALLEL_ITEMS


def execute_batch(
    engine,
    items: Sequence[Tuple[AggregationQuery, DatabaseInstance]],
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    min_parallel_items: Optional[int] = None,
) -> List[BatchResult]:
    """Answer every (query, instance) pair, returning results in order.

    ``max_workers=1`` forces serial execution on the calling engine (and is
    the only mode that warms *its* plan cache); higher values fan chunks out
    across processes.  ``chunk_size`` defaults to an even split over the
    workers, so repeated queries inside one chunk share the worker's plans.
    ``min_parallel_items`` is the batch size below which process start-up is
    never paid (engine configuration / environment override by default).
    """
    items = list(items)
    if not items:
        return []
    pool = getattr(engine, "worker_pool", None)
    pool_running = pool is not None and pool.is_running
    if max_workers is not None:
        workers = max(1, max_workers)
    elif pool_running:
        # A long-lived pool sizes the fan-out: one chunk per persistent worker.
        workers = pool.size
    else:
        workers = default_worker_count()
    workers = min(workers, len(items))
    threshold = (
        default_min_parallel_items()
        if min_parallel_items is None
        else max(1, min_parallel_items)
    )
    if workers == 1 or len(items) < threshold:
        return [
            _answer_one(engine, query, instance, index)
            for index, (query, instance) in enumerate(items)
        ]
    if chunk_size is None:
        chunk_size = -(-len(items) // workers)  # ceil division
    chunks = _chunked(items, max(1, chunk_size))
    results = _pool_chunks(engine, chunks)
    if results is None:
        results = _parallel_chunks(engine.config(), chunks, workers)
    if results is None:  # pool unavailable: degrade gracefully
        return [
            _answer_one(engine, query, instance, index)
            for index, (query, instance) in enumerate(items)
        ]
    return sorted(results, key=lambda r: r.index)


def _pool_chunks(engine, chunks) -> Optional[List[BatchResult]]:
    """Run the chunks on the engine's attached worker pool, if one is running.

    Returns ``None`` when no pool is attached (callers fall through to the
    per-call fork pool) or when the pool fails mid-batch after exhausting
    its crash retries (callers degrade to the fork/serial path rather than
    losing the batch).
    """
    pool = getattr(engine, "worker_pool", None)
    if pool is None or not pool.is_running:
        return None
    from repro.engine.workers import WorkerPoolError

    try:
        return list(pool.run_chunks(chunks))
    except WorkerPoolError as exc:
        from repro.obs.log import get_logger

        get_logger("batch").warning(
            "pool_degraded", error=str(exc), chunks=len(chunks)
        )
        warnings.warn(
            f"worker pool failed mid-batch ({exc}); degrading to the "
            f"per-call executor",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def run_in_fork_pool(worker, payloads: Sequence[tuple], workers: int) -> Optional[list]:
    """Run ``worker(*payload)`` for every payload on a process pool.

    Prefers the ``fork`` start method (cheap on Linux, inherits the imported
    library); results come back in payload order.  Returns ``None`` when
    process pools are unavailable (restricted environments) so callers can
    degrade to their serial path instead of failing.  Only the batch
    executor forks: shard summaries run in-process or on an attached
    :class:`~repro.engine.workers.WorkerPool` (``--workers``), with one
    summary cache in the calling process.

    Forking a process that already runs threads can inherit held locks into
    the child; callers embedded in threaded servers keep ``workers`` at 1
    (the serving layer's default) unless the deployment accepts that risk.
    """
    import concurrent.futures
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        context = multiprocessing.get_context()
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)), mp_context=context
        ) as pool:
            futures = [pool.submit(worker, *payload) for payload in payloads]
            return [future.result() for future in futures]
    except (OSError, PermissionError, concurrent.futures.process.BrokenProcessPool):
        return None


def _parallel_chunks(
    config: dict,
    chunks: List[List[Tuple[int, AggregationQuery, DatabaseInstance]]],
    workers: int,
) -> Optional[List[BatchResult]]:
    deadline = active_deadline()
    chunk_results = run_in_fork_pool(
        _run_chunk, [(config, chunk, deadline) for chunk in chunks], workers
    )
    if chunk_results is None:
        return None
    return [result for chunk in chunk_results for result in chunk]
