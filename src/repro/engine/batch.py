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

Nothing here is configured; the batch works its parallelism out:

* the width is the caller's ``max_workers``, else the running pool's size,
  else ``min(cpu count, 8)``;
* a batch smaller than 4 items runs serially — 2 with a running pool
  attached, whose workers already exist;
* each chunk holds ``ceil(items / width)`` items.

The fork pool prefers the ``fork`` start method (cheap on Linux, inherits
the imported library); when process pools are unavailable (restricted
environments) execution degrades to the serial path rather than failing.
A running pool that fails mid-batch degrades to the serial path too, never
to the fork pool: pools live in threaded processes (the server), where a
fork can inherit a lock another thread holds.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
# A running pool's workers are already warm: two items are worth sending.
_MIN_POOLED_ITEMS = 2
# Ceiling on the cpu-derived width.
_MAX_DEFAULT_WIDTH = 8


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch item.

    ``answer`` is a :class:`~repro.core.range_answers.RangeAnswer` for a
    closed query and a ``{group: RangeAnswer}`` dict for a GROUP BY query.
    ``plan_cached`` records whether the executing engine already had the
    plan when the item ran; ``seconds`` covers that plan lookup and the
    execution.
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
    started = time.perf_counter()
    plan = engine.compile(query)
    answer = engine.execute(plan, instance)
    return BatchResult(
        index=index,
        answer=answer,
        seconds=time.perf_counter() - started,
        glb_strategy=plan.glb_strategy,
        lub_strategy=plan.lub_strategy,
        plan_cached=plan.cached,
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
    items: Sequence[Tuple[AggregationQuery, DatabaseInstance]], size: int
) -> List[List[Tuple[int, AggregationQuery, DatabaseInstance]]]:
    indexed = [(i, query, instance) for i, (query, instance) in enumerate(items)]
    return [indexed[i : i + size] for i in range(0, len(indexed), size)]


def _running_pool(engine):
    pool = engine.worker_pool
    return pool if pool is not None and pool.is_running else None


def batch_width(engine, max_workers: Optional[int] = None) -> int:
    """Worker processes a batch on ``engine`` fans out over.

    ``max_workers`` when given, else the size of the engine's running
    worker pool (one chunk per persistent worker), else ``min(cpu, 8)``.
    """
    if max_workers is not None:
        return max(1, max_workers)
    pool = _running_pool(engine)
    if pool is not None:
        return pool.size
    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_WIDTH))


def execute_batch(
    engine,
    items: Sequence[Tuple[AggregationQuery, DatabaseInstance]],
    max_workers: Optional[int] = None,
) -> List[BatchResult]:
    """Answer every (query, instance) pair, returning results in order.

    ``max_workers=1`` forces serial execution on the calling engine (and is
    the only mode that warms *its* plan cache); otherwise the batch splits
    evenly over :func:`batch_width` processes once it reaches the serial
    threshold, so repeated queries inside one chunk share the worker's plans.
    """
    items = list(items)
    pool = _running_pool(engine)
    width = min(batch_width(engine, max_workers), len(items))
    threshold = _MIN_POOLED_ITEMS if pool is not None else _MIN_PARALLEL_ITEMS
    results = None
    if width > 1 and len(items) >= threshold:
        chunks = _chunked(items, -(-len(items) // width))  # ceil division
        if pool is not None:
            results = _pool_chunks(pool, chunks)
        else:
            results = _parallel_chunks(engine.config(), chunks, width)
    if results is None:  # serial, or no process path available
        return [
            _answer_one(engine, query, instance, index)
            for index, (query, instance) in enumerate(items)
        ]
    return sorted(results, key=lambda r: r.index)


def _pool_chunks(pool, chunks) -> Optional[List[BatchResult]]:
    """Run the chunks on a running worker pool.

    Returns ``None`` when the pool fails mid-batch after exhausting its
    crash retries: the caller then runs the batch serially rather than
    losing it, and never forks (see the module docstring).
    """
    from repro.engine.workers import WorkerPoolError

    try:
        return list(pool.run_chunks(chunks))
    except WorkerPoolError as exc:
        from repro.obs.log import get_logger

        get_logger("batch").warning(
            "pool_degraded", error=str(exc), chunks=len(chunks)
        )
        warnings.warn(
            f"worker pool failed mid-batch ({exc}); degrading to serial "
            f"execution",
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
    the child, so the server never comes here: it runs thread-mode batches
    with ``max_workers=1`` and pooled ones on its worker pool.
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
