"""Cooperative cancellation of abandoned engine jobs.

The serving layer's 504 used to abandon jobs that kept computing to
completion; these tests pin the fix: a cancel token with the request
deadline rides into the job (and, as a bare deadline, into worker
processes), and engine loops stop at batch-item and shard boundaries.
"""

import asyncio
import threading
import time

import pytest

from repro.engine import (
    ConsistentAnswerEngine,
    WorkerPool,
    execute_batch,
    execute_sharded,
)
from repro.engine.batch import _run_chunk
from repro.engine.cancellation import (
    CancelToken,
    JobCancelledError,
    active_deadline,
    active_token,
    check_cancelled,
    deadline_token,
    token_scope,
)
from repro.obs import REGISTRY
from repro.query.parser import parse_aggregation_query
from repro.serve import ConsistentAnswerServer, ServeConfig, ServeClient
from repro.workloads.scenarios import fig1_stock_instance, fig1_stock_schema

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"


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


# -- the token ---------------------------------------------------------------------------


class TestCancelToken:
    def test_fresh_token_is_live(self):
        assert CancelToken().cancelled is False
        assert CancelToken(deadline=time.monotonic() + 60).cancelled is False

    def test_cancel_is_sticky_and_idempotent(self):
        token = CancelToken()
        token.cancel()
        token.cancel()
        assert token.cancelled is True

    def test_expired_deadline_cancels_without_a_flag(self):
        assert CancelToken(deadline=time.monotonic() - 0.001).cancelled is True

    def test_deadline_token_round_trip(self):
        assert deadline_token(None) is None
        rebuilt = deadline_token(time.monotonic() + 60)
        assert rebuilt is not None and rebuilt.cancelled is False

    def test_token_scope_installs_and_restores(self):
        assert active_token() is None
        token = CancelToken()
        with token_scope(token):
            assert active_token() is token
            inner = CancelToken(deadline=time.monotonic() + 5)
            with token_scope(inner):
                assert active_token() is inner
                assert active_deadline() == inner.deadline
            assert active_token() is token
        assert active_token() is None

    def test_none_scope_is_a_no_op(self):
        token = CancelToken()
        with token_scope(token):
            with token_scope(None):
                assert active_token() is token

    def test_check_cancelled_outside_any_scope_is_a_no_op(self):
        check_cancelled()

    def test_check_cancelled_raises_for_abandoned_job(self):
        token = CancelToken()
        with token_scope(token):
            check_cancelled()
            token.cancel()
            with pytest.raises(JobCancelledError):
                check_cancelled()


# -- engine cancellation points ----------------------------------------------------------


class TestEngineCancellationPoints:
    def _items(self, count):
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)
        instance = fig1_stock_instance()
        return [(query, instance) for _ in range(count)]

    def test_serial_batch_stops_at_the_next_item_boundary(self):
        engine = ConsistentAnswerEngine()
        token = CancelToken()
        calls = []
        original = engine.execute

        def counting_execute(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                token.cancel()
            return original(*args, **kwargs)

        engine.execute = counting_execute
        with token_scope(token):
            with pytest.raises(JobCancelledError):
                execute_batch(engine, self._items(6), max_workers=1)
        # Items 1 and 2 ran; the cancel flagged during item 2 stopped the
        # batch before item 3 started.
        assert len(calls) == 2

    def test_sharded_serial_stops_between_shards(self):
        engine = ConsistentAnswerEngine()
        plan = engine.compile(parse_aggregation_query(fig1_stock_schema(), STOCK_SUM))
        token = CancelToken()
        token.cancel()
        with token_scope(token):
            with pytest.raises(JobCancelledError):
                execute_sharded(engine, plan, fig1_stock_instance(), 3)

    def test_fork_chunk_payload_deadline_self_aborts(self):
        # _run_chunk is the fork-pool entry point; calling it in-process
        # exercises exactly what a worker runs after the fork.
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)
        chunk = [(0, query, fig1_stock_instance())]
        with pytest.raises(JobCancelledError):
            _run_chunk({}, chunk, deadline=time.monotonic() - 1.0)

    def test_fork_chunk_without_deadline_is_unaffected(self):
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)
        chunk = [(0, query, fig1_stock_instance())]
        results = _run_chunk({}, chunk, deadline=None)
        assert len(results) == 1

    def test_live_token_does_not_disturb_execution(self):
        engine = ConsistentAnswerEngine()
        baseline = execute_batch(engine, self._items(2), max_workers=1)
        with token_scope(CancelToken(deadline=time.monotonic() + 60)):
            governed = execute_batch(engine, self._items(2), max_workers=1)
        assert [r.answer for r in governed] == [r.answer for r in baseline]


class TestWorkerPoolCancellation:
    def test_expired_deadline_rides_the_job_into_the_worker(self):
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)
        instance = fig1_stock_instance()
        pool = WorkerPool(workers=1)
        pool.start()
        try:
            # Warm proof the pool works, then submit under a dead token:
            # the deadline crosses the process boundary in the job tuple
            # (the parent's cancel flag cannot), and the worker refuses.
            live = pool.answer(query, instance)
            with token_scope(CancelToken(deadline=time.monotonic() - 1.0)):
                with pytest.raises(JobCancelledError):
                    pool.answer(query, instance)
            # The worker survives a cancelled job and keeps serving.
            assert pool.answer(query, instance) == live
        finally:
            pool.shutdown()

    def test_bookkeeping_jobs_ignore_the_request_deadline(self):
        query = parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)
        instance = fig1_stock_instance()
        pool = WorkerPool(workers=1)
        pool.start()
        try:
            pool.answer(query, instance, name="stock")
            with token_scope(CancelToken(deadline=time.monotonic() - 1.0)):
                # An invalidation issued while the request's deadline has
                # passed must still run — a skipped one would leave the
                # worker serving a stale resident instance forever.
                pool.invalidate("stock")
            # The pool keeps answering after the in-deadline invalidation.
            pool.answer(query, instance, name="stock")
        finally:
            pool.shutdown()


# -- the serving layer -------------------------------------------------------------------


class TestServeAbandonedJobs:
    def test_abandoned_job_is_cancelled_cooperatively(self):
        async def scenario(server, client):
            finished = threading.Event()
            outcome = {}

            def slow_answer(*args, **kwargs):
                try:
                    for _ in range(150):  # 3s if the cancel never lands
                        time.sleep(0.02)
                        check_cancelled()
                except JobCancelledError:
                    outcome["cancelled"] = True
                    finished.set()
                    raise
                outcome["cancelled"] = False
                finished.set()

            server.engine.execute = slow_answer
            before = REGISTRY.counter("repro_jobs_abandoned_total").value()
            started = time.monotonic()
            status, body = await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "timeout_s": 0.05},
            )
            await asyncio.get_running_loop().run_in_executor(
                None, finished.wait, 10.0
            )
            elapsed = time.monotonic() - started
            after = REGISTRY.counter("repro_jobs_abandoned_total").value()
            return status, body, outcome, elapsed, after - before

        status, body, outcome, elapsed, delta = serve_scenario(scenario)
        assert status == 504
        assert body["error"]["type"] == "Timeout"
        assert outcome == {"cancelled": True}
        # The job stopped at its next check instead of running the full 3s.
        assert elapsed < 2.0
        assert delta == 1

    def test_completed_jobs_do_not_count_as_abandoned(self):
        async def scenario(server, client):
            before = REGISTRY.counter("repro_jobs_abandoned_total").value()
            status, _body = await client.request(
                "POST", "/answer", {"instance": "stock", "query": STOCK_SUM}
            )
            after = REGISTRY.counter("repro_jobs_abandoned_total").value()
            return status, after - before

        status, delta = serve_scenario(scenario)
        assert status == 200
        assert delta == 0

    def test_deadline_expiry_inside_the_job_is_still_a_504(self):
        # The job's own token can expire a beat before the event-loop
        # timer; the surfaced JobCancelledError must read as a timeout,
        # not an internal error.
        async def scenario(server, client):
            def expiring_answer(*args, **kwargs):
                time.sleep(0.1)
                check_cancelled()
                raise AssertionError("deadline should have expired")

            server.engine.execute = expiring_answer
            return await client.request(
                "POST",
                "/answer",
                {"instance": "stock", "query": STOCK_SUM, "timeout_s": 0.05},
            )

        status, body = serve_scenario(scenario)
        assert status == 504
        assert body["error"]["type"] == "Timeout"
