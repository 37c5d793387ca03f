"""Closed-loop control benchmark: cost-predictive admission.

One server per policy answers the same mixed flood of *cheap* point
queries (the builtin Fig. 1 instance) and *heavy* GROUP BY scans over a
generated multi-thousand-fact instance, from a shared closed-loop driver.
Depth-only admission lets the heavies monopolise the engine threads and
the cheap traffic queues behind them; cost-predictive admission
(``--max-queue-cost-ms``) sheds the heavies once the queued-CPU ledger is
full, so the cheap p95 stays flat.  The report carries per-class success
rates, shed rates, and latency percentiles for both policies.

Usage::

    PYTHONPATH=src python benchmarks/bench_control.py \
        --cheap 120 --heavy 40 --concurrency 16 --out BENCH_control.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.serve.app import ConsistentAnswerServer, ServeConfig
from repro.serve.client import ServeClient
from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec
from repro.workloads.queries import stock_town_groupby_query

CHEAP_QUERY = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
HEAVY_INSTANCE = "heavy"
# ~150 ms of engine CPU per GROUP BY on the bench hosts — two orders of
# magnitude above the cheap point query, still small enough that a full
# run fits a CI minute.  (The glb/lub search grows superlinearly with the
# block count: 4000 facts already takes tens of seconds per request.)
HEAVY_FACTS = 800


def heavy_instance():
    """A Stock workload big enough that one GROUP BY dominates a thread."""
    spec = WorkloadSpec(
        dealers=30,
        products=HEAVY_FACTS // 50,
        towns=HEAVY_FACTS // 100,
        stock_facts=HEAVY_FACTS,
        inconsistency=0.25,
        extra_facts_per_block=1,
        seed=7,
    )
    return InconsistentDatabaseGenerator(spec).generate()


def mixed_flood(cheap: int, heavy: int):
    """Deterministically interleaved (kind, method, path, payload) plan."""
    heavy_query = str(stock_town_groupby_query())
    plan = []
    ratio = max(1, cheap // max(1, heavy))
    cheap_left, heavy_left = cheap, heavy
    while cheap_left or heavy_left:
        for _ in range(ratio):
            if cheap_left:
                plan.append(
                    (
                        "cheap",
                        "POST",
                        "/answer",
                        {"instance": "stock", "query": CHEAP_QUERY},
                    )
                )
                cheap_left -= 1
        if heavy_left:
            plan.append(
                (
                    "heavy",
                    "POST",
                    "/answer_group_by",
                    {"instance": HEAVY_INSTANCE, "query": heavy_query},
                )
            )
            heavy_left -= 1
    return plan


async def drive(host, port, plan, concurrency):
    """Closed-loop driver that keeps per-kind outcomes separate."""
    queue: "asyncio.Queue" = asyncio.Queue()
    for item in plan:
        queue.put_nowait(item)
    outcomes = {"cheap": [], "heavy": []}

    async def worker():
        async with ServeClient(host, port) as client:
            while True:
                try:
                    kind, method, path, payload = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                started = time.perf_counter()
                try:
                    status, _body = await client.request(method, path, payload)
                except (OSError, asyncio.TimeoutError):
                    status = 599
                outcomes[kind].append((status, time.perf_counter() - started))

    workers = min(concurrency, max(1, len(plan)))
    await asyncio.gather(*(worker() for _ in range(workers)))
    return outcomes


def _percentile_ms(seconds, quantile):
    if not seconds:
        return None
    ordered = sorted(seconds)
    index = min(len(ordered) - 1, max(0, round(quantile * (len(ordered) - 1))))
    return round(ordered[index] * 1000.0, 3)


def _class_summary(observations):
    total = len(observations)
    ok = [s for status, s in observations if status == 200]
    shed = sum(1 for status, _ in observations if status == 503)
    return {
        "requests": total,
        "success_rate": round(len(ok) / total, 4) if total else None,
        "shed_rate": round(shed / total, 4) if total else None,
        "p50_ms": _percentile_ms(ok, 0.50),
        "p95_ms": _percentile_ms(ok, 0.95),
    }


async def run_policy(max_queue_cost_ms, cheap, heavy, concurrency, threads):
    """Boot one server under the given admission policy and drive the flood."""
    server = ConsistentAnswerServer(
        ServeConfig(
            port=0,
            workers=threads,
            max_pending=max(64, cheap + heavy),
            max_queue_cost_ms=max_queue_cost_ms,
            # deterministic tracing: every request feeds the cost table the
            # same way under both policies
            trace_sample=1,
        )
    )
    await server.start()
    try:
        host, port = server.address
        async with ServeClient(host, port) as client:
            await client.register_instance(HEAVY_INSTANCE, heavy_instance())
            # Warm the cost table past min_observations for both keys, so
            # the cost-predictive run predicts instead of depth-falling-back.
            for _ in range(3):
                await client.answer("stock", CHEAP_QUERY)
                await client.answer_group_by(
                    HEAVY_INSTANCE, str(stock_town_groupby_query())
                )
        outcomes = await drive(
            host, port, mixed_flood(cheap, heavy), concurrency
        )
        return {
            "max_queue_cost_ms": max_queue_cost_ms,
            "cheap": _class_summary(outcomes["cheap"]),
            "heavy": _class_summary(outcomes["heavy"]),
        }
    finally:
        await server.stop()


async def run_bench(cheap, heavy, concurrency, threads, budget_ms):
    depth_only = await run_policy(None, cheap, heavy, concurrency, threads)
    cost_predictive = await run_policy(
        budget_ms, cheap, heavy, concurrency, threads
    )
    return {
        "benchmark": "control",
        "timestamp": time.time(),
        "config": {
            "cheap_requests": cheap,
            "heavy_requests": heavy,
            "concurrency": concurrency,
            "threads": threads,
            "budget_ms": budget_ms,
            "heavy_facts": HEAVY_FACTS,
        },
        "depth_only": depth_only,
        "cost_predictive": cost_predictive,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cheap", type=int, default=120)
    parser.add_argument("--heavy", type=int, default=40)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument(
        "--threads", type=int, default=2, help="engine worker threads per server"
    )
    parser.add_argument(
        "--budget-ms",
        type=float,
        default=250.0,
        help="--max-queue-cost-ms of the cost-predictive server",
    )
    parser.add_argument("--out", default="BENCH_control.json")
    args = parser.parse_args(argv)

    result = asyncio.run(
        run_bench(
            args.cheap, args.heavy, args.concurrency, args.threads, args.budget_ms
        )
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))

    failures = []
    cheap = result["cost_predictive"]["cheap"]
    if (cheap["success_rate"] or 0.0) < 0.9:
        failures.append(
            f"cheap traffic success rate {cheap['success_rate']} under "
            "cost-predictive admission fell below the 0.9 floor"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
