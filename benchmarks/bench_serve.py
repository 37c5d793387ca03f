"""Serving-layer benchmark: boot a server, drive a mixed load, emit JSON.

Unlike the pytest-benchmark suites, this is a standalone script — the
measurement needs a live server and a concurrent client, not a timed
function call.  It boots :class:`ConsistentAnswerServer` in-process on an
ephemeral port, fires a workload (closed aggregates, GROUP BY, batches,
metrics probes) through :class:`LoadGenerator`, and writes a report with
throughput, p50/p95 latency, per-status counts and the server-side cache
hit rates — the serving perf trajectory.  One load of the default 100
requests lasts about half a second, so the bench runs ``LOADS`` loads, each
on a fresh server, and reports the median throughput and latencies over
them.  The gated metrics are that throughput and p95 latency (see
``check_regression.py``).

Two workload profiles:

* ``mixed`` (default) — the original light mix over the paper's worked
  examples, weighted towards the hot ``/answer`` path (the CI smoke
  contract and the committed baseline).
* ``cpu`` — a CPU-bound mix over a generated scalability instance
  (hundreds of facts): whole-relation MIN/MAX and per-town GROUP BY SUM.
  This is the profile where thread-pool execution is GIL-bound and the
  process worker pool should win.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --check-no-5xx --check-cache-hits

    # process worker-pool mode: measures a thread-mode baseline first and
    # reports speedup_vs_threads
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --workers 2 --profile cpu --check-no-5xx --check-speedup 1.2

``--check-no-5xx`` makes the script exit non-zero when any response had a
5xx status (the CI smoke contract); ``--check-speedup X`` additionally
requires pool-mode throughput ≥ X times the thread-mode baseline.  The
option defaults are CI's settings; only ``benchmarks/gates.py`` writes the
committed ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import sys
from collections import Counter

from bench_shard import scalability_instance
from check_regression import metric, write_report

from repro.serve.app import ConsistentAnswerServer, ServeConfig
from repro.serve.client import LoadGenerator

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
STOCK_COUNT = "COUNT(1) <- Dealers('Smith', t), Stock(p, t, y)"
STOCK_MAX = "MAX(y) <- Dealers('Smith', t), Stock(p, t, y)"
STOCK_GROUP_BY = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"
RUNNING_SUM = "SUM(r) <- R(x,y), S(y,z,'d',r)"
RUNNING_AVG = "AVG(r) <- R(x,y), S(y,z,'d',r)"

WORKLOAD_INSTANCE = "workload"
WORKLOAD_MAX = "MAX(y) <- Stock(p, t, y)"
WORKLOAD_MIN = "MIN(y) <- Stock(p, t, y)"
WORKLOAD_TOWN_SUM = "(t, SUM(y)) <- Stock(p, t, y)"


def mixed_workload(requests: int):
    """A deterministic mixed request plan of the given size.

    The mix exercises every serving path: rewriting-based closed queries,
    MIN/MAX, GROUP BY, the exact fallback, small batches and the read-only
    endpoints — weighted towards the hot /answer path.
    """
    rotation = [
        ("POST", "/answer", {"instance": "stock", "query": STOCK_SUM}),
        ("POST", "/answer", {"instance": "stock", "query": STOCK_COUNT}),
        ("POST", "/answer", {"instance": "stock", "query": STOCK_MAX}),
        ("POST", "/answer", {"instance": "running_example", "query": RUNNING_SUM}),
        ("POST", "/answer", {"instance": "running_example", "query": RUNNING_AVG}),
        ("POST", "/answer_group_by", {"instance": "stock", "query": STOCK_GROUP_BY}),
        (
            "POST",
            "/answer_many",
            {
                "items": [
                    {"instance": "stock", "query": STOCK_SUM},
                    {"instance": "stock", "query": STOCK_GROUP_BY},
                    {"instance": "running_example", "query": RUNNING_SUM},
                ]
            },
        ),
        ("GET", "/metrics", None),
        ("GET", "/healthz", None),
    ]
    return [rotation[i % len(rotation)] for i in range(requests)]


def cpu_workload(requests: int):
    """A CPU-bound request plan over the generated scalability instance.

    Every rotation slot runs a plan whose evaluation cost dominates HTTP
    and serialization overheads, so thread-mode throughput is GIL-bound
    and the worker pool's process parallelism is visible.
    """
    rotation = [
        ("POST", "/answer", {"instance": WORKLOAD_INSTANCE, "query": WORKLOAD_MAX}),
        ("POST", "/answer", {"instance": WORKLOAD_INSTANCE, "query": WORKLOAD_MIN}),
        (
            "POST",
            "/answer_group_by",
            {"instance": WORKLOAD_INSTANCE, "query": WORKLOAD_TOWN_SUM},
        ),
        ("POST", "/answer", {"instance": "stock", "query": STOCK_SUM}),
        (
            "POST",
            "/answer_many",
            {
                "items": [
                    {"instance": WORKLOAD_INSTANCE, "query": WORKLOAD_MAX},
                    {"instance": WORKLOAD_INSTANCE, "query": WORKLOAD_MIN},
                ]
            },
        ),
    ]
    return [rotation[i % len(rotation)] for i in range(requests)]


PROFILES = {"mixed": mixed_workload, "cpu": cpu_workload}

#: loads per measured mode; throughput and latencies are medians over them
LOADS = 5
_MEDIANS = ("throughput_rps", "p50_ms", "p95_ms", "p99_ms")


async def run_load(
    requests: int,
    concurrency: int,
    threads: int,
    worker_processes: int,
    profile: str,
) -> dict:
    """Boot one server in the given mode, drive the profile, report."""
    server = ConsistentAnswerServer(
        ServeConfig(
            port=0,
            workers=threads,
            max_pending=max(64, requests),
            worker_processes=worker_processes,
        )
    )
    await server.start()
    try:
        if profile == "cpu":
            instance = scalability_instance(160, inconsistency=0.2, seed=7)
            server.registry.register(WORKLOAD_INSTANCE, instance)
        generator = LoadGenerator(server.address[0], server.address[1], concurrency)
        report = await generator.run(PROFILES[profile](requests))
        server_metrics = server.metrics.snapshot()
        cache = server.engine.cache_stats()
        per_endpoint = {
            endpoint: {
                "count": snap["count"],
                "p50_ms": snap["p50_ms"],
                "p95_ms": snap["p95_ms"],
                "p99_ms": snap["p99_ms"],
            }
            for endpoint, snap in server_metrics["latency"].items()
        }
        pool = server.engine.shard_stats().get("worker_pool")
        return {
            **report.summary(),
            "per_endpoint": per_endpoint,
            "plan_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 4),
            },
            "worker_pool": pool or {"enabled": False},
        }
    finally:
        await server.stop()


async def run_loads(
    requests: int,
    concurrency: int,
    threads: int,
    worker_processes: int,
    profile: str,
) -> dict:
    """``LOADS`` loads, each on a fresh server: the median throughput and
    latencies, the status counts summed over the loads, and every load."""
    loads = [
        await run_load(requests, concurrency, threads, worker_processes, profile)
        for _ in range(LOADS)
    ]
    statuses: Counter = Counter()
    for load in loads:
        statuses.update(load["statuses"])
    return {
        **{key: statistics.median(load[key] for load in loads) for key in _MEDIANS},
        "statuses": dict(statuses),
        "errors_5xx": sum(load["errors_5xx"] for load in loads),
        "loads": loads,
    }


async def run_bench(
    requests: int,
    concurrency: int,
    threads: int,
    worker_processes: int,
    profile: str,
) -> dict:
    if worker_processes > 0:
        # Thread-mode baseline first (same profile, same load) so the JSON
        # carries the apples-to-apples speedup of the process pool.
        baseline = await run_loads(requests, concurrency, threads, 0, profile)
        result = await run_loads(
            requests, concurrency, threads, worker_processes, profile
        )
        result["baseline_threads"] = {
            key: baseline[key] for key in (*_MEDIANS, "statuses", "errors_5xx")
        }
        base_rps = baseline["throughput_rps"] or 1e-9
        result["speedup_vs_threads"] = round(result["throughput_rps"] / base_rps, 3)
        return result
    return await run_loads(requests, concurrency, threads, 0, profile)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="engine worker *processes* (long-lived pool; 0 = thread-pool "
        "mode).  With N > 0 a thread-mode baseline runs first and the "
        "report includes speedup_vs_threads.",
    )
    parser.add_argument(
        "--threads", type=int, default=4, help="engine worker threads per server"
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="mixed",
        help="request mix: 'mixed' (light, every endpoint) or 'cpu' "
        "(CPU-bound plans over a generated instance)",
    )
    parser.add_argument("--out", default="BENCH_serve.fresh.json")
    parser.add_argument(
        "--check-no-5xx",
        action="store_true",
        help="exit 1 when any response had a 5xx status (CI smoke contract)",
    )
    parser.add_argument(
        "--check-cache-hits",
        action="store_true",
        help="exit 1 unless concurrent requests shared cached plans",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless pool-mode throughput is >= X times the "
        "thread-mode baseline (requires --workers > 0)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    result = asyncio.run(
        run_bench(
            args.requests, args.concurrency, args.threads, args.workers, args.profile
        )
    )
    config = {
        "requests": args.requests,
        "concurrency": args.concurrency,
        "workers": args.workers,
        "threads": args.threads,
        "profile": args.profile,
        "loads": LOADS,
    }
    metrics = [
        metric("throughput_rps", "1/s", "higher", 1.0, result["throughput_rps"]),
        metric("p95_ms", "ms", "lower", 1.0, result["p95_ms"]),
    ]
    write_report(args.out, "serve", config, metrics, result)

    if args.check_no_5xx and result["errors_5xx"]:
        print(
            f"FAIL: {result['errors_5xx']} responses had 5xx statuses",
            file=sys.stderr,
        )
        return 1
    if result["statuses"].get("599"):
        print("FAIL: transport-level failures occurred", file=sys.stderr)
        return 1
    if args.check_cache_hits and not all(
        load["plan_cache"]["hits"] for load in result["loads"]
    ):
        print("FAIL: a load had no plan-cache hits", file=sys.stderr)
        return 1
    if args.check_speedup is not None:
        speedup = result.get("speedup_vs_threads")
        if speedup is None:
            print("FAIL: --check-speedup requires --workers > 0", file=sys.stderr)
            return 1
        if speedup < args.check_speedup:
            print(
                f"FAIL: pool speedup {speedup}x < required "
                f"{args.check_speedup}x over the thread-mode baseline",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
