"""Sharding benchmark: sharded vs unsharded wall-clock on the scalability workload.

A standalone script (like ``bench_serve.py``): it generates the Stock
scalability workload, answers three representative queries unsharded and
with ``shards ∈ {2, 4, 8}``, verifies the answers are *identical* (the
benchmark doubles as a parity check — a fast wrong answer is worthless),
and writes ``BENCH_shard.json`` with per-query wall-clock and speedups.

The three queries cover the seams sharding helps:

* ``closed_max`` / ``closed_min`` — closed MIN/MAX over the whole Stock
  relation; both directions run the MIN/MAX rewriting per shard, so the
  win is the per-shard evaluation running on a fraction of the instance.
* ``groupby_town_sum`` — per-town SUM: the unsharded engine evaluates every
  group against the full instance, the sharded engine evaluates each
  shard's groups against that shard only, an O(groups × instance) →
  O(groups × shard) reduction that wins even on a single core.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py \
        --blocks 400 --shards 2 4 8 --out BENCH_shard.json

``--check-speedup`` makes the script exit non-zero unless the best sharded
configuration beats the unsharded wall-clock on the largest workload (the
CI smoke contract).  Shard summaries run in-process (no worker pool is
attached), so the numbers measure the pure algorithmic effect.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.engine import ConsistentAnswerEngine, ShardPlanner
from repro.engine.sharding import execute_sharded
from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec
from repro.workloads.queries import stock_total_query, stock_town_groupby_query


def scalability_instance(blocks: int, inconsistency: float, seed: int):
    spec = WorkloadSpec(
        dealers=max(5, blocks // 10),
        products=max(5, blocks // 10),
        towns=max(5, blocks // 20),
        stock_facts=blocks,
        inconsistency=inconsistency,
        seed=seed,
    )
    return InconsistentDatabaseGenerator(spec).generate()


def bench_queries():
    """(name, query) pairs; every aggregate here is fully rewritable in both
    directions, so timings measure the evaluators, not an exponential tail."""
    return [
        ("closed_max", stock_total_query("MAX")),
        ("closed_min", stock_total_query("MIN")),
        ("groupby_town_sum", stock_town_groupby_query()),
    ]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run_bench(blocks: int, shard_counts, inconsistency: float, seed: int) -> dict:
    instance = scalability_instance(blocks, inconsistency, seed)
    engine = ConsistentAnswerEngine()
    queries = bench_queries()
    results = {}
    for name, query in queries:
        engine.compile(query)  # plan compilation is shared; keep it out of timings
        grouped = bool(query.free_variables)
        if grouped:
            baseline, base_seconds = _timed(
                lambda: engine.answer_group_by(query, instance)
            )
        else:
            baseline, base_seconds = _timed(lambda: engine.answer(query, instance))
        per_shard = {}
        for shards in shard_counts:
            sharded, seconds = _timed(
                lambda: execute_sharded(
                    engine,
                    query,
                    instance,
                    shards,
                    binding=None if grouped else {},
                )
            )
            if sharded != baseline:
                raise AssertionError(
                    f"parity violation in benchmark: {name} shards={shards}"
                )
            per_shard[str(shards)] = {
                "seconds": round(seconds, 6),
                "speedup": round(base_seconds / seconds, 3) if seconds else None,
            }
        plan = engine.compile(query)
        shard_plan = ShardPlanner().plan(plan.query, instance, max(shard_counts))
        results[name] = {
            "unsharded_seconds": round(base_seconds, 6),
            "sharded": per_shard,
            "best_speedup": max(
                entry["speedup"] for entry in per_shard.values()
            ),
            "plan": shard_plan.describe(),
        }
    return {
        "benchmark": "shard",
        "timestamp": time.time(),
        "config": {
            "blocks": blocks,
            "facts": len(instance),
            "inconsistent_blocks": len(instance.inconsistent_blocks()),
            "inconsistency": inconsistency,
            "seed": seed,
            "shard_counts": list(shard_counts),
        },
        "queries": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=400)
    parser.add_argument("--shards", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--inconsistency", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_shard.json")
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help="exit 1 unless some sharded configuration beats unsharded "
        "wall-clock for every benchmark query (CI smoke contract)",
    )
    args = parser.parse_args(argv)

    result = run_bench(args.blocks, args.shards, args.inconsistency, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))

    if args.check_speedup:
        slow = {
            name: entry["best_speedup"]
            for name, entry in result["queries"].items()
            if entry["best_speedup"] <= 1.0
        }
        if slow:
            print(
                f"FAIL: sharded execution did not beat unsharded for {slow}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
