"""Sharding benchmark: sharded vs unsharded wall-clock on the scalability workload.

A standalone script (like ``bench_serve.py``): it generates the Stock
scalability workload, answers three representative queries unsharded and
with ``shards ∈ {2, 4, 8}``, verifies the answers are *identical* (the
benchmark doubles as a parity check — a fast wrong answer is worthless),
and writes ``BENCH_shard.json`` with per-query wall-clock and speedups.
Each wall-clock is the median of ``RUNS`` interleaved timed runs, each
after the summary and shard-plan caches are dropped, so no run reads what
an earlier one computed.

The three queries cover the seams sharding helps:

* ``closed_max`` / ``closed_min`` — closed MIN/MAX over the whole Stock
  relation; both directions run the MIN/MAX rewriting per shard, so the
  win is the per-shard evaluation running on a fraction of the instance.
* ``groupby_town_sum`` — per-town SUM: the unsharded engine evaluates every
  group against the full instance, the sharded engine evaluates each
  shard's groups against that shard only, an O(groups × instance) →
  O(groups × shard) reduction that wins even on a single core.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py --check-speedup

Its option defaults are CI's settings; only ``benchmarks/gates.py``
writes the committed ``BENCH_shard.json``.

``--check-speedup`` makes the script exit non-zero unless the best sharded
configuration beats the unsharded wall-clock on the largest workload (the
CI smoke contract).  Shard summaries run in-process (no worker pool is
attached), so the numbers measure the pure algorithmic effect.  The gated
metrics are each query's best speedup and its wall-clock at every shard
count (see ``check_regression.py``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from functools import partial

from check_regression import metric, write_report

from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    ShardPlanner,
    clear_shard_plan_cache,
    clear_summary_cache,
)
from repro.engine.sharding import placement_for
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


#: Timed runs per cell; a cell's wall-clock is their median.
RUNS = 5


def timed_medians(calls: dict):
    """Each call's last result and the median wall-clock of its ``RUNS``
    timed runs, both keyed like ``calls``.

    The runs interleave: each pass times every call once, so a burst of
    host noise that spans several calls slows one pass of each, which the
    median drops.  The caches a sharded call fills are dropped before every
    run, so no run reads what an earlier one computed.
    """
    results, times = {}, {key: [] for key in calls}
    for _ in range(RUNS):
        for key, call in calls.items():
            clear_summary_cache()
            clear_shard_plan_cache()
            started = time.perf_counter()
            results[key] = call()
            times[key].append(time.perf_counter() - started)
    return results, {key: statistics.median(runs) for key, runs in times.items()}


def cell(name: str, results: dict, seconds: dict, shard_counts, bound: float):
    """One query cell's detail entry and its gated metrics: the best
    speedup over unsharded and the wall-clock at every shard count.

    ``results`` and ``seconds`` come from :func:`timed_medians` over calls
    keyed ``(name, shards)``, with ``shards`` None for the unsharded call;
    a sharded answer that differs from the unsharded one raises.
    """
    base = seconds[name, None]
    per_shard = {}
    for shards in shard_counts:
        if results[name, shards] != results[name, None]:
            raise AssertionError(
                f"parity violation: {name} shards={shards}: "
                f"{results[name, shards]} != {results[name, None]}"
            )
        per_shard[str(shards)] = {
            "seconds": round(seconds[name, shards], 6),
            "speedup": round(base / seconds[name, shards], 3),
        }
    best = max(entry["speedup"] for entry in per_shard.values())
    metrics = [metric(f"{name}.best_speedup", "x", "higher", bound, best)]
    metrics += [
        metric(f"{name}.sharded[{shards}].seconds", "s", "lower", bound, e["seconds"])
        for shards, e in per_shard.items()
    ]
    entry = {
        "unsharded_seconds": round(base, 6),
        "sharded": per_shard,
        "best_speedup": best,
    }
    return entry, metrics


def run_bench(blocks: int, shard_counts, inconsistency: float, seed: int):
    """(config, metrics, detail) of one run."""
    instance = scalability_instance(blocks, inconsistency, seed)
    engine = ConsistentAnswerEngine()
    calls = {}
    for name, query in bench_queries():
        engine.compile(query)  # plan compilation is shared; keep it out of timings
        answer = engine.answer_group_by if query.free_variables else engine.answer
        calls[name, None] = partial(answer, query, instance)
        for shards in shard_counts:
            calls[name, shards] = partial(
                answer, query, instance, options=AnswerOptions(shards=shards)
            )
    results, seconds = timed_medians(calls)
    queries, metrics = {}, []
    for name, query in bench_queries():
        entry, cell_metrics = cell(name, results, seconds, shard_counts, 1.0)
        plan = engine.compile(query)
        placement = placement_for(plan, bool(query.free_variables))
        shard_plan = ShardPlanner().plan(
            plan.query, instance, max(shard_counts), placement
        )
        entry["plan"] = shard_plan.describe()
        queries[name] = entry
        metrics += cell_metrics
    config = {
        "blocks": blocks,
        "facts": len(instance),
        "inconsistent_blocks": len(instance.inconsistent_blocks()),
        "inconsistency": inconsistency,
        "seed": seed,
        "shards": list(shard_counts),
        "runs": RUNS,
    }
    return config, metrics, {"queries": queries}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=250)
    parser.add_argument("--shards", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--inconsistency", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_shard.fresh.json")
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help="exit 1 unless some sharded configuration beats unsharded "
        "wall-clock for every benchmark query (CI smoke contract)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    config, metrics, detail = run_bench(
        args.blocks, args.shards, args.inconsistency, args.seed
    )
    write_report(args.out, "shard", config, metrics, detail)

    if args.check_speedup:
        slow = {
            name: entry["best_speedup"]
            for name, entry in detail["queries"].items()
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
