"""Incremental answering benchmark: what a point write costs to re-answer.

A standalone script (like ``bench_store.py``).  It builds a sharded GROUP
BY workload, then measures the tentpole of PR 9 from three angles:

* ``cold_s`` — first answer on a fresh instance (every shard summary
  computed);
* ``cached_s_median`` — re-answer after a single-block point write, warm
  summary cache: one shard recomputes, the rest merge from cache.  The
  headline ``speedup_vs_full`` divides the cache-cleared recompute of the
  *same* mutated state by this (apples to apples: identical work modulo
  the cache);
* ``parity_vs_rebuild`` — the incremental answer is compared against a
  from-scratch rebuild of the same fact set (fresh lineage, so it cannot
  share a single cache entry); a fast wrong answer fails the run;
* the ``delta`` section times the worker-pool write path: shipping a fact
  delta to a resident instance (``apply_named_delta`` + re-answer) versus
  a full re-pickle (``ref_for`` + re-answer).

Hashed shard placement is used throughout — that is the incremental
configuration: block→shard assignment depends only on the block key, so a
point write leaves the other shards' cache tokens intact.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py \
        --facts 4000 --shards 8 --out BENCH_incremental.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.datamodel.instance import DatabaseInstance
from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    WorkerPool,
    clear_summary_cache,
    summary_cache_stats,
)
from repro.engine.sharding import STRATEGY_HASHED
from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec
from repro.workloads.queries import stock_total_query, stock_town_groupby_query


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def workload_instance(facts: int, inconsistency: float, seed: int):
    """A Stock workload with ~``facts`` facts spread over many blocks."""
    spec = WorkloadSpec(
        dealers=30,
        products=max(10, facts // 50),
        towns=max(10, facts // 100),
        stock_facts=facts,
        inconsistency=inconsistency,
        extra_facts_per_block=1,
        seed=seed,
    )
    return InconsistentDatabaseGenerator(spec).generate()


def _point_write(instance, step: int):
    """One single-block mutation, deterministic in ``step``."""
    stock = sorted(
        (f for f in instance.facts if f.relation == "Stock"), key=repr
    )
    victim = stock[(step * 31) % len(stock)]
    mutated = instance.copy()
    mutated.remove_fact(victim)
    return mutated


def bench_point_write(instance, shards: int, writes: int) -> dict:
    engine = ConsistentAnswerEngine()
    query = stock_town_groupby_query()
    options = AnswerOptions(shards=shards, strategy=STRATEGY_HASHED)

    clear_summary_cache()
    _, cold_s = _timed(lambda: engine.answer_group_by(query, instance, options))

    cached_times = []
    current = instance
    answer = None
    for step in range(1, writes + 1):
        current = _point_write(current, step)
        snapshot = current
        answer, seconds = _timed(
            lambda: engine.answer_group_by(query, snapshot, options)
        )
        cached_times.append(seconds)
    stats = summary_cache_stats()

    # Full recompute of the *same* mutated state, cache dropped: the
    # denominator of the headline speedup.
    final = current
    clear_summary_cache()
    full_answer, full_s = _timed(
        lambda: engine.answer_group_by(query, final, options)
    )

    # Rebuild-then-answer parity: fresh lineage, zero shared cache entries.
    rebuilt = DatabaseInstance(final.schema, final.facts)
    rebuilt_answer = engine.answer_group_by(query, rebuilt, options)
    parity = answer == full_answer == rebuilt_answer

    cached_median = statistics.median(cached_times)
    return {
        "cold_s": round(cold_s, 4),
        "cached_s_median": round(cached_median, 4),
        "cached_s_all": [round(s, 4) for s in cached_times],
        "full_recompute_s": round(full_s, 4),
        "speedup_vs_full": round(full_s / cached_median, 3) if cached_median else None,
        "parity_vs_rebuild": parity,
        "cache": {"hits": stats["hits"], "misses": stats["misses"]},
    }


def bench_delta_shipping(instance, shards: int) -> dict:
    query = stock_total_query("MIN")
    with WorkerPool(workers=1) as pool:
        pool.ref_for(instance, name="bench")
        pool.answer(query, instance, name="bench", shards=shards)  # warm resident

        # Delta path: one-op ship, worker fast-forwards the resident.
        delta_state = _point_write(instance, 1)
        ops = [
            ("remove", fact)
            for fact in instance.facts - delta_state.facts
        ]
        def delta_round_trip():
            pool.apply_named_delta("bench", delta_state, ops)
            return pool.answer(query, delta_state, name="bench", shards=shards)
        _, delta_s = _timed(delta_round_trip)

        # Reship path: full re-pickle of the next state, worker reloads.
        reship_state = _point_write(delta_state, 2)
        def reship_round_trip():
            pool.ref_for(reship_state, name="bench")
            return pool.answer(query, reship_state, name="bench", shards=shards)
        _, reship_s = _timed(reship_round_trip)

        stats = pool.stats()
        counters = {
            key: sum(w.get(key, 0) for w in stats["per_worker"])
            for key in ("delta_applies", "delta_fallbacks", "instance_loads")
        }
    return {
        "delta_round_trip_s": round(delta_s, 4),
        "reship_round_trip_s": round(reship_s, 4),
        "reship_over_delta": round(reship_s / delta_s, 3) if delta_s else None,
        "delta_ships": stats["delta_ships"],
        "delta_reships": stats["delta_reships"],
        **counters,
    }


def run_bench(facts: int, shards: int, writes: int, inconsistency: float, seed: int):
    instance = workload_instance(facts, inconsistency, seed)
    report = {
        "bench": "incremental",
        "config": {
            "facts_requested": facts,
            "facts": len(instance),
            "shards": shards,
            "writes": writes,
            "strategy": STRATEGY_HASHED,
            "inconsistency": inconsistency,
            "seed": seed,
        },
        "point_write": bench_point_write(instance, shards, writes),
        "delta": bench_delta_shipping(instance, shards),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--facts", type=int, default=4000)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--writes", type=int, default=3)
    parser.add_argument("--inconsistency", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail (exit 1) when the cached re-answer is not at least this "
        "many times faster than the cache-cleared recompute",
    )
    parser.add_argument("--out", default="BENCH_incremental.json")
    args = parser.parse_args(argv)

    report = run_bench(
        args.facts, args.shards, args.writes, args.inconsistency, args.seed
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))

    point = report["point_write"]
    if not point["parity_vs_rebuild"]:
        print("FAIL: incremental answer diverged from rebuild", file=sys.stderr)
        return 1
    speedup = point["speedup_vs_full"]
    if speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: cached re-answer speedup {speedup}x is below the "
            f"--min-speedup {args.min_speedup}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
