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
* the ungated ``delta`` section times the worker-pool write path in
  alternating pairs: shipping a fact delta to a resident instance
  (``apply_named_delta`` + a 2 ms re-answer) versus a full re-pickle
  (``ref_for`` + the same re-answer); it reports each path's median and
  the median and interquartile range of the per-pair ratio.

The gated metrics are ``speedup_vs_full`` and ``cached_s_median`` (see
``check_regression.py``).

The GROUP BY places shards by a stable hash of each component's smallest
block key (``repro.engine.sharding.placement_for``), so a point write leaves
the other shards' cache tokens intact.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py --min-speedup 5

Its option defaults are CI's settings; only ``benchmarks/gates.py``
writes the committed ``BENCH_incremental.json``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from check_regression import metric, write_report

from repro.datamodel.instance import DatabaseInstance
from repro.engine import (
    AnswerOptions,
    ConsistentAnswerEngine,
    WorkerPool,
    clear_summary_cache,
    summary_cache_stats,
)
from repro.query.parser import parse_aggregation_query
from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec
from repro.workloads.queries import stock_town_groupby_query
from repro.workloads.scenarios import fig1_stock_schema


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
    options = AnswerOptions(shards=shards)

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


#: Timed (delta, re-ship) pairs; the first path alternates between pairs.
DELTA_PAIRS = 10


def bench_delta_shipping(instance) -> dict:
    """Time the two ways a point write reaches a worker's resident copy.

    The query reads one Dealers block, so the worker answers it in about
    2 ms and each round trip measures the shipping: a one-op delta the
    worker fast-forwards in place, or a full re-pickle it reloads.  Each of
    ``DELTA_PAIRS`` pairs times both paths on consecutive writes, delta
    first in even pairs and re-ship first in odd ones.
    """
    query = parse_aggregation_query(
        fig1_stock_schema(), "COUNT(1) <- Dealers('dealer0', t)"
    )
    state = instance
    step = 0

    def round_trip(pool, delta: bool) -> float:
        nonlocal state, step
        step += 1
        previous, state = state, _point_write(state, step)
        started = time.perf_counter()
        if delta:
            ops = [("remove", fact) for fact in previous.facts - state.facts]
            pool.apply_named_delta("bench", state, ops)
        else:
            pool.ref_for(state, name="bench")
        pool.answer(query, state, name="bench")
        return time.perf_counter() - started

    with WorkerPool(workers=1) as pool:
        pool.ref_for(state, name="bench")
        pool.answer(query, state, name="bench")  # warm resident
        delta_s, reship_s = [], []
        for pair in range(DELTA_PAIRS):
            for delta in (True, False) if pair % 2 == 0 else (False, True):
                (delta_s if delta else reship_s).append(round_trip(pool, delta))
        stats = pool.stats()
        counters = {
            key: sum(w.get(key, 0) for w in stats["per_worker"])
            for key in ("delta_applies", "delta_fallbacks", "instance_loads")
        }
    ratios = [reship / delta for delta, reship in zip(delta_s, reship_s)]
    q1, ratio_median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "pairs": DELTA_PAIRS,
        "delta_round_trip_ms_median": round(statistics.median(delta_s) * 1e3, 3),
        "reship_round_trip_ms_median": round(statistics.median(reship_s) * 1e3, 3),
        "reship_over_delta_median": round(ratio_median, 3),
        "reship_over_delta_iqr": round(q3 - q1, 3),
        "reship_over_delta_all": [round(r, 3) for r in ratios],
        "delta_ships": stats["delta_ships"],
        "delta_reships": stats["delta_reships"],
        **counters,
    }


def run_bench(facts: int, shards: int, writes: int, inconsistency: float, seed: int):
    """(config, metrics, detail) of one run."""
    instance = workload_instance(facts, inconsistency, seed)
    config = {
        "facts": facts,
        "instance_facts": len(instance),
        "shards": shards,
        "writes": writes,
        "inconsistency": inconsistency,
        "seed": seed,
    }
    point = bench_point_write(instance, shards, writes)
    metrics = [
        metric(
            "point_write.speedup_vs_full", "x", "higher", 1.0, point["speedup_vs_full"]
        ),
        metric(
            "point_write.cached_s_median", "s", "lower", 1.0, point["cached_s_median"]
        ),
    ]
    detail = {"point_write": point, "delta": bench_delta_shipping(instance)}
    return config, metrics, detail


def build_parser() -> argparse.ArgumentParser:
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
    parser.add_argument("--out", default="BENCH_incremental.fresh.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    config, metrics, detail = run_bench(
        args.facts, args.shards, args.writes, args.inconsistency, args.seed
    )
    write_report(args.out, "incremental", config, metrics, detail)

    point = detail["point_write"]
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
