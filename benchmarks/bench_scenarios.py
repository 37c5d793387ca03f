"""Adversarial-scenario benchmark: summary-state sharding vs unsharded.

``bench_shard.py`` measures the scalar-merge aggregates (MIN/MAX/SUM) on the
benign scalability workload.  This matrix covers the other half of the story:
the aggregates that merge through exact summary states — AVG, PRODUCT,
COUNT_DISTINCT, SUM_DISTINCT, which fell back to unsharded execution before
the states existed — swept over the adversarial scenarios of
:mod:`repro.workloads.generators`:

* ``power_law_blocks``        — Pareto-tailed block sizes;
* ``near_total_inconsistency`` — ≥98% of blocks conflicted;
* ``wide_value_domain``       — conflicting values almost surely distinct
  (the DISTINCT antichains' worst case).

Every (scenario, aggregate) cell answers the closed whole-Stock query
unsharded and with each requested shard count, asserts exact parity (a fast
wrong answer is worthless), and reports per-cell wall-clock and speedups to
``BENCH_scenarios.json`` — the report uses the same ``queries`` schema as
``BENCH_shard.json``, so ``check_regression.py`` gates both alike.

Block counts are small by design: the *unsharded* baseline for these
aggregates runs the exact decision procedure whose cost is exponential in
the number of conflicting blocks (which is why they used to fall back), so
a dozen blocks already separates the paths by orders of magnitude — AVG
and PRODUCT summaries are polynomial and win ~100-3000×, while the
DISTINCT antichain merge can itself go combinatorial on heavily conflicted
instances, which this matrix reports honestly rather than hiding.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py \
        --blocks 8 --shards 2 4 8 --out BENCH_scenarios.json

``--smoke`` shrinks the matrix to the CI slice (fewer blocks, two shard
counts) and ``--check-speedup`` exits non-zero unless at least one
previously-fallback aggregate beats unsharded wall-clock somewhere in the
matrix (the acceptance contract of the summary-state merge path).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.engine import ConsistentAnswerEngine
from repro.engine.sharding import SUMMARY_AGGREGATES, ShardPlanner, execute_sharded
from repro.workloads.generators import AdversarialSpec, adversarial_catalogue
from repro.workloads.queries import stock_total_query


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run_bench(blocks: int, shard_counts, seed: int) -> dict:
    # max_block_size stays small: block sizes multiply into the baseline's
    # repair-space size, and the matrix must terminate on CI runners.
    spec = AdversarialSpec(blocks=blocks, max_block_size=4, seed=seed)
    scenarios = adversarial_catalogue(spec)
    engine = ConsistentAnswerEngine()
    results = {}
    for scenario_name, instance in scenarios.items():
        for aggregate in SUMMARY_AGGREGATES:
            query = stock_total_query(aggregate)
            assert ShardPlanner.fallback_reason(query) is None, (
                f"{aggregate} must shard without fallback"
            )
            engine.compile(query)  # keep one-off plan compilation out of timings
            baseline, base_seconds = _timed(lambda: engine.answer(query, instance))
            per_shard = {}
            for shards in shard_counts:
                sharded, seconds = _timed(
                    lambda: execute_sharded(engine, query, instance, shards, binding={})
                )
                if sharded != baseline:
                    raise AssertionError(
                        f"parity violation: {scenario_name}/{aggregate} "
                        f"shards={shards}: {sharded} != {baseline}"
                    )
                per_shard[str(shards)] = {
                    "seconds": round(seconds, 6),
                    "speedup": round(base_seconds / seconds, 3) if seconds else None,
                }
            results[f"{scenario_name}.{aggregate}"] = {
                "unsharded_seconds": round(base_seconds, 6),
                "sharded": per_shard,
                "best_speedup": max(e["speedup"] for e in per_shard.values()),
            }
    return {
        "benchmark": "scenarios",
        "timestamp": time.time(),
        "config": {
            "blocks": blocks,
            "seed": seed,
            "shard_counts": list(shard_counts),
            "aggregates": list(SUMMARY_AGGREGATES),
            "scenarios": {
                name: {
                    "facts": len(instance),
                    "stock_blocks": len(instance.blocks("Stock")),
                    "inconsistency": round(instance.inconsistency_ratio(), 4),
                }
                for name, instance in scenarios.items()
            },
        },
        "queries": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=8)
    parser.add_argument("--shards", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI slice: a smaller matrix (fewer blocks, shards 2 and 4)",
    )
    parser.add_argument("--out", default="BENCH_scenarios.json")
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help="exit 1 unless some previously-fallback aggregate beats "
        "unsharded wall-clock somewhere in the matrix",
    )
    args = parser.parse_args(argv)
    blocks = min(args.blocks, 7) if args.smoke else args.blocks
    shard_counts = [2, 4] if args.smoke else args.shards

    result = run_bench(blocks, shard_counts, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))

    if args.check_speedup:
        best = max(entry["best_speedup"] for entry in result["queries"].values())
        if best <= 1.0:
            print(
                f"FAIL: no summary-state aggregate beat unsharded execution "
                f"anywhere in the matrix (best speedup {best}x)",
                file=sys.stderr,
            )
            return 1
        print(f"speedup contract holds: best {best}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
