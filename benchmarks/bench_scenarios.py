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
``BENCH_scenarios.json``.  Cells are timed and gated as in
``bench_shard.py`` (median of its ``RUNS`` interleaved runs, caches
dropped before each), with a bound of 2.0 instead of 1.0: the DISTINCT
cells measure tens of milliseconds of combinatorial work, which varies
more across hosts than the longer-running shard benchmark.

Block counts are small by design: the *unsharded* baseline for these
aggregates runs the exact decision procedure whose cost is exponential in
the number of conflicting blocks (which is why they used to fall back), so
a dozen blocks already separates the paths by orders of magnitude — AVG
and PRODUCT summaries are polynomial and win ~100-3000×, while the
DISTINCT antichain merge can itself go combinatorial on heavily conflicted
instances, which this matrix reports honestly rather than hiding.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --check-speedup

    # a wider matrix than CI's
    PYTHONPATH=src python benchmarks/bench_scenarios.py --blocks 8 --shards 2 4 8

Its option defaults are CI's settings; only ``benchmarks/gates.py``
writes the committed ``BENCH_scenarios.json``.  ``--check-speedup`` exits
non-zero unless at least one previously-fallback aggregate beats unsharded
wall-clock somewhere in the matrix (the acceptance contract of the
summary-state merge path).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from bench_shard import RUNS, cell, timed_medians
from check_regression import write_report

from repro.engine import AnswerOptions, ConsistentAnswerEngine
from repro.engine.sharding import SUMMARY_AGGREGATES, ShardPlanner
from repro.workloads.generators import AdversarialSpec, adversarial_catalogue
from repro.workloads.queries import stock_total_query


def run_bench(blocks: int, shard_counts, seed: int):
    """(config, metrics, detail) of one run."""
    # max_block_size stays small: block sizes multiply into the baseline's
    # repair-space size, and the matrix must terminate on CI runners.
    spec = AdversarialSpec(blocks=blocks, max_block_size=4, seed=seed)
    scenarios = adversarial_catalogue(spec)
    engine = ConsistentAnswerEngine()
    names, calls = [], {}
    for scenario_name, instance in scenarios.items():
        for aggregate in SUMMARY_AGGREGATES:
            query = stock_total_query(aggregate)
            assert ShardPlanner.fallback_reason(query) is None, (
                f"{aggregate} must shard without fallback"
            )
            engine.compile(query)  # keep one-off plan compilation out of timings
            name = f"{scenario_name}.{aggregate}"
            names.append(name)
            calls[name, None] = partial(engine.answer, query, instance)
            for shards in shard_counts:
                calls[name, shards] = partial(
                    engine.answer, query, instance, options=AnswerOptions(shards=shards)
                )
    results, seconds = timed_medians(calls)
    queries, metrics = {}, []
    for name in names:
        queries[name], cell_metrics = cell(name, results, seconds, shard_counts, 2.0)
        metrics += cell_metrics
    config = {
        "blocks": blocks,
        "seed": seed,
        "shards": list(shard_counts),
        "runs": RUNS,
        "aggregates": list(SUMMARY_AGGREGATES),
        "scenarios": {
            name: {
                "facts": len(instance),
                "stock_blocks": len(instance.blocks("Stock")),
                "inconsistency": round(instance.inconsistency_ratio(), 4),
            }
            for name, instance in scenarios.items()
        },
    }
    return config, metrics, {"queries": queries}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=7)
    parser.add_argument("--shards", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_scenarios.fresh.json")
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help="exit 1 unless some previously-fallback aggregate beats "
        "unsharded wall-clock somewhere in the matrix",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config, metrics, detail = run_bench(args.blocks, args.shards, args.seed)
    write_report(args.out, "scenarios", config, metrics, detail)

    if args.check_speedup:
        best = max(entry["best_speedup"] for entry in detail["queries"].values())
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
