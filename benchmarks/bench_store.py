"""Durable-store benchmark: write-path and boot-path costs of repro.store.

A standalone script (like ``bench_serve.py``): it generates the Stock
scalability workload, persists it through an :class:`~repro.store.InstanceStore`,
and measures the costs an operator of a ``--store-dir`` deployment pays:

* ``snapshot_save_ms`` / ``snapshot_load_ms`` — the atomic-rename snapshot
  write and the cold reload of a snapshot with an empty log;
* ``append_ops_per_s`` — fsync'd fact-log append throughput (each op is a
  durable commit, so this bounds the sustained HTTP mutation rate);
* ``replay_load_ms`` — reload of snapshot + a deep log (the worst-case
  boot when the server died just before compaction);
* ``compaction_ms`` — folding that log into a fresh snapshot, and
  ``post_compaction_load_ms`` proving the boot speedup compaction buys;
* an end-to-end parity check: the replayed instance answers the benchmark
  query identically to the in-memory one (a fast wrong reload is
  worthless).

The report declares no gated metric: every number is ``detail``.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py --check-parity

Its option defaults are CI's settings; only ``benchmarks/gates.py``
writes the committed ``BENCH_store.json``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time

from bench_shard import scalability_instance
from check_regression import write_report

from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.engine import ConsistentAnswerEngine
from repro.store import InstanceStore
from repro.workloads.queries import stock_total_query


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run_bench(blocks: int, appends: int, inconsistency: float, seed: int):
    """(config, metrics, detail) of one run; no metric is gated."""
    instance = scalability_instance(blocks, inconsistency, seed)
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    config = {
        "blocks": blocks,
        "facts": len(instance),
        "appends": appends,
        "inconsistency": inconsistency,
        "seed": seed,
    }
    report: dict = {}
    try:
        store = InstanceStore(root, compact_every=0)  # compaction timed by hand
        _, save_s = _timed(lambda: store.save("bench", instance, version=1))
        report["snapshot_save_ms"] = round(save_s * 1000, 3)
        _, load_s = _timed(lambda: InstanceStore(root).load("bench"))
        report["snapshot_load_ms"] = round(load_s * 1000, 3)

        # fsync'd append throughput: one add_fact record per op, distinct facts
        mutated = DatabaseInstance(instance.schema, instance)
        facts = [
            Fact("Stock", (f"bench-product-{i}", f"bench-town-{i % 7}", i))
            for i in range(appends)
        ]

        def append_all():
            for position, fact in enumerate(facts):
                mutated.add_fact(fact)
                store.mutate(
                    "bench", [("add_fact", fact)], version=2 + position
                )

        _, append_s = _timed(append_all)
        report["append_ops_per_s"] = round(appends / append_s, 1) if append_s else None
        report["append_ms_per_op"] = round(append_s * 1000 / appends, 3)

        stored, replay_s = _timed(lambda: InstanceStore(root).load("bench"))
        report["replay_load_ms"] = round(replay_s * 1000, 3)
        report["replayed_log_depth"] = stored.log_depth

        # parity: the replayed instance answers like the in-memory one
        engine = ConsistentAnswerEngine()
        query = stock_total_query("MAX")
        expected = engine.answer(query, mutated)
        actual = engine.answer(query, stored.instance)
        report["parity_ok"] = bool(expected == actual)

        _, compact_s = _timed(
            lambda: store.compact(
                "bench", instance=mutated, version=1 + appends
            )
        )
        report["compaction_ms"] = round(compact_s * 1000, 3)
        _, post_s = _timed(lambda: InstanceStore(root).load("bench"))
        report["post_compaction_load_ms"] = round(post_s * 1000, 3)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return config, [], report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=200)
    parser.add_argument("--appends", type=int, default=100)
    parser.add_argument("--inconsistency", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=20260728)
    parser.add_argument("--out", default="BENCH_store.fresh.json")
    parser.add_argument(
        "--check-parity",
        action="store_true",
        help="exit non-zero unless the replayed instance answers identically",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    config, metrics, detail = run_bench(
        args.blocks, args.appends, args.inconsistency, args.seed
    )
    write_report(args.out, "store", config, metrics, detail)
    if args.check_parity and not detail["parity_ok"]:
        print(
            "FAIL: replayed instance diverges from the in-memory one",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
