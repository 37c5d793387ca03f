"""Benchmark regression gate: compare a fresh BENCH json against the baseline.

CI produces a fresh ``BENCH_serve.json`` / ``BENCH_shard.json`` on every
run; this script compares it against the baseline committed at the repo
root and fails (exit 1) when a headline metric regressed by more than
``--max-ratio`` (default 2x — wide enough to absorb runner-hardware noise,
tight enough to catch a real perf cliff):

* ``serve``  — p95 latency (lower is better) and throughput_rps (higher
  is better) of the mixed load;
* ``shard``  — per-query best sharded speedup (higher is better; a
  dimensionless ratio, so it is hardware-portable) and the sharded
  wall-clock of the best configuration (lower is better);
* ``scenarios`` — the same two metrics per (scenario, aggregate) cell of
  the adversarial summary-state matrix (``bench_scenarios.py`` emits the
  ``shard`` report schema on purpose, so one comparator serves both);
* ``obs``    — **median-of-rounds** p95 with tracing off, on, and sampled
  (1/10), plus the median of the per-round paired on/off p95 ratios (the
  tracing overhead — dimensionless, hardware-portable).  Medians, not
  best-of: best-of is a one-sided order statistic whose round-to-round
  variance made the gate flaky.
* ``incremental`` — the summary-cache speedup of a point-write re-answer
  over a cache-cleared recompute (dimensionless), plus the absolute cached
  re-answer latency (``bench_incremental.py``).
* ``control`` — cheap-traffic success rate and p95 under cost-predictive
  admission (the protection the gate exists to provide;
  ``bench_control.py``).

Metrics missing or malformed on either side are reported and skipped
(with a warning) rather than failing, so the gate survives schema
evolution of the bench reports: a fresh report that dropped or reshaped a
key the committed baseline still has must not hard-fail CI.  A run with
*no* comparable metrics at all warns loudly and exits 0 for the same
reason (pass ``--require-metrics`` to restore the strict behaviour).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.fresh.json
    python benchmarks/check_regression.py --kind serve \
        --baseline BENCH_serve.json --fresh BENCH_serve.fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

#: (metric name, json path, direction) — direction is "higher" or "lower".
Metric = Tuple[str, List[str], str]

SERVE_METRICS: List[Metric] = [
    ("throughput_rps", ["throughput_rps"], "higher"),
    ("p95_ms", ["p95_ms"], "lower"),
]

OBS_METRICS: List[Metric] = [
    ("tracing_on.p95_median_ms", ["tracing_on", "p95_median_ms"], "lower"),
    ("tracing_off.p95_median_ms", ["tracing_off", "p95_median_ms"], "lower"),
    ("tracing_sampled.p95_median_ms", ["tracing_sampled", "p95_median_ms"], "lower"),
    ("overhead.p95_median_ratio", ["overhead", "p95_median_ratio"], "lower"),
]

CONTROL_METRICS: List[Metric] = [
    # The point of cost-predictive admission is that cheap traffic keeps
    # succeeding (and stays fast) while the heavies are shed.
    (
        "cost_predictive.cheap.success_rate",
        ["cost_predictive", "cheap", "success_rate"],
        "higher",
    ),
    (
        "cost_predictive.cheap.p95_ms",
        ["cost_predictive", "cheap", "p95_ms"],
        "lower",
    ),
]

INCREMENTAL_METRICS: List[Metric] = [
    # The cached-over-full speedup is dimensionless (hardware-portable);
    # the absolute cached re-answer latency backs it up with 2x headroom.
    (
        "point_write.speedup_vs_full",
        ["point_write", "speedup_vs_full"],
        "higher",
    ),
    (
        "point_write.cached_s_median",
        ["point_write", "cached_s_median"],
        "lower",
    ),
]


def _dig(payload: dict, path: List[str]) -> Optional[float]:
    node: object = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _shard_metrics(baseline: dict, fresh: dict) -> List[Metric]:
    """One speedup + one wall-clock metric per query present in both files.

    Defensive by design: a report whose schema evolved (a query entry that
    is no longer an object, a ``sharded`` table of a different shape, a
    renamed key) contributes no metric for the malformed part instead of
    raising — the caller reports anything it cannot compare as a skip.
    """
    metrics: List[Metric] = []
    base_queries = baseline.get("queries")
    fresh_queries = fresh.get("queries")
    if not isinstance(base_queries, dict) or not isinstance(fresh_queries, dict):
        return metrics
    for name in sorted(set(base_queries) & set(fresh_queries)):
        base_entry = base_queries.get(name)
        fresh_entry = fresh_queries.get(name)
        if not isinstance(base_entry, dict) or not isinstance(fresh_entry, dict):
            continue
        metrics.append(
            (f"{name}.best_speedup", ["queries", name, "best_speedup"], "higher")
        )
        shard_counts = base_entry.get("sharded")
        if not isinstance(shard_counts, dict) or not shard_counts:
            continue
        timed = {
            count: entry["seconds"]
            for count, entry in shard_counts.items()
            if isinstance(entry, dict)
            and isinstance(entry.get("seconds"), (int, float))
        }
        if not timed:
            continue
        best = min(timed, key=timed.__getitem__)
        fresh_sharded = fresh_entry.get("sharded")
        if isinstance(fresh_sharded, dict) and best in fresh_sharded:
            metrics.append(
                (
                    f"{name}.sharded[{best}].seconds",
                    ["queries", name, "sharded", best, "seconds"],
                    "lower",
                )
            )
    return metrics


def compare(
    kind: str, baseline: dict, fresh: dict, max_ratio: float
) -> Tuple[List[str], List[str]]:
    """Return (report lines, failure lines)."""
    if kind == "serve":
        metrics = SERVE_METRICS
    elif kind == "obs":
        metrics = OBS_METRICS
    elif kind == "incremental":
        metrics = INCREMENTAL_METRICS
    elif kind == "control":
        metrics = CONTROL_METRICS
    else:  # "shard" and "scenarios" share the per-query report schema
        metrics = _shard_metrics(baseline, fresh)
    lines: List[str] = []
    failures: List[str] = []
    for name, path, direction in metrics:
        base_value = _dig(baseline, path)
        fresh_value = _dig(fresh, path)
        if base_value is None or fresh_value is None:
            if base_value is not None:
                side = "fresh"
            elif fresh_value is not None:
                side = "baseline"
            else:
                side = "both sides"
            lines.append(
                f"  skip {name}: missing or non-numeric on {side} "
                f"(bench schema evolution?)"
            )
            continue
        if base_value <= 0 or fresh_value <= 0:
            lines.append(f"  skip {name}: non-positive value")
            continue
        if direction == "lower":
            ratio = fresh_value / base_value
        else:
            ratio = base_value / fresh_value
        verdict = "FAIL" if ratio > max_ratio else "ok"
        lines.append(
            f"  {verdict:4} {name}: baseline={base_value:g} fresh={fresh_value:g} "
            f"regression-ratio={ratio:.2f} ({direction} is better)"
        )
        if ratio > max_ratio:
            failures.append(
                f"{name} regressed {ratio:.2f}x (baseline {base_value:g} -> "
                f"fresh {fresh_value:g}, limit {max_ratio}x)"
            )
    return lines, failures


def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kind",
        choices=("serve", "shard", "scenarios", "obs", "incremental", "control"),
        required=True,
    )
    parser.add_argument("--baseline", required=True, help="committed BENCH json")
    parser.add_argument("--fresh", required=True, help="freshly produced BENCH json")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="maximum tolerated regression factor (default: 2.0)",
    )
    parser.add_argument(
        "--require-metrics",
        action="store_true",
        help="fail (exit 1) when no metric is comparable, instead of the "
        "default skip-with-warning for bench schema evolution",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    lines, failures = compare(args.kind, baseline, fresh, args.max_ratio)
    print(f"benchmark regression gate ({args.kind}), limit {args.max_ratio}x:")
    for line in lines:
        print(line)
    compared = [line for line in lines if not line.lstrip().startswith("skip")]
    if not compared:
        print(
            "WARNING: no comparable metrics found — bench report schemas "
            "have diverged from the committed baseline; nothing gated",
            file=sys.stderr,
        )
        return 1 if args.require_metrics else 0
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("no regression beyond the limit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
