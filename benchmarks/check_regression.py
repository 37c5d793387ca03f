"""Benchmark regression gate: compare a fresh BENCH json against the baseline.

Every committed ``BENCH_<name>.json`` has one shape, written by
:func:`write_report` from the bench script that measures it::

    {"benchmark": name,
     "host":    {"nproc", "python", "platform", "commit", "source_sha256"},
     "config":  the bench's settings,
     "metrics": [{"name", "unit", "better", "bound", "value"}, ...],
     "detail":  everything else the bench reports; never gated}

``commit`` is the HEAD checked out when the report was written: a baseline
regenerated before its change is committed names the parent commit, and
``source_sha256`` (a digest of ``src/``) identifies the tree measured.
``better`` and ``bound`` mean what they mean in ``BENCHMARK.json``: each
bench declares them next to the measurement, and the gate reads them from
the baseline.  The one rule: every baseline metric must appear in the
fresh report with a positive number, and its regression ratio
(fresh/baseline when lower is better, baseline/fresh when higher is
better) must not exceed ``1 + bound``.  Otherwise the gate exits 1.

Usage::

    PYTHONPATH=src python benchmarks/gates.py shard   # BENCH_shard.fresh.json
    python benchmarks/check_regression.py BENCH_shard.json BENCH_shard.fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(_ROOT, "perfbench"))

from pbutil import git_commit, source_digest  # noqa: E402


def metric(name: str, unit: str, better: str, bound: float, value: float) -> Dict:
    """One gated metric of a report."""
    return dict(name=name, unit=unit, better=better, bound=bound, value=value)


def write_report(
    path: str, benchmark: str, config: Dict, metrics: List[Dict], detail: Dict
) -> None:
    """Write (and print) a report in the one shape, naming the host it runs on."""
    report = {
        "benchmark": benchmark,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(_ROOT),
            "source_sha256": source_digest(_ROOT),
        },
        "config": config,
        "metrics": metrics,
        "detail": detail,
    }
    text = json.dumps(report, indent=2)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text)


def _positive(value: object) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and value > 0


def compare(baseline: Dict, fresh: Dict) -> Tuple[List[str], List[str]]:
    """Return (report lines, failure lines)."""
    fresh_values = {entry["name"]: entry["value"] for entry in fresh.get("metrics", [])}
    lines: List[str] = []
    failures: List[str] = []
    if not baseline.get("metrics"):
        failures.append("the baseline declares no metric")
    for entry in baseline.get("metrics", []):
        name, better, bound = entry["name"], entry["better"], entry["bound"]
        base, value = entry["value"], fresh_values.get(name)
        if not (_positive(base) and _positive(value)):
            failures.append(
                f"{name}: baseline {base!r}, fresh {value!r}; both must be "
                f"positive numbers"
            )
            continue
        ratio = value / base if better == "lower" else base / value
        limit = 1.0 + bound
        verdict = "FAIL" if ratio > limit else "ok"
        lines.append(
            f"  {verdict:4} {name}: baseline={base:g} fresh={value:g} "
            f"regression-ratio={ratio:.2f} limit={limit:g} ({better} is better)"
        )
        if ratio > limit:
            failures.append(
                f"{name} regressed {ratio:.2f}x (baseline {base:g} -> "
                f"fresh {value:g}, limit {limit:g}x)"
            )
    return lines, failures


def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH json")
    parser.add_argument("fresh", help="freshly produced BENCH json")
    args = parser.parse_args(argv)
    lines, failures = compare(_load(args.baseline), _load(args.fresh))
    print(f"benchmark regression gate: {args.fresh} against {args.baseline}")
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("no regression beyond the bounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
