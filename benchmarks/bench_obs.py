"""Observability overhead benchmark: the same load with tracing off/on/sampled.

The tracing tentpole promises near-zero overhead: span creation is two
``ContextVar`` operations plus a ``perf_counter`` pair, and every site is a
no-op when tracing is disabled.  This bench makes that budget measurable —
it boots one server per mode per round (tracing off, tracing on, tracing on
with 1/10 head sampling), drives the identical ``mixed`` workload from
:mod:`bench_serve` through each, and reports per-mode p95s plus the relative
overhead.

The overhead is measured in **paired rounds**.  A round boots one server
per mode back to back, warms each up with a slice of the workload before
its measured run, and divides the round's tracing-on (and sampled) p95 by
the same round's tracing-off p95.  Rounds alternate the mode order
(off/on/sampled, then sampled/on/off, ...), so neither side of a pair
always runs first.  The overhead is the **median of the per-round
ratios**: pairing cancels drift between rounds (a noisy neighbour, a
frequency change), and the median discards the odd round where a GC pause
or a scheduler hiccup hit one side only.  ``--check-overhead`` gates on
that median; ``check_regression.py --kind obs`` in CI compares it, and the
per-mode median p95, against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py \
        --requests 400 --concurrency 8 --rounds 25 --out BENCH_obs.json

    # CI gate: fail when tracing costs more than 5% of p95 (paired median)
    PYTHONPATH=src python benchmarks/bench_obs.py --check-overhead 5
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time

from bench_serve import mixed_workload

from repro.serve.app import ConsistentAnswerServer, ServeConfig
from repro.serve.client import LoadGenerator

#: (mode key, tracing flag, trace_sample rate) per benched configuration.
MODES = (
    ("tracing_off", False, None),
    ("tracing_on", True, None),
    ("tracing_sampled", True, 10),
)


async def run_load(
    tracing: bool,
    requests: int,
    concurrency: int,
    threads: int,
    trace_sample: int | None = None,
    warmup: int = 0,
) -> dict:
    """Boot one server with the given tracing mode and drive the mixed load.

    ``warmup`` requests run through the same server first and are discarded:
    they populate the plan cache, the thread pool, and the page cache, so
    the measured run starts from the same warm state in every mode.
    """
    server = ConsistentAnswerServer(
        ServeConfig(
            port=0,
            workers=threads,
            max_pending=max(64, requests),
            tracing=tracing,
            trace_sample=trace_sample,
        )
    )
    await server.start()
    try:
        generator = LoadGenerator(server.address[0], server.address[1], concurrency)
        if warmup > 0:
            await generator.run(mixed_workload(warmup))
        report = await generator.run(mixed_workload(requests))
        return report.summary()
    finally:
        await server.stop()


def _aggregate(rounds: list) -> dict:
    """Best-of and median-of rounds for one mode."""
    best = min(rounds, key=lambda r: r["p95_ms"] or float("inf"))
    p95s = [r["p95_ms"] for r in rounds if r["p95_ms"] is not None]
    return {
        "p50_ms": best["p50_ms"],
        "p95_ms": best["p95_ms"],
        "p99_ms": best["p99_ms"],
        "p95_median_ms": round(statistics.median(p95s), 3) if p95s else None,
        "throughput_rps": best["throughput_rps"],
        "errors_5xx": max(r["errors_5xx"] for r in rounds),
        "rounds_p95_ms": [r["p95_ms"] for r in rounds],
    }


def _ratio(numerator: float | None, denominator: float | None) -> float:
    return (numerator or 0.0) / ((denominator or 0.0) or 1e-9)


def _paired_ratios(mode_rounds: list, off_rounds: list) -> list:
    """Each round's p95 over the same round's tracing-off p95."""
    return [
        _ratio(mode["p95_ms"], off["p95_ms"])
        for mode, off in zip(mode_rounds, off_rounds)
    ]


async def run_bench(
    requests: int, concurrency: int, threads: int, rounds: int
) -> dict:
    warmup = min(max(8, requests // 4), 100)  # plans warm within one rotation
    by_mode: dict = {key: [] for key, _, _ in MODES}
    for index in range(rounds):
        order = MODES if index % 2 == 0 else MODES[::-1]
        for key, tracing, sample in order:
            by_mode[key].append(
                await run_load(
                    tracing,
                    requests,
                    concurrency,
                    threads,
                    trace_sample=sample,
                    warmup=warmup,
                )
            )
    modes = {key: _aggregate(results) for key, results in by_mode.items()}
    off, on = modes["tracing_off"], modes["tracing_on"]
    on_ratios = _paired_ratios(by_mode["tracing_on"], by_mode["tracing_off"])
    sampled_ratios = _paired_ratios(by_mode["tracing_sampled"], by_mode["tracing_off"])
    median_ratio = statistics.median(on_ratios)
    sampled_median_ratio = statistics.median(sampled_ratios)
    return {
        "benchmark": "obs",
        "timestamp": time.time(),
        "config": {
            "requests": requests,
            "concurrency": concurrency,
            "threads": threads,
            "rounds": rounds,
            "warmup": warmup,
            "profile": "mixed",
            "sampled_rate": 10,
        },
        **modes,
        "overhead": {
            "p95_median_ratio": round(median_ratio, 4),
            "p95_median_pct": round((median_ratio - 1.0) * 100.0, 2),
            "sampled_p95_median_ratio": round(sampled_median_ratio, 4),
            "sampled_p95_median_pct": round(
                (sampled_median_ratio - 1.0) * 100.0, 2
            ),
            "rounds_p95_ratio": [round(r, 4) for r in on_ratios],
            "rounds_sampled_p95_ratio": [round(r, 4) for r in sampled_ratios],
            "throughput_pct": round(
                (1.0 - _ratio(on["throughput_rps"], off["throughput_rps"]))
                * 100.0,
                2,
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--threads", type=int, default=4, help="engine worker threads per server"
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=25,
        help="paired off/on/sampled rounds, alternating the mode order; the "
        "gate reads the median of the per-round p95 ratios",
    )
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument(
        "--check-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 when the median per-round p95 ratio of tracing on (or "
        "sampled) over tracing off exceeds 1 + PCT/100",
    )
    args = parser.parse_args(argv)

    result = asyncio.run(
        run_bench(args.requests, args.concurrency, args.threads, max(1, args.rounds))
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))

    if any(result[key]["errors_5xx"] for key, _, _ in MODES):
        print("FAIL: 5xx responses during the bench", file=sys.stderr)
        return 1
    if args.check_overhead is not None:
        failed = False
        for label, pct_key in (
            ("tracing", "p95_median_pct"),
            ("tracing+sampling", "sampled_p95_median_pct"),
        ):
            overhead = result["overhead"][pct_key]
            if overhead > args.check_overhead:
                print(
                    f"FAIL: {label} median paired p95 overhead {overhead}% "
                    f"exceeds the {args.check_overhead}% budget",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(
                    f"{label} median paired p95 overhead {overhead}% within "
                    f"the {args.check_overhead}% budget"
                )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
