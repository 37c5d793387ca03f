"""``python -m repro.serve`` — boot the consistent-answering server.

Examples::

    python -m repro.serve                         # 127.0.0.1:8421, builtins
    python -m repro.serve --port 0                # ephemeral port
    python -m repro.serve --workers 4             # 4 engine worker processes
    python -m repro.serve --backend sqlite --threads 8 --max-pending 256
    python -m repro.serve --store-dir ./instances  # durable registry
    python -m repro.serve --trace-sample 1/10 --log-level warning

``--workers N`` is the process mode: CPU-bound plan execution runs on a
long-lived pool of N engine worker processes (GIL-free parallelism, warm
per-worker caches, crash respawn), and ``/answer_many`` batches fan out
across it.  Without it the server executes on the ``--threads``-sized
thread pool and runs batches serially.  Every setting is a flag: the
server reads no environment variables.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.serve.app import SERVER_NAME, ServeConfig, run_server


def sample_rate(text: str) -> int:
    """Parse ``--trace-sample``: ``N`` and ``1/N`` both mean 1 in N (N >= 1)."""
    numerator, slash, denominator = text.strip().rpartition("/")
    try:
        rate = int(denominator)
    except ValueError:
        rate = 0
    if (slash and numerator.strip() != "1") or rate < 1:
        raise argparse.ArgumentTypeError(
            f"expected N or 1/N with an integer N >= 1, got {text!r}"
        )
    return rate


def build_parser() -> argparse.ArgumentParser:
    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve range consistent answers over HTTP/JSON.",
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port", type=int, default=defaults.port, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--backend",
        default=defaults.backend,
        help="engine backend for rewriting-based execution (operational, sqlite, ...)",
    )
    parser.add_argument(
        "--fallback",
        default=defaults.fallback,
        help="backend for non-rewritable directions",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="engine worker *processes* (long-lived pool; 0 = thread-pool "
        "execution, the default)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="engine worker threads (default: cpu-derived); with --workers "
        "the threads only wait on the process pool",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=defaults.max_pending,
        help="admission-queue slots beyond the in-flight workers (503 when full)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=defaults.request_timeout_s,
        metavar="SECONDS",
        help="per-request execution budget (504 when exceeded)",
    )
    parser.add_argument(
        "--plan-cache-size", type=int, default=defaults.plan_cache_size
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="durable instance store: persist registered instances and "
        "mutations under DIR and reload them at boot",
    )
    parser.add_argument(
        "--store-compact-every",
        type=int,
        default=defaults.store_compact_every,
        metavar="N",
        help="fold an instance's fact log into a fresh snapshot every N "
        "records (0 disables auto-compaction)",
    )
    parser.add_argument(
        "--no-builtins",
        action="store_true",
        help="do not pre-register the paper's example instances",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable the per-request span tree (trace ids still echo)",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=defaults.trace_buffer,
        metavar="N",
        help="how many finished traces GET /traces/{id} can look up",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log the full span tree of any request at least this slow "
        "(0 logs every request; default: disabled)",
    )
    parser.add_argument(
        "--trace-sample",
        type=sample_rate,
        default=None,
        metavar="N|1/N",
        help="head-sample 1 in N traces, a fixed rate (slow and 5xx traces "
        "are always kept); default: trace every request",
    )
    parser.add_argument(
        "--summary-cache-size",
        type=int,
        default=defaults.summary_cache_size,
        metavar="N",
        help="shard summary-cache capacity in entries (0 disables caching)",
    )
    parser.add_argument(
        "--max-queue-cost-ms",
        type=float,
        default=None,
        metavar="MS",
        help="cost-predictive admission: shed with 503 when the predicted "
        "CPU cost of queued work would exceed MS (default: depth-only "
        "admission)",
    )
    parser.add_argument(
        "--otlp-export",
        default=None,
        metavar="PATH|URL",
        help="export retained traces as OTLP/JSON: NDJSON append to PATH, "
        "or POST batches to an http(s) URL",
    )
    parser.add_argument(
        "--otlp-gzip",
        action="store_true",
        help="gzip-compress OTLP HTTP batches (Content-Encoding: gzip); "
        "ignored for file targets",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="structured-log threshold (default: info)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        fallback=args.fallback,
        plan_cache_size=args.plan_cache_size,
        workers=args.threads,
        max_pending=args.max_pending,
        request_timeout_s=args.request_timeout,
        register_builtins=not args.no_builtins,
        worker_processes=max(0, args.workers),
        store_dir=args.store_dir,
        store_compact_every=max(0, args.store_compact_every),
        tracing=not args.no_tracing,
        trace_buffer=max(1, args.trace_buffer),
        slow_query_ms=args.slow_query_ms,
        trace_sample=args.trace_sample,
        summary_cache_size=max(0, args.summary_cache_size),
        max_queue_cost_ms=(
            args.max_queue_cost_ms
            if args.max_queue_cost_ms is not None and args.max_queue_cost_ms > 0
            else None
        ),
        otlp_export=args.otlp_export,
        otlp_gzip=args.otlp_gzip,
        log_level=args.log_level,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(run_server(config_from_args(args)))
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        # Most commonly the port is already bound: fail with a structured
        # one-line error instead of a traceback (and run_server has already
        # torn the worker pool down).
        print(
            f"{SERVER_NAME}: error: cannot listen on "
            f"{args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
