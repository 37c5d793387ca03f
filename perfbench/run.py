"""The repository benchmark: one seeded workload, end to end or per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-serve --seed 1 --seconds 20 --trace 0

Workloads: ``paper-serve``, ``stock-tenants``, ``write-refresh`` (see
``BENCHMARK.json`` for why each exists).  Every run starts the program in
fresh processes, drives it in a closed loop for ``--seconds`` after set-up
and warm-up, checks every answer, and prints as its last stdout line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the ``end_to_end`` metrics.  Set-up is repeated three
  times and ``setup_s`` is the median.  ``read_p50_ms``, ``read_p95_ms``,
  ``throughput_ops_s`` and ``cpu_ms_per_op`` count the timed phase's quiet
  windows only: the 1 s windows in which the hypervisor stole no more of
  the host's CPU than in the median window (``pbutil.quiet_windows``).
* ``--trace 1``: the ``per_layer`` metrics.  The run makes one untraced
  phase and one traced phase of ``--seconds`` each with the same seed; in
  the traced one, wrappers around each layer's public calls record spans
  (see ``pbspans.py``).  The tracing overhead compares the two phases.

Earlier stdout lines carry the provenance block, latency lines with their
sample counts, per-class counts and the layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3


class Context:
    """What a workload's phase needs: seed, length, paths and processes."""

    def __init__(self, seed: int, seconds: float, workdir: str, procs) -> None:
        import pbutil

        self.root = ROOT
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.procs = procs
        self.env = pbutil.program_env(ROOT, seed, workdir)


def _workloads():
    import wl_http
    import wl_stock

    return {
        "paper-serve": wl_http.run_paper_serve,
        "stock-tenants": wl_stock.run_phase,
        "write-refresh": wl_http.run_write_refresh,
    }


def _report(phase, lines) -> None:
    import pbutil

    for kind in sorted(phase.latencies):
        lines.append(pbutil.latency_line(f"latency {kind}", phase.latencies[kind]))
    lines.append(pbutil.latency_line("latency read (all read classes)", phase.reads()))
    lines.append(
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in phase.setup_s)}"
    )
    windows = pbutil.quiet_windows(phase.host)
    worst = max(pbutil.steal_share(first, last) for first, last in windows)
    lines.append(
        "host CPU stolen by the hypervisor while timed: "
        f"{100.0 * pbutil.steal_share(phase.host[0], phase.host[-1]):.2f}% over "
        f"{len(phase.host) - 1} windows; at most {100.0 * worst:.2f}% in each of "
        f"the {len(windows)} quiet ones"
    )
    lines.append(pbutil.latency_line("latency read (quiet windows)", phase.quiet_reads()))
    for message in phase.messages[:20]:
        lines.append(f"FAILURE: {message}")


def run(args) -> int:
    import pbutil
    from phase import end_to_end, layer_shares, per_layer, class_lines

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    run_phase = _workloads()[args.workload]
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    lines = []
    try:
        with pbutil.ProcessGroup() as procs:
            ctx = Context(args.seed, args.seconds, workdir, procs)
            lines.append(
                "provenance " + json.dumps(pbutil.provenance(ROOT, args.seed, ctx.env))
            )
            if not args.trace:
                phase = run_phase(ctx, traced=False, setups=SETUPS)
                _report(phase, lines)
                phases = [phase]
                values = end_to_end(phase)
                specs = spec["end_to_end"]
            else:
                plain = run_phase(ctx, traced=False, setups=1)
                traced = run_phase(ctx, traced=True, setups=1)
                _report(traced, lines)
                lines.extend(class_lines(traced))
                lines.extend(layer_shares(traced))
                phases = [plain, traced]
                values = per_layer(traced)
                base, with_spans = end_to_end(plain), end_to_end(traced)
                for key, name in (
                    ("cpu_ms_per_op", "trace.cpu_overhead_ratio"),
                    ("read_p50_ms", "trace.read_p50_overhead_ratio"),
                ):
                    values[name] = pbutil.ratio(with_spans[key], base[key])
                    lines.append(
                        f"tracing overhead {key}: untraced {base[key]:.4f} "
                        f"traced {with_spans[key]:.4f} ratio {values[name]:.4f}"
                    )
                for kind, name, q in (
                    ("write", "write_p50_ms", 50.0),
                    ("write", "write_p95_ms", 95.0),
                    ("fresh", "fresh_read_p50_ms", 50.0),
                ):
                    samples = plain.latencies.get(kind)
                    values[name] = pbutil.percentile(samples, q) if samples else 0.0
                specs = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(
        pbutil.result_line(
            correct=all(p.correct for p in phases),
            attempted=sum(p.attempted for p in phases),
            failed=sum(p.failed for p in phases),
            values=values,
            specs=specs,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper-serve", "stock-tenants", "write-refresh")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    # The harness imports repro too (oracles, generators, the store); it
    # must leave no bytecode behind that a program process could reuse.
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # A terminated run still stops the programs it started (they run in
    # sessions of their own, so the signal does not reach them).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
