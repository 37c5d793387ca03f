"""One timed phase of a workload and the metrics computed from it.

A workload's ``run_phase`` fills a :class:`Phase`: set-up times, per-class
latencies and end times of the timed ops, failures, the once-a-second host
and program CPU samples, peak RSS, cache counters and — for a traced
phase — the program's spans.  :func:`end_to_end` and
:func:`per_layer` turn it into the named metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import pbutil
from pbspans import LAYER_OF
from pbutil import END, NAME, RID, START, THREAD, ratio

#: Layers reported as self time per completed op.
PER_OP_LAYERS = (
    "serve.decode",
    "serve.encode",
    "query.parse",
    "obs.trace",
    "obs.cost",
    "obs.metrics",
    "engine.plan.compile",
    "core.rewriting",
    "baselines.bnb",
    "engine.sharding.plan",
    "engine.sharding.summarize",
    "engine.sharding.merge",
    "engine.batch.fork",
    "engine.workers.ipc",
)
#: Layers of the write path, reported per acknowledged write.
PER_WRITE_LAYERS = (
    "serve.registry.mutate",
    "datamodel.copy",
    "store.append",
    "store.compact",
)


class Phase:
    """Raw observations of one timed phase."""

    def __init__(self, read_classes: Sequence[str]) -> None:
        self.read_classes = tuple(read_classes)
        self.setup_s: List[float] = []
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.rids: Dict[object, str] = {}  # completed timed op -> class
        #: Completed ops as (class, latency ms, end on the perf_counter clock).
        self.ops: List[Tuple[str, float, float]] = []
        self.host: List[tuple] = []  # HostSampler samples of the timed phase
        self.attempted = 0
        self.failed = 0
        self.rejected = 0  # 503 / 504 answers
        self.messages: List[str] = []
        self.peak_rss_mb = 0.0
        self.counters: Dict[str, Dict[str, float]] = {}
        self.spans: Optional[dict] = None
        self.per_op_counters: Optional[List[dict]] = None

    def record(
        self, kind: str, latency_ms: float, ok: bool, *, done_at: float, rid=None
    ) -> None:
        """One attempted op that ended at ``done_at`` (``perf_counter``);
        only verified ops count as completed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        self.latencies[kind].append(latency_ms)
        self.ops.append((kind, latency_ms, done_at))
        if rid is not None:
            self.rids[rid] = kind

    def fail(self, message: str) -> None:
        self.messages.append(message)

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def correct(self) -> bool:
        return not self.messages and self.failed == 0

    def reads(self) -> List[float]:
        return [x for kind in self.read_classes for x in self.latencies.get(kind, ())]

    def quiet(self) -> Tuple[List[Tuple[str, float, float]], float, float]:
        """The completed ops that ended in the timed phase's quiet windows
        (see :func:`pbutil.quiet_windows`), those windows' summed length and
        the program's CPU seconds in them."""
        windows = pbutil.quiet_windows(self.host)
        ops = [op for op in self.ops if pbutil.inside(op[2], windows)]
        seconds = sum(last[0] - first[0] for first, last in windows)
        cpu_s = sum(last[3] - first[3] for first, last in windows)
        return ops, seconds, cpu_s

    def quiet_reads(self) -> List[float]:
        ops, _seconds, _cpu_s = self.quiet()
        return [latency for kind, latency, _end in ops if kind in self.read_classes]


def end_to_end(phase: Phase) -> Dict[str, float]:
    """Every metric but set-up and memory over the quiet windows."""
    quiet_ops, quiet_s, cpu_s = phase.quiet()
    reads = phase.quiet_reads()
    return {
        "setup_s": statistics.median(phase.setup_s),
        "read_p50_ms": pbutil.percentile(reads, 50.0),
        "read_p95_ms": pbutil.percentile(reads, 95.0),
        "throughput_ops_s": ratio(len(quiet_ops), quiet_s),
        "cpu_ms_per_op": ratio(cpu_s * 1000.0, len(quiet_ops)),
        "peak_rss_mb": phase.peak_rss_mb,
        "success_ratio": ratio(phase.attempted - phase.failed, phase.attempted),
    }


def _delta(phase: Phase, key: str) -> float:
    return phase.counters["after"][key] - phase.counters["before"][key]


def dispatch_waits(spans: Sequence[Sequence], main_thread: int) -> Dict[object, float]:
    """Per request: seconds from ``AdmissionGate.admit`` to its first span
    on an executor thread (the engine or registry call starting there)."""
    admitted: Dict[object, float] = {}
    started: Dict[object, float] = {}
    for span in spans:
        rid = span[RID]
        if span[NAME] == "admit":
            admitted.setdefault(rid, span[START])
        elif span[THREAD] != main_thread:
            if rid not in started or span[START] < started[rid]:
                started[rid] = span[START]
    return {
        rid: started[rid] - at for rid, at in admitted.items() if rid in started
    }


def _timed(phase: Phase):
    """Layer totals and dispatch waits over the completed timed ops' spans,
    plus the spans of set-up (no request id) and the summed latency."""
    spans = [tuple(s) for s in phase.spans["spans"]]
    timed = [s for s in spans if s[RID] in phase.rids]
    seconds, calls, values = pbutil.layer_totals(timed, LAYER_OF)
    waits = dispatch_waits(timed, phase.spans["main_thread"])
    setup = [s for s in spans if s[RID] is None]
    total = sum(sum(v) for v in phase.latencies.values()) / 1000.0
    return seconds, calls, values, sum(waits.values()), setup, total


def per_layer(phase: Phase) -> Dict[str, float]:
    """Per-layer metrics of a traced phase (0 for an idle layer)."""
    seconds, calls, values, wait, setup, total = _timed(phase)
    ops = phase.completed
    writes = len(phase.latencies.get("write", ()))
    write_rids = {rid for rid, kind in phase.rids.items() if kind == "write"}
    metrics: Dict[str, float] = {}
    for layer in PER_OP_LAYERS:
        metrics[f"{layer}_ms"] = ratio(seconds.get(layer, 0.0) * 1000.0, ops)
    for layer in PER_WRITE_LAYERS:
        metrics[f"{layer}_ms"] = ratio(seconds.get(layer, 0.0) * 1000.0, writes)
    metrics["serve.dispatch_wait_ms"] = ratio(wait * 1000.0, ops)
    metrics["serve.rejected_ratio"] = ratio(phase.rejected, phase.attempted)
    metrics["core.facts_scanned"] = ratio(values.get("core.rewriting", 0), ops)
    metrics["engine.batch.forks"] = ratio(calls.get("engine.batch.fork", 0), ops)
    fsyncs = sum(1 for _t, rid in phase.spans["fsyncs"] if rid in write_rids)
    metrics["store.fsyncs"] = ratio(fsyncs, writes)
    metrics["store.bytes_per_write"] = ratio(
        values.get("store.append", 0) + values.get("store.compact", 0), writes
    )

    hits, misses = _delta(phase, "plan_hits"), _delta(phase, "plan_misses")
    metrics["engine.plan.hit_ratio"] = ratio(hits, hits + misses)
    summary_hits = _delta(phase, "summary_hits")
    planned = _delta(phase, "shards_planned")
    metrics["engine.sharding.summary_hit_ratio"] = ratio(summary_hits, planned)
    metrics["engine.sharding.shards_recomputed"] = ratio(planned - summary_hits, ops)

    setup_seconds, _calls, _values = pbutil.layer_totals(setup, LAYER_OF)
    metrics["datamodel.ingest_ms"] = setup_seconds.get("datamodel.ingest", 0.0) * 1000.0
    # Boot reload is the whole call: replay plus the compaction it triggers.
    metrics["store.replay_ms"] = 1000.0 * sum(
        s[END] - s[START] for s in setup if LAYER_OF.get(s[NAME]) == "store.replay"
    )
    attributed = sum(seconds.values()) + wait
    metrics["unattributed_ms"] = ratio((total - attributed) * 1000.0, ops)
    return metrics


def layer_shares(phase: Phase) -> List[str]:
    """Lines of the 'where the time goes' table: each layer's share of the
    summed end-to-end time of the completed timed ops."""
    seconds, calls, _values, wait, _setup, total = _timed(phase)
    rows = sorted(seconds.items(), key=lambda item: -item[1])
    rows.append(("serve.dispatch_wait", wait))
    rows.append(("unattributed", total - sum(seconds.values()) - wait))
    return [
        f"share {layer}: {100.0 * ratio(sec, total):.1f}% "
        f"({ratio(sec * 1000.0, phase.completed):.3f} ms/op, {calls.get(layer, 0)} calls)"
        for layer, sec in rows
    ]


def class_lines(phase: Phase) -> List[str]:
    """Per op class: count, mean latency, forks and shard summaries per op."""
    spans = [tuple(s) for s in phase.spans["spans"]] if phase.spans else []
    by_rid: Dict[object, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span[RID] in phase.rids:
            by_rid[span[RID]][span[NAME]] += 1
    lines = []
    for kind, samples in sorted(phase.latencies.items()):
        rids = [rid for rid, k in phase.rids.items() if k == kind]
        n = max(1, len(rids))
        forks = sum(by_rid[r]["fork_pool"] for r in rids) / n
        summarize = sum(
            by_rid[r]["summarize_shard"] + by_rid[r]["summarize_shard_groups"]
            for r in rids
        ) / n
        line = (
            f"class {kind}: n={len(samples)} mean={sum(samples) / len(samples):.3f}ms "
            f"forks/op={forks:.2f} shard_summaries/op={summarize:.2f}"
        )
        if phase.per_op_counters:
            hits = planned = 0
            previous = phase.counters["before"]
            for rid, current in enumerate(phase.per_op_counters):
                if phase.rids.get(rid) == kind:
                    hits += current["summary_hits"] - previous["summary_hits"]
                    planned += current["shards_planned"] - previous["shards_planned"]
                previous = current
            line += f" summary_hits/planned={hits}/{planned}"
        lines.append(line)
    return lines
