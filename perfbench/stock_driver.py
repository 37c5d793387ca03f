"""The stock-tenants program: a library user of ``ConsistentAnswerEngine``.

Usage::

    python perfbench/stock_driver.py INPUT.json OUTPUT.json [SPANS.json]

Reads generated Stock tenants (rows) and an op sequence from INPUT.json,
ingests every tenant with ``DatabaseInstance.from_rows``, warms the plan
cache with one op per plan, prints ``ready`` and waits on stdin.  ``stop``
exits; ``go`` runs the closed loop on one thread for the input's
``seconds``, writes latencies, op end times (``perf_counter``), answers
and counters to OUTPUT.json and prints ``done``.  With SPANS.json the
:mod:`pbspans` wrappers are installed first and the spans are written
there at the end.

Engine and options are library defaults: ``ConsistentAnswerEngine()`` and
``AnswerOptions(shards=8)`` for the sharded class.
"""

from __future__ import annotations

import json
import sys
import time

from pbspans import TARGETS, SpanRecorder, install

_STATE = {"rid": None}


def _encode_answer(answer):
    """Closed answers as ``[glb, lub]``; GROUP BY as sorted ``[key, glb, lub]``.

    Bounds are ``str(Fraction)``, ⊥ is ``None``.
    """
    from repro.core.evaluator import BOTTOM
    from repro.core.range_answers import RangeAnswer

    def bound(value):
        return None if value is BOTTOM else str(value)

    if isinstance(answer, RangeAnswer):
        return [bound(answer.glb), bound(answer.lub)]
    return sorted(
        [[list(map(str, key)), bound(a.glb), bound(a.lub)] for key, a in answer.items()]
    )


def _peak_rss_mb() -> float:
    with open("/proc/self/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


def main() -> int:
    input_path, output_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    recorder = None
    if spans_path:
        recorder = SpanRecorder(rid_source=lambda: _STATE["rid"])
        # The serving layer is absent here; importing it would only add
        # start-up work the untraced driver does not do.
        install(recorder, [t for t in TARGETS if not t[1].startswith("repro.serve")])

    from repro.datamodel.instance import DatabaseInstance
    from repro.engine import AnswerOptions, ConsistentAnswerEngine
    from repro.engine.sharding import summary_cache_stats
    from repro.query import parser
    from repro.workloads.generators import InconsistentDatabaseGenerator, WorkloadSpec

    with open(input_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    schema = InconsistentDatabaseGenerator(WorkloadSpec()).schema
    tenants = [DatabaseInstance.from_rows(schema, rows) for rows in spec["tenants"]]
    texts = spec["queries"]
    engine = ConsistentAnswerEngine()
    sharded = AnswerOptions(shards=8)

    def run(op):
        kind, tenant, text_key = op
        query = parser.parse_aggregation_query(schema, texts[text_key])
        instance = tenants[tenant]
        if kind == "gb":
            return engine.answer_group_by(query, instance)
        if kind == "gb_sharded":
            return engine.answer_group_by(query, instance, sharded)
        return engine.answer(query, instance)

    _STATE["rid"] = "warmup"
    for op in spec["warmup"]:
        run(op)
    _STATE["rid"] = None
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    def counters():
        plan = engine.cache_stats()
        summary = summary_cache_stats()
        return {
            "plan_hits": plan.hits,
            "plan_misses": plan.misses,
            "summary_hits": summary["hits"],
            "shards_planned": engine.shard_stats()["shards_planned"],
        }

    ops = spec["ops"]
    latencies, done_at, kinds, answers, per_op = [], [], [], [], []
    before = counters()
    clock = time.perf_counter
    deadline = clock() + spec["seconds"]
    index = 0
    while clock() < deadline:
        op = ops[index % len(ops)]
        _STATE["rid"] = index
        t0 = clock()
        answer = run(op)
        end = clock()
        latencies.append((end - t0) * 1000.0)
        done_at.append(end)
        _STATE["rid"] = None
        answers.append(_encode_answer(answer))
        kinds.append(op[0])
        if recorder is not None:
            per_op.append(counters())
        index += 1
    after = counters()
    result = {
        "latencies_ms": latencies,
        "done_at": done_at,
        "kinds": kinds,
        "answers": answers,
        "peak_rss_mb": _peak_rss_mb(),
        "counters_before": before,
        "counters_after": after,
        "per_op_counters": per_op,
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if recorder is not None:
        recorder.dump(spans_path)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
