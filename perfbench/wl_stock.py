"""stock-tenants: many generated Stock tenants answered in-process.

Engine evaluation does nearly all the work here: the rewriting evaluators
of ``repro.core``, branch-and-bound in ``repro.baselines`` (lub of g0 and
of the GROUP BY), and sharding plus the fork pool for the sharded class.
There are more tenants than the 512-entry summary cache holds at 8 shards
each, and a Zipf pick makes a hot head recur while the cold tail does not.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List

import pbutil
from phase import Phase

TENANTS = 96
#: Target fact counts; tenant i gets ``SIZES[i % len(SIZES)]``, so the Zipf
#: head (low ranks) has the same size mix under every seed.
SIZES = (100, 115, 130, 145, 160)
DEALERS = 5  # g0's dealer constant is one of dealer0..dealer4: 5 plans
CLASSES = ("g0", "max", "gb", "gb_sharded")
#: One loop over the classes.  The GROUP BY classes run twice, so the
#: median op falls inside their latency mass rather than in the gap between
#: the cheap closed classes and the GROUP BYs, where it would jump with the
#: tails of both.
CYCLE = ("g0", "max", "gb", "gb_sharded", "gb", "gb_sharded")
ZIPF_S = 0.8
OPS = 20000

QUERIES = {
    **{f"g0_d{d}": f"SUM(y) <- Dealers('dealer{d}', t), Stock(p, t, y)" for d in range(DEALERS)},
    "max": "MAX(y) <- Stock(p, t, y)",
    "gb": "(t, SUM(y)) <- Stock(p, t, y)",
}


def conditioned_instance(spec, seed: int, *labels):
    """A generated Stock instance with exactly the expected conflict count.

    The generator draws each block's conflict independently, so the number
    of conflicting Stock blocks varies by about ±15% between seeds, and
    branch-and-bound work grows exponentially with it.  The first sub-seed
    whose instance has exactly ``inconsistency × blocks`` conflicting Stock
    blocks is used: seeds differ in content but not in that count.
    """
    from repro.workloads.generators import InconsistentDatabaseGenerator, derive_seed

    generator = InconsistentDatabaseGenerator(spec)
    expected = round(spec.inconsistency * spec.stock_facts)
    attempt = 0
    while True:
        instance = generator.generate(derive_seed(seed, *labels, attempt))
        if len(instance.inconsistent_blocks("Stock")) == expected:
            return instance
        attempt += 1


def _tenant(seed: int, index: int):
    from repro.workloads.generators import WorkloadSpec

    facts = SIZES[index % len(SIZES)]
    spec = WorkloadSpec(
        dealers=max(DEALERS, facts // 10),
        products=max(5, facts // 8),
        towns=max(5, facts // 16),
        stock_facts=int(facts * 0.7),
        inconsistency=0.2,
    )
    return conditioned_instance(spec, seed, "stock-tenant", index)


def _rows(instance) -> Dict[str, List[list]]:
    rows: Dict[str, List[list]] = {}
    for fact in sorted(instance.facts, key=repr):
        rows.setdefault(fact.relation, []).append(list(fact.values))
    return rows


def _ops(seed: int) -> List[list]:
    rng = random.Random(f"stock-tenants-ops:{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(TENANTS)]
    tenants = rng.choices(range(TENANTS), weights, k=OPS)
    ops = []
    for index, tenant in enumerate(tenants):
        kind = CYCLE[index % len(CYCLE)]
        text = {"g0": f"g0_d{rng.randrange(DEALERS)}", "max": "max"}.get(kind, "gb")
        ops.append([kind, tenant, text])
    return ops


def _warmup() -> List[list]:
    cold = TENANTS - 1
    ops = [["g0", cold, f"g0_d{d}"] for d in range(DEALERS)]
    return ops + [["max", cold, "max"], ["gb", cold, "gb"], ["gb_sharded", cold, "gb"]]


def run_phase(ctx, traced: bool, setups: int) -> Phase:
    phase = Phase(read_classes=CLASSES)
    instances = [_tenant(ctx.seed, i) for i in range(TENANTS)]
    ops = _ops(ctx.seed)
    input_path = os.path.join(ctx.workdir, "stock-input.json")
    with open(input_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "tenants": [_rows(inst) for inst in instances],
                "queries": QUERIES,
                "ops": ops,
                "warmup": _warmup(),
                "seconds": ctx.seconds,
            },
            handle,
        )
    output_path = os.path.join(ctx.workdir, "stock-output.json")
    spans_path = os.path.join(ctx.workdir, "stock-spans.json")
    driver = os.path.join(ctx.root, "perfbench", "stock_driver.py")
    argv = [sys.executable, driver, input_path, output_path]
    if traced:
        argv.append(spans_path)
    for attempt in range(setups):
        program = ctx.procs.spawn(argv, ctx.env, ctx.root, stdin=subprocess.PIPE)
        line = program.readline(120.0)
        if line != "ready":
            raise RuntimeError(f"driver said {line!r} instead of ready")
        phase.setup_s.append(time.perf_counter() - program.started)
        if attempt < setups - 1:
            program.send("stop")
            program.proc.wait(60)
            program.stop()
    with pbutil.HostSampler(program.pid) as host:
        program.send("go")
        line = program.readline(ctx.seconds + 120.0)
    if line != "done":
        raise RuntimeError(f"driver said {line!r} instead of done")
    phase.host = host.samples
    program.proc.wait(60)
    program.stop()
    with open(output_path, "r", encoding="utf-8") as handle:
        out = json.load(handle)

    phase.peak_rss_mb = out["peak_rss_mb"]
    phase.counters = {"before": out["counters_before"], "after": out["counters_after"]}
    expected = _reference(instances, ops, len(out["answers"]), phase)
    for index, (latency, done_at, kind, answer) in enumerate(
        zip(out["latencies_ms"], out["done_at"], out["kinds"], out["answers"])
    ):
        op = ops[index]
        ok = answer == expected[(kind, op[1], op[2])]
        phase.record(kind, latency, ok, rid=index, done_at=done_at)
        if not ok:
            phase.fail(f"op {index} {op}: got {answer}")
    if traced:
        with open(spans_path, "r", encoding="utf-8") as handle:
            phase.spans = json.load(handle)
        phase.per_op_counters = out["per_op_counters"]
    return phase


def _reference(instances, ops, count, phase) -> Dict[tuple, list]:
    """Answers of a fresh engine with cleared caches, after the timed phase.

    Every GROUP BY reference is the unsharded answer, and every tenant the
    run used must give the same answer sharded (serially, on this fresh
    engine) as unsharded.
    """
    from repro.engine import AnswerOptions, ConsistentAnswerEngine
    from repro.engine.sharding import clear_shard_plan_cache, clear_summary_cache
    from repro.query.parser import parse_aggregation_query
    from stock_driver import _encode_answer

    clear_summary_cache()
    clear_shard_plan_cache()
    engine = ConsistentAnswerEngine()
    schema = instances[0].schema
    queries = {key: parse_aggregation_query(schema, text) for key, text in QUERIES.items()}
    expected: Dict[tuple, list] = {}
    grouped: Dict[int, list] = {}
    for kind, tenant, text in ops[:count]:
        if kind in ("gb", "gb_sharded"):
            if tenant not in grouped:
                grouped[tenant] = _encode_answer(
                    engine.answer_group_by(queries["gb"], instances[tenant])
                )
            expected[(kind, tenant, text)] = grouped[tenant]
        elif (kind, tenant, text) not in expected:
            expected[(kind, tenant, text)] = _encode_answer(
                engine.answer(queries[text], instances[tenant])
            )
    serial_sharded = AnswerOptions(shards=8, max_workers=1)
    for tenant in sorted({op[1] for op in ops[:count]}):
        unsharded = grouped.get(tenant) or _encode_answer(
            engine.answer_group_by(queries["gb"], instances[tenant])
        )
        sharded = _encode_answer(
            engine.answer_group_by(queries["gb"], instances[tenant], serial_sharded)
        )
        if sharded != unsharded:
            phase.fail(f"tenant {tenant}: sharded {sharded} != unsharded {unsharded}")
    return expected
