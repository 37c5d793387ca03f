"""Experiment harness: scalability, solver agreement and decision timing.

These functions produce the rows behind the systems-style tables recorded in
EXPERIMENTS.md (E5, E8, E9) and are what the corresponding benchmarks time.
All execution paths go through :class:`~repro.engine.ConsistentAnswerEngine`,
so the plans that pass the paper's figures are the same ones that drive the
throughput numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.branch_and_bound import BranchAndBoundSolver
from repro.baselines.exhaustive import ExhaustiveRangeSolver
from repro.core.rewriter import GlbRewriter
from repro.datamodel.signature import RelationSignature
from repro.engine import AnswerOptions, ConsistentAnswerEngine
from repro.query.aggregation import AggregationQuery
from repro.query.atom import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Variable
from repro.workloads.generators import generate_stock_workload
from repro.workloads.queries import stock_sum_query


@dataclass
class ExperimentRow:
    """One row of an experiment table."""

    label: str
    parameters: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)


def format_table(rows: Sequence[ExperimentRow]) -> str:
    """Render experiment rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    param_keys: List[str] = []
    metric_keys: List[str] = []
    for row in rows:
        for key in row.parameters:
            if key not in param_keys:
                param_keys.append(key)
        for key in row.metrics:
            if key not in metric_keys:
                metric_keys.append(key)
    headers = ["experiment"] + param_keys + metric_keys
    table_rows = []
    for row in rows:
        table_rows.append(
            [row.label]
            + [str(row.parameters.get(key, "")) for key in param_keys]
            + [str(row.metrics.get(key, "")) for key in metric_keys]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table_rows)) for i in range(len(headers))
    ]
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in table_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _timed(function: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def run_scalability_experiment(
    sizes: Sequence[int] = (50, 100, 200),
    inconsistency: float = 0.2,
    include_exhaustive_up_to: int = 0,
    include_branch_and_bound_up_to: int = 100,
    seed: int = 0,
) -> List[ExperimentRow]:
    """E8: rewriting vs branch-and-bound vs exhaustive on growing databases.

    Exhaustive enumeration is only attempted up to
    ``include_exhaustive_up_to`` Stock blocks (its cost is exponential), and
    branch-and-bound up to ``include_branch_and_bound_up_to``.
    """
    query = stock_sum_query("dealer0")
    instances = generate_stock_workload(sizes, inconsistency, seed)
    operational = ConsistentAnswerEngine(backend="operational")
    sql = ConsistentAnswerEngine(backend="sqlite")
    rows: List[ExperimentRow] = []
    for size, instance in instances.items():
        metrics: Dict[str, object] = {"facts": len(instance)}
        value, seconds = _timed(lambda: operational.glb(query, instance))
        metrics["rewriting_glb"] = value
        metrics["rewriting_seconds"] = round(seconds, 4)
        value, seconds = _timed(lambda: sql.glb(query, instance))
        metrics["sql_glb"] = value
        metrics["sql_seconds"] = round(seconds, 4)
        if size <= include_branch_and_bound_up_to:
            value, seconds = _timed(lambda: BranchAndBoundSolver(query).glb(instance))
            metrics["bnb_glb"] = value
            metrics["bnb_seconds"] = round(seconds, 4)
        if include_exhaustive_up_to and size <= include_exhaustive_up_to:
            value, seconds = _timed(lambda: ExhaustiveRangeSolver(query).glb(instance))
            metrics["exhaustive_glb"] = value
            metrics["exhaustive_seconds"] = round(seconds, 4)
        rows.append(
            ExperimentRow(
                "scalability",
                parameters={"stock_blocks": size, "inconsistency": inconsistency},
                metrics=metrics,
            )
        )
    return rows


def run_solver_agreement_experiment(
    sizes: Sequence[int] = (10, 20, 30),
    inconsistency: float = 0.3,
    seed: int = 1,
) -> List[ExperimentRow]:
    """E9: the three execution paths agree on every generated instance."""
    query = stock_sum_query("dealer0")
    instances = generate_stock_workload(sizes, inconsistency, seed)
    operational_engine = ConsistentAnswerEngine(backend="operational")
    sql_engine = ConsistentAnswerEngine(backend="sqlite")
    rows: List[ExperimentRow] = []
    for size, instance in instances.items():
        operational = operational_engine.glb(query, instance)
        sql_value = sql_engine.glb(query, instance)
        bnb = BranchAndBoundSolver(query).glb(instance)
        rows.append(
            ExperimentRow(
                "agreement",
                parameters={"stock_blocks": size},
                metrics={
                    "operational": operational,
                    "sql": sql_value,
                    "branch_and_bound": bnb,
                    "all_agree": operational == sql_value == bnb,
                },
            )
        )
    return rows


def _chain_query(length: int) -> AggregationQuery:
    """A chain query R1(x1,x2), R2(x2,x3), ... with an acyclic attack graph."""
    signatures = [
        RelationSignature(f"R{i}", 2, 1, numeric_positions=(2,) if i == length else ())
        for i in range(1, length + 1)
    ]
    atoms = []
    for i, signature in enumerate(signatures, start=1):
        numeric = i == length
        atoms.append(
            Atom(
                signature,
                (
                    Variable(f"x{i}"),
                    Variable(f"x{i + 1}", numeric=numeric),
                ),
            )
        )
    body = ConjunctiveQuery(atoms)
    return AggregationQuery("SUM", Variable(f"x{length + 1}", numeric=True), body)


def run_engine_throughput_experiment(
    batch_size: int = 24,
    blocks: int = 100,
    inconsistency: float = 0.2,
    seed: int = 3,
    max_workers: Optional[int] = None,
) -> List[ExperimentRow]:
    """E10: plan-cache amortization and batched throughput through the engine.

    One row for cold compilation (fresh engine), one for cached evaluation
    of the same query, and one per batch mode (serial vs process fan-out)
    over ``batch_size`` instances of the stock workload.
    """
    query = stock_sum_query("dealer0")
    probe = generate_stock_workload([blocks], inconsistency, seed)[blocks]
    workload = [
        generate_stock_workload([blocks], inconsistency, seed + i)[blocks]
        for i in range(batch_size)
    ]
    rows: List[ExperimentRow] = []

    engine = ConsistentAnswerEngine()
    _, cold_seconds = _timed(lambda: engine.glb(query, probe))
    _, warm_seconds = _timed(lambda: engine.glb(query, probe))
    stats = engine.cache_stats()
    rows.append(
        ExperimentRow(
            "engine_plan_cache",
            parameters={"stock_blocks": blocks},
            metrics={
                "cold_seconds": round(cold_seconds, 6),
                "cached_seconds": round(warm_seconds, 6),
                "speedup": round(cold_seconds / warm_seconds, 2)
                if warm_seconds
                else float("inf"),
                "cache_hits": stats.hits,
                "cache_misses": stats.misses,
            },
        )
    )

    from repro.engine.batch import batch_width

    for label, workers in (("serial", 1), ("parallel", max_workers)):
        batch_engine = ConsistentAnswerEngine()
        items = [(query, instance) for instance in workload]
        results, seconds = _timed(
            lambda: batch_engine.answer_many(items, AnswerOptions(max_workers=workers))
        )
        effective = min(batch_width(batch_engine, workers), len(items))
        rows.append(
            ExperimentRow(
                "engine_batch",
                parameters={"mode": label, "batch_size": batch_size},
                metrics={
                    "workers": effective,
                    "total_seconds": round(seconds, 4),
                    "items_per_second": round(len(results) / seconds, 1)
                    if seconds
                    else float("inf"),
                    "plans_reused": sum(1 for r in results if r.plan_cached),
                },
            )
        )
    return rows


def run_decision_procedure_timing(
    atom_counts: Sequence[int] = (2, 4, 6, 8, 10),
) -> List[ExperimentRow]:
    """E5: time the Theorem 1.1 decision + construction on growing queries."""
    rows: List[ExperimentRow] = []
    for count in atom_counts:
        query = _chain_query(count)
        rewriter = GlbRewriter(query)
        decision, decision_seconds = _timed(rewriter.is_rewritable)
        _, construction_seconds = _timed(rewriter.rewrite)
        rows.append(
            ExperimentRow(
                "decision_procedure",
                parameters={"atoms": count},
                metrics={
                    "rewritable": decision,
                    "decision_seconds": round(decision_seconds, 6),
                    "construction_seconds": round(construction_seconds, 6),
                },
            )
        )
    return rows
