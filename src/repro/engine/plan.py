"""Query plans: normalization, schema fingerprinting and strategy selection.

A :class:`QueryPlan` is the immutable artefact the engine compiles once per
(schema, query) pair and reuses across every execution.  Compilation runs the
attack-graph classification of the separation theorem exactly once and bakes
the outcome into a per-direction *strategy*:

* ``minmax`` — the MIN/MAX rewritings of Theorems 7.10 and 7.11;
* ``operational`` — the Theorem 6.1 operational evaluation (monotone +
  associative aggregates, acyclic attack graph);
* ``branch_and_bound`` — the exact exponential fallback for queries on the
  negative side of the separation theorem (cyclic graph, or aggregates such
  as AVG with a descending chain).

Plans are keyed by a :class:`PlanKey` pairing a schema fingerprint with the
*normalized* query, so alpha-equivalent queries (same body up to renaming of
quantified variables) share one cache entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.attacks.classification import SeparationVerdict, classify_aggregation_query
from repro.datamodel.signature import Schema
from repro.query.aggregation import AggregationQuery
from repro.query.terms import Variable, is_variable

# Strategy identifiers recorded in a plan (one per direction).
STRATEGY_OPERATIONAL = "operational"
STRATEGY_MINMAX = "minmax"
STRATEGY_BRANCH_AND_BOUND = "branch_and_bound"

REWRITING_STRATEGIES = (STRATEGY_OPERATIONAL, STRATEGY_MINMAX)

DIRECTIONS = ("glb", "lub")


def schema_fingerprint(schema: Schema) -> str:
    """A short stable digest of every relation signature in the schema.

    Two schemas with the same relations, arities, key sizes, numeric
    positions and attribute names fingerprint identically, so plans survive
    schema object identity (e.g. a schema rebuilt per request).
    """
    digest = hashlib.sha256()
    for signature in sorted(schema, key=lambda s: s.name):
        digest.update(
            "|".join(
                (
                    signature.name,
                    str(signature.arity),
                    str(signature.key_size),
                    ",".join(map(str, signature.numeric_positions)),
                    ",".join(signature.attribute_names),
                )
            ).encode("utf-8")
        )
        digest.update(b";")
    return digest.hexdigest()[:16]


def normalize_query(query: AggregationQuery) -> AggregationQuery:
    """Canonically rename the quantified variables of ``query``.

    Bound variables are renamed ``_b1, _b2, ...`` in order of first occurrence
    across the atoms, so alpha-equivalent queries normalize to the same
    object (and hence the same plan-cache entry).  Free (GROUP BY) variables
    keep their names: bindings are keyed by name and must survive
    normalization.
    """
    free_names = {v.name for v in query.body.free_variables}
    mapping: Dict[Variable, Variable] = {}
    counter = 0
    for atom in query.body.atoms:
        for term in atom.terms:
            if not is_variable(term) or term in mapping or term.name in free_names:
                continue
            counter += 1
            mapping[term] = Variable(f"_b{counter}", numeric=term.numeric)
    if not mapping:
        return query
    new_body = query.body.substitute(mapping)
    term = query.aggregated_term
    if is_variable(term) and term in mapping:
        term = mapping[term]
    return AggregationQuery(query.aggregate, term, new_body)


class PlanKey(NamedTuple):
    """Cache key: schema fingerprint + normalized query (hashable, exact)."""

    schema: str
    query: AggregationQuery


def plan_key(schema: Schema, query: AggregationQuery) -> PlanKey:
    return PlanKey(schema_fingerprint(schema), normalize_query(query))


def select_strategy(verdict: SeparationVerdict, aggregate: str) -> str:
    """Map a separation-theorem verdict to an execution strategy."""
    if not verdict.rewritable:
        return STRATEGY_BRANCH_AND_BOUND
    if aggregate in ("MIN", "MAX"):
        return STRATEGY_MINMAX
    return STRATEGY_OPERATIONAL


@dataclass(frozen=True)
class QueryPlan:
    """The immutable result of compiling one query against one schema.

    ``executors`` maps each direction (``"glb"`` / ``"lub"``) to a prepared
    executor (see :mod:`repro.engine.backends`) whose expensive state —
    attack graph, topological sort, generated SQL — was built at compile
    time; executing the plan never re-runs classification.
    ``shard_fallback`` says why the sharded executor cannot merge the
    query (``None`` when it can); ``cached``, whether the lookup that
    returned this plan hit the plan cache.
    """

    key: PlanKey
    query: AggregationQuery
    glb_verdict: SeparationVerdict = field(compare=False)
    lub_verdict: SeparationVerdict = field(compare=False)
    glb_strategy: str = field(compare=False)
    lub_strategy: str = field(compare=False)
    executors: Mapping[str, object] = field(compare=False, repr=False)
    compile_seconds: float = field(compare=False, default=0.0)
    shard_fallback: Optional[str] = field(compare=False, default=None)
    cached: bool = field(compare=False, default=False)

    @property
    def is_closed(self) -> bool:
        return self.query.is_closed()

    def grouped(self, binding: Optional[Mapping[str, object]]) -> bool:
        """Whether executing with ``binding`` answers GROUP BY: a ``None``
        binding on a plan with free variables.  Else it answers closed."""
        return binding is None and bool(self.query.free_variables)

    @property
    def aggregate(self) -> str:
        return self.query.aggregate

    @property
    def certainty_class(self) -> str:
        """Complexity of CERTAINTY(q) for the underlying Boolean body."""
        return self.glb_verdict.certainty_class

    def strategy(self, direction: str) -> str:
        if direction == "glb":
            return self.glb_strategy
        if direction == "lub":
            return self.lub_strategy
        raise ValueError("direction must be 'glb' or 'lub'")

    def verdict(self, direction: str) -> SeparationVerdict:
        return self.glb_verdict if direction == "glb" else self.lub_verdict

    def uses_rewriting(self, direction: str) -> bool:
        """Whether the plan evaluates this direction via the paper's rewriting."""
        return self.strategy(direction) in REWRITING_STRATEGIES

    def explain(self) -> str:
        """A human-readable description of the compiled plan."""
        lines = [
            f"plan for: {self.query}",
            f"  schema fingerprint: {self.key.schema}",
            f"  CERTAINTY(q): {self.certainty_class}",
        ]
        for direction in DIRECTIONS:
            executor = self.executors[direction]
            backend = getattr(executor, "backend_name", "?")
            lines.append(
                f"  {direction}: strategy={self.strategy(direction)} "
                f"backend={backend}"
            )
            lines.append(f"      {self.verdict(direction).reason}")
        return "\n".join(lines)


def classify_both_directions(
    query: AggregationQuery,
) -> Tuple[SeparationVerdict, SeparationVerdict]:
    """Run the separation-theorem classification for glb and lub."""
    return (
        classify_aggregation_query(query, "glb"),
        classify_aggregation_query(query, "lub"),
    )
