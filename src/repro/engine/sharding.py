"""Fact-partition sharding: split one instance, answer per shard, merge exactly.

The paper's key-equal blocks are independent repair units: a repair of the
whole database is a free combination of one-fact-per-block choices, so any
partition of the *blocks* factorises the repair space.  This module turns
that observation into the engine's horizontal-scaling seam:

* :class:`ShardPlanner` partitions a :class:`DatabaseInstance` into
  *block-closed* fact shards — a key-equal block is never split — that are
  additionally *embedding-closed* for the query at hand: no embedding of the
  query body can span two shards.  Embedding closure is computed by a
  union-find over blocks, connecting facts of join-adjacent atoms that agree
  on their shared variables (a conservative overapproximation of "co-occur
  in an embedding").  Components are assigned to shards balanced by block
  weight, or by a stable hash of the component's smallest block key.
* Each shard is summarised *per direction* by a :class:`DirectionSummary`:
  whether the shard's body is locally certain, and the directional extremum
  of the aggregate over the shard's repairs that have at least one embedding.
  Shards whose body is locally certain get both numbers straight from the
  compiled plan's executors (so every backend — operational, sqlite,
  branch_and_bound, exhaustive — takes its own code path); locally uncertain
  shards fall back to :meth:`BranchAndBoundSolver.extremum`, which ignores
  empty repairs instead of collapsing to ⊥.
* :func:`merge_direction` combines summaries with explicit, aggregate-aware
  operators.  The merge is exactly the summary of the union instance, which
  makes it associative, commutative, and neutral on the identity summary
  (the differential parity harness and the property-based merge tests pin
  this down).  ⊥ propagates through the merge: the final answer is ⊥ iff
  *no* shard is locally certain, which coincides with the unsharded
  certainty of the full instance.

Why this is exact (the invariant ``tests/test_shard_parity.py`` checks):
for a block- and embedding-closed partition ``db = S₁ ⊎ … ⊎ Sₙ``,

* repairs of ``db`` are exactly the products of shard repairs, and the
  multiset of aggregated values of a repair is the disjoint union of the
  per-shard multisets;
* ``CERTAIN(q, db)`` holds iff ``CERTAIN(q, Sᵢ)`` holds for *some* shard: a
  falsifying repair of ``db`` needs a falsifying repair in every shard
  simultaneously;
* for a combining operator that is monotone in each argument (SUM/COUNT
  combine by ``+``, MIN by ``min``, MAX by ``max``) the extremum over
  independent products is the combine of per-shard extrema, with empty
  shard repairs handled by the feasibility cases of :func:`merge_direction`.

Aggregates whose extremum is *not* a function of per-shard extrema (AVG,
PRODUCT, the DISTINCT family) are sharded through richer per-shard
*summary states* (:class:`SummaryState`) instead of scalar values:

* **AVG** carries the directional convex hull of the achievable
  ``(count, sum)`` points over the shard's non-empty repairs.  Counts and
  sums add across shards (a Minkowski sum of point sets), and the extremum
  of ``sum/count`` over a Minkowski sum is attained at a sum of hull
  vertices, so the hull is a lossless, bounded summary.
* **PRODUCT** carries the interval of achievable products.  The product is
  bilinear, so the extrema over ``{p·q}`` are attained at endpoint pairs —
  an exact interval merge even with negative or zero factors.
* **COUNT(DISTINCT)/SUM(DISTINCT)** carry the family of achievable
  distinct-value sets, merged by pairwise union and pruned to its
  domination antichain (always sound for COUNT; guarded by element
  non-negativity for SUM).

Per-shard states are built by enumerating the shard's repairs through the
exact solver's block decomposition — exponential in the *shard's* open
blocks only, which is exactly the win sharding buys for these aggregates.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.branch_and_bound import BranchAndBoundSolver
from repro.core.evaluator import BOTTOM
from repro.core.range_answers import RangeAnswer
from repro.datamodel.facts import Constant, Fact, as_fraction
from repro.datamodel.instance import BlockKey, DatabaseInstance
from repro.datamodel.signature import Schema
from repro.embeddings.embeddings import embeddings_of
from repro.engine.cancellation import check_cancelled
from repro.exceptions import BackendError
from repro.obs.caches import CACHE_REGISTRY, PlanCache, register_cache
from repro.obs.cost import add_cost
from repro.obs.trace import span as obs_span
from repro.query.aggregation import AggregationQuery
from repro.util import stable_hash_64

from repro.engine.plan import QueryPlan

Binding = Dict[str, Constant]
GroupKey = Tuple[Constant, ...]

#: Shard-assignment strategies of the planner.
STRATEGY_BALANCED = "balanced"
STRATEGY_HASHED = "hashed"

_MASK64 = (1 << 64) - 1

#: How two non-empty per-shard aggregate values combine into the value of the
#: union repair.  Every operator here is monotone in each argument — the
#: property the merge-of-extrema argument needs.
_COMBINE: Dict[str, Callable[[Fraction, Fraction], Fraction]] = {
    "SUM": lambda a, b: a + b,
    "COUNT": lambda a, b: a + b,
    "MIN": min,
    "MAX": max,
}

#: Aggregate-symbol spellings accepted by the parser that share one merge
#: algebra (mirrors :mod:`repro.aggregates.operators`).
_AGGREGATE_ALIASES = {
    "COUNT-DISTINCT": "COUNT_DISTINCT",
    "SUM-DISTINCT": "SUM_DISTINCT",
}


def _canonical_aggregate(aggregate: str) -> str:
    key = aggregate.upper()
    return _AGGREGATE_ALIASES.get(key, key)


# -- summary states: exact merges beyond scalar extrema ---------------------------------
#
# For SUM/COUNT/MIN/MAX the directional extremum of the union is a function
# of the per-shard extrema, so a scalar per shard suffices.  AVG, PRODUCT and
# the DISTINCT family break that: the union's extremal mean can pair a
# *non-extremal* mean of one shard with another's, the product of extrema is
# not the extremal product under sign changes, and distinct sets overlap.
# Each of these aggregates instead summarises a shard by a small exact state
# of its achievable per-repair statistics; merging two states yields exactly
# the state of the union instance, which keeps the merge associative,
# commutative and neutral on the identity summary — the same contract the
# scalar table satisfies, checked by the same property tests.


class SummaryState:
    """Base of the per-shard states of non-scalar aggregates.

    Subclasses are frozen dataclasses of canonical, hashable, picklable
    values (worker pools ship them over the result pipe), and equal states
    describe equal achievable-statistic sets regardless of merge order.
    """

    def merge(self, other: "SummaryState", direction: str) -> "SummaryState":
        """The state of the union repair set (both sides non-empty)."""
        raise NotImplementedError

    @classmethod
    def union(cls, states: Sequence["SummaryState"], direction: str) -> "SummaryState":
        """The state of the union of alternative achievable-statistic sets."""
        raise NotImplementedError

    def resolve(self, direction: str) -> Fraction:
        """The directional extremum this state summarises."""
        raise NotImplementedError


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _avg_hull(
    points, direction: str
) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Canonical directional hull chain of ``(count, sum)`` points.

    ``glb`` keeps the lower convex hull (sum as a function of count),
    ``lub`` the upper.  The extremum of ``sum/count`` over a point set is
    attained at a vertex extremising ``sum - λ·count`` for some λ ∈ ℝ,
    i.e. on that chain — so dropping interior and collinear points loses
    nothing, and equal achievable sets canonicalise to equal chains.
    """
    lower = direction == "glb"
    best: Dict[Fraction, Fraction] = {}
    for count, total in points:
        current = best.get(count)
        if current is None or (total < current if lower else total > current):
            best[count] = total
    ordered = sorted(best.items())
    chain: List[Tuple[Fraction, Fraction]] = []
    for point in ordered:
        while len(chain) >= 2:
            turn = _cross(chain[-2], chain[-1], point)
            if (turn <= 0) if lower else (turn >= 0):
                chain.pop()
            else:
                break
        chain.append(point)
    return tuple(chain)


@dataclass(frozen=True)
class AvgState(SummaryState):
    """Directional hull of the achievable ``(count, sum)`` pairs of one side.

    Counts and sums add across independent shards, so the achievable pairs
    of a union are the Minkowski sum of the per-shard sets — and the hull of
    a Minkowski sum is the hull of the pairwise sums of hull vertices.
    Every point stems from a repair with at least one embedding, so counts
    are ≥ 1 and ``resolve`` never divides by zero.
    """

    points: Tuple[Tuple[Fraction, Fraction], ...]

    @classmethod
    def of_points(cls, points, direction: str) -> "AvgState":
        return cls(_avg_hull(points, direction))

    def merge(self, other: "AvgState", direction: str) -> "AvgState":
        summed = [
            (c1 + c2, s1 + s2)
            for c1, s1 in self.points
            for c2, s2 in other.points
        ]
        return AvgState(_avg_hull(summed, direction))

    @classmethod
    def union(cls, states: Sequence["AvgState"], direction: str) -> "AvgState":
        pooled = [point for state in states for point in state.points]
        return cls(_avg_hull(pooled, direction))

    def resolve(self, direction: str) -> Fraction:
        ratios = [total / count for count, total in self.points]
        return min(ratios) if direction == "glb" else max(ratios)


@dataclass(frozen=True)
class ProductState(SummaryState):
    """Achievable-product interval of one side's non-empty repairs.

    The product over a union repair is the product of the sides' products —
    bilinear in them — so the extrema over ``{p·q}`` are attained at
    endpoint pairs and both endpoints stay achievable.  The state is
    direction-independent: glb resolves to ``lo``, lub to ``hi``.
    """

    lo: Fraction
    hi: Fraction

    def merge(self, other: "ProductState", direction: str) -> "ProductState":
        corners = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return ProductState(min(corners), max(corners))

    @classmethod
    def union(cls, states: Sequence["ProductState"], direction: str) -> "ProductState":
        return cls(min(s.lo for s in states), max(s.hi for s in states))

    def resolve(self, direction: str) -> Fraction:
        return self.lo if direction == "glb" else self.hi


def _canonical_family(family) -> Tuple[Tuple[Constant, ...], ...]:
    """Deterministic tuple form of a family of value sets (pickle/equality)."""
    return tuple(
        sorted((tuple(sorted(s, key=repr)) for s in family), key=repr)
    )


@dataclass(frozen=True)
class CountDistinctState(SummaryState):
    """Family of achievable distinct-value sets of one side.

    A union repair's distinct set is the union of the sides' sets, so the
    merge takes pairwise unions.  The family is then pruned to its
    domination antichain: a set whose every extra element can only push the
    measure the wrong way is dropped (for COUNT, any proper superset for
    glb / subset for lub).  Domination survives union with any other set,
    so pruned merges of pruned states equal the pruned full family — merge
    order cannot be observed.
    """

    sets: Tuple[Tuple[Constant, ...], ...]

    @classmethod
    def of_families(cls, families, direction: str):
        pruned = cls._prune({frozenset(s) for s in families}, direction)
        return cls(_canonical_family(pruned))

    @staticmethod
    def _droppable(candidate: frozenset, other: frozenset, direction: str) -> bool:
        return other < candidate if direction == "glb" else other > candidate

    @classmethod
    def _prune(cls, family, direction: str):
        return {
            candidate
            for candidate in family
            if not any(
                cls._droppable(candidate, other, direction) for other in family
            )
        }

    @staticmethod
    def _measure(values: frozenset) -> Fraction:
        return Fraction(len(values))

    def _families(self) -> List[frozenset]:
        return [frozenset(s) for s in self.sets]

    def merge(self, other: "CountDistinctState", direction: str):
        unions = {a | b for a in self._families() for b in other._families()}
        return type(self).of_families(unions, direction)

    @classmethod
    def union(cls, states, direction: str):
        pooled = [family for state in states for family in state._families()]
        return cls.of_families(pooled, direction)

    def resolve(self, direction: str) -> Fraction:
        measures = [self._measure(s) for s in self._families()]
        return min(measures) if direction == "glb" else max(measures)


@dataclass(frozen=True)
class SumDistinctState(CountDistinctState):
    """The DISTINCT-family state measured by SUM instead of COUNT.

    Superset domination is only sound when the extra elements cannot lower
    (glb) / raise (lub) the sum, so pruning is guarded element-wise by
    non-negativity — with negative values present the family is simply kept
    whole, which stays exact.
    """

    @staticmethod
    def _droppable(candidate: frozenset, other: frozenset, direction: str) -> bool:
        if direction == "glb":
            return other < candidate and all(v >= 0 for v in candidate - other)
        return candidate < other and all(v >= 0 for v in other - candidate)

    @staticmethod
    def _measure(values: frozenset) -> Fraction:
        return sum(values, Fraction(0))


#: Aggregates merged through :class:`SummaryState`s rather than scalars.
_SUMMARY_STATES: Dict[str, type] = {
    "AVG": AvgState,
    "PRODUCT": ProductState,
    "COUNT_DISTINCT": CountDistinctState,
    "SUM_DISTINCT": SumDistinctState,
}

SUMMARY_AGGREGATES: Tuple[str, ...] = tuple(sorted(_SUMMARY_STATES))

#: Aggregates the sharded executor can merge exactly.
SHARDABLE_AGGREGATES: Tuple[str, ...] = tuple(
    sorted(set(_COMBINE) | set(_SUMMARY_STATES))
)


# -- per-shard summaries and merge operators --------------------------------------------


#: What a shard carries per direction: a scalar extremum for the aggregates
#: of the :data:`_COMBINE` table, a :class:`SummaryState` for the rest.
SummaryValue = object


@dataclass(frozen=True)
class DirectionSummary:
    """What one shard contributes to one direction (glb or lub).

    ``certain`` — every repair of the shard embeds the query body at least
    once (local certainty).  ``value`` — for scalar aggregates, the
    directional extremum of the aggregate over the shard's repairs that
    have at least one embedding; for summary aggregates, the
    :class:`SummaryState` of those repairs' statistics.  ``None`` when no
    repair has any embedding: the shard is irrelevant to the query and
    behaves as the merge identity.
    """

    certain: bool
    value: Optional[SummaryValue]


#: The summary of the empty shard: never certain, no non-empty repair.
#: Merging it into anything is a no-op (identity-shard neutrality).
SHARD_IDENTITY = DirectionSummary(certain=False, value=None)


@dataclass(frozen=True)
class ShardAnswer:
    """Both direction summaries of one shard (the sharded RangeAnswer)."""

    glb: DirectionSummary
    lub: DirectionSummary


#: A whole shard that never embeds the body: identity for closed answers.
SHARD_ANSWER_IDENTITY = ShardAnswer(SHARD_IDENTITY, SHARD_IDENTITY)


def combine_values(
    aggregate: str, a: SummaryValue, b: SummaryValue, direction: Optional[str] = None
) -> SummaryValue:
    """The value of a union repair from two non-empty per-shard values.

    Scalar aggregates combine :class:`Fraction`s through the monotone
    operator table; summary aggregates combine their
    :class:`SummaryState`s (``direction`` tells direction-specific states —
    the AVG hull, the DISTINCT antichain — which way to canonicalise).
    """
    canonical = _canonical_aggregate(aggregate)
    scalar = _COMBINE.get(canonical)
    if scalar is not None:
        return scalar(a, b)
    if canonical in _SUMMARY_STATES and isinstance(a, SummaryState):
        if direction is None:
            raise ValueError(
                f"combining {canonical} summary states requires a direction"
            )
        return a.merge(b, direction)
    raise BackendError(
        f"aggregate {aggregate!r} has no shard-merge operator; shardable "
        f"aggregates: {list(SHARDABLE_AGGREGATES)}"
    )


def merge_direction(
    aggregate: str, direction: str, a: DirectionSummary, b: DirectionSummary
) -> DirectionSummary:
    """Summary of the union of two shards from their individual summaries.

    A repair of the union pairs one repair of each side, and exactly one of
    three cases applies — both sides non-empty (feasible when both sides
    have a non-empty repair), or either side empty (feasible only when that
    side is *not* locally certain).  The result's value is the directional
    extremum over the feasible cases, which makes the merge associative and
    commutative with :data:`SHARD_IDENTITY` as neutral element.
    """
    if direction not in ("glb", "lub"):
        raise ValueError("direction must be 'glb' or 'lub'")
    candidates: List[SummaryValue] = []
    if a.value is not None and b.value is not None:
        candidates.append(combine_values(aggregate, a.value, b.value, direction))
    if a.value is not None and not b.certain:
        candidates.append(a.value)
    if b.value is not None and not a.certain:
        candidates.append(b.value)
    if not candidates:
        value: Optional[SummaryValue] = None
    elif isinstance(candidates[0], SummaryState):
        # The feasible cases are alternative achievable-statistic sets; the
        # union state extremises over all of them at resolve time.
        value = type(candidates[0]).union(candidates, direction)
    else:
        value = min(candidates) if direction == "glb" else max(candidates)
    return DirectionSummary(certain=a.certain or b.certain, value=value)


def merge_shard_answers(aggregate: str, a: ShardAnswer, b: ShardAnswer) -> ShardAnswer:
    """Merge both directions of two shard answers."""
    return ShardAnswer(
        glb=merge_direction(aggregate, "glb", a.glb, b.glb),
        lub=merge_direction(aggregate, "lub", a.lub, b.lub),
    )


def merge_group_answers(
    aggregate: str,
    a: Dict[GroupKey, ShardAnswer],
    b: Dict[GroupKey, ShardAnswer],
) -> Dict[GroupKey, ShardAnswer]:
    """Merge per-group shard answers; missing groups contribute the identity.

    A shard that never embeds the body under a group's binding would
    summarise to :data:`SHARD_ANSWER_IDENTITY` for that group, so leaving
    the group out of the shard's map is equivalent to (and cheaper than)
    carrying the identity explicitly.
    """
    merged = dict(a)
    for group, answer in b.items():
        present = merged.get(group)
        merged[group] = (
            answer
            if present is None
            else merge_shard_answers(aggregate, present, answer)
        )
    return merged


def finalize_answer(merged: ShardAnswer) -> RangeAnswer:
    """Turn the fully merged summary into the engine's :class:`RangeAnswer`.

    The answer is ⊥ exactly when no shard was locally certain — which, for
    a block- and embedding-closed partition, is exactly when the full
    instance's body is not certain.  Summary states resolve to their
    directional extremum here, after the last merge.
    """
    glb = merged.glb.value if merged.glb.certain else BOTTOM
    lub = merged.lub.value if merged.lub.certain else BOTTOM
    if glb is None or lub is None:  # certain yet valueless: impossible
        return RangeAnswer(BOTTOM, BOTTOM)
    if isinstance(glb, SummaryState):
        glb = glb.resolve("glb")
    if isinstance(lub, SummaryState):
        lub = lub.resolve("lub")
    return RangeAnswer(glb, lub)


def finalize_group_answers(
    merged: Dict[GroupKey, ShardAnswer]
) -> Dict[GroupKey, RangeAnswer]:
    """Finalize every group, in the engine's deterministic group order."""
    return {
        group: finalize_answer(merged[group]) for group in sorted(merged, key=repr)
    }


# -- the shard planner ------------------------------------------------------------------


class _UnionFind:
    """Union-find over block keys with path compression."""

    def __init__(self) -> None:
        self._parent: Dict[BlockKey, BlockKey] = {}

    def add(self, key: BlockKey) -> None:
        self._parent.setdefault(key, key)

    def find(self, key: BlockKey) -> BlockKey:
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:  # path compression
            parent[key], key = root, parent[key]
        return root

    def union(self, a: BlockKey, b: BlockKey) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def keys(self) -> Sequence[BlockKey]:
        return list(self._parent)


@dataclass(frozen=True)
class ShardPlan:
    """The outcome of partitioning one instance for one query.

    ``shards`` always covers every fact of the source instance exactly once,
    one tuple of facts per shard.  When sharding does not apply
    (``fallback_reason`` is set) or only one shard was requested, ``shards``
    holds every fact in one tuple and the executor takes the ordinary
    unsharded path.  Shards stay plain fact tuples because cached plans
    outlive requests: a shard's :class:`DatabaseInstance` is built only when
    its summary is computed (:func:`summarize_planned_shard`) and dropped
    right after.
    """

    shards: Tuple[Tuple[Fact, ...], ...]
    strategy: str
    component_count: int
    weights: Tuple[int, ...]
    fallback_reason: Optional[str] = None
    #: Lineage token of the source instance plus one content token per shard
    #: (a commutative hash over the shard's ``(block key, mutation stamp)``
    #: pairs).  Together they address a shard's exact content within a copy
    #: family, which is what the summary cache keys on: after a point write
    #: only the touched shard's token changes.
    lineage: str = ""
    shard_tokens: Tuple[int, ...] = ()

    @property
    def is_sharded(self) -> bool:
        return self.fallback_reason is None and len(self.shards) > 1

    def describe(self) -> Dict[str, object]:
        """JSON-facing description (benchmarks and ``/metrics`` drill-down)."""
        return {
            "shards": len(self.shards),
            "strategy": self.strategy,
            "components": self.component_count,
            "weights": list(self.weights),
            "fallback_reason": self.fallback_reason,
        }


class ShardPlanner:
    """Partitions an instance into block- and embedding-closed fact shards.

    Parameters
    ----------
    strategy:
        ``"balanced"`` (default) assigns components to shards greedily by
        descending weight onto the currently lightest shard;  ``"hashed"``
        assigns each component by a stable hash of its smallest block key —
        cheaper, order-independent, and the natural choice for incremental
        answering: a point write leaves the other shards' contents, and so
        their summary-cache entries, intact.
    """

    def __init__(self, strategy: str = STRATEGY_BALANCED) -> None:
        if strategy not in (STRATEGY_BALANCED, STRATEGY_HASHED):
            raise ValueError(
                f"unknown shard strategy {strategy!r}; use "
                f"{STRATEGY_BALANCED!r} or {STRATEGY_HASHED!r}"
            )
        self._strategy = strategy

    # -- shardability -------------------------------------------------------------------

    @staticmethod
    def fallback_reason(query: AggregationQuery) -> Optional[str]:
        """Why ``query`` cannot be sharded, or ``None`` when it can.

        Two conditions: the aggregate must merge over disjoint unions —
        via the scalar combine table or a :class:`SummaryState` — and the
        body's join graph must be connected: a cartesian product pairs
        embeddings *across* any fact partition, so no block-closed
        partition is embedding-closed for it.
        """
        aggregate = _canonical_aggregate(query.aggregate)
        if aggregate not in _COMBINE and aggregate not in _SUMMARY_STATES:
            return (
                f"aggregate {aggregate} does not merge over disjoint unions "
                f"(shardable: {list(SHARDABLE_AGGREGATES)})"
            )
        if not query.body.is_self_join_free():
            return "query body is not self-join-free"
        atoms = query.body.atoms
        if not atoms:
            return "query body has no atoms"
        # BFS over the join graph: atoms are nodes, shared variables edges.
        reached = {0}
        frontier = [0]
        while frontier:
            index = frontier.pop()
            for other in range(len(atoms)):
                if other in reached:
                    continue
                if atoms[index].variables & atoms[other].variables:
                    reached.add(other)
                    frontier.append(other)
        if len(reached) != len(atoms):
            return "query body joins are disconnected (cartesian product)"
        return None

    # -- partitioning -------------------------------------------------------------------

    def plan(
        self, query: AggregationQuery, instance: DatabaseInstance, shards: int
    ) -> ShardPlan:
        """Partition ``instance`` into at most ``shards`` embedding-closed parts."""
        shards = max(1, int(shards))
        reason = self.fallback_reason(query)
        if reason is not None or shards == 1:
            return ShardPlan(
                shards=(tuple(instance),),
                strategy=self._strategy,
                component_count=0,
                weights=(len(instance),),
                fallback_reason=reason,
            )
        blocks = self._blocks_of(instance)
        components = self._components(query, instance, blocks)
        component_weights = [
            sum(len(blocks[block_key]) for block_key in component)
            for component in components
        ]
        assignment = self._assign(components, component_weights, shards)
        shard_facts: List[List[Fact]] = [[] for _ in range(shards)]
        # Content token per shard: a commutative (XOR + sum) fold over the
        # per-block ``(key, mutation stamp)`` hashes.  Commutativity makes the
        # token independent of assignment order, and the stamp makes it change
        # exactly when a block's content changed since the family's clock —
        # the summary cache's freshness guard.
        xor_fold = [0] * shards
        sum_fold = [0] * shards
        for component, shard_index in zip(components, assignment):
            for block_key in component:
                shard_facts[shard_index].extend(blocks[block_key])
                pair_hash = stable_hash_64(
                    f"{block_key!r}@{instance.block_version(block_key)}"
                )
                xor_fold[shard_index] ^= pair_hash
                sum_fold[shard_index] = (sum_fold[shard_index] + pair_hash) & _MASK64
        return ShardPlan(
            shards=tuple(tuple(facts) for facts in shard_facts),
            strategy=self._strategy,
            component_count=len(components),
            weights=tuple(len(facts) for facts in shard_facts),
            lineage=instance.lineage,
            shard_tokens=tuple(
                (xor << 64) | add for xor, add in zip(xor_fold, sum_fold)
            ),
        )

    @staticmethod
    def _blocks_of(instance: DatabaseInstance) -> Dict[BlockKey, List[Fact]]:
        # The instance's block index already groups facts; its memoised
        # deterministic ordering replaces the former whole-instance
        # ``sorted(instance, key=repr)`` (which re-sorted every fact on
        # every plan — see the microbench note in README's sharding
        # section).
        return {key: list(facts) for key, facts in instance.block_items()}

    def _components(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        blocks: Dict[BlockKey, List[Fact]],
    ) -> List[List[BlockKey]]:
        """Group blocks into embedding-closed components via union-find.

        For every pair of atoms sharing variables, facts that agree on the
        shared variables could co-occur in an embedding, so their blocks are
        unioned (bucketed by the shared projection — linear, not quadratic).
        The overapproximation is conservative: it can only merge components
        that an exact embedding analysis would keep apart, never split a
        genuine dependency.
        """
        union = _UnionFind()
        for block_key in blocks:
            union.add(block_key)

        atoms = query.body.atoms
        atom_of = {atom.relation: atom for atom in atoms}
        key_size_of = {
            relation: instance.schema.relation(relation).key_size
            for relation in atom_of
        }
        # Match bindings of every participating fact, computed once.
        matches: Dict[str, List[Tuple[BlockKey, Dict[str, Constant]]]] = {}
        for relation, atom in atom_of.items():
            entries = []
            for fact in instance.relation(relation):
                match = atom.match(fact)
                if match is not None:
                    block_key = (relation, fact.key(key_size_of[relation]))
                    entries.append((block_key, match))
            matches[relation] = entries

        for left in range(len(atoms)):
            for right in range(left + 1, len(atoms)):
                shared = sorted(
                    v.name
                    for v in atoms[left].variables & atoms[right].variables
                )
                if not shared:
                    continue
                buckets: Dict[Tuple[Constant, ...], BlockKey] = {}
                for atom in (atoms[left], atoms[right]):
                    for block_key, match in matches[atom.relation]:
                        projection = tuple(match[name] for name in shared)
                        anchor = buckets.setdefault(projection, block_key)
                        if anchor != block_key:
                            union.union(anchor, block_key)

        grouped: Dict[BlockKey, List[BlockKey]] = defaultdict(list)
        for block_key in union.keys():
            grouped[union.find(block_key)].append(block_key)
        # Deterministic order: components by their smallest block key.
        components = [sorted(member, key=repr) for member in grouped.values()]
        components.sort(key=lambda component: repr(component[0]))
        return components

    def _assign(
        self, components: List[List[BlockKey]], weights: List[int], shards: int
    ) -> List[int]:
        """Map each component to a shard index.

        ``weights`` are fact counts: balancing by facts (not block counts)
        keeps per-shard evaluation cost even when block sizes are skewed.
        Greedy heaviest-first onto the lightest shard bounds the max/min
        load gap by the heaviest single component.
        """
        if self._strategy == STRATEGY_HASHED:
            return [
                self._stable_hash(repr(component[0])) % shards
                for component in components
            ]
        order = sorted(
            range(len(components)),
            key=lambda i: (-weights[i], repr(components[i][0])),
        )
        heap = [(0, shard_index) for shard_index in range(shards)]
        heapq.heapify(heap)
        assignment = [0] * len(components)
        for index in order:
            load, shard_index = heapq.heappop(heap)
            assignment[index] = shard_index
            heapq.heappush(heap, (load + weights[index], shard_index))
        return assignment

    @property
    def strategy(self) -> str:
        return self._strategy

    @staticmethod
    def _stable_hash(text: str) -> int:
        """A process-stable hash (builtin ``hash`` is salted per process)."""
        return stable_hash_64(text)


# -- shard-plan cache -------------------------------------------------------------------
#
# A serving deployment answers many requests against the same registered
# instance, and the partition depends only on (compiled plan, instance,
# shard count, strategy) — recomputing the union-find per request would
# waste exactly the work the engine's plan cache exists to avoid.  Entries
# are keyed by instance *identity* and die with the database (a weakref
# callback drops them).  Identity, not equality: a plan carries its
# instance's lineage and block stamps, so an equal-content instance of
# another lineage must not share it — its summaries would be filed under
# the wrong lineage and a later write in either family would miss them
# all.  Every hit is guarded by the instance's ``data_version`` mutation
# token: any in-place ``add_fact``/``remove_fact`` bumps the token, so a
# stale plan for a mutated instance can never be served (a bare fact count
# would be fooled by a remove+add of the same cardinality).

_SHARD_PLAN_LOCK = threading.Lock()
_SHARD_PLAN_CACHE: Dict[int, Tuple[weakref.ref, Dict[tuple, Tuple[int, ShardPlan]]]] = {}
_SHARD_PLAN_HITS = [0]


def _cached_shard_plan(
    planner: ShardPlanner, plan: QueryPlan, instance: DatabaseInstance, shards: int
) -> ShardPlan:
    key = (plan.key, shards, planner.strategy)
    ident = id(instance)
    with _SHARD_PLAN_LOCK:
        holder = _SHARD_PLAN_CACHE.get(ident)
        if holder is not None and holder[0]() is instance:
            entry = holder[1].get(key)
            if entry is not None and entry[0] == instance.data_version:
                _SHARD_PLAN_HITS[0] += 1
                return entry[1]
    shard_plan = planner.plan(plan.query, instance, shards)
    with _SHARD_PLAN_LOCK:
        holder = _SHARD_PLAN_CACHE.get(ident)
        if holder is None or holder[0]() is not instance:
            # The callback runs while the dead instance is deallocated, before
            # its id can be reused, and takes no lock (it may fire mid-GC).
            holder = _SHARD_PLAN_CACHE[ident] = (
                weakref.ref(instance, lambda _ref: _SHARD_PLAN_CACHE.pop(ident, None)),
                {},
            )
        holder[1][key] = (instance.data_version, shard_plan)
    return shard_plan


def shard_plan_cache_stats() -> Dict[str, int]:
    """Hit/size counters of the process-wide shard-plan cache."""
    with _SHARD_PLAN_LOCK:
        return {
            "hits": _SHARD_PLAN_HITS[0],
            "instances": len(_SHARD_PLAN_CACHE),
        }


def clear_shard_plan_cache() -> None:
    """Reset the shard-plan cache and its counters (test hook)."""
    with _SHARD_PLAN_LOCK:
        _SHARD_PLAN_CACHE.clear()
        _SHARD_PLAN_HITS[0] = 0


# -- shard-summary cache ----------------------------------------------------------------
#
# Summarising a shard is the expensive half of sharded execution; the merge
# monoid is cheap.  After a point write only one shard's content changes, so
# caching per-shard summaries turns re-answering into O(one shard): the
# untouched shards hit, the touched shard recomputes, and the monoid
# recombines.  Entries are keyed by *content*, not by instance object —
# ``(lineage, plan key, execution mode, shard content token)`` — because the
# registry's copy-on-write ``mutate`` produces a fresh instance object per
# write: an object-keyed cache (like the shard-plan cache above) would be
# abandoned wholesale on every mutation.  The content token (see
# :class:`ShardPlan`) folds each block's mutation stamp, drawn from a clock
# shared across the whole copy family, so a stale entry is unreachable by
# construction and invalidation is implicit.  The cache is one bounded
# :class:`PlanCache`, the only ledger of its hits, misses and evictions: the
# cache registry reports it (lookups attributed per lineage, ``key[0]``) and
# publishes it as ``repro_cache_*{cache="summary_cache"}``.  Lookups and
# stores happen only in the process that runs :func:`execute_sharded` — pool
# workers compute misses without touching a cache — so there is one cache
# and one ledger per serving process.

_SUMMARY_CACHE_SIZE = 512


def _new_summary_cache(capacity: int) -> PlanCache:
    cache = PlanCache(_SUMMARY_CACHE_SIZE, attribute=lambda key: key[0])
    cache.resize(capacity)
    return cache


_SUMMARY_CACHE = _new_summary_cache(_SUMMARY_CACHE_SIZE)


def summary_cache_key(
    shard_plan: ShardPlan,
    plan_key: object,
    index: int,
    binding: Optional[Binding],
    grouped: bool,
) -> tuple:
    """Content-addressed cache key for shard ``index`` of a sharded plan."""
    if grouped:
        mode: tuple = ("groups",)
    else:
        mode = (
            "closed",
            tuple(
                sorted(
                    (binding or {}).items(),
                    key=lambda kv: (kv[0], repr(kv[1])),
                )
            ),
        )
    return (shard_plan.lineage, plan_key, mode, shard_plan.shard_tokens[index])


def _cached_summary(key: tuple, index: int) -> Optional[object]:
    """The cached summary of shard ``index`` under ``key``, or ``None``.

    Cached values are immutable by convention — every consumer merges them
    into fresh accumulators.
    """
    with obs_span("shard.summary_cache", shard=index) as span:
        cached = _SUMMARY_CACHE.get(key)
        if span is not None:
            span.set_tag("outcome", "hit" if cached is not None else "miss")
    add_cost("summary_cache_hits" if cached is not None else "summary_cache_misses")
    return cached


def summary_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and size of the shard-summary cache."""
    stats = _SUMMARY_CACHE.stats()
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "entries": stats.size,
        "capacity": stats.maxsize,
    }


def clear_summary_cache() -> None:
    """Reset the shard-summary cache and its counters (test hook)."""
    global _SUMMARY_CACHE
    _SUMMARY_CACHE = _new_summary_cache(_SUMMARY_CACHE.maxsize)


def configure_summary_cache(capacity: int) -> None:
    """Bound the shard-summary cache to ``capacity`` entries (LRU evicted)."""
    _SUMMARY_CACHE.resize(int(capacity))


def summary_cache_report() -> Dict[str, object]:
    """The summary cache in the :mod:`repro.obs.caches` common report schema.

    Lineage tokens become registry names when the serving layer labelled
    them (``CACHE_REGISTRY.label_instance``); unlabelled tokens pass through
    raw so library users still get attribution, just with opaque keys.
    """
    return _SUMMARY_CACHE.report(
        "summary_cache", label=CACHE_REGISTRY.instance_label
    )


# Process-global like the SQL memo, so it self-registers at import.
register_cache("summary_cache", summary_cache_report)


# -- per-shard summarisation ------------------------------------------------------------


def _needs_summary_state(aggregate: str) -> bool:
    return _canonical_aggregate(aggregate) in _SUMMARY_STATES


def _summary_shard_answer(
    query: AggregationQuery, shard: DatabaseInstance, binding: Binding
) -> ShardAnswer:
    """Summarise one shard of a summary aggregate (AVG/PRODUCT/DISTINCT).

    The shard's repairs are enumerated through the exact solver's block
    decomposition — exponential in the shard's relevant inconsistent blocks
    only, which is the cost reduction sharding exists for — and each
    non-empty repair's value multiset is folded into the aggregate's
    :class:`SummaryState`.  The plan's executors are bypassed: their scalar
    glb/lub would discard exactly the intermediate statistics the merge
    needs.
    """
    canonical = _canonical_aggregate(query.aggregate)
    solver = BranchAndBoundSolver(query)
    certain = solver.body_certain(shard, binding)
    glb_value: Optional[SummaryState] = None
    lub_value: Optional[SummaryState] = None
    if canonical == "AVG":
        points = set()
        for values in solver.repair_value_multisets(shard, binding):
            fractions = [as_fraction(v) for v in values]
            points.add((Fraction(len(fractions)), sum(fractions, Fraction(0))))
        if points:
            add_cost("summary_states", len(points))
            glb_value = AvgState.of_points(points, "glb")
            lub_value = AvgState.of_points(points, "lub")
    elif canonical == "PRODUCT":
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for values in solver.repair_value_multisets(shard, binding):
            product = Fraction(1)
            for value in values:
                product *= as_fraction(value)
            if lo is None or product < lo:
                lo = product
            if hi is None or product > hi:
                hi = product
        if lo is not None and hi is not None:
            add_cost("summary_states", 1)
            glb_value = lub_value = ProductState(lo, hi)
    else:  # the DISTINCT family
        state_cls = _SUMMARY_STATES[canonical]
        numeric = canonical == "SUM_DISTINCT"
        families = set()
        for values in solver.repair_value_multisets(shard, binding):
            if numeric:
                values = [as_fraction(v) for v in values]
            families.add(frozenset(values))
        if families:
            add_cost("summary_states", len(families))
            glb_value = state_cls.of_families(families, "glb")
            lub_value = state_cls.of_families(families, "lub")
    return ShardAnswer(
        glb=DirectionSummary(certain=certain, value=glb_value),
        lub=DirectionSummary(certain=certain, value=lub_value),
    )


def summarize_shard(
    plan: QueryPlan, shard: DatabaseInstance, binding: Optional[Binding] = None
) -> ShardAnswer:
    """Summarise one shard for a closed query (or one binding).

    Locally certain shards are summarised by the compiled plan's own
    executors (each backend exercises its normal code path); locally
    uncertain shards need the empty-repair-aware extremum, which only the
    exact solver provides.  Summary aggregates always take the state
    enumeration path — no backend's scalar executor retains what their
    merge needs.
    """
    binding = dict(binding or {})
    if _needs_summary_state(plan.query.aggregate):
        return _summary_shard_answer(plan.query, shard, binding)
    glb = plan.executors["glb"].evaluate(shard, binding)
    lub = plan.executors["lub"].evaluate(shard, binding)
    if glb is BOTTOM or lub is BOTTOM:
        return _uncertain_summary(plan.query, shard, binding)
    return ShardAnswer(
        glb=DirectionSummary(certain=True, value=glb),
        lub=DirectionSummary(certain=True, value=lub),
    )


def _uncertain_summary(
    query: AggregationQuery, shard: DatabaseInstance, binding: Binding
) -> ShardAnswer:
    solver = BranchAndBoundSolver(query)
    return ShardAnswer(
        glb=DirectionSummary(
            certain=False, value=solver.extremum(shard, binding, maximize=False)
        ),
        lub=DirectionSummary(
            certain=False, value=solver.extremum(shard, binding, maximize=True)
        ),
    )


def summarize_shard_groups(
    plan: QueryPlan, shard: DatabaseInstance
) -> Dict[GroupKey, ShardAnswer]:
    """Summarise one shard of a GROUP BY query: one summary per local group.

    Groups the shard never embeds are omitted — they are the merge identity.
    The union of per-shard group sets is exactly the unsharded possible-answer
    set because no embedding spans two shards.
    """
    free = plan.query.free_variables
    seen = set()
    candidates: List[GroupKey] = []
    for embedding in embeddings_of(plan.query.body, shard):
        candidate = tuple(embedding[v.name] for v in free)
        if candidate not in seen:
            seen.add(candidate)
            candidates.append(candidate)
    candidates.sort(key=repr)
    bindings = [
        {v.name: value for v, value in zip(free, candidate)}
        for candidate in candidates
    ]
    if _needs_summary_state(plan.query.aggregate):
        return {
            candidate: _summary_shard_answer(plan.query, shard, binding)
            for candidate, binding in zip(candidates, bindings)
        }
    glbs = plan.executors["glb"].evaluate_many(shard, bindings)
    lubs = plan.executors["lub"].evaluate_many(shard, bindings)
    summaries: Dict[GroupKey, ShardAnswer] = {}
    for candidate, binding, glb, lub in zip(candidates, bindings, glbs, lubs):
        if glb is BOTTOM or lub is BOTTOM:
            summaries[candidate] = _uncertain_summary(plan.query, shard, binding)
        else:
            summaries[candidate] = ShardAnswer(
                glb=DirectionSummary(certain=True, value=glb),
                lub=DirectionSummary(certain=True, value=lub),
            )
    return summaries


def summarize_planned_shard(
    plan: QueryPlan,
    shard_plan: ShardPlan,
    index: int,
    schema: Schema,
    binding: Optional[Binding] = None,
    grouped: bool = False,
):
    """Summarise shard ``index`` of ``shard_plan``, bypassing the cache.

    Returns a :class:`ShardAnswer` (closed execution) or a
    ``{group: ShardAnswer}`` map (GROUP BY).  The shard's instance is built
    from its facts here and dropped on return.  The sharded executor and
    pool workers both summarise through this function, which looks the
    summarisers up in this module's globals on every call.
    """
    facts = shard_plan.shards[index]
    with obs_span("shard.summarize", shard=index, facts=len(facts)):
        add_cost("facts_scanned", len(facts))
        shard = DatabaseInstance(schema, facts)
        if grouped:
            return summarize_shard_groups(plan, shard)
        return summarize_shard(plan, shard, binding)


# -- the sharded executor ---------------------------------------------------------------


def execute_sharded(
    engine,
    query: AggregationQuery,
    instance: DatabaseInstance,
    shards: int,
    binding: Optional[Binding] = None,
    strategy: str = STRATEGY_BALANCED,
):
    """Answer ``query`` by partitioning ``instance`` into ``shards`` parts.

    Returns what the corresponding unsharded engine call would: a
    :class:`RangeAnswer` for closed execution (``binding`` given or no free
    variables), a ``{group: RangeAnswer}`` dict for GROUP BY execution.
    Non-shardable queries transparently fall back to the unsharded path.

    There is one summary path: plan the shards, look every shard's summary
    up in the summary cache of this process, compute only the misses, then
    store them and merge.  Misses run on the engine's attached, running
    :class:`~repro.engine.workers.WorkerPool` when there is one, and
    in-process otherwise, one shard at a time with a cancellation check
    between shards.
    """
    plan = engine.compile(query)
    grouped = bool(plan.query.free_variables) and binding is None
    planner = ShardPlanner(strategy)
    with obs_span("shard.plan", requested=shards) as planning:
        shard_plan = _cached_shard_plan(planner, plan, instance, shards)
        if planning is not None:
            planning.set_tag("planned", len(shard_plan.shards))
            if shard_plan.fallback_reason is not None:
                planning.set_tag("fallback_reason", shard_plan.fallback_reason)
    record = getattr(engine, "_record_shard_execution", None)
    if record is not None:
        record(shard_plan)
    if not shard_plan.is_sharded:
        if grouped:
            return engine.answer_group_by(query, instance)
        return engine.answer(query, instance, binding)

    keys = [
        summary_cache_key(shard_plan, plan.key, index, binding, grouped)
        for index in range(len(shard_plan.shards))
    ]
    summaries = [_cached_summary(key, index) for index, key in enumerate(keys)]
    missing = [index for index, summary in enumerate(summaries) if summary is None]
    if missing:
        computed: Optional[List[object]] = None
        pool = getattr(engine, "worker_pool", None)
        if pool is not None and pool.is_running:
            # The misses split over the least busy workers, each of which
            # rebuilds the partition from its resident instance: only shard
            # indices cross the pipe.  A pool that exhausts its crash retries
            # degrades to the in-process path instead of losing the request.
            from repro.engine.workers import WorkerPoolError

            try:
                computed = pool.summarize_shards(
                    plan.query,
                    instance,
                    len(shard_plan.shards),
                    strategy,
                    missing,
                    binding=binding,
                    grouped=grouped,
                )
            except WorkerPoolError:
                computed = None
        if computed is None:
            computed = []
            for index in missing:
                # Shard boundaries are the sharded executor's cancellation
                # points: an abandoned request stops before its next shard.
                check_cancelled()
                computed.append(
                    summarize_planned_shard(
                        plan, shard_plan, index, instance.schema, binding, grouped
                    )
                )
        for index, summary in zip(missing, computed):
            summaries[index] = summary
            _SUMMARY_CACHE.put(keys[index], summary)

    aggregate = plan.query.aggregate
    with obs_span("shard.merge", shards=len(summaries)):
        if grouped:
            merged_groups: Dict[GroupKey, ShardAnswer] = {}
            for summary in summaries:
                merged_groups = merge_group_answers(aggregate, merged_groups, summary)
            return finalize_group_answers(merged_groups)
        merged = SHARD_ANSWER_IDENTITY
        for summary in summaries:
            merged = merge_shard_answers(aggregate, merged, summary)
        return finalize_answer(merged)
