"""Database instances, blocks and repairs.

A *database instance* is a finite set of facts.  A *block* is a maximal set of
facts of the same relation that agree on the primary key.  A *repair* is a
maximal consistent subset of the instance, i.e. it picks exactly one fact from
every block (Section 1 and 3 of the paper).
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datamodel.facts import Constant, Fact
from repro.datamodel.signature import Schema
from repro.exceptions import SchemaError

BlockKey = Tuple[str, Tuple[Constant, ...]]

_LINEAGE_IDS = itertools.count(1)


class _LineageClock:
    """Shared mutation clock for a copy-family of instances.

    Content caches (the shard-summary cache) key entries by
    ``(lineage token, per-block stamps)``.  Stamps must never repeat with
    different content inside one family, even when two copies of the same
    base diverge, so every family shares one strictly-monotonic counter:
    each mutation on any member draws a fresh stamp.  Writers are expected
    to be serialized (the registry holds a write lock; direct instance
    mutation was never thread-safe), so a plain integer suffices — and,
    unlike a lock, it pickles, which keeps stamps deterministic when a
    worker process replays the same op sequence against a shipped base.
    """

    __slots__ = ("token", "counter")

    def __init__(self, token: str, counter: int = 0) -> None:
        self.token = token
        self.counter = counter

    def tick(self) -> int:
        self.counter += 1
        return self.counter


def _new_clock() -> _LineageClock:
    return _LineageClock(f"{os.getpid():x}-{next(_LINEAGE_IDS):x}")


class DatabaseInstance:
    """A finite set of facts over a schema, possibly violating primary keys.

    The instance offers block-level access (the unit of inconsistency), repair
    enumeration and counting, and convenience constructors used throughout the
    library, examples and tests.
    """

    def __init__(self, schema: Schema, facts: Optional[Iterable[Fact]] = None) -> None:
        self._schema = schema
        self._facts: set[Fact] = set()
        self._blocks: Dict[BlockKey, set[Fact]] = defaultdict(set)
        self._data_version = 0
        self._block_items: Optional[
            Tuple[int, List[Tuple[BlockKey, Tuple[Fact, ...]]]]
        ] = None
        self._clock = _new_clock()
        self._block_versions: Dict[BlockKey, int] = {}
        for fact in facts or ():
            self.add_fact(fact)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Dict[str, Sequence[Sequence[Constant]]],
    ) -> "DatabaseInstance":
        """Build an instance from ``{relation_name: [row, row, ...]}``."""
        instance = cls(schema)
        for relation, relation_rows in rows.items():
            for row in relation_rows:
                instance.add_fact(Fact(relation, tuple(row)))
        return instance

    def add_fact(self, fact: Fact) -> Optional[BlockKey]:
        """Add a fact, validating arity against the schema.

        Returns the key of the touched block, or ``None`` when the fact was
        already present (a no-op that bumps no versions).
        """
        signature = self._schema.relation(fact.relation)
        if fact.arity != signature.arity:
            raise SchemaError(
                f"fact {fact} has arity {fact.arity}, expected {signature.arity}"
            )
        if fact in self._facts:
            return None
        self._facts.add(fact)
        block_key = (fact.relation, fact.key(signature.key_size))
        self._blocks[block_key].add(fact)
        self._data_version += 1
        self._block_versions[block_key] = self._clock.tick()
        return block_key

    def add_row(self, relation: str, *values: Constant) -> None:
        """Convenience wrapper: ``add_row("R", 1, 2)`` adds the fact ``R(1, 2)``."""
        self.add_fact(Fact(relation, tuple(values)))

    def remove_fact(self, fact: Fact) -> BlockKey:
        """Remove a fact, maintaining the block index.

        Raises :class:`KeyError` when the fact is not in the instance (use
        :meth:`discard_fact` for the tolerant variant).  Emptied blocks are
        deleted from the index so block enumeration and repair counting
        never see phantom empty blocks.  Returns the touched block's key.
        """
        if fact not in self._facts:
            raise KeyError(fact)
        signature = self._schema.relation(fact.relation)
        self._facts.remove(fact)
        block_key = (fact.relation, fact.key(signature.key_size))
        block = self._blocks[block_key]
        block.discard(fact)
        self._data_version += 1
        if block:
            self._block_versions[block_key] = self._clock.tick()
        else:
            del self._blocks[block_key]
            # No tombstone: a vanished block leaves summary-cache tokens via
            # its absence, and a later re-add draws a strictly newer stamp.
            self._block_versions.pop(block_key, None)
            self._clock.tick()
        return block_key

    def discard_fact(self, fact: Fact) -> bool:
        """Remove a fact if present; returns whether anything was removed."""
        if fact not in self._facts:
            return False
        self.remove_fact(fact)
        return True

    @property
    def data_version(self) -> int:
        """Monotonic mutation counter: bumps on every add/remove.

        Fact-content caches (shard plans, worker-pool instance refs) guard
        their entries with this token — a bare ``len`` check would be fooled
        by a remove+add of the same cardinality.
        """
        return self._data_version

    @property
    def lineage(self) -> str:
        """Token shared by every copy-on-write descendant of one base.

        Content caches scope their entries to a lineage so that two
        independently built instances — whose per-block stamps are
        meaningless relative to each other — can never collide.
        """
        return self._clock.token

    def block_version(self, block_key: BlockKey) -> int:
        """Mutation stamp of a block: the family clock value at its last touch.

        Stamps are drawn from a clock shared by the whole copy family, so a
        ``(block key, stamp)`` pair identifies the block's exact content
        within a lineage even across divergent copies.  Returns 0 for keys
        untouched since construction of the family (i.e. unknown blocks).
        """
        return self._block_versions.get(block_key, 0)

    def copy(self) -> "DatabaseInstance":
        """Fast structural copy sharing the mutation-clock lineage.

        This is the copy-on-write path for writers (the registry's
        ``mutate``): unlike re-adding facts through :meth:`add_fact`, it
        skips schema validation, preserves ``data_version`` and per-block
        stamps, and keeps the shared clock — so summaries cached for
        untouched shards of the base remain valid for the copy.
        """
        dup = DatabaseInstance.__new__(DatabaseInstance)
        dup._schema = self._schema
        dup._facts = set(self._facts)
        dup._blocks = defaultdict(set)
        for key, facts in self._blocks.items():
            dup._blocks[key] = set(facts)
        dup._data_version = self._data_version
        dup._block_items = self._block_items
        dup._clock = self._clock
        dup._block_versions = dict(self._block_versions)
        return dup

    def block_key_of(self, fact: Fact) -> BlockKey:
        """The key of the block this fact belongs to (present or not)."""
        signature = self._schema.relation(fact.relation)
        return (fact.relation, fact.key(signature.key_size))

    # -- basic accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def facts(self) -> FrozenSet[Fact]:
        return frozenset(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        return hash(frozenset(self._facts))

    def relation(self, name: str) -> Tuple[Fact, ...]:
        """All facts of the given relation (the *R-relation* of the instance)."""
        return tuple(f for f in self._facts if f.relation == name)

    def relation_names(self) -> Tuple[str, ...]:
        """Names of relations that actually contain facts."""
        return tuple(sorted({f.relation for f in self._facts}))

    # -- blocks and consistency ------------------------------------------------

    def blocks(self, relation: Optional[str] = None) -> List[FrozenSet[Fact]]:
        """All blocks, optionally restricted to one relation.

        A block is a maximal set of key-equal facts of one relation.
        """
        return [
            frozenset(facts)
            for (rel, _key), facts in self.block_items()
            if relation is None or rel == relation
        ]

    def block_items(self) -> List[Tuple[BlockKey, Tuple[Fact, ...]]]:
        """Deterministic ``(block key, facts)`` pairs, memoised per version.

        Iteration over the underlying sets follows hash order, which varies
        across processes, so keys sort by repr and facts sort within their
        block.  Sorting per block is much cheaper than sorting the whole
        fact set (blocks are tiny and there are far fewer keys than facts),
        and the memo keyed by :attr:`data_version` makes repeat consumers —
        shard planning for different queries or shard counts over one
        instance — reuse the order for free.
        """
        cached = self._block_items
        if cached is not None and cached[0] == self._data_version:
            return cached[1]
        items = [
            (key, tuple(sorted(facts, key=repr)))
            for key, facts in sorted(self._blocks.items(), key=lambda kv: repr(kv[0]))
        ]
        self._block_items = (self._data_version, items)
        return items

    def block_count(self) -> int:
        """How many blocks the instance has — O(1), unlike :meth:`blocks`."""
        return len(self._blocks)

    def block_of(self, fact: Fact) -> FrozenSet[Fact]:
        """The block containing ``fact`` (key-equal facts of the same relation)."""
        signature = self._schema.relation(fact.relation)
        return frozenset(self._blocks[(fact.relation, fact.key(signature.key_size))])

    def inconsistent_blocks(self, relation: Optional[str] = None) -> List[FrozenSet[Fact]]:
        """Blocks containing at least two (key-equal, hence conflicting) facts."""
        return [b for b in self.blocks(relation) if len(b) > 1]

    def is_consistent(self, relation: Optional[str] = None) -> bool:
        """True when no two distinct facts are key-equal.

        With ``relation`` given, checks consistency of that relation only
        (used by Lemma D.3-style constructions).
        """
        return not self.inconsistent_blocks(relation)

    def inconsistency_ratio(self) -> float:
        """Fraction of blocks that are inconsistent (0.0 for a consistent db)."""
        all_blocks = self.blocks()
        if not all_blocks:
            return 0.0
        return len([b for b in all_blocks if len(b) > 1]) / len(all_blocks)

    # -- repairs ---------------------------------------------------------------

    def repair_count(self) -> int:
        """Number of repairs (product of block sizes)."""
        count = 1
        for block in self._blocks.values():
            count *= len(block)
        return count

    def repairs(self) -> Iterator["DatabaseInstance"]:
        """Enumerate every repair as a new (consistent) instance.

        The number of repairs is exponential in the number of inconsistent
        blocks; this generator is intended for ground-truth computations on
        small instances and for tests.
        """
        ordered_blocks = [sorted(b, key=repr) for b in self._blocks.values()]
        if not ordered_blocks:
            yield DatabaseInstance(self._schema)
            return
        for choice in itertools.product(*ordered_blocks):
            yield DatabaseInstance(self._schema, choice)

    def arbitrary_repair(self) -> "DatabaseInstance":
        """Return one (deterministic) repair: the lexicographically first pick."""
        picks = [min(block, key=repr) for block in self._blocks.values()]
        return DatabaseInstance(self._schema, picks)

    def falsifying_repair_exists(self, predicate) -> bool:
        """True when some repair ``r`` satisfies ``not predicate(r)``.

        ``predicate`` maps a repair (a consistent :class:`DatabaseInstance`)
        to a boolean.  Used by brute-force CERTAINTY checks.
        """
        return any(not predicate(repair) for repair in self.repairs())

    # -- transformation --------------------------------------------------------

    def restricted_to(self, relations: Iterable[str]) -> "DatabaseInstance":
        """A new instance containing only the facts of the given relations."""
        wanted = set(relations)
        return DatabaseInstance(
            self._schema, (f for f in self._facts if f.relation in wanted)
        )

    def union(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Union of two instances over the merged schema."""
        schema = self._schema.merged_with(other.schema)
        return DatabaseInstance(schema, itertools.chain(self._facts, other.facts))

    def without(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        """A new instance with the given facts removed."""
        removed = set(facts)
        return DatabaseInstance(
            self._schema, (f for f in self._facts if f not in removed)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        listing = ", ".join(sorted(str(f) for f in self._facts))
        return f"DatabaseInstance({{{listing}}})"
