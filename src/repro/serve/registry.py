"""The instance registry: named databases the server answers queries over.

Clients never ship a database per request; they register it once (or the
operator loads it at boot) and subsequent requests reference it by name.
Every registered instance carries its schema fingerprint, so the registry
makes explicit which instances share plan-cache entries: two instances with
the same fingerprint are served by the same compiled plans.

The registry is also the serving layer's **write path**: :meth:`mutate`
applies fact-level ops copy-on-write (readers keep their immutable
instance; the entry swaps atomically), bumps the monotonic per-instance
``version``, and — when a durable :class:`~repro.store.InstanceStore` is
attached — appends the ops to the instance's fact log *before* the new
state becomes visible.  Optimistic concurrency is an ``expected_version``
precondition (:class:`VersionConflictError` → HTTP 409).  Subscribers
(the server) get an event per write so worker-pool residency can be
invalidated.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datamodel.facts import Constant, Fact
from repro.datamodel.instance import BlockKey, DatabaseInstance, canonical_shard_slot
from repro.engine.plan import schema_fingerprint
from repro.exceptions import ReproError
from repro.obs.caches import label_instance
from repro.serve.protocol import instance_from_payload


class RegistryError(ReproError):
    """Base class for registry failures."""


class UnknownInstanceError(RegistryError):
    """A request referenced an instance name that is not registered."""


class DuplicateInstanceError(RegistryError):
    """An instance name is already registered (and ``replace`` was not set)."""


class VersionConflictError(RegistryError):
    """An ``expected_version`` precondition failed (HTTP 409)."""


class MutationError(RegistryError):
    """A mutation op is invalid (e.g. removing a fact that is not present)."""


#: One registry-level mutation op: (kind, fact) with kind in the log's
#: ``add_fact`` / ``remove_fact`` vocabulary.
MutationOp = Tuple[str, Fact]

#: Subscriber callback: ``(event, name)`` with event in
#: ``{"register", "replace", "mutate", "drop"}``.
RegistryListener = Callable[[str, str], None]


@dataclass(frozen=True)
class RegisteredInstance:
    """One named database plus the metadata the server reports about it.

    ``shards`` is the per-instance sharding configuration: when greater
    than 1, engine-bound requests against this instance take the sharded
    execution path of :mod:`repro.engine.sharding` with that shard count
    (queries the sharding seam cannot merge still answer unsharded).

    ``version`` is the monotonic write-path version: 1 at first
    registration, bumped by every mutation or replacement, preserved across
    restarts by the durable store.

    ``shard_versions`` is the per-shard-slot invalidation vector: one
    counter per canonical shard slot (:func:`canonical_shard_slot`), bumped
    for exactly the slots a mutation's touched blocks map to.  It is
    ephemeral — reset to zeros at (re-)registration and boot — because it
    only exists to tell clients and caches *which* slots a write moved.
    """

    name: str
    instance: DatabaseInstance
    fingerprint: str
    registered_at: float
    shards: int = 1
    version: int = 1
    shard_versions: Tuple[int, ...] = ()

    def describe(self) -> Dict[str, object]:
        """The JSON-facing description used by ``GET /instances``."""
        instance = self.instance
        return {
            "name": self.name,
            "schema_fingerprint": self.fingerprint,
            "relations": list(instance.schema.relation_names()),
            "facts": len(instance),
            "blocks": len(instance.blocks()),
            "inconsistent_blocks": len(instance.inconsistent_blocks()),
            "registered_at": self.registered_at,
            "shards": self.shards,
            "version": self.version,
            "shard_versions": list(self.shard_versions or (0,) * self.shards),
        }


@dataclass(frozen=True)
class MutationOutcome:
    """What one committed write did: the new entry plus its delta footprint.

    ``touched_blocks`` are the block keys the ops landed in (in first-touch
    order), ``shards_invalidated`` the canonical shard slots those blocks
    map to, and ``base_data_version`` the instance's mutation token *before*
    the write — together exactly what the serving layer needs to ship a
    fact delta to the worker pool and report the write's blast radius to
    the client.  Passthrough accessors keep pre-outcome callers working.
    """

    entry: RegisteredInstance
    applied: Tuple[MutationOp, ...]
    touched_blocks: Tuple[BlockKey, ...]
    shards_invalidated: Tuple[int, ...]
    base_data_version: int

    @property
    def name(self) -> str:
        return self.entry.name

    @property
    def version(self) -> int:
        return self.entry.version

    @property
    def instance(self) -> DatabaseInstance:
        return self.entry.instance

    @property
    def shards(self) -> int:
        return self.entry.shards

    def describe(self) -> Dict[str, object]:
        return self.entry.describe()


class InstanceRegistry:
    """Thread-safe mapping from instance names to registered databases.

    The serving app reads from request-handling threads (and the event
    loop) and writes from the admin endpoints.  Two locks keep those
    independent: ``_lock`` guards only the name→entry dict (held for dict
    operations, never across I/O), while ``_write_lock`` serializes whole
    write transactions — validate under ``_lock``, then copy/pickle/fsync
    *outside* it, then publish under ``_lock`` again.  A reader can
    therefore never stall behind a durable write's fsync or a compaction's
    re-pickle, and the write lock makes the read-validate-publish sequence
    atomic against concurrent writers.  With a ``store`` attached, the
    store write happens before the publish — the fsync is the commit
    point.
    """

    def __init__(
        self,
        instances: Optional[Mapping[str, DatabaseInstance]] = None,
        store=None,
    ) -> None:
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._instances: Dict[str, RegisteredInstance] = {}
        self._store = store
        self._listeners: List[RegistryListener] = []
        for name, instance in (instances or {}).items():
            self.register(name, instance)

    @property
    def store(self):
        """The attached durable :class:`~repro.store.InstanceStore` (or None)."""
        return self._store

    def subscribe(self, listener: RegistryListener) -> None:
        """Register a write-event callback ``(event, name)``."""
        self._listeners.append(listener)

    def _notify(self, event: str, name: str) -> None:
        for listener in self._listeners:
            listener(event, name)

    # -- registration ------------------------------------------------------------------

    def register(
        self,
        name: str,
        instance: DatabaseInstance,
        replace: bool = False,
        shards: int = 1,
        version: Optional[int] = None,
        persist: bool = True,
    ) -> RegisteredInstance:
        """Register ``instance`` under ``name``; refuses silent overwrites.

        ``version`` pins the entry's version (the boot reload passes the
        stored one); otherwise a replacement continues the old entry's
        monotonic count and a fresh name starts at 1 — consulting the store
        so a name that exists only on disk never regresses.  ``persist``
        is cleared by the boot reload (the state just came *from* disk).
        """
        if not name:
            raise RegistryError("instance name must be non-empty")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise RegistryError("'shards' must be a positive integer")
        with self._write_lock:
            with self._lock:
                old = self._instances.get(name)
            if old is not None and not replace:
                raise DuplicateInstanceError(
                    f"instance {name!r} is already registered (pass replace=true "
                    f"to overwrite)"
                )
            if version is None:
                if old is not None:
                    version = old.version + 1
                else:
                    stored = (
                        self._store.version_of(name)
                        if self._store is not None
                        else None
                    )
                    version = stored + 1 if stored is not None else 1
            entry = RegisteredInstance(
                name=name,
                instance=instance,
                fingerprint=schema_fingerprint(instance.schema),
                registered_at=time.time(),
                shards=shards,
                version=version,
                shard_versions=(0,) * shards,
            )
            if self._store is not None and persist:
                if old is not None:
                    self._store.replace(name, instance, version=version, shards=shards)
                else:
                    self._store.save(name, instance, version=version, shards=shards)
            # Cache telemetry attributes entries by lineage token; teach the
            # registry the token's human name (copies share the lineage, so
            # one label survives every copy-on-write mutation).
            label_instance(instance.lineage, name)
            with self._lock:
                self._instances[name] = entry
            self._notify("replace" if old is not None else "register", name)
        return entry

    def register_payload(
        self, payload: Mapping, replace: bool = False
    ) -> RegisteredInstance:
        """Register an instance shipped over the wire (``POST /instances``).

        An optional ``"shards"`` key opts the instance into sharded
        execution for every subsequent engine-bound request against it.
        """
        name, instance = instance_from_payload(payload)
        shards = payload.get("shards", 1)
        return self.register(name, instance, replace=replace, shards=shards)

    def load_store(self) -> List[str]:
        """Reload every persisted instance from the attached store (boot).

        Dirty logs are compacted by the store during the reload, so every
        loaded instance's snapshot file is current afterwards.  Returns the
        loaded names.
        """
        if self._store is None:
            return []
        loaded = self._store.open_all(compact=True)
        names: List[str] = []
        for name, stored in sorted(loaded.items()):
            self.register(
                name,
                stored.instance,
                replace=True,
                shards=stored.shards,
                version=stored.version,
                persist=False,
            )
            names.append(name)
        return names

    # -- the write path ----------------------------------------------------------------

    @staticmethod
    def _apply_ops(
        entry: RegisteredInstance, ops: Sequence[Tuple[str, str, Tuple[Constant, ...]]]
    ) -> Tuple[DatabaseInstance, List[MutationOp], Tuple[BlockKey, ...]]:
        """Apply wire ops to a *copy* of the entry's instance.

        Validation happens here (schema/arity via ``add_fact``, presence for
        removals), so an invalid op rejects the whole batch before anything
        is logged or published — mutations are all-or-nothing.  The copy is
        :meth:`DatabaseInstance.copy` — it shares the source's lineage
        clock, so block stamps stay comparable across the swap and summary
        caches keyed on them survive for every *untouched* block.
        """
        mutated = entry.instance.copy()
        applied: List[MutationOp] = []
        touched: List[BlockKey] = []
        seen: set = set()
        for kind, relation, values in ops:
            fact = Fact(relation, tuple(values))
            if kind == "add_fact":
                if fact in mutated:
                    raise MutationError(f"fact {fact} is already present")
                mutated.add_fact(fact)
            elif kind == "remove_fact":
                if fact not in mutated:
                    raise MutationError(f"cannot remove absent fact {fact}")
                mutated.remove_fact(fact)
            else:
                raise MutationError(f"unknown mutation op {kind!r}")
            applied.append((kind, fact))
            block_key = mutated.block_key_of(fact)
            if block_key not in seen:
                seen.add(block_key)
                touched.append(block_key)
        return mutated, applied, tuple(touched)

    def mutate(
        self,
        name: str,
        ops: Sequence[Tuple[str, str, Tuple[Constant, ...]]],
        expected_version: Optional[int] = None,
    ) -> MutationOutcome:
        """Apply fact-level ops to a named instance, bumping its version.

        ``ops`` are ``(kind, relation, values)`` triples with kind
        ``add_fact`` or ``remove_fact``.  The mutation is copy-on-write:
        in-flight requests keep answering on the old immutable instance,
        and the registry entry swaps to the mutated copy atomically.  With
        ``expected_version`` set, a concurrent writer having bumped the
        version first fails the precondition (HTTP 409) instead of silently
        interleaving.  Returns a :class:`MutationOutcome` carrying the new
        entry plus the write's delta footprint (touched blocks, invalidated
        shard slots, the pre-write data version).
        """
        if not ops:
            raise MutationError("mutation requires at least one op")
        with self._write_lock:
            # _write_lock pins the entry against concurrent writers, so the
            # expensive part — copy-on-write apply, pickle, fsync, possible
            # compaction — runs without blocking readers on _lock.
            with self._lock:
                entry = self._instances.get(name)
                known = sorted(self._instances)
            if entry is None:
                raise UnknownInstanceError(
                    f"unknown instance {name!r}; registered: {known}"
                )
            if expected_version is not None and entry.version != expected_version:
                raise VersionConflictError(
                    f"instance {name!r} is at version {entry.version}, "
                    f"expected_version was {expected_version}"
                )
            base_data_version = entry.instance.data_version
            mutated, applied, touched = self._apply_ops(entry, ops)
            version = entry.version + 1
            slots = tuple(
                sorted({canonical_shard_slot(key, entry.shards) for key in touched})
            )
            shard_versions = list(entry.shard_versions)
            if len(shard_versions) != entry.shards:
                shard_versions = [0] * entry.shards
            for slot in slots:
                shard_versions[slot] += 1
            if self._store is not None:
                self._store.mutate(
                    name,
                    applied,
                    version=version,
                    instance=mutated,
                    shards=entry.shards,
                )
            new_entry = dataclass_replace(
                entry,
                instance=mutated,
                version=version,
                shard_versions=tuple(shard_versions),
            )
            with self._lock:
                self._instances[name] = new_entry
            self._notify("mutate", name)
        return MutationOutcome(
            entry=new_entry,
            applied=tuple(applied),
            touched_blocks=touched,
            shards_invalidated=slots,
            base_data_version=base_data_version,
        )

    def drop(
        self, name: str, expected_version: Optional[int] = None
    ) -> RegisteredInstance:
        """Unregister (and durably drop) a named instance."""
        with self._write_lock:
            with self._lock:
                entry = self._instances.get(name)
                known = sorted(self._instances)
            if entry is None:
                raise UnknownInstanceError(
                    f"unknown instance {name!r}; registered: {known}"
                )
            if expected_version is not None and entry.version != expected_version:
                raise VersionConflictError(
                    f"instance {name!r} is at version {entry.version}, "
                    f"expected_version was {expected_version}"
                )
            if self._store is not None:
                self._store.drop(name)
            with self._lock:
                self._instances.pop(name, None)
            # Notified while still holding the write lock: the pool's
            # resident copies are invalidated before any re-registration of
            # the same name can ship jobs, closing the drop/re-register
            # race on worker residency keys.
            self._notify("drop", name)
        return entry

    # -- read path ---------------------------------------------------------------------

    def get(self, name: str) -> RegisteredInstance:
        with self._lock:
            try:
                return self._instances[name]
            except KeyError:
                known = sorted(self._instances)
                raise UnknownInstanceError(
                    f"unknown instance {name!r}; registered: {known}"
                ) from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instances)

    def entries(self) -> List[RegisteredInstance]:
        with self._lock:
            return sorted(self._instances.values(), key=lambda e: e.name)

    def describe_all(self) -> List[Dict[str, object]]:
        return [entry.describe() for entry in self.entries()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._instances)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._instances


#: Loaders for the paper's worked examples, registered at boot by default so
#: a freshly started server answers the README queries out of the box.
BUILTIN_INSTANCES: Dict[str, Callable[[], DatabaseInstance]] = {}


def _register_builtin(name: str):
    def wrap(loader: Callable[[], DatabaseInstance]):
        BUILTIN_INSTANCES[name] = loader
        return loader

    return wrap


@_register_builtin("stock")
def _load_stock() -> DatabaseInstance:
    from repro.workloads.scenarios import fig1_stock_instance

    return fig1_stock_instance()


@_register_builtin("running_example")
def _load_running_example() -> DatabaseInstance:
    from repro.workloads.scenarios import fig3_running_example_instance

    return fig3_running_example_instance()


def builtin_registry(store=None) -> InstanceRegistry:
    """A registry pre-loaded with the paper's example databases.

    With a ``store`` attached, persisted instances are reloaded first and
    builtins only fill the names the store does not already have — a
    restart must serve the *mutated* stock instance, not the pristine one.
    """
    registry = InstanceRegistry(store=store)
    registry.load_store()
    for name, loader in BUILTIN_INSTANCES.items():
        if name not in registry:
            registry.register(name, loader())
    return registry
