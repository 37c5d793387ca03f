"""The durable instance store: snapshots + fact logs under one directory.

Layout — one subdirectory per named instance (the directory name is a
filesystem-safe slug; the real name lives in ``meta.json``)::

    <root>/
      <slug>/
        meta.json       {"name": ..., "format": 1}
        snapshot.pkl    pickle of StoreSnapshot + CRC trailer (atomic-rename)
        facts.log       append-only mutation log (see repro.store.log)

Durability contract:

* **snapshots** are written to a temp file, fsync'd, and atomically renamed
  into place (readers always see a complete snapshot or the previous one);
  the file ends in a CRC32 trailer that every open verifies — a snapshot
  corrupted at rest is detected and the state is rebuilt from the log's
  ``replace`` records instead of served silently wrong;
* **mutations** append checksummed, fsync'd records to the log *before*
  they become visible to readers — a crash loses at most the record being
  written, and a torn tail truncates with a warning on the next open;
* **compaction** (after ``compact_every`` log records, and for any dirty
  log on :meth:`open_all`) folds the log into a fresh snapshot and then
  truncates the log.  The crash window between the two steps is safe
  because replay skips records at or below the snapshot's version;
* **drop** appends a durable ``drop`` record, removes ``meta.json`` (the
  existence marker the boot scan trusts), then the directory — so a crash
  at *any* point mid-drop either replays the drop record or finds no
  marker, never a resurrected instance.

Only the store reads its snapshot files.  The worker pool keeps its own
spool: it pickles an instance on that instance's first pooled request.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.cost import add_cost
from repro.obs.trace import span as obs_span
from repro.store.log import FactLog, LogCorruptionWarning, LogRecord, StoreError
from repro.util import stable_hash_64

_OBSLOG = get_logger("store")

_FSYNC_HELP = "Latency of fact-log fsync calls on the durable write path."

_FORMAT = 1
_SNAPSHOT = "snapshot.pkl"
_LOG = "facts.log"
_META = "meta.json"

# Snapshot files carry a fixed-size CRC trailer *after* the pickle bytes,
# which the store verifies on every open.  A trailer (rather than a sidecar
# file) keeps the write a single atomic rename — a separate checksum file
# would reintroduce exactly the torn-pair crash window the rename protocol
# exists to close.
_CRC_MAGIC = b"RPSNAPC1"
_CRC_TRAILER = len(_CRC_MAGIC) + 4

_CORRUPT_HELP = "Snapshot files that failed CRC/unpickle verification on open."


class UnknownStoreInstanceError(StoreError):
    """A store operation referenced a name with no on-disk state."""


class SnapshotCorruptionError(StoreError):
    """A snapshot file failed its CRC check (or did not unpickle)."""


class SnapshotCorruptionWarning(UserWarning):
    """A corrupt snapshot was detected; state was rebuilt from the log."""


@dataclass(frozen=True)
class StoreSnapshot:
    """The pickled snapshot payload: instance + the metadata to serve it.

    ``fingerprint`` pins the schema the instance was saved under, so a boot
    can detect (and refuse to silently merge) an incompatible reload;
    ``version`` is the monotonic instance version the snapshot reflects;
    ``shards`` is the per-instance sharding opt-in the registry restores.
    """

    name: str
    instance: DatabaseInstance
    fingerprint: str
    version: int
    shards: int = 1
    saved_at: float = 0.0
    format: int = _FORMAT


@dataclass(frozen=True)
class StoredInstance:
    """One instance as reconstructed from disk (snapshot + replayed log)."""

    name: str
    instance: DatabaseInstance
    fingerprint: str
    version: int
    shards: int = 1
    log_depth: int = 0
    dropped: bool = field(default=False, repr=False)


def _slug(name: str) -> str:
    """A filesystem-safe, collision-free directory name for ``name``."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)[:48].strip("._") or "instance"
    return f"{safe}-{stable_hash_64(name) & 0xFFFFFFFF:08x}"


def _fingerprint(instance: DatabaseInstance) -> str:
    from repro.engine.plan import schema_fingerprint

    return schema_fingerprint(instance.schema)


def _fsync_dir(path: str) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms/filesystems without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class InstanceStore:
    """Thread-safe durable store for named database instances.

    Parameters
    ----------
    root:
        The store directory (created if missing).
    compact_every:
        Log depth at which a mutation triggers auto-compaction into a fresh
        snapshot (``0`` disables auto-compaction).
    """

    def __init__(self, root: str, compact_every: int = 64) -> None:
        self._root = os.path.abspath(root)
        self._compact_every = max(0, int(compact_every))
        self._lock = threading.RLock()
        os.makedirs(self._root, exist_ok=True)
        self._appends = 0
        self._compactions = 0
        self._snapshots_written = 0
        self._mutation_batches = 0
        self._mutation_ops = 0
        self._mutation_blocks_touched = 0
        self._last_compaction_at: Optional[float] = None
        # (version, pending log depth, dropped) per name, maintained by every
        # write and filled lazily on reads — so observability (``stats()``,
        # ``version_of``) never unpickles a snapshot or replays a log for a
        # name this process has already touched.  The store assumes a single
        # writing process per directory (the serving layer's deployment
        # model), so the cache cannot go stale.  ``_meta_lock`` guards only
        # this dict and the counters, and is never held across I/O: a
        # ``stats()`` caller (the event loop's /healthz) can therefore never
        # block behind a writer's pickle+fsync on the main lock.
        self._meta: Dict[str, Tuple[int, int, bool]] = {}
        self._meta_lock = threading.Lock()

    @property
    def root(self) -> str:
        return self._root

    @property
    def compact_every(self) -> int:
        return self._compact_every

    # -- paths -------------------------------------------------------------------------

    def _dir_of(self, name: str) -> str:
        return os.path.join(self._root, _slug(name))

    def _log_of(self, name: str) -> FactLog:
        return FactLog(os.path.join(self._dir_of(name), _LOG))

    def snapshot_path(self, name: str, current_only: bool = True) -> Optional[str]:
        """The on-disk snapshot file for ``name`` (or ``None``).

        With ``current_only`` (the default) the path is returned only when
        the log has no pending records, i.e. when the snapshot alone
        reflects the full instance state.
        """
        with self._lock:
            path = os.path.join(self._dir_of(name), _SNAPSHOT)
            if not os.path.exists(path):
                return None
            if current_only:
                meta = self._meta_of(name)
                if meta is None or meta[1] > 0 or meta[2]:
                    return None
            return path

    # -- snapshot I/O ------------------------------------------------------------------

    def _write_snapshot(self, snapshot: StoreSnapshot) -> str:
        with obs_span(
            "store.snapshot", instance=snapshot.name, version=snapshot.version
        ):
            directory = self._dir_of(snapshot.name)
            os.makedirs(directory, exist_ok=True)
            meta_path = os.path.join(directory, _META)
            if not os.path.exists(meta_path):
                with open(meta_path, "w", encoding="utf-8") as handle:
                    json.dump({"name": snapshot.name, "format": _FORMAT}, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
            final = os.path.join(directory, _SNAPSHOT)
            temp = final + ".tmp"
            payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
            trailer = _CRC_MAGIC + struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF)
            with open(temp, "wb") as handle:
                handle.write(payload)
                handle.write(trailer)
                handle.flush()
                started = time.perf_counter()
                os.fsync(handle.fileno())
                add_cost("store_fsyncs", 1)
                REGISTRY.histogram("repro_store_fsync_seconds", _FSYNC_HELP).observe(
                    time.perf_counter() - started
                )
            os.replace(temp, final)
            _fsync_dir(directory)
            with self._meta_lock:
                self._snapshots_written += 1
            return final

    def _read_snapshot(self, name: str) -> Optional[StoreSnapshot]:
        path = os.path.join(self._dir_of(name), _SNAPSHOT)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"cannot read snapshot for {name!r}: {exc}") from exc
        if len(raw) > _CRC_TRAILER and raw[-_CRC_TRAILER:-4] == _CRC_MAGIC:
            body = raw[:-_CRC_TRAILER]
            (expected,) = struct.unpack(">I", raw[-4:])
            if zlib.crc32(body) & 0xFFFFFFFF != expected:
                raise SnapshotCorruptionError(
                    f"snapshot for {name!r} failed its CRC check "
                    f"(stored {expected:#010x}, computed "
                    f"{zlib.crc32(body) & 0xFFFFFFFF:#010x})"
                )
        else:
            body = raw  # pre-CRC snapshot: nothing to verify against
        try:
            snapshot = pickle.loads(body)
        except Exception as exc:  # noqa: BLE001 — surface, don't crash the boot
            raise SnapshotCorruptionError(
                f"cannot read snapshot for {name!r}: {exc}"
            ) from exc
        if not isinstance(snapshot, StoreSnapshot):
            raise StoreError(f"snapshot for {name!r} has unexpected payload type")
        return snapshot

    # -- write path --------------------------------------------------------------------

    def save(
        self,
        name: str,
        instance: DatabaseInstance,
        version: int = 1,
        shards: int = 1,
    ) -> StoreSnapshot:
        """Persist a full snapshot (registration, boot compaction).

        The log is truncated *after* the snapshot lands; a crash in between
        is harmless because replay skips records at or below ``version``.
        """
        with self._lock:
            snapshot = StoreSnapshot(
                name=name,
                instance=instance,
                fingerprint=_fingerprint(instance),
                version=version,
                shards=shards,
                saved_at=time.time(),
            )
            self._write_snapshot(snapshot)
            log = self._log_of(name)
            if log.exists():
                log.truncate()
            with self._meta_lock:
                self._meta[name] = (version, 0, False)
            return snapshot

    def mutate(
        self,
        name: str,
        ops: Sequence[Tuple[str, Fact]],
        version: int,
        instance: Optional[DatabaseInstance] = None,
        shards: int = 1,
    ) -> int:
        """Durably append fact mutations, all carrying the new ``version``.

        The whole batch is framed as one commit unit (one write, one
        fsync, the final record carrying ``commit=True``): replay applies
        it all-or-nothing, so a crash mid-write can never resurface a
        partial mutation.  ``instance`` is the post-mutation state the
        caller already holds; when the log depth crosses ``compact_every``
        it lets compaction write the fresh snapshot without replaying the
        log.  Returns the resulting log depth (0 right after a compaction).
        """
        if not ops:
            raise StoreError("mutate() requires at least one op")
        with self._lock:
            meta = self._meta_of(name)
            if meta is None or meta[2]:
                raise UnknownStoreInstanceError(
                    f"instance {name!r} has no snapshot in {self._root!r}"
                )
            records = []
            for position, (kind, fact) in enumerate(ops):
                if kind not in ("add_fact", "remove_fact"):
                    raise StoreError(f"mutate() cannot append {kind!r} records")
                records.append(
                    LogRecord(
                        kind=kind,
                        version=version,
                        data=fact,
                        commit=position == len(ops) - 1,
                    )
                )
            with obs_span("store.log_append", instance=name, records=len(records)):
                add_cost("store_fsyncs", 1)
                self._log_of(name).append_batch(records)
            depth = meta[1] + len(records)
            # The write's blast radius: distinct blocks the batch landed in.
            # Computable only when the caller handed over the post-mutation
            # state (the registry always does); a bare log append records
            # the batch without the block dimension.
            touched = (
                len({instance.block_key_of(fact) for _kind, fact in ops})
                if instance is not None
                else 0
            )
            with self._meta_lock:
                self._appends += len(records)
                self._mutation_batches += 1
                self._mutation_ops += len(ops)
                self._mutation_blocks_touched += touched
                self._meta[name] = (version, depth, False)
            if self._compact_every and depth >= self._compact_every:
                self.compact(name, instance=instance, version=version, shards=shards)
                return 0
            return depth

    def replace(
        self,
        name: str,
        instance: DatabaseInstance,
        version: int,
        shards: int = 1,
    ) -> None:
        """Durably record a full-instance replacement as a log record.

        Used when a registered name is overwritten (``POST /instances`` with
        ``replace``): the record carries the whole instance, and the next
        compaction folds it into a snapshot.  A name with no snapshot yet
        gets one directly instead.
        """
        with self._lock:
            meta = self._meta_of(name)
            if meta is None or meta[2]:
                self.save(name, instance, version=version, shards=shards)
                return
            with obs_span("store.log_append", instance=name, records=1):
                add_cost("store_fsyncs", 1)
                self._log_of(name).append(
                    LogRecord(kind="replace", version=version, data=(instance, shards))
                )
            depth = meta[1] + 1
            with self._meta_lock:
                self._appends += 1
                self._meta[name] = (version, depth, False)
            if self._compact_every and depth >= self._compact_every:
                self.compact(name, instance=instance, version=version, shards=shards)

    def drop(self, name: str) -> bool:
        """Remove an instance: durable ``drop`` record, then the directory.

        Returns whether anything was dropped.  The record-then-rmtree order
        makes the crash window safe: a reload that still finds the directory
        replays the drop record and discards the instance.
        """
        with self._lock:
            directory = self._dir_of(name)
            if not os.path.isdir(directory):
                return False
            meta = self._meta_of(name)
            version = meta[0] + 1 if meta is not None else 1
            self._log_of(name).append(LogRecord(kind="drop", version=version))
            # meta.json is the existence marker names()/open_all() trust, and
            # rmtree deletes in unspecified order — removing the marker first
            # means no partial failure can leave a snapshot that looks live
            # (the drop record covers the window before this unlink).
            try:
                os.remove(os.path.join(directory, _META))
            except OSError:
                pass
            shutil.rmtree(directory, ignore_errors=True)
            with self._meta_lock:
                self._appends += 1
                self._meta.pop(name, None)
            return True

    def compact(
        self,
        name: str,
        instance: Optional[DatabaseInstance] = None,
        version: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> StoredInstance:
        """Fold the log into a fresh snapshot and truncate it.

        Callers that already hold the current state pass it in; otherwise
        the state is reconstructed by replay first.
        """
        with self._lock:
            if instance is None or version is None:
                stored = self.load(name)
                if stored is None or stored.dropped:
                    raise UnknownStoreInstanceError(
                        f"cannot compact unknown instance {name!r}"
                    )
                instance, version = stored.instance, stored.version
                shards = stored.shards if shards is None else shards
            elif shards is None:
                try:
                    snapshot = self._read_snapshot(name)
                except SnapshotCorruptionError:
                    snapshot = None  # compaction is about to overwrite it anyway
                shards = snapshot.shards if snapshot is not None else 1
            self.save(name, instance, version=version, shards=shards)
            with self._meta_lock:
                self._compactions += 1
                self._last_compaction_at = time.time()
            _OBSLOG.info("compacted", instance=name, version=version)
            return StoredInstance(
                name=name,
                instance=instance,
                fingerprint=_fingerprint(instance),
                version=version,
                shards=shards,
                log_depth=0,
            )

    # -- read path ---------------------------------------------------------------------

    def _committed_replay(
        self, name: str, base_version: int
    ) -> List[List[LogRecord]]:
        """The log's committed batches above ``base_version`` (caller holds
        the lock).

        An uncommitted tail — a mutation batch whose crash interrupted the
        write before its commit record — is **physically truncated off the
        file** (with a warning), not just skipped: the registry reuses the
        orphan's version for its next accepted write, and a lingering
        orphan prefix would otherwise merge into that later same-version
        batch on replay and resurrect the partial mutation.
        """
        log = self._log_of(name)
        records, ends = log.scan()
        committed = 0  # length of the longest prefix ending at a commit record
        for index, record in enumerate(records):
            if record.commit:
                committed = index + 1
        if committed < len(records):
            _OBSLOG.warning(
                "uncommitted_batch_dropped",
                instance=name,
                records_dropped=len(records) - committed,
                records_kept=committed,
            )
            warnings.warn(
                f"store instance {name!r}: dropping "
                f"{len(records) - committed} uncommitted log record(s) "
                f"(crash mid-mutation); the partial batch does not replay",
                LogCorruptionWarning,
                stacklevel=3,
            )
            log.truncate_at(ends[committed - 1] if committed else 0)
            records = records[:committed]
        batches: List[List[LogRecord]] = []
        pending: List[LogRecord] = []
        for record in records:
            pending.append(record)
            if record.commit:
                if record.version > base_version:
                    batches.append(pending)
                pending = []
        return batches

    def _meta_of(self, name: str) -> Optional[Tuple[int, int, bool]]:
        """(version, pending log depth, dropped) — cached; caller holds the
        lock.  The cache-miss path reads the snapshot and scans the log
        once; every later lookup is a dict hit."""
        with self._meta_lock:
            meta = self._meta.get(name)
        if meta is not None:
            return meta
        try:
            snapshot = self._read_snapshot(name)
        except SnapshotCorruptionError:
            stored = self.load(name)  # log-only fallback; fills the cache
            if stored is None:
                return None
            return (stored.version, stored.log_depth, stored.dropped)
        if snapshot is None:
            return None
        version, depth, is_dropped = snapshot.version, 0, False
        for batch in self._committed_replay(name, snapshot.version):
            version = batch[-1].version
            depth += len(batch)
            is_dropped = is_dropped or any(r.kind == "drop" for r in batch)
        meta = (version, depth, is_dropped)
        with self._meta_lock:
            self._meta[name] = meta
        return meta

    def load(self, name: str) -> Optional[StoredInstance]:
        """Reconstruct one instance: latest snapshot + replayed log.

        Returns ``None`` when the store has no state for ``name``; a
        reconstructed state ending in a ``drop`` record comes back with
        ``dropped=True`` (callers treat it as absent and may clean up).
        Only *committed* batches replay (see :class:`~repro.store.log.LogRecord`).
        """
        with self._lock:
            try:
                snapshot = self._read_snapshot(name)
            except SnapshotCorruptionError as corruption:
                return self._log_only_load(name, corruption)
            if snapshot is None:
                return None
            instance = DatabaseInstance(snapshot.instance.schema, snapshot.instance)
            version = snapshot.version
            shards = snapshot.shards
            depth = 0
            dropped = False
            for batch in self._committed_replay(name, snapshot.version):
                depth += len(batch)
                version = batch[-1].version
                for record in batch:
                    if record.kind == "add_fact":
                        instance.add_fact(record.data)
                    elif record.kind == "remove_fact":
                        instance.discard_fact(record.data)
                    elif record.kind == "replace":
                        replacement, shards = record.data
                        instance = DatabaseInstance(replacement.schema, replacement)
                    elif record.kind == "drop":
                        dropped = True
            with self._meta_lock:
                self._meta[name] = (version, depth, dropped)
            return StoredInstance(
                name=name,
                instance=instance,
                fingerprint=_fingerprint(instance),
                version=version,
                shards=shards,
                log_depth=depth,
                dropped=dropped,
            )

    def _log_only_load(self, name: str, corruption: StoreError) -> StoredInstance:
        """Rebuild ``name`` from the fact log alone (corrupt snapshot).

        The log's ``replace`` records carry full instances, so replay
        restarts from the latest one and applies the mutations after it.
        Mutations logged *before* any replacement applied to the lost
        snapshot's base and cannot be recovered — they are counted and
        warned about, not silently absorbed.  With no replacement record
        in the log the state is unrecoverable and the corruption error
        surfaces (callers on the boot path skip the instance).
        """
        REGISTRY.counter("repro_store_snapshot_corrupt_total", _CORRUPT_HELP).inc()
        _OBSLOG.warning("snapshot_corrupt", instance=name, error=str(corruption))
        batches = self._committed_replay(name, 0)
        instance: Optional[DatabaseInstance] = None
        shards = 1
        version = 0
        depth = 0
        dropped = False
        unrecoverable = 0
        for batch in batches:
            depth += len(batch)
            version = batch[-1].version
            for record in batch:
                if record.kind == "replace":
                    replacement, shards = record.data
                    instance = DatabaseInstance(replacement.schema, replacement)
                elif record.kind == "drop":
                    dropped = True
                elif instance is None:
                    unrecoverable += 1
                elif record.kind == "add_fact":
                    instance.add_fact(record.data)
                elif record.kind == "remove_fact":
                    instance.discard_fact(record.data)
        if instance is None:
            raise StoreError(
                f"snapshot for {name!r} is corrupt and the log holds no "
                f"full replacement record to rebuild from"
            ) from corruption
        warnings.warn(
            f"store instance {name!r}: snapshot failed verification "
            f"({corruption}); state rebuilt from the log"
            + (
                f", dropping {unrecoverable} pre-replacement mutation(s) "
                "that applied to the lost snapshot"
                if unrecoverable
                else ""
            ),
            SnapshotCorruptionWarning,
            stacklevel=4,
        )
        with self._meta_lock:
            self._meta[name] = (version, depth, dropped)
        return StoredInstance(
            name=name,
            instance=instance,
            fingerprint=_fingerprint(instance),
            version=version,
            shards=shards,
            log_depth=depth,
            dropped=dropped,
        )

    def names(self) -> List[str]:
        """Every instance name with on-disk state (from the meta files)."""
        found: List[str] = []
        with self._lock:
            try:
                entries = sorted(os.listdir(self._root))
            except FileNotFoundError:
                return []
            for entry in entries:
                meta_path = os.path.join(self._root, entry, _META)
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                except (OSError, json.JSONDecodeError):
                    continue
                name = meta.get("name")
                if isinstance(name, str) and name:
                    found.append(name)
        return sorted(found)

    def open_all(self, compact: bool = True) -> Dict[str, StoredInstance]:
        """Reload every stored instance (the boot path).

        With ``compact`` (the default), any instance whose log has pending
        records is compacted after replay, so the next boot replays nothing
        and a snapshot that failed its CRC check is rewritten from the
        rebuilt state.  Dropped leftovers (crash between the drop record and
        the directory removal) are cleaned up here.
        """
        loaded: Dict[str, StoredInstance] = {}
        with self._lock:
            for name in self.names():
                try:
                    stored = self.load(name)
                except StoreError as exc:
                    # One unrecoverable instance must not take down the
                    # whole boot; it stays on disk for manual inspection.
                    _OBSLOG.error("boot_skip_corrupt", instance=name, error=str(exc))
                    warnings.warn(
                        f"store instance {name!r} could not be reloaded and "
                        f"was skipped: {exc}",
                        SnapshotCorruptionWarning,
                        stacklevel=2,
                    )
                    continue
                if stored is None:
                    continue
                if stored.dropped:
                    try:  # existence marker first; see drop()
                        os.remove(os.path.join(self._dir_of(name), _META))
                    except OSError:
                        pass
                    shutil.rmtree(self._dir_of(name), ignore_errors=True)
                    with self._meta_lock:
                        self._meta.pop(name, None)
                    continue
                if compact and stored.log_depth > 0:
                    stored = self.compact(
                        name,
                        instance=stored.instance,
                        version=stored.version,
                        shards=stored.shards,
                    )
                loaded[name] = stored
        return loaded

    def version_of(self, name: str) -> Optional[int]:
        """The current stored version of ``name`` (snapshot + log), if any.

        Served from the metadata cache — no snapshot unpickle, no instance
        copy — so registration-time version continuity checks stay O(1).
        """
        with self._lock:
            meta = self._meta_of(name)
            if meta is None or meta[2]:
                return None
            return meta[0]

    # -- observability -----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Store statistics for ``/metrics`` and ``/healthz``.

        Served entirely from the in-memory metadata cache and counters
        under ``_meta_lock`` — no disk access and no contention with the
        main store lock, which writers hold across pickle+fsync.  The
        event loop can therefore call this inline on every liveness probe
        without ever stalling behind an in-flight write.  Names this
        handle has never opened or written are not listed; the serving
        layer's boot reload (:meth:`open_all`) touches every stored name,
        so a server's stats are always complete.
        """
        with self._meta_lock:
            meta = dict(self._meta)
            appends = self._appends
            snapshots = self._snapshots_written
            compactions = self._compactions
            mutation_batches = self._mutation_batches
            mutation_ops = self._mutation_ops
            mutation_blocks = self._mutation_blocks_touched
            last_compaction = self._last_compaction_at
        versions = {
            name: version
            for name, (version, _depth, dropped) in sorted(meta.items())
            if not dropped
        }
        log_depth = {
            name: depth
            for name, (_version, depth, dropped) in sorted(meta.items())
            if not dropped
        }
        return {
            "enabled": True,
            "dir": self._root,
            "instances": len(versions),
            "versions": versions,
            "log_depth": log_depth,
            "log_records_pending": sum(log_depth.values()),
            "appends_total": appends,
            "snapshots_written": snapshots,
            "compactions_total": compactions,
            "mutation_batches_total": mutation_batches,
            "mutation_ops_total": mutation_ops,
            "mutation_blocks_touched_total": mutation_blocks,
            "last_compaction_at": last_compaction,
            "compact_every": self._compact_every,
        }
