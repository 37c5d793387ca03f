"""repro.store — durable instance store: snapshots + append-only fact log.

The store gives the serving layer a write path and restart survival:

* :mod:`repro.store.log` — checksummed, length-prefixed, fsync'd mutation
  records with torn-tail recovery;
* :mod:`repro.store.store` — :class:`InstanceStore`: per-instance
  atomic-rename snapshots, log replay on open, auto-compaction, durable
  drops, and boot reload (:meth:`InstanceStore.open_all`).

``repro.serve`` wires it up as ``--store-dir DIR``: registered instances
persist, ``PATCH /instances/{name}`` mutations append to the log, and a
restarted server serves the mutated state with its version intact.
"""

from repro.store.log import (
    FactLog,
    LogCorruptionWarning,
    LogRecord,
    RECORD_KINDS,
    StoreError,
)
from repro.store.store import (
    InstanceStore,
    SnapshotCorruptionError,
    SnapshotCorruptionWarning,
    StoredInstance,
    StoreSnapshot,
    UnknownStoreInstanceError,
)

__all__ = [
    "FactLog",
    "InstanceStore",
    "LogCorruptionWarning",
    "LogRecord",
    "RECORD_KINDS",
    "SnapshotCorruptionError",
    "SnapshotCorruptionWarning",
    "StoreError",
    "StoredInstance",
    "StoreSnapshot",
    "UnknownStoreInstanceError",
]
