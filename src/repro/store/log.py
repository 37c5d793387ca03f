"""The append-only fact log: length-prefixed, checksummed, fsync'd records.

One log file accompanies each instance snapshot in the durable store.  Every
mutation the registry accepts is appended here *before* it becomes visible
to readers, so a crash at any point loses at most the record being written —
and a torn tail is detected by checksum and truncated, never crashing the
reader.

Record framing (all integers big-endian)::

    +----------------+----------------+----------------------+
    | payload length |  CRC32(payload)|  payload (pickle)    |
    |    4 bytes     |     4 bytes    |  `length` bytes      |
    +----------------+----------------+----------------------+

The payload is the pickle of a :class:`LogRecord` — ``kind`` is one of
``add_fact`` / ``remove_fact`` / ``replace`` / ``drop``, ``version`` is the
instance version *after* applying the record, and ``data`` is the record's
argument (a :class:`~repro.datamodel.facts.Fact` for the fact kinds, a
``(instance, shards)`` pair for ``replace``, ``None`` for ``drop``).

Reading is resilient by construction: a record whose header is incomplete,
whose payload is shorter than its declared length, or whose checksum does
not match terminates the scan — the reader reports the byte offset of the
first bad record so the caller can truncate the file there (the crash-safe
recovery :meth:`FactLog.scan` performs automatically).  Replay — which
records apply over a snapshot — is the store's
(:meth:`~repro.store.InstanceStore.load`): it also drops an uncommitted
tail, which a bare scan cannot see.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

_HEADER = struct.Struct(">II")

_LOG = get_logger("store")

_FSYNC_HELP = "Latency of fact-log fsync calls on the durable write path."

#: The record kinds the write path emits (wire ops map onto the first two).
RECORD_KINDS = ("add_fact", "remove_fact", "replace", "drop")


class LogCorruptionWarning(RuntimeWarning):
    """A torn or corrupt log tail was detected and truncated."""


class StoreError(ReproError):
    """Base class for durable-store failures."""


@dataclass(frozen=True)
class LogRecord:
    """One durable mutation: kind, resulting version, and its argument.

    ``commit`` frames multi-record batches: a mutation of N ops appends N
    records sharing one version, all but the last with ``commit=False``.
    Replay buffers a batch until its commit record and applies it as a
    unit, so a crash mid-batch can never surface a *partial* mutation —
    the uncommitted prefix is dropped (with a warning), keeping the write
    path's all-or-nothing contract on disk, not just in memory.
    """

    kind: str
    version: int
    data: object = None
    commit: bool = True

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise StoreError(f"unknown log record kind {self.kind!r}")


def _encode(record: LogRecord) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan(raw: bytes) -> Tuple[List[LogRecord], List[int], Optional[int]]:
    """Parse every intact record; return (records, end offsets, bad offset).

    A clean file returns ``(records, ends, None)``.  Corruption — torn
    header, short payload, checksum mismatch, undecodable pickle — stops
    the scan and reports where the good prefix ends.  ``ends[i]`` is the
    byte offset just past record ``i``, so callers can truncate the file
    at any record boundary.
    """
    records: List[LogRecord] = []
    ends: List[int] = []
    stream = io.BytesIO(raw)
    while True:
        offset = stream.tell()
        header = stream.read(_HEADER.size)
        if not header:
            return records, ends, None
        if len(header) < _HEADER.size:
            return records, ends, offset
        length, checksum = _HEADER.unpack(header)
        payload = stream.read(length)
        if len(payload) < length or zlib.crc32(payload) != checksum:
            return records, ends, offset
        try:
            record = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — a checksummed-but-bad pickle is corruption too
            return records, ends, offset
        if not isinstance(record, LogRecord):
            return records, ends, offset
        records.append(record)
        ends.append(stream.tell())


class FactLog:
    """One instance's append-only mutation log.

    Appends are durable (``flush`` + ``fsync``) before they return; a scan
    tolerates a torn tail by truncating at the first bad record with a
    :class:`LogCorruptionWarning`.  The log is an *adjunct* to the snapshot:
    the store's replay skips records at or below the snapshot's version,
    which is what makes the snapshot-then-truncate compaction sequence
    crash-safe at every intermediate point.
    """

    def __init__(self, path: str) -> None:
        self._path = path

    @property
    def path(self) -> str:
        return self._path

    def append(self, record: LogRecord) -> None:
        """Durably append one record (fsync'd before returning)."""
        self.append_batch([record])

    def append_batch(self, records: List[LogRecord]) -> None:
        """Durably append a batch: one write, one fsync.

        On a write failure the file is truncated back to its pre-batch
        length (best effort) before the error propagates, so a live
        process whose append failed halfway never leaves orphan records
        that a later batch at the same version could be confused with.
        """
        blob = b"".join(_encode(record) for record in records)
        with open(self._path, "ab") as handle:
            offset = handle.tell()
            try:
                handle.write(blob)
                handle.flush()
                started = time.perf_counter()
                os.fsync(handle.fileno())
                REGISTRY.histogram("repro_store_fsync_seconds", _FSYNC_HELP).observe(
                    time.perf_counter() - started
                )
            except OSError:
                try:
                    handle.truncate(offset)
                except OSError:
                    pass
                raise

    def scan(self) -> Tuple[List[LogRecord], List[int]]:
        """Every intact record plus per-record end offsets.

        A detected torn/corrupt tail is physically truncated off the file
        (with a :class:`LogCorruptionWarning`) before returning.
        """
        try:
            with open(self._path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return [], []
        records, ends, bad_offset = _scan(raw)
        if bad_offset is not None:
            _LOG.warning(
                "log_tail_truncated",
                path=self._path,
                bad_offset=bad_offset,
                file_bytes=len(raw),
                records_kept=len(records),
            )
            warnings.warn(
                f"fact log {self._path!r}: torn or corrupt record at byte "
                f"{bad_offset} of {len(raw)}; truncating "
                f"({len(records)} intact record(s) kept)",
                LogCorruptionWarning,
                stacklevel=2,
            )
            self.truncate_at(bad_offset)
        return records, ends

    def records(self) -> List[LogRecord]:
        """Every intact record, truncating a detected torn/corrupt tail."""
        return self.scan()[0]

    def truncate_at(self, offset: int) -> None:
        """Physically cut the file at ``offset`` (a record boundary)."""
        with open(self._path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())

    def truncate(self) -> None:
        """Drop every record (after a compaction folded them into a snapshot)."""
        with open(self._path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    def exists(self) -> bool:
        return os.path.exists(self._path)
