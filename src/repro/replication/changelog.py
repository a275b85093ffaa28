"""The replication changelog: every committed base-relation mutation, CRC-
checked and monotonically sequenced.

The PR-1 undo journal is a *rollback* log — before-images that recovery
applies to erase an unfinished transaction.  Replication needs the opposite:
a *redo* stream of what actually happened, in commit order, that a replica
can replay to converge on the primary's state.  This module is that stream.

A :class:`Changelog` keeps the full record tail in memory (the ship loops
read from it without touching disk) and, when given a path, also persists
every record append-only with an fsync — the durability point a primary
acknowledges writes at.  Reopening the path reloads the tail, so a restarted
primary (or a promoted replica) resumes its sequence where it left off.

On-disk format (all integers big-endian)::

    header:  magic "CORALL1\\n" | version:u16
    record:  seq:u64 | kind:u8 | pred_len:u16 | payload_len:u32 | crc:u32
             | pred (UTF-8) | payload

``kind`` is ``KIND_INSERT`` / ``KIND_DELETE`` (payload: one
:func:`repro.storage.serde.encode_batch` block of the inserted/deleted
tuples — the same versioned codec the wire protocol and heap records use,
so the replication format cannot drift from either) or ``KIND_CONSULT``
(payload: UTF-8 program source; ``pred`` is empty).  ``crc`` is CRC32 over
seq, kind, pred, and payload.  Like the undo journal, a *truncated* trailing
record (a crash mid-append) is silently dropped, but a *corrupted* record
mid-file raises :class:`~repro.errors.StorageError`: replaying garbage would
silently diverge a replica, which is strictly worse than stopping.

Sequence numbers start at 1 and are dense: ``append`` either mints
``last_seq + 1`` or (replica side) accepts an explicit sequence that must be
exactly the successor — the gate that makes applying shipped records
idempotent (a duplicate is detected by its old sequence, a gap by its
too-new one).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Iterable, List, Optional, Tuple as PyTuple

from ..errors import StorageError
from ..faults import PASSIVE, FaultInjector
from ..relations import Tuple
from ..storage.serde import decode_batch, encode_batch
from ..terms import Arg

CHANGELOG_MAGIC = b"CORALL1\n"
CHANGELOG_VERSION = 1

_FILE_HEADER = struct.Struct(">8sH")  # magic, version
_RECORD_HEADER = struct.Struct(">QBHII")  # seq, kind, pred len, payload len, crc

#: record kinds
KIND_INSERT = 1  # payload = encode_batch of inserted tuples
KIND_DELETE = 2  # payload = encode_batch of deleted tuples
KIND_CONSULT = 3  # payload = UTF-8 program source, pred = ""

_KINDS = (KIND_INSERT, KIND_DELETE, KIND_CONSULT)

#: refuse records claiming more payload than this (a corrupt length field
#: must not trigger a giant allocation)
MAX_RECORD_BYTES = 64 * 1024 * 1024


def record_crc(seq: int, kind: int, pred_bytes: bytes, payload: bytes) -> int:
    crc = zlib.crc32(struct.pack(">QB", seq, kind))
    crc = zlib.crc32(pred_bytes, crc)
    return zlib.crc32(payload, crc) & 0xFFFFFFFF


class ChangelogRecord:
    """One committed mutation: sequence, kind, predicate, payload bytes."""

    __slots__ = ("seq", "kind", "pred", "payload", "crc")

    def __init__(self, seq: int, kind: int, pred: str, payload: bytes) -> None:
        if kind not in _KINDS:
            raise StorageError(f"unknown changelog record kind {kind}")
        self.seq = seq
        self.kind = kind
        self.pred = pred
        self.payload = payload
        self.crc = record_crc(seq, kind, pred.encode("utf-8"), payload)

    def encode(self) -> bytes:
        pred_bytes = self.pred.encode("utf-8")
        return (
            _RECORD_HEADER.pack(
                self.seq, self.kind, len(pred_bytes), len(self.payload), self.crc
            )
            + pred_bytes
            + self.payload
        )

    def __repr__(self) -> str:
        kind = {KIND_INSERT: "insert", KIND_DELETE: "delete", KIND_CONSULT: "consult"}
        return (
            f"<ChangelogRecord #{self.seq} {kind.get(self.kind, self.kind)}"
            f" {self.pred or '(program)'} {len(self.payload)}B>"
        )


def decode_records(data: bytes, source: str = "<bytes>") -> List[ChangelogRecord]:
    """Parse a changelog byte string back into records.

    A truncated trailing record is dropped (a crash mid-append — the write
    it described was never acknowledged); a corrupted record (CRC mismatch,
    unknown kind, non-successor sequence) raises :class:`StorageError`.
    """
    if len(data) < _FILE_HEADER.size:
        return []
    magic, version = _FILE_HEADER.unpack_from(data, 0)
    if magic != CHANGELOG_MAGIC:
        raise StorageError(
            f"changelog {source} has bad magic {magic!r}; refusing to replay "
            f"an unrecognized log"
        )
    if version != CHANGELOG_VERSION:
        raise StorageError(
            f"changelog {source} has unsupported version {version} "
            f"(expected {CHANGELOG_VERSION})"
        )
    records: List[ChangelogRecord] = []
    offset = _FILE_HEADER.size
    size = len(data)
    while offset < size:
        if offset + _RECORD_HEADER.size > size:
            break  # torn trailing header
        seq, kind, pred_len, payload_len, crc = _RECORD_HEADER.unpack_from(
            data, offset
        )
        if kind not in _KINDS:
            raise StorageError(
                f"changelog {source} has a record of unknown kind {kind} at "
                f"offset {offset}; replay halted"
            )
        if payload_len > MAX_RECORD_BYTES:
            raise StorageError(
                f"changelog {source} record at offset {offset} claims an "
                f"implausible {payload_len}-byte payload; replay halted"
            )
        end = offset + _RECORD_HEADER.size + pred_len + payload_len
        if end > size:
            break  # torn trailing record
        pred_start = offset + _RECORD_HEADER.size
        pred_bytes = data[pred_start : pred_start + pred_len]
        payload = data[pred_start + pred_len : end]
        if record_crc(seq, kind, pred_bytes, payload) != crc:
            raise StorageError(
                f"changelog {source} has a corrupted record at offset "
                f"{offset} (checksum mismatch); replay halted"
            )
        expected = records[-1].seq + 1 if records else seq
        if seq != expected:
            raise StorageError(
                f"changelog {source} sequence break at offset {offset}: "
                f"record #{seq} follows #{expected - 1}; replay halted"
            )
        try:
            pred = pred_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise StorageError(
                f"changelog {source} record at offset {offset} has an "
                f"invalid UTF-8 predicate name"
            ) from None
        records.append(ChangelogRecord(seq, kind, pred, payload))
        offset = end
    return records


class Changelog:
    """The sequenced mutation log one server ships (or applies) from.

    Thread-safe: appenders hold the internal condition, ship loops block in
    :meth:`wait_for` until the record they need exists.  With a ``path`` the
    log is durable (append + fsync per record); without one it lives only in
    memory — fine for tests and for replicas whose base data is re-shipped
    on reconnect anyway.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.path = path
        self.faults = faults if faults is not None else PASSIVE
        self._cond = threading.Condition()
        self._records: List[ChangelogRecord] = []
        self._handle = None
        if path is not None:
            try:
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        self._records = decode_records(handle.read(), path)
                self._handle = open(path, "ab", buffering=0)
                if not self._records and self._handle.tell() == 0:
                    self._handle.write(
                        _FILE_HEADER.pack(CHANGELOG_MAGIC, CHANGELOG_VERSION)
                    )
                    os.fsync(self._handle.fileno())
                elif self._records:
                    # drop any torn trailing bytes so the next append starts
                    # at a record boundary
                    valid = _FILE_HEADER.size + sum(
                        _RECORD_HEADER.size
                        + len(r.pred.encode("utf-8"))
                        + len(r.payload)
                        for r in self._records
                    )
                    self._handle.truncate(valid)
            except OSError as exc:
                raise StorageError(
                    f"cannot open changelog {path}: {exc}"
                ) from exc

    # -- appends -------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        with self._cond:
            return self._records[-1].seq if self._records else 0

    @property
    def first_seq(self) -> int:
        with self._cond:
            return self._records[0].seq if self._records else 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._records)

    def append(
        self, kind: int, pred: str, payload: bytes, seq: Optional[int] = None
    ) -> ChangelogRecord:
        """Append one record; mints ``last_seq + 1`` unless an explicit
        ``seq`` is given (replica side), which must be exactly the successor
        — the sequence gate that keeps replicas from silently diverging."""
        with self._cond:
            expected = (self._records[-1].seq if self._records else 0) + 1
            if seq is None:
                seq = expected
            elif seq != expected:
                raise StorageError(
                    f"changelog sequence break: appending #{seq} after "
                    f"#{expected - 1}"
                )
            record = ChangelogRecord(seq, kind, pred, payload)
            self.faults.check("repl.log")
            if self._handle is not None:
                try:
                    self._handle.write(record.encode())
                    os.fsync(self._handle.fileno())
                except OSError as exc:
                    raise StorageError(
                        f"changelog append failed for {self.path}: {exc}"
                    ) from exc
            self._records.append(record)
            self._cond.notify_all()
            return record

    # -- reads (ship loops, replay) ------------------------------------------

    def get(self, seq: int) -> Optional[ChangelogRecord]:
        with self._cond:
            return self._get_locked(seq)

    def _get_locked(self, seq: int) -> Optional[ChangelogRecord]:
        if not self._records:
            return None
        index = seq - self._records[0].seq
        if 0 <= index < len(self._records):
            return self._records[index]
        return None

    def wait_for(
        self, seq: int, timeout: Optional[float] = None
    ) -> Optional[ChangelogRecord]:
        """Block until record ``seq`` exists (a ship loop waiting for new
        work); None on timeout."""
        with self._cond:
            record = self._get_locked(seq)
            if record is None:
                self._cond.wait(timeout)
                record = self._get_locked(seq)
            return record

    def since(self, seq: int) -> List[ChangelogRecord]:
        """All records with sequence strictly greater than ``seq``."""
        with self._cond:
            if not self._records:
                return []
            start = max(0, seq + 1 - self._records[0].seq)
            return list(self._records[start:])

    def records(self) -> List[ChangelogRecord]:
        with self._cond:
            return list(self._records)

    def close(self) -> None:
        with self._cond:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
            self._cond.notify_all()

    def __repr__(self) -> str:
        return (
            f"<Changelog {self.path or '(memory)'} "
            f"{len(self)} records, last #{self.last_seq}>"
        )


# -- building and applying records -------------------------------------------


def encode_mutation(rows: Iterable[PyTuple[Arg, ...]]) -> bytes:
    """The INSERT/DELETE payload: one serde batch of the mutated tuples."""
    return encode_batch([list(row) for row in rows])


def apply_record(session, record: ChangelogRecord) -> None:
    """Replay one record against a session, firing the same memo and
    live-view hooks a local update would (docs/MEMO.md, docs/LIVE.md) so a
    replica's answer cache is incrementally refreshed rather than cold and
    subscriptions attached to a replica stream the replicated deltas.

    Callers are responsible for the sequence gate (``Changelog.append`` with
    an explicit seq); the apply itself is a plain redo.
    """
    if record.kind == KIND_CONSULT:
        try:
            source = record.payload.decode("utf-8")
        except UnicodeDecodeError:
            raise StorageError(
                f"changelog record #{record.seq} has an invalid UTF-8 "
                f"program payload"
            ) from None
        for result in session.consult_string(source):
            result.close()  # replicas apply programs, they don't run queries
        return
    rows = decode_batch(record.payload)
    ctx = session.ctx
    if record.kind == KIND_INSERT:
        changed = False
        for row in rows:
            relation = session.relation(record.pred, len(row))
            changed = relation.insert(Tuple(tuple(row))) or changed
        if changed:
            ctx.notify_insert((record.pred, len(rows[0])))
        return
    for row in rows:
        relation = ctx.base_relations.get((record.pred, len(row)))
        tup = Tuple(tuple(row))
        if relation is not None and relation.delete(tup):
            ctx.notify_delete((record.pred, len(row)), tup)


def replay_into(session, records: Iterable[ChangelogRecord]) -> int:
    """Replay a record sequence (a boot-time rebuild); returns the count."""
    count = 0
    for record in records:
        apply_record(session, record)
        count += 1
    return count
