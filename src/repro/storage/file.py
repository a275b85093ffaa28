"""Disk files and the storage server.

Section 2: *"Persistent data is stored either in text files, or using the
EXODUS storage manager, which has a client-server architecture.  Each CORAL
single-user process is a client that accesses the common persistent data from
the server."*

:class:`DiskFile` is one page file on the local filesystem.
:class:`StorageServer` plays the EXODUS server role: it owns a directory of
named page files and services page read/write requests from clients.  The
client-server boundary is *accounted* rather than networked — every request
increments request counters (and can carry a simulated per-request latency),
which is what the storage benchmarks measure; actually running an RPC stack
would add noise without exercising any additional CORAL code path.

Robustness contract (exercised by ``tests/test_crash_sweep.py``):

* every OS-level failure (``OSError``) is wrapped as
  :class:`~repro.errors.StorageError` with the original as ``__cause__``;
* operations on a closed file raise ``StorageError``, not ``ValueError``;
* every write/sync path passes through a :class:`~repro.faults.FaultInjector`
  injection point, so crashes, failed fsyncs, and torn writes can be
  scheduled deterministically;
* recovery (:meth:`StorageServer._recover_if_needed`) is idempotent and
  truncates pages allocated by the in-flight transaction, using the file
  lengths the journal recorded at first touch.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ..errors import StorageError, TransactionError
from ..faults import PASSIVE, FaultInjector, SimulatedCrash
from .pages import PAGE_SIZE


class DiskFile:
    """A file of fixed-size pages with explicit read/write/allocate.

    Handles are opened unbuffered: every write reaches the OS immediately,
    so an injected crash (abandoning the object) loses nothing that a real
    process kill would have kept — the undo journal, not user-space
    buffering, is what provides atomicity.
    """

    def __init__(
        self,
        path: str,
        create: bool = True,
        faults: Optional[FaultInjector] = None,
        repair_torn_tail: bool = False,
    ) -> None:
        self.path = path
        self.faults = faults if faults is not None else PASSIVE
        self.closed = False
        try:
            if not os.path.exists(path):
                if not create:
                    raise StorageError(f"page file {path} does not exist")
                with open(path, "wb"):
                    pass
            self._handle = open(path, "r+b", buffering=0)
            size = os.fstat(self._handle.fileno()).st_size
        except OSError as exc:
            raise StorageError(f"cannot open page file {path}: {exc}") from exc
        if size % PAGE_SIZE:
            if not repair_torn_tail:
                raise StorageError(
                    f"page file {path} has a torn page (size {size})"
                )
            # recovery mode: the torn tail is an append that never committed
            # (page extensions are transaction-protected); cut it off
            size = (size // PAGE_SIZE) * PAGE_SIZE
            try:
                self._handle.truncate(size)
            except OSError as exc:
                raise StorageError(
                    f"cannot repair torn tail of {path}: {exc}"
                ) from exc
        self._num_pages = size // PAGE_SIZE

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def _require_open(self) -> None:
        if self.closed:
            raise StorageError(f"page file {self.path} is closed")

    def allocate_page(self) -> int:
        """Extend the file by one zeroed page; returns its page id."""
        self._require_open()
        page_id = self._num_pages
        try:
            self.faults.check("disk.allocate")
            self._handle.seek(page_id * PAGE_SIZE)
            self._handle.write(bytes(PAGE_SIZE))
        except OSError as exc:
            raise StorageError(
                f"cannot extend page file {self.path}: {exc}"
            ) from exc
        self._num_pages += 1
        return page_id

    def read_page(self, page_id: int) -> bytearray:
        self._require_open()
        if page_id < 0 or page_id >= self._num_pages:
            raise StorageError(
                f"read of page {page_id} beyond end of {self.path} "
                f"({self._num_pages} pages)"
            )
        try:
            self.faults.check("disk.read_page")
            self._handle.seek(page_id * PAGE_SIZE)
            return bytearray(self._handle.read(PAGE_SIZE))
        except OSError as exc:
            raise StorageError(
                f"cannot read page {page_id} of {self.path}: {exc}"
            ) from exc

    def write_page(self, page_id: int, data: bytes) -> None:
        self._require_open()
        if len(data) != PAGE_SIZE:
            raise StorageError("write_page requires exactly one page of data")
        if page_id < 0 or page_id >= self._num_pages:
            raise StorageError(f"write of unallocated page {page_id} in {self.path}")
        try:
            keep = self.faults.check("disk.write_page")
            self._handle.seek(page_id * PAGE_SIZE)
            if keep is not None:
                # torn write: a prefix of the page reaches the platter, then
                # the power goes out
                self._handle.write(bytes(data[:keep]))
                raise SimulatedCrash(
                    f"injected torn write of page {page_id} in {self.path} "
                    f"({keep}/{PAGE_SIZE} bytes)"
                )
            self._handle.write(data)
        except OSError as exc:
            raise StorageError(
                f"cannot write page {page_id} of {self.path}: {exc}"
            ) from exc

    def truncate(self, num_pages: int) -> None:
        """Shrink the file to ``num_pages`` pages (abort/recovery of pages
        allocated by an in-flight transaction)."""
        self._require_open()
        if num_pages < 0 or num_pages > self._num_pages:
            raise StorageError(
                f"cannot truncate {self.path} to {num_pages} pages "
                f"(has {self._num_pages})"
            )
        try:
            self.faults.check("disk.truncate")
            self._handle.truncate(num_pages * PAGE_SIZE)
        except OSError as exc:
            raise StorageError(
                f"cannot truncate page file {self.path}: {exc}"
            ) from exc
        self._num_pages = num_pages

    def sync(self) -> None:
        self._require_open()
        try:
            self.faults.check("disk.sync")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise StorageError(f"cannot sync page file {self.path}: {exc}") from exc

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._handle.flush()
            self._handle.close()
        except OSError as exc:
            raise StorageError(f"cannot close page file {self.path}: {exc}") from exc


class ServerStats:
    """Request accounting at the client-server boundary."""

    __slots__ = ("page_reads", "page_writes", "allocations")

    def __init__(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.allocations = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.allocations = 0

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy; the profiler diffs two of these."""
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "allocations": self.allocations,
        }

    def __repr__(self) -> str:
        return (
            f"<ServerStats reads={self.page_reads} writes={self.page_writes} "
            f"allocs={self.allocations}>"
        )


class StorageServer:
    """The EXODUS-server stand-in: a directory of named page files.

    ``faults`` threads a :class:`~repro.faults.FaultInjector` through every
    file the server opens and every journal it creates; the default shares
    the passive process-wide injector (counting only, no faults).
    """

    def __init__(
        self,
        directory: str,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.faults = faults if faults is not None else PASSIVE
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create storage directory {directory}: {exc}"
            ) from exc
        self.directory = directory
        #: set by :meth:`close`; a closed server accepts no further requests,
        #: and ``Session.close`` skips its flush when the pool's server is
        #: already gone (so tearing a session down twice cannot raise)
        self.closed = False
        self._files: Dict[str, DiskFile] = {}
        self.stats = ServerStats()
        self._journal = None
        self._recovering = False
        self._recover_if_needed()

    def _file(self, name: str) -> DiskFile:
        handle = self._files.get(name)
        if handle is None:
            handle = DiskFile(
                os.path.join(self.directory, name),
                faults=self.faults,
                repair_torn_tail=self._recovering,
            )
            self._files[name] = handle
        if self._journal is not None:
            # first touch in this transaction: record the file's length so
            # abort/recovery can truncate pages allocated mid-transaction
            self._journal.record_length(name, handle.num_pages)
        return handle

    # -- the request interface used by clients -----------------------------

    def read_page(self, file_name: str, page_id: int) -> bytearray:
        self.stats.page_reads += 1
        return self._file(file_name).read_page(page_id)

    def write_page(self, file_name: str, page_id: int, data: bytes) -> None:
        self.stats.page_writes += 1
        self.faults.check("server.write_page")
        handle = self._file(file_name)
        if self._journal is not None and page_id < handle.num_pages:
            recorded = self._journal.recorded_length(file_name)
            if recorded is None or page_id < recorded:
                # only pages that existed before the transaction need a
                # before-image; younger pages are truncated away on undo
                self._journal.record(
                    file_name, page_id, bytes(handle.read_page(page_id))
                )
        handle.write_page(page_id, data)

    def allocate_page(self, file_name: str) -> int:
        self.stats.allocations += 1
        return self._file(file_name).allocate_page()

    def num_pages(self, file_name: str) -> int:
        return self._file(file_name).num_pages

    def sync(self, file_name: Optional[str] = None) -> None:
        targets = [self._files[file_name]] if file_name else self._files.values()
        for handle in targets:
            handle.sync()

    def close(self) -> None:
        """Close every open page file.  Idempotent: a second close (e.g. a
        ``Session.__exit__`` after an explicit ``close()``) is a no-op."""
        if self.closed:
            return
        self.closed = True
        for handle in self._files.values():
            handle.close()
        self._files.clear()

    # -- transactions (Section 2: delegated to the storage toolkit) -----------

    @property
    def _journal_path(self) -> str:
        return os.path.join(self.directory, "undo.journal")

    def begin_transaction(self) -> None:
        """Start recording page before-images; one transaction at a time
        (CORAL is a single-user system)."""
        from .xact import UndoJournal

        if self._journal is not None:
            raise TransactionError("a transaction is already in progress")
        self._journal = UndoJournal(self._journal_path, faults=self.faults)

    def commit_transaction(self) -> None:
        """Make the transaction's writes permanent.  Journal removal is the
        commit point: until the journal is gone, a crash rolls back."""
        if self._journal is None:
            raise TransactionError("no transaction in progress")
        self.faults.check("server.commit")
        self.sync()
        self.faults.check("server.commit.cleanup")
        self._journal.close_and_remove()
        self._journal = None

    def abort_transaction(self) -> None:
        """Restore every before-image recorded since ``begin_transaction``
        and truncate files back to their pre-transaction page counts.

        Any buffer pool over this server must be dropped by the caller
        afterwards — its cached frames may hold aborted contents.
        """
        if self._journal is None:
            raise TransactionError("no transaction in progress")
        self.faults.check("server.abort")
        journal = self._journal
        self._journal = None  # undo writes below must not re-journal
        try:
            for file_name, num_pages in journal.file_lengths().items():
                handle = self._file(file_name)
                if handle.num_pages > num_pages:
                    handle.truncate(num_pages)
            for file_name, page_id, before in journal.before_images():
                handle = self._file(file_name)
                if page_id < handle.num_pages:
                    handle.write_page(page_id, before)
            self.sync()
        except BaseException:
            self._journal = journal  # leave the journal for crash recovery
            raise
        journal.close_and_remove()

    def _recover_if_needed(self) -> None:
        """Roll back a journal left behind by a crash (undo recovery).

        Idempotent by construction: the journal is only read, every applied
        action writes absolute state (truncate-to-length, restore-image),
        and the journal is removed last — so a crash at any point during
        recovery is handled by recovering again on the next open.
        """
        from .xact import read_journal

        if not os.path.exists(self._journal_path):
            return
        self.faults.check("server.recover.start")
        contents = read_journal(self._journal_path)  # StorageError if corrupt
        self._recovering = True
        try:
            for file_name, num_pages in contents.file_lengths.items():
                handle = self._file(file_name)
                if handle.num_pages > num_pages:
                    handle.truncate(num_pages)
            for file_name, page_id, before in contents.before_images:
                self.faults.check("server.recover.entry")
                handle = self._file(file_name)
                if page_id < handle.num_pages:
                    handle.write_page(page_id, before)
            self.sync()
        finally:
            self._recovering = False
        self.faults.check("server.recover.cleanup")
        try:
            os.remove(self._journal_path)
        except OSError as exc:
            raise StorageError(
                f"cannot remove recovered journal {self._journal_path}: {exc}"
            ) from exc
