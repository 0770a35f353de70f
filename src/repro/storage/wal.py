"""Write-ahead log of logical engine operations (the third storage layer).

:mod:`repro.storage` now holds three distinct layers — see the package
docstring: :mod:`repro.storage.pager` *prices* page I/O (§3.1 cost
model), :mod:`repro.storage.pages` stores whole engine images under a
crash-consistent catalog, and this module makes the *gap between two
image saves* durable.  A full :meth:`repro.core.sharded
.ShardedCompactLTree.save` rewrites every arena; a
:class:`WriteAheadLog` instead appends one small CRC'd record per
logical operation (``insert_after``, ``run_insert``, ``delete``,
``set_payload``, ``bulk_load``) so a crash loses at most the
uncommitted tail of a batch, never a whole editing session.

**File layout** (all integers little-endian)::

    header   magic "LTWAL\\x00\\x00\\x00", version u32, base_seq u64,
             crc u32 over the preceding fields
    record   body_len u32, crc u32 over (seq ⊕ body), seq u64,
             body bytes (compact JSON of one logical op)

Records carry strictly consecutive sequence numbers starting at the
header's ``base_seq``.  Opening an existing log scans it record by
record and **physically truncates** everything from the first record
whose length, CRC or sequence number does not validate — a record torn
by a crash mid-append is *dropped, never deserialized*
(:attr:`dropped_bytes` reports how much was cut).

**Group commit.**  :meth:`append` only buffers; :meth:`commit` writes
the whole batch with one ``write`` + ``flush`` and — with ``sync=True``,
the same discipline :class:`repro.storage.pages.PageStore` uses for its
catalog flips — a single ``fsync`` for the entire batch.  Passing
``group_commit=N`` auto-commits every N buffered records.  The
durability contract is therefore *committed records survive a crash*;
an uncommitted tail is lost with the process (and with ``sync=False``
a power loss may additionally lose what only reached the OS).

**Checkpointing** belongs to the caller (see
:class:`repro.concurrent.service.ConcurrentDocument`): fold the engine
state into a page-store save whose same atomic catalog flip records the
checkpoint sequence number, then :meth:`truncate` the log.  Truncation
writes a fresh header to a sibling temp file and atomically renames it
over the log, so a crash at any point leaves either the old log (whose
pre-checkpoint records are simply skipped on replay) or the new empty
one — never a half-truncated file.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import threading
import time
import zlib
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator, Optional

from repro.errors import CorruptionError, RecoveryError, StorageError
from repro.obs import METRICS
from repro.storage.faults import (FAILPOINTS, failpoint, fsync_file,
                                  write_with_retry)

#: magic prefix of a WAL file
WAL_MAGIC = b"LTWAL\x00\x00\x00"
#: on-disk format version (bump on layout changes)
WAL_FORMAT_VERSION = 1

# the enumerable crash surface of this module (see repro.storage.faults)
FAILPOINTS.declare("wal:open:pre-truncate-tail",
                   "torn tail found, physical truncate not yet issued")
FAILPOINTS.declare("wal:commit:pre-write",
                   "batch assembled, nothing written")
FAILPOINTS.declare("wal:commit:torn-write",
                   "tearable write of the whole commit batch")
FAILPOINTS.declare("wal:commit:post-write",
                   "batch written, not yet flushed to the OS")
FAILPOINTS.declare("wal:commit:pre-fsync",
                   "batch flushed, fsync barrier not yet issued")
FAILPOINTS.declare("wal:commit:post-fsync",
                   "batch durable, pending buffer not yet cleared")
FAILPOINTS.declare("wal:truncate:pre-temp",
                   "truncate decided, fresh header not yet written")
FAILPOINTS.declare("wal:truncate:pre-replace",
                   "fresh header complete, rename not yet issued")
FAILPOINTS.declare("wal:truncate:post-replace",
                   "rename done, log not yet reopened")

#: file header: magic, version, base_seq, crc32 of the preceding fields
_WAL_HEADER = struct.Struct("<8sIQI")
#: fixed record prefix: body length, crc32 of (seq bytes + body), seq
_RECORD = struct.Struct("<IIQ")
_SEQ = struct.Struct("<Q")

#: byte ceiling for a single record body — a length field corrupted to
#: garbage must not trigger a gigabyte allocation during the scan
MAX_RECORD_BYTES = 64 * 1024 * 1024


#: the one record-body encoder, built once: the C encoder
#: ``json.dumps(op, separators=(",", ":"))`` would build (after a fresh
#: ``JSONEncoder``) for every record, which costs more than the encoding
#: itself.  Its arguments are ``markers, default, string encoder,
#: indent, key separator, item separator, sort_keys, skipkeys,
#: allow_nan``.  No circular-reference ``markers`` dict: a prebuilt
#: encoder would share it between threads; a cyclic op ends in
#: ``RecursionError`` instead of ``ValueError``.
_encode_chunks = functools.partial(
    c_make_encoder(None, json.JSONEncoder().default,
                   encode_basestring_ascii, None, ":", ",",
                   False, False, True),
    _current_indent_level=0)


def encode_op(op: dict[str, Any]) -> bytes:
    """The record body of one logical op.

    Byte-identical to ``json.dumps(op, separators=(",", ":"))`` encoded
    as UTF-8.  Raises :class:`~repro.errors.StorageError` when ``op``
    is not JSON-serializable (cyclic or too deeply nested included) —
    which is why a journaling caller encodes *before* it applies the op
    (see :class:`repro.concurrent.engine.ConcurrentLTree`): a rejected
    op must leave no trace in memory either.
    """
    try:
        return "".join(_encode_chunks(op)).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise StorageError(
            f"WAL op is not JSON-serializable ({exc})") from None


def _iter_valid_records(raw: bytes,
                        base_seq: int) -> Iterator[tuple[int, bytes, int]]:
    """``(seq, body, end_offset)`` of the valid record prefix of a log.

    The *single* validity rule both consumers share — the open-time
    scan that truncates a torn tail, and :meth:`WriteAheadLog.replay`
    — so the two can never disagree about which records exist: a
    record counts only when its length fits the file, its CRC matches,
    and its sequence number is exactly the next consecutive one.
    Iteration stops at the first violation (everything after a torn or
    foreign record is untrustworthy).
    """
    offset = _WAL_HEADER.size
    expected_seq = base_seq
    while offset + _RECORD.size <= len(raw):
        body_len, crc, seq = _RECORD.unpack_from(raw, offset)
        body_start = offset + _RECORD.size
        body_end = body_start + body_len
        if body_len > MAX_RECORD_BYTES or body_end > len(raw):
            return                                 # torn mid-append
        body = raw[body_start:body_end]
        if zlib.crc32(body, zlib.crc32(_SEQ.pack(seq))) != crc:
            return                                 # torn or corrupt
        if seq != expected_seq:
            return                                 # out-of-order garbage
        expected_seq += 1
        offset = body_end
        yield seq, body, body_end


class WriteAheadLog:
    """Append-only, CRC'd log of logical ops with group commit.

    Parameters
    ----------
    path:
        Log file; created with a fresh header when missing or empty.
    sync:
        ``True`` issues one ``os.fsync`` per :meth:`commit` (and per
        :meth:`truncate`), extending durability to power loss at the
        usual fsync cost per *batch* — not per record; that is the whole
        point of group commit.
    group_commit:
        Auto-commit after this many buffered :meth:`append` calls
        (``None`` — the default — commits only when asked).

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "doc.wal")
    >>> with WriteAheadLog(path) as wal:
    ...     seq = wal.append({"op": "insert_after", "h": [0, 1], "p": "x"})
    ...     wal.commit()
    >>> with WriteAheadLog(path) as wal:
    ...     [(seq, op["op"]) for seq, op in wal.replay()]
    [(1, 'insert_after')]
    """

    def __init__(self, path: str, sync: bool = False,
                 group_commit: Optional[int] = None):
        if group_commit is not None and group_commit < 1:
            raise StorageError(
                f"group_commit must be >= 1, got {group_commit}")
        self.path = os.fspath(path)
        self.sync = bool(sync)
        self.group_commit = group_commit
        self._lock = threading.Lock()
        self._pending: list[bytes] = []
        self._pending_records = 0
        #: bytes cut from a torn tail when the log was opened
        self.dropped_bytes = 0
        #: completed commit batches (each one write + flush [+ fsync])
        self.commits = 0
        #: fsync calls issued (``sync=True`` only) — the group-commit
        #: economy is ``records_appended / fsyncs``
        self.fsyncs = 0
        #: records accepted by :meth:`append` over this object's life
        self.records_appended = 0
        #: set when a failed commit left torn bytes it could not rewind;
        #: every later commit refuses rather than appending records no
        #: scan would ever reach (they would sit past the torn fragment)
        self._damaged = False
        temp_path = self.path + ".truncate"
        if os.path.exists(temp_path):
            # leftover from a truncate that crashed before its rename;
            # the original log is still authoritative
            os.unlink(temp_path)
        exists = os.path.exists(self.path) and \
            os.path.getsize(self.path) > 0
        self._file = open(self.path, "r+b" if exists else "w+b")
        try:
            if exists:
                self._scan_existing()
            else:
                self.base_seq = 1
                self.last_seq = 0
                self._file.write(self._header_bytes(self.base_seq))
                self._file.flush()
        except BaseException:
            self._file.close()
            raise

    @staticmethod
    def _header_bytes(base_seq: int) -> bytes:
        prefix = _WAL_HEADER.pack(WAL_MAGIC, WAL_FORMAT_VERSION,
                                  base_seq, 0)[:-4]
        return prefix + struct.pack("<I", zlib.crc32(prefix))

    def _scan_existing(self) -> None:
        """Validate the header, walk every record, truncate a torn tail."""
        self._file.seek(0)
        raw = self._file.read()
        if len(raw) < _WAL_HEADER.size:
            raise StorageError(f"{self.path!r}: truncated WAL header")
        magic, version, base_seq, crc = _WAL_HEADER.unpack_from(raw, 0)
        if magic != WAL_MAGIC:
            raise CorruptionError(
                f"{self.path!r}: bad magic {magic!r}; not a WAL file")
        if version != WAL_FORMAT_VERSION:
            raise StorageError(
                f"{self.path!r}: unsupported WAL version {version} "
                f"(supported: {WAL_FORMAT_VERSION})")
        if zlib.crc32(raw[:_WAL_HEADER.size - 4]) != crc:
            raise CorruptionError(
                f"{self.path!r}: WAL header fails its checksum")
        self.base_seq = base_seq
        self.last_seq = base_seq - 1
        good_end = _WAL_HEADER.size
        for seq, _body, end_offset in _iter_valid_records(raw, base_seq):
            self.last_seq = seq
            good_end = end_offset
        if good_end < len(raw):
            # drop the torn tail *physically*, so no later scan can be
            # tempted to deserialize it
            self.dropped_bytes = len(raw) - good_end
            failpoint("wal:open:pre-truncate-tail", wal=self,
                      good_end=good_end)
            self._file.truncate(good_end)
            self._file.flush()
        self._file.seek(0, os.SEEK_END)

    # ------------------------------------------------------------------
    # appending (group commit)
    # ------------------------------------------------------------------
    def append(self, op: dict[str, Any] | bytes) -> int:
        """Buffer one logical op; returns its sequence number.

        ``op`` is the op dict, or the bytes :func:`encode_op` already
        made of it (a caller that must validate the op before acting on
        it encodes first and hands the body over).  The record is *not*
        durable until the batch holding it commits (explicitly, or
        automatically once ``group_commit`` records have accumulated).
        """
        obs = METRICS.enabled
        t0 = time.perf_counter() if obs else 0.0
        body = op if op.__class__ is bytes else encode_op(op)
        with self._lock:
            seq = self.last_seq + 1
            self._pending.append(_RECORD.pack(
                len(body), zlib.crc32(body, zlib.crc32(_SEQ.pack(seq))),
                seq) + body)
            self._pending_records += 1
            self.last_seq = seq
            self.records_appended += 1
            if self.group_commit is not None and \
                    self._pending_records >= self.group_commit:
                self._commit_locked()
            if obs:
                # includes the group-commit fsync when this append
                # happened to close a batch — that is the latency a
                # caller of append() actually saw
                METRICS.observe("wal.append.seconds",
                                time.perf_counter() - t0)
                METRICS.inc("wal.records_appended")
            return seq

    def commit(self) -> None:
        """Write and flush every buffered record; one fsync per batch."""
        with self._lock:
            self._commit_locked()

    def _commit_locked(self) -> None:
        if not self._pending:
            return
        if self._damaged:
            raise RecoveryError(
                f"{self.path!r}: a failed commit left torn bytes this "
                f"log could not rewind; records appended now would sit "
                f"past the tear where no scan reaches them — reopen "
                f"the log to recover")
        obs = METRICS.enabled
        t0 = time.perf_counter() if obs else 0.0
        batch_records = self._pending_records
        batch = b"".join(self._pending)
        start = self._file.tell()
        failpoint("wal:commit:pre-write", wal=self)
        failpoint("wal:commit:torn-write", wal=self, file=self._file,
                  data=batch)
        try:
            # EINTR/ENOSPC are retried with bounded backoff — a full
            # disk is often momentarily full; exhaustion (or a hard
            # error) rewinds the file to the batch start so the
            # *pending buffer stays intact* and a later commit retries
            # the whole batch against a clean tail
            write_with_retry(self._file, batch)
            failpoint("wal:commit:post-write", wal=self)
            self._file.flush()
            if self.sync:
                failpoint("wal:commit:pre-fsync", wal=self)
                fsync_file(self._file)
                self.fsyncs += 1
                failpoint("wal:commit:post-fsync", wal=self)
        except (OSError, StorageError):
            self._rewind_to(start)
            raise
        self._pending = []
        self._pending_records = 0
        self.commits += 1
        if obs:
            METRICS.observe("wal.commit.seconds", time.perf_counter() - t0)
            METRICS.observe("wal.commit.batch_records", batch_records)
            METRICS.inc("wal.commits")
            if self.sync:
                METRICS.inc("wal.fsyncs")

    def _rewind_to(self, offset: int) -> None:
        """Cut a failed commit's partial bytes back off the tail.

        Leaving them would strand every later record behind an invalid
        fragment (the scan stops at the first bad record).  If even the
        truncate fails, the log marks itself damaged and refuses
        further commits instead of silently losing them.
        """
        try:
            self._file.truncate(offset)
            self._file.seek(0, os.SEEK_END)
        except (OSError, ValueError):
            self._damaged = True

    @property
    def pending_records(self) -> int:
        """Records appended but not yet committed."""
        return self._pending_records

    # ------------------------------------------------------------------
    # replay and truncation
    # ------------------------------------------------------------------
    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, dict]]:
        """Yield ``(seq, op)`` for every committed record after
        ``after_seq``, in append order.

        Buffered records are committed first so a live log replays
        everything it has accepted.  Applying the ops in this order to
        the engine state of the matching checkpoint deterministically
        reproduces the logged state — shard-local ops on different
        shards commute, and each shard's subsequence is in its original
        apply order (see ``ConcurrentDocument``).
        """
        with self._lock:
            self._commit_locked()
            base_seq = self.base_seq
        with open(self.path, "rb") as reader:
            raw = reader.read()
        for seq, body, _end in _iter_valid_records(raw, base_seq):
            if seq > after_seq:
                yield seq, json.loads(body.decode("utf-8"))

    def truncate(self, base_seq: Optional[int] = None) -> None:
        """Reset the log to empty, with a fresh ``base_seq``.

        Called after a checkpoint folded every record into the page
        store.  ``base_seq`` defaults to ``last_seq + 1`` (the next
        record the log will accept).  A fresh header is written to a
        sibling temp file and atomically renamed over the log: a crash
        before the rename leaves the old log (its records are skipped by
        a replay that honors the checkpoint sequence number), a crash
        after it leaves the already-valid empty log.
        """
        with self._lock:
            self._commit_locked()
            if base_seq is None:
                base_seq = self.last_seq + 1
            if base_seq < 1:
                raise StorageError(
                    f"base_seq must be >= 1, got {base_seq}")
            temp_path = self.path + ".truncate"
            failpoint("wal:truncate:pre-temp", wal=self)
            with open(temp_path, "wb") as temp:
                temp.write(self._header_bytes(base_seq))
                temp.flush()
                if self.sync:
                    fsync_file(temp)
                    self.fsyncs += 1
            failpoint("wal:truncate:pre-replace", wal=self)
            self._file.close()
            os.replace(temp_path, self.path)
            failpoint("wal:truncate:post-replace", wal=self)
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            self.base_seq = base_seq
            self.last_seq = base_seq - 1
            self.dropped_bytes = 0
            self._damaged = False
            if METRICS.enabled:
                METRICS.inc("wal.truncates")
                if self.sync:
                    METRICS.inc("wal.fsyncs")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Commit any buffered records and release the file.

        The file is released even when that final commit fails (a full
        disk must not leak the descriptor); the commit's error still
        propagates so the caller knows the tail was lost.
        """
        if self._file.closed:
            return
        try:
            with self._lock:
                self._commit_locked()
        finally:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> Optional[bool]:
        self.close()
        return None

    def __repr__(self) -> str:
        return (f"WriteAheadLog({self.path!r}, base_seq={self.base_seq}, "
                f"last_seq={self.last_seq}, "
                f"pending={self._pending_records})")
