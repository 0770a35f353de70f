"""Reader–writer locks for the per-shard concurrency layer.

Two instruments, matching the two granularities of the sharded engine:

* a :class:`RWLock` per shard — writers to *different* shards hold
  different locks and proceed in parallel; readers of one shard share
  its lock;
* one global **latch** (also a :class:`RWLock`): every routed op holds
  it in read (shared) mode, so the rare whole-structure operations —
  ``bulk_load`` rebuilding the shard set, a checkpoint, ``validate`` —
  take it in write mode and get a true stop-the-world window without
  touching the per-shard locks.

The locks are writer-preferring (a waiting writer blocks new readers),
so a stream of snapshot readers cannot starve a writer.  They are not
reentrant; the concurrency layer keeps a strict acquisition order —
latch (read) → shard locks in ascending shard id → leaf mutexes
(directory, WAL) — and never escalates while holding, which is what
makes the whole arrangement deadlock-free.

**The fast path.**  Every routed write takes two of these locks (the
latch shared, its shard exclusive) and releases both, so their cost is
paid on every edit.  An uncontended acquire or release is one
C-level ``with`` on a plain ``threading.Lock`` guarding four integers,
and no Python-level call beyond the method itself: the
``threading.Condition`` sharing that mutex is touched only by a thread
that must sleep, and a release calls ``notify_all`` only when some
thread is actually asleep.  For the same reason nothing on a per-op
path is a generator context manager: entering and leaving one costs
half a dozen Python calls (the ``contextlib`` helper, its
``__enter__``/``__exit__``, two generator resumptions), more than the
lock work itself.  The engine wrapper therefore pairs plain
``acquire``/``release`` calls under ``try``/``finally``; the context
managers below (:meth:`ShardLockTable.read_all`,
:meth:`ShardLockTable.exclusive`) serve whole-structure operations
only.

The table is keyed by **stable shard id**, not position, and its
membership changes *online*: an exclusive holder replaces the whole
family (``set_shards``, the bulk-load path), while a rebalance commit —
which holds the latch only in *shared* mode plus the involved shards'
write locks — edits it incrementally with :meth:`add_shards` /
:meth:`drop_shards`.  Lookups tolerate that motion: ``by_id.get``
returns ``None`` for a just-retired id and the caller re-resolves its
handle through the engine's forwarding table, so writers to shards a
rebalance never touched proceed without ever noticing it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence


class RWLock:
    """A writer-preferring reader–writer lock over one plain mutex.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Writer-preferring: once a writer waits, new readers queue
    behind it.  Not reentrant in either mode.  A waiting writer that
    leaves its wait by an exception (say ``KeyboardInterrupt``) wakes
    the readers it was holding back, so they are never stranded.
    """

    __slots__ = ("_mutex", "_cond", "_readers", "_writer",
                 "_writers_waiting", "_sleepers")

    def __init__(self) -> None:
        #: guards the four counters below; entered with a C-level
        #: ``with``, never held across a sleep
        self._mutex = threading.Lock()
        #: sleeping only: shares ``_mutex``, so ``wait`` releases it
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        #: threads inside ``_cond.wait`` — a release notifies only
        #: when this is non-zero
        self._sleepers = 0

    def acquire_read(self) -> None:
        with self._mutex:
            if self._writer or self._writers_waiting:
                self._sleepers += 1
                try:
                    while self._writer or self._writers_waiting:
                        self._cond.wait()
                finally:
                    self._sleepers -= 1
            self._readers += 1

    def release_read(self) -> None:
        with self._mutex:
            self._readers -= 1
            if not self._readers and self._sleepers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._mutex:
            if self._writer or self._readers:
                self._writers_waiting += 1
                self._sleepers += 1
                try:
                    while self._writer or self._readers:
                        self._cond.wait()
                except BaseException:
                    # readers queued behind this writer must not sleep
                    # on until some unrelated release wakes them
                    if self._sleepers > 1:
                        self._cond.notify_all()
                    raise
                finally:
                    self._writers_waiting -= 1
                    self._sleepers -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._mutex:
            self._writer = False
            if self._sleepers:
                self._cond.notify_all()


class ShardLockTable:
    """The latch + per-shard-id lock family one concurrent engine owns."""

    def __init__(self, shard_ids: Iterable[int]) -> None:
        self.latch = RWLock()
        #: shard id -> its lock.  Read it only under the latch; a
        #: ``get`` that misses means the id was just retired
        self.by_id: dict[int, RWLock] = {sid: RWLock()
                                         for sid in shard_ids}

    def __len__(self) -> int:
        return len(self.by_id)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self.by_id

    def ids(self) -> list[int]:
        """The current id set, ascending (a point-in-time copy)."""
        return sorted(self.by_id)

    def set_shards(self, shard_ids: Iterable[int]) -> None:
        """Replace the whole family (call only under ``exclusive()``) —
        the bulk-load path, where every old handle dies anyway."""
        self.by_id = {sid: RWLock() for sid in shard_ids}

    def add_shards(self, shard_ids: Iterable[int]) -> None:
        """Register locks for shards a rebalance is about to install.

        Called *before* the directory commit (latch held shared, the
        involved old shards' write locks held), so by the time any
        writer can resolve a handle to a new id its lock already
        exists.  Single dict stores are atomic under the GIL; ids are
        never reused, so a concurrent lookup either misses (and
        retries its resolve) or gets exactly this lock.
        """
        for sid in shard_ids:
            self.by_id[sid] = RWLock()

    def drop_shards(self, shard_ids: Iterable[int]) -> None:
        """Retire the locks of shards a committed rebalance replaced
        (their write locks still held by the caller).  A writer still
        waiting on a dropped lock re-resolves when it wakes: its
        membership re-check fails and it retries through the
        forwarding table."""
        for sid in shard_ids:
            self.by_id.pop(sid, None)

    @contextmanager
    def read_all(self) -> Iterator[Sequence[int]]:
        """Consistent read of every shard; yields the locked id set
        (ascending).

        The id set is re-read after the sweep and the sweep retried
        until it comes back unchanged: a rebalance needs a write lock
        on an involved shard, so once every current shard is read-held
        the membership provably cannot move — which is what makes the
        stride + per-shard images read under this context mutually
        consistent even against online splits.  Acquired in ascending
        id (routed ops hold at most one shard lock, rebalances acquire
        in the same order, so the ordering cannot deadlock).
        """
        latch = self.latch
        latch.acquire_read()
        try:
            while True:
                ordered = sorted(self.by_id)
                locks = [self.by_id.get(sid) for sid in ordered]
                if None in locks:
                    continue        # retired between the two reads
                for lock in locks:
                    lock.acquire_read()
                if sorted(self.by_id) == ordered:
                    break
                for lock in reversed(locks):
                    lock.release_read()
            try:
                yield ordered
            finally:
                for lock in reversed(locks):
                    lock.release_read()
        finally:
            latch.release_read()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Stop the world: the latch in write mode.

        Every routed op holds the latch shared, so this alone excludes
        all of them — no per-shard acquisition sweep needed.
        """
        self.latch.acquire_write()
        try:
            yield
        finally:
            self.latch.release_write()
