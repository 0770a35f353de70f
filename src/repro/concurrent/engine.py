"""Thread-safe multi-writer wrapper over the sharded L-Tree engine.

:class:`ConcurrentLTree` exposes the same surface as
:class:`repro.core.sharded.ShardedCompactLTree` (so the
``ltree-sharded`` scheme adapter and the document layer run over it
unchanged) and adds the three concurrency properties the engine's
shard-locality makes cheap:

* **parallel writers** — every routed update takes the global latch in
  *shared* mode plus its one shard's write lock, so writers anchored in
  different shards never wait on each other.  The engine's own inline
  stride bump is deferred (``defer_directory_growth``); when an update
  grows its shard past the directory height, the O(1) bump runs under a
  single *directory latch* while the grown shard's write lock is still
  held — the only global critical section on the write path, and no
  reader can compose that shard's labels with the stale stride because
  its lock is taken;
* **consistent bulk reads** — ``labels()`` / ``label_map()`` acquire
  every shard's read lock (ascending id) before reading the stride,
  so the composed sequence is one consistent cut;
* **zero-lock snapshot reads** — :meth:`snapshot` pins, per shard, the
  immutable payload-free byte image the lazy-reopen path already serves
  (:meth:`~repro.core.sharded.ShardedCompactLTree.shard_image`), cached
  per shard version so an unchanged shard is pinned for free.  The
  resulting :class:`LabelSnapshot` answers label / order / containment
  queries against live writers without taking any lock.

**Online rebalancing** rides the same locks.  :meth:`split_shard` /
:meth:`merge_shards` take the latch *shared* plus only the involved
shards' write locks — never stop-the-world — and commit the engine's
new directory epoch under the directory latch, journaling a logical
``split``/``merge`` record *before* the new shards become visible (so
the WAL tape can never order an op on a new shard ahead of its
creation).  Writers to uninvolved shards proceed throughout; a writer
whose handle names a just-retired shard re-resolves it through the
engine's forwarding table and retries against the successor — the
resolve → lock → recheck loop in :meth:`_acquire`.  A pinned
:class:`LabelSnapshot` is entirely unaffected: it holds its own
directory cut (ids, positions, stride, images) plus the grow-only
forwarding table, so a rebalance committing under it changes nothing it
can observe.

Whole-structure operations — ``bulk_load`` (the shard set is rebuilt),
``compact``, ``save``, ``validate``, materializing enumerations that
include tombstones — take the latch exclusively (stop the world).

An optional ``journal`` callable receives one encoded record per
successful mutation *while the shard write lock is still held*, so the
journal's global order restricted to any one shard equals that shard's
actual apply order — the property that makes a serial replay of the
merged tape deterministic (see :mod:`repro.concurrent.service`, which
plugs the write-ahead log in here).  The record
(:func:`repro.storage.wal.encode_op` of the op dict) is built *before*
the engine is touched, so an op the journal cannot encode raises with
no trace in memory; the journal call itself follows the apply, so an
op the engine rejects never reaches the log.
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.concurrent.locks import RWLock, ShardLockTable
from repro.obs import METRICS, TRACER
from repro.core.params import LTreeParams
from repro.core.sharded import (RebalancePolicy, _Shard,
                                ShardedCompactLTree)
from repro.core.stats import NULL_COUNTERS, Counters
from repro.storage.faults import FAILPOINTS, failpoint
from repro.storage.wal import encode_op

# the enumerable crash surface of this module (see repro.storage.faults)
FAILPOINTS.declare("concurrent:split:post-journal",
                   "split record journaled, new epoch not yet visible")
FAILPOINTS.declare("concurrent:merge:post-journal",
                   "merge record journaled, new epoch not yet visible")


class LabelSnapshot:
    """An immutable label view pinned from per-shard byte images.

    Holds one lazy :class:`~repro.core.sharded._Shard` per shard —
    the same structure the shard-lazy reopen path reads — plus its own
    cut of the shard directory: the id order, positions and stride at
    pin time, and a reference to the engine's grow-only forwarding
    table.  Every query below runs against those frozen bytes: no
    locks, no interaction with live writers, and two snapshots with
    equal :attr:`epoch` are guaranteed bit-identical.  A rebalance
    committing *after* the pin is invisible — the snapshot keeps
    composing from its own directory cut — while handles minted
    *before* the pin keep resolving through the forwarding table even
    if their shard was rebalanced away pre-pin.
    """

    __slots__ = ("params", "stride", "epoch", "ids", "_positions",
                 "_shards", "_forwarding")

    def __init__(self, params: LTreeParams, stride: int,
                 ids: Sequence[int], shards: list[_Shard],
                 forwarding: dict[tuple[int, int], tuple[int, int]],
                 epoch: tuple):
        self.params = params
        self.stride = stride
        #: (directory epoch, (shard id, write version)...) at pin time
        #: (equal epochs ⇒ bit-identical snapshots)
        self.epoch = epoch
        #: shard ids in document order at pin time
        self.ids = tuple(ids)
        self._positions = {sid: pos for pos, sid in enumerate(self.ids)}
        self._shards = shards
        self._forwarding = forwarding

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_versions(self) -> dict[int, int]:
        """``shard id -> write version`` of the pinned membership.

        The per-shard half of :attr:`epoch`, as a mapping — the key the
        incremental :class:`~repro.query.columnar.ColumnarStore` re-pin
        caches each extracted column segment under.
        """
        return dict(self.epoch[1:])

    def delta_since(self, previous_epoch: tuple
                    ) -> tuple[set[int], set[int]]:
        """Shard-level delta export against an older pin's epoch.

        Returns ``(dirty, vanished)``: ids in this snapshot whose write
        version differs from (or is absent in) ``previous_epoch``, and
        ids of the old pin that left the membership (rebalanced away —
        their handles still resolve through :meth:`resolve` while the
        forwarding chain holds).  Equal epochs yield two empty sets: the
        caller can splice instead of re-shredding.
        """
        old = dict(previous_epoch[1:])
        new = self.shard_versions()
        dirty = {sid for sid, version in new.items()
                 if old.get(sid) != version}
        vanished = set(old) - set(new)
        return dirty, vanished

    def resolve(self, handle: tuple[int, int]) -> tuple[int, int]:
        """The pin-time ``(shard_id, slot)`` a handle denotes.

        Chases the forwarding table until the id lands in the pinned
        membership — entries added by rebalances *after* the pin are
        never followed, because resolution stops the moment the id is
        one of ours (the grow-only table is safely shared with the
        live engine for exactly this reason).
        """
        sid, slot = handle[0], handle[1]
        positions = self._positions
        while sid not in positions:
            bridge = self._forwarding.get((sid, slot))
            if bridge is None:
                raise ValueError(
                    f"handle {(handle[0], handle[1])!r} names unknown "
                    f"shard {sid}")
            sid, slot = bridge
        return (sid, slot)

    def _shard_of(self, handle: tuple[int, int]
                  ) -> tuple[int, _Shard, int]:
        sid, slot = self.resolve(handle)
        return self._positions[sid], self._shards[self._positions[sid]], \
            slot

    def shard_prefix(self, shard_id: int) -> int:
        """Global-label prefix of one pinned shard id."""
        position = self._positions.get(shard_id)
        if position is None:
            raise ValueError(f"no shard with id {shard_id} in this "
                             f"snapshot")
        return position * self.stride

    def label(self, handle: tuple[int, int]) -> int:
        """Global label of a live handle at pin time."""
        position, shard, slot = self._shard_of(handle)
        if shard.is_deleted(slot):
            raise ValueError("handle refers to a deleted item")
        return position * self.stride + shard.num(slot)

    def is_deleted(self, handle: tuple[int, int]) -> bool:
        _position, shard, slot = self._shard_of(handle)
        return shard.is_deleted(slot)

    def handles(self) -> Iterator[tuple[int, int]]:
        """Live handles in document order at pin time."""
        for sid, shard in zip(self.ids, self._shards):
            for slot in shard.live_slots():
                yield (sid, slot)

    def labels(self) -> list[int]:
        """Live labels in document order (strictly increasing)."""
        out: list[int] = []
        for position, shard in enumerate(self._shards):
            prefix = position * self.stride
            out.extend(prefix + value for value in shard.nums_of_live())
        return out

    def label_map(self) -> dict[tuple[int, int], int]:
        mapping: dict[tuple[int, int], int] = {}
        for position, (sid, shard) in enumerate(zip(self.ids,
                                                    self._shards)):
            prefix = position * self.stride
            mapping.update(
                ((sid, slot), prefix + value)
                for slot, value in zip(shard.live_slots(),
                                       shard.nums_of_live()))
        return mapping

    def label_columns(self, shard_id: int
                      ) -> tuple[list[int], Sequence[int]]:
        """``(live_slots, local_label_column)`` of one pinned shard.

        The columnar query engine's bulk-input hook: the slot-indexed
        label column is decoded once off the frozen byte image (and
        memoized on the shard — a pinned shard can never change), so a
        query extracts every label it needs in one pass per shard
        instead of one :meth:`label` call per node.  Compose the global
        label of ``slot`` as ``shard_prefix(shard_id) + column[slot]``.
        Like every other read on this object, this takes no locks and
        never touches the live engine.
        """
        position = self._positions.get(shard_id)
        if position is None:
            raise ValueError(f"no shard with id {shard_id} in this "
                             f"snapshot")
        return self._shards[position].label_columns()

    def precedes(self, first: tuple[int, int],
                 second: tuple[int, int]) -> bool:
        """Document order of two live handles, labels only."""
        return self.label(first) < self.label(second)

    def contains(self, outer: tuple[tuple[int, int], tuple[int, int]],
                 inner: tuple[tuple[int, int], tuple[int, int]]) -> bool:
        """Region containment of two (begin, end) handle pairs —
        the paper's ancestor test, answered entirely off the pinned
        images."""
        outer_begin, outer_end = outer
        inner_begin, inner_end = inner
        return self.label(outer_begin) < self.label(inner_begin) and \
            self.label(inner_end) < self.label(outer_end)

    @property
    def n_live(self) -> int:
        return sum(len(shard.live) for shard in self._shards)

    def __repr__(self) -> str:
        return (f"LabelSnapshot(shards={len(self._shards)}, "
                f"stride={self.stride}, epoch={self.epoch})")


class ConcurrentLTree:
    """Per-shard-locked, snapshot-readable sharded engine (module doc).

    Parameters
    ----------
    engine:
        The sharded engine to guard.  It is adopted: direct use of the
        raw engine afterwards bypasses the locks.
    journal:
        Optional callable receiving one encoded op record
        (:func:`~repro.storage.wal.encode_op` bytes) per successful
        mutation, invoked under the mutated shard's write lock.
    """

    def __init__(self, engine: ShardedCompactLTree,
                 journal: Optional[Callable[[dict], Any]] = None):
        self._engine = engine
        self._journal = journal
        engine.defer_directory_growth = True
        self._locks = ShardLockTable(engine.shard_ids)
        #: serializes every directory write — stride bumps and
        #: rebalance commits — the global critical section.  Installed
        #: into the engine so its split/merge commits run under it.
        self._directory_latch = threading.Lock()
        engine.directory_mutex = self._directory_latch
        #: shard id -> labeled writes applied; always on (one dict
        #: increment under the shard's already-held write lock) because
        #: workload-aware rebalancing reads it — see :meth:`write_counts`
        self._write_counts: dict[int, int] = {sid: 0
                                              for sid in engine.shard_ids}
        #: shard id -> (engine write version, image, live, meta)
        #: pinned-image cache
        self._image_cache: dict[int, tuple] = {}
        #: stop-the-world stride bumps performed (mirrors the engine's
        #: ``directory_rebuilds`` but counted by the wrapper)
        self.stride_bumps = 0
        #: test seam: called at named points inside split/merge while
        #: their locks are held (e.g. ``("split:locked", shard_id)``) —
        #: the writer-isolation tests park a rebalance here and prove
        #: uninvolved shards' writers sail past it
        self.rebalance_hook: Optional[Callable[..., Any]] = None

    # ------------------------------------------------------------------
    # engine passthrough metadata
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ShardedCompactLTree:
        """The wrapped engine (lock-free access; callers beware)."""
        return self._engine

    @property
    def params(self) -> LTreeParams:
        return self._engine.params

    @property
    def stats(self) -> Counters:
        return self._engine.stats

    @property
    def violator_policy(self) -> str:
        return self._engine.violator_policy

    @property
    def n_shards(self) -> int:
        return self._engine.n_shards

    @property
    def shard_count(self) -> int:
        return self._engine.shard_count

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return self._engine.shard_ids

    @property
    def epoch(self) -> int:
        return self._engine.epoch

    @property
    def shard_counters(self) -> list[Counters]:
        return self._engine.shard_counters

    @property
    def materialized_shards(self) -> list[int]:
        return self._engine.materialized_shards

    @property
    def stride(self) -> int:
        return self._engine.stride

    @property
    def directory_height(self) -> int:
        return self._engine.directory_height

    @property
    def directory_rebuilds(self) -> int:
        return self._engine.directory_rebuilds

    @property
    def shard_splits(self) -> int:
        return self._engine.shard_splits

    @property
    def shard_merges(self) -> int:
        return self._engine.shard_merges

    @property
    def label_space(self) -> int:
        return self._engine.label_space

    @property
    def n_leaves(self) -> int:
        with self._locks.read_all():
            return self._engine.n_leaves

    def tombstone_count(self) -> int:
        with self._locks.read_all():
            return self._engine.tombstone_count()

    def has_shard(self, shard_id: int) -> bool:
        return self._engine.has_shard(shard_id)

    def resolve_handle(self, handle: tuple[int, int]) -> tuple[int, int]:
        """Current-epoch resolution of a possibly pre-rebalance handle."""
        return self._engine.resolve_handle(handle)

    def shard_report(self) -> list[dict]:
        """Per-shard occupancy rows under a consistent read cut."""
        with self._locks.read_all():
            return self._engine.shard_report()

    # ------------------------------------------------------------------
    # write path (latch shared + one shard exclusive)
    # ------------------------------------------------------------------
    def _acquire(self, handle: tuple[int, int], write: bool
                 ) -> tuple[int, tuple[int, int], RWLock]:
        """Resolve → lock → recheck loop for one routed op.

        Takes the latch shared, resolves the handle through the
        engine's forwarding table, locks the target shard, then
        re-checks it is still in the directory: a rebalance that
        retired it between the resolve and the acquire makes the check
        fail, the lock is dropped and the resolve retried against the
        successor shard.  Ids are never reused, so a shard that passes
        the recheck under its held lock provably stays in the directory
        for the critical section — membership changes to it would need
        this very lock.  Returns ``(shard_id, resolved_handle, lock)``
        with the latch and ``lock`` held; the caller hands ``lock`` to
        :meth:`_release` in a ``finally``.  Plain calls rather than a
        context manager: see :mod:`repro.concurrent.locks`.
        """
        engine = self._engine
        locks = self._locks
        latch = locks.latch
        latch.acquire_read()
        try:
            while True:
                resolved = engine.resolve_handle(handle)
                sid = resolved[0]
                lock = locks.by_id.get(sid)
                if lock is None:
                    # retired between resolve and lookup (commit in
                    # flight); the forwarding entry is already there
                    continue
                if METRICS.enabled:
                    t0 = time.perf_counter()
                    if write:
                        lock.acquire_write()
                    else:
                        lock.acquire_read()
                    METRICS.observe("engine.lock_wait.seconds",
                                    time.perf_counter() - t0)
                elif write:
                    lock.acquire_write()
                else:
                    lock.acquire_read()
                if engine.has_shard(sid):
                    return sid, resolved, lock
                if write:
                    lock.release_write()
                else:
                    lock.release_read()
        except BaseException:
            latch.release_read()
            raise

    def _acquire_edge(self, last: bool) -> tuple[int, RWLock]:
        """Write lock on the current first/last shard: ``(id, lock)``.

        The id is resolved under the latch and re-checked under its
        lock, so an ``append`` racing a split of the tail shard locks
        the shard the engine will actually route to — never a stale
        one.  Released with ``_release(lock, True)``.
        """
        engine = self._engine
        locks = self._locks
        latch = locks.latch
        latch.acquire_read()
        try:
            while True:
                ids = engine.shard_ids
                sid = ids[-1] if last else ids[0]
                lock = locks.by_id.get(sid)
                if lock is None:
                    continue
                if METRICS.enabled:
                    t0 = time.perf_counter()
                    lock.acquire_write()
                    METRICS.observe("engine.lock_wait.seconds",
                                    time.perf_counter() - t0)
                else:
                    lock.acquire_write()
                ids = engine.shard_ids
                if (ids[-1] if last else ids[0]) == sid:
                    return sid, lock
                lock.release_write()
        except BaseException:
            latch.release_read()
            raise

    def _release(self, lock: RWLock, write: bool) -> None:
        """Undo :meth:`_acquire` / :meth:`_acquire_edge`."""
        if write:
            lock.release_write()
        else:
            lock.release_read()
        self._locks.latch.release_read()

    def _after_write(self, shard_id: int, record: Optional[bytes]) -> None:
        """Write count, journaling, and the deferred stride bump — all
        while the caller still holds shard ``shard_id``'s write lock.
        ``record`` is the op's body, encoded before the arena was
        touched (``None`` without a journal)."""
        counts = self._write_counts
        counts[shard_id] = counts.get(shard_id, 0) + 1
        if record is not None:
            self._journal(record)
        if self._engine.needs_directory_growth(shard_id):
            with self._directory_latch:
                if self._engine.grow_directory(shard_id):
                    self.stride_bumps += 1

    def insert_after(self, handle: tuple[int, int],
                     payload: Any) -> tuple[int, int]:
        sid, resolved, lock = self._acquire(handle, True)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "insert_after", "h": list(resolved), "p": payload})
            leaf = self._engine.insert_after(resolved, payload)
            self._after_write(sid, record)
            return leaf
        finally:
            self._release(lock, True)

    def insert_before(self, handle: tuple[int, int],
                      payload: Any) -> tuple[int, int]:
        sid, resolved, lock = self._acquire(handle, True)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "insert_before", "h": list(resolved),
                 "p": payload})
            leaf = self._engine.insert_before(resolved, payload)
            self._after_write(sid, record)
            return leaf
        finally:
            self._release(lock, True)

    def append(self, payload: Any) -> tuple[int, int]:
        sid, lock = self._acquire_edge(True)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "append", "p": payload})
            leaf = self._engine.append(payload)
            self._after_write(sid, record)
            return leaf
        finally:
            self._release(lock, True)

    def prepend(self, payload: Any) -> tuple[int, int]:
        sid, lock = self._acquire_edge(False)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "prepend", "p": payload})
            leaf = self._engine.prepend(payload)
            self._after_write(sid, record)
            return leaf
        finally:
            self._release(lock, True)

    def insert_run_after(self, handle: tuple[int, int],
                         payloads: Sequence[Any]) -> list[tuple[int, int]]:
        items = list(payloads)
        sid, resolved, lock = self._acquire(handle, True)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "insert_run_after", "h": list(resolved),
                 "ps": items})
            leaves = self._engine.insert_run_after(resolved, items)
            self._after_write(sid, record)
            return leaves
        finally:
            self._release(lock, True)

    def insert_run_before(self, handle: tuple[int, int],
                          payloads: Sequence[Any]
                          ) -> list[tuple[int, int]]:
        items = list(payloads)
        sid, resolved, lock = self._acquire(handle, True)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "insert_run_before", "h": list(resolved),
                 "ps": items})
            leaves = self._engine.insert_run_before(resolved, items)
            self._after_write(sid, record)
            return leaves
        finally:
            self._release(lock, True)

    def mark_deleted(self, handle: tuple[int, int]) -> None:
        sid, resolved, lock = self._acquire(handle, True)
        try:
            record = None if self._journal is None else encode_op(
                {"op": "delete", "h": list(resolved)})
            self._engine.mark_deleted(resolved)
            self._after_write(sid, record)
        finally:
            self._release(lock, True)

    def set_payload(self, handle: tuple[int, int], payload: Any) -> None:
        _sid, resolved, lock = self._acquire(handle, True)
        try:
            journal = self._journal
            record = None if journal is None else encode_op(
                {"op": "set_payload", "h": list(resolved), "p": payload})
            self._engine.set_payload(resolved, payload)
            # payloads never touch labels: no write count (the engine
            # bumps no version either, so snapshots stay valid), but
            # the op is journaled for recovery
            if journal is not None:
                journal(record)
        finally:
            self._release(lock, True)

    def bulk_load(self, payloads: Sequence[Any],
                  boundaries: Optional[Sequence[int]] = None
                  ) -> list[tuple[int, int]]:
        """Rebuild the shard set — necessarily stop-the-world."""
        items = list(payloads)
        with self._locks.exclusive():
            record = None if self._journal is None else encode_op({
                "op": "bulk_load", "ps": items,
                "bounds": list(boundaries)
                if boundaries is not None else None})
            handles = self._engine.bulk_load(items, boundaries=boundaries)
            self._locks.set_shards(self._engine.shard_ids)
            self._write_counts = {sid: 0
                                  for sid in self._engine.shard_ids}
            # new shards restart their ids and versions: no cached
            # image may match one of them
            self._image_cache.clear()
            if record is not None:
                self._journal(record)
            return handles

    def compact(self, params: Optional[LTreeParams] = None):
        """Stop-the-world vacuum; invalidates handles like the engine's.

        Not journaled: callers checkpoint right after (the slot
        remapping cannot be replayed against pre-compact handles).
        """
        with self._locks.exclusive():
            mapping = self._engine.compact(params)
            self._image_cache.clear()
            return mapping

    # ------------------------------------------------------------------
    # online rebalancing (latch shared + involved shards exclusive)
    # ------------------------------------------------------------------
    def _fire_hook(self, stage: str, *args: Any) -> None:
        hook = self.rebalance_hook
        if hook is not None:
            hook(stage, *args)

    def split_shard(self, shard_id: int, at_leaf: int,
                    new_ids: Optional[Sequence[int]] = None
                    ) -> tuple[int, int]:
        """Split one shard online; returns the two new shard ids.

        Holds the latch *shared* and only ``shard_id``'s write lock:
        writers and readers of every other shard are completely
        unaffected (the writer-isolation tests prove it).  The engine
        commit — new directory epoch, forwarding entries — runs under
        the directory latch; the WAL record and the new shards' locks
        are installed by ``on_commit`` *before* the new ids become
        visible, so no racing writer can touch (or journal against) a
        new shard ahead of its creation record.
        """
        engine = self._engine
        locks = self._locks
        locks.latch.acquire_read()
        try:
            lock = locks.by_id.get(shard_id)
            if lock is None:
                raise ValueError(f"no shard with id {shard_id}")
            lock.acquire_write()
            try:
                if not engine.has_shard(shard_id):
                    raise ValueError(f"no shard with id {shard_id}")
                self._fire_hook("split:locked", shard_id)
                granted: list[int] = []

                def on_commit(ids: tuple[int, ...]) -> None:
                    granted.extend(ids)
                    locks.add_shards(ids)
                    for sid in ids:
                        self._write_counts[sid] = 0
                    if self._journal is not None:
                        self._journal(encode_op(
                            {"op": "split", "id": shard_id,
                             "at": at_leaf, "new": list(ids)}))
                    failpoint("concurrent:split:post-journal",
                              shard_id=shard_id, new_ids=ids)

                try:
                    new_ids = engine.split_shard(shard_id, at_leaf,
                                                 new_ids=new_ids,
                                                 on_commit=on_commit)
                except BaseException:
                    # an on_commit journal failure aborts before the
                    # directory swap: retract the half-registered ids
                    locks.drop_shards(granted)
                    for sid in granted:
                        self._write_counts.pop(sid, None)
                    raise
                self._write_counts.pop(shard_id, None)
                self._image_cache.pop(shard_id, None)
                locks.drop_shards((shard_id,))
                self._fire_hook("split:committed", shard_id, new_ids)
                return new_ids
            finally:
                lock.release_write()
        finally:
            locks.latch.release_read()

    def merge_shards(self, id_a: int, id_b: int,
                     new_id: Optional[int] = None) -> int:
        """Merge two adjacent shards online; returns the new shard id.

        Same isolation contract as :meth:`split_shard`, holding both
        involved shards' write locks (acquired in ascending id, the
        table-wide order, so concurrent rebalances cannot deadlock).
        """
        engine = self._engine
        locks = self._locks
        first, second = sorted((id_a, id_b))
        locks.latch.acquire_read()
        try:
            lock_a = locks.by_id.get(first)
            lock_b = locks.by_id.get(second)
            if lock_a is None or lock_b is None:
                missing = first if lock_a is None else second
                raise ValueError(f"no shard with id {missing}")
            lock_a.acquire_write()
            try:
                lock_b.acquire_write()
                try:
                    if not (engine.has_shard(first) and
                            engine.has_shard(second)):
                        missing = first if not engine.has_shard(first) \
                            else second
                        raise ValueError(f"no shard with id {missing}")
                    self._fire_hook("merge:locked", first, second)
                    granted: list[int] = []

                    def on_commit(sid: int) -> None:
                        granted.append(sid)
                        locks.add_shards((sid,))
                        self._write_counts[sid] = 0
                        if self._journal is not None:
                            self._journal(encode_op(
                                {"op": "merge", "a": id_a, "b": id_b,
                                 "new": sid}))
                        failpoint("concurrent:merge:post-journal",
                                  id_a=id_a, id_b=id_b, new_id=sid)

                    try:
                        new_id = engine.merge_shards(id_a, id_b,
                                                     new_id=new_id,
                                                     on_commit=on_commit)
                    except BaseException:
                        locks.drop_shards(granted)
                        for sid in granted:
                            self._write_counts.pop(sid, None)
                        raise
                    for sid in (first, second):
                        self._write_counts.pop(sid, None)
                        self._image_cache.pop(sid, None)
                    locks.drop_shards((first, second))
                    self._fire_hook("merge:committed", first, second,
                                    new_id)
                    return new_id
                finally:
                    lock_b.release_write()
            finally:
                lock_a.release_write()
        finally:
            locks.latch.release_read()

    def write_counts(self) -> dict[int, int]:
        """Labeled writes applied per live shard since load/creation.

        The live workload signal :meth:`rebalance` hands to
        ``RebalancePolicy.plan(report, workload=...)`` and
        ``ConcurrentDocument.metrics()`` turns into per-shard write
        rates.  A shard's count resets when it is created (split/merge
        child, bulk_load) and is retired with the shard.
        """
        while True:
            try:
                return dict(self._write_counts)
            except RuntimeError:    # resized by a racing split/merge
                continue

    def rebalance(self, policy: Optional[RebalancePolicy] = None,
                  max_rounds: int = 4) -> list[dict]:
        """Plan (under a read cut) and apply rebalance actions online.

        Each action locks only its involved shards; an action that
        loses a race to a concurrent writer's rebalance (its shard id
        vanished) is simply skipped and the next round re-plans from a
        fresh report.  A policy whose ``plan`` accepts a ``workload``
        keyword is fed :meth:`write_counts`, so hot shards split on
        write pressure before occupancy alone would trigger.  Returns
        the actions performed.
        """
        policy = policy or RebalancePolicy()
        takes_workload = "workload" in inspect.signature(
            policy.plan).parameters
        performed: list[dict] = []
        for _ in range(max_rounds):
            if takes_workload:
                actions = policy.plan(self.shard_report(),
                                      workload=self.write_counts())
            else:
                actions = policy.plan(self.shard_report())
            if not actions:
                break
            applied = 0
            for action in actions:
                try:
                    if action[0] == "split":
                        with TRACER.span("engine.split", shard=action[1],
                                         at=action[2]) as span:
                            new_ids = self.split_shard(action[1],
                                                       action[2])
                            span.set(new=list(new_ids))
                        performed.append({"action": "split",
                                          "shard": action[1],
                                          "at": action[2],
                                          "new": list(new_ids)})
                    else:
                        with TRACER.span("engine.merge", a=action[1],
                                         b=action[2]) as span:
                            new_id = self.merge_shards(action[1],
                                                       action[2])
                            span.set(new=new_id)
                        performed.append({"action": "merge",
                                          "shards": [action[1],
                                                     action[2]],
                                          "new": new_id})
                    applied += 1
                except ValueError:
                    # the planned shard was rebalanced or rebuilt under
                    # us; the next round re-plans from a fresh report
                    continue
            if not applied:
                break
        return performed

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def num(self, handle: tuple[int, int]) -> int:
        """Point read of one global label.

        Consistent with concurrent writers of *other* shards only in
        the sense that each call composes with a stride valid for its
        own shard; for a mutually consistent label set use
        :meth:`labels`, :meth:`label_map` or :meth:`snapshot`.
        """
        _sid, resolved, lock = self._acquire(handle, False)
        try:
            return self._engine.num(resolved)
        finally:
            self._release(lock, False)

    def is_deleted(self, handle: tuple[int, int]) -> bool:
        _sid, resolved, lock = self._acquire(handle, False)
        try:
            return self._engine.is_deleted(resolved)
        finally:
            self._release(lock, False)

    def payload(self, handle: tuple[int, int]) -> Any:
        # may materialize a lazy shard — a structural write
        _sid, resolved, lock = self._acquire(handle, True)
        try:
            return self._engine.payload(resolved)
        finally:
            self._release(lock, True)

    def is_leaf(self, handle: tuple[int, int]) -> bool:
        _sid, resolved, lock = self._acquire(handle, True)
        try:
            return self._engine.is_leaf(resolved)
        finally:
            self._release(lock, True)

    def find_leaf(self, num: int) -> Optional[tuple[int, int]]:
        with self._locks.exclusive():
            return self._engine.find_leaf(num)

    def labels(self, include_deleted: bool = True) -> list[int]:
        if include_deleted:
            # tombstoned slots live only in materialized structure
            with self._locks.exclusive():
                return self._engine.labels(True)
        with self._locks.read_all():
            return self._engine.labels(False)

    def label_map(self) -> dict[tuple[int, int], int]:
        with self._locks.read_all():
            return self._engine.label_map()

    def iter_leaves(self, include_deleted: bool = True
                    ) -> Iterator[tuple[int, int]]:
        if include_deleted:
            with self._locks.exclusive():
                return iter(list(self._engine.iter_leaves(True)))
        with self._locks.read_all():
            return iter(list(self._engine.iter_leaves(False)))

    def payloads(self, include_deleted: bool = True) -> list[Any]:
        with self._locks.exclusive():
            return self._engine.payloads(include_deleted)

    # ------------------------------------------------------------------
    # snapshots (epoch-pinned, zero-lock reads)
    # ------------------------------------------------------------------
    def snapshot(self) -> LabelSnapshot:
        """Pin a consistent, immutable label view of every shard.

        Blocks writers only for the pin itself (all shard read locks at
        once); shards unchanged since the last snapshot reuse their
        cached image, so a snapshot between writes costs a few dict
        lookups.  The returned object never touches this engine again —
        rebalances committing after the pin are invisible to it.
        """
        engine = self._engine
        with self._locks.read_all():
            # membership cannot move while every shard is read-held
            ids = engine.shard_ids
            stride = engine.stride
            forwarding = engine._forwarding
            versions = engine.shard_versions()
            epoch = (engine.epoch,) + tuple(
                (sid, versions[sid]) for sid in ids)
            shards: list[_Shard] = []
            for sid in ids:
                version = versions[sid]
                cached = self._image_cache.get(sid)
                if cached is None or cached[0] != version:
                    image, live, meta = engine.shard_image(sid)
                    cached = (version, image, live, meta)
                    self._image_cache[sid] = cached
                shards.append(_Shard.lazy(cached[1], cached[2],
                                          cached[3], NULL_COUNTERS))
        return LabelSnapshot(engine.params, stride, ids, shards,
                             forwarding, epoch)

    # ------------------------------------------------------------------
    # persistence and validation (stop-the-world)
    # ------------------------------------------------------------------
    def exclusive(self):
        """Stop-the-world context: every routed op and read excluded.

        For multi-step maintenance that must be atomic against writers
        *as a whole* — a ``ConcurrentDocument`` checkpoint holds this
        across watermark capture, engine save and WAL truncate, acting
        on :attr:`engine` directly (the locks are not reentrant, so the
        wrapper's own locked methods cannot be used inside).
        """
        return self._locks.exclusive()

    def save(self, store: Any, name: str = "scheme",
             include_payloads: bool = True,
             extra_blobs: Optional[dict[str, bytes]] = None) -> None:
        with self._locks.exclusive():
            self._engine.save(store, name,
                              include_payloads=include_payloads,
                              extra_blobs=extra_blobs)

    @classmethod
    def load(cls, store: Any, name: str = "scheme",
             stats: Counters = NULL_COUNTERS,
             journal: Optional[Callable[[dict], Any]] = None,
             **engine_kwargs: Any) -> "ConcurrentLTree":
        """Reopen a saved engine (shard-lazily) and wrap it."""
        engine = ShardedCompactLTree.load(store, name, stats=stats,
                                          **engine_kwargs)
        return cls(engine, journal=journal)

    def validate(self, check_occupancy: bool = False) -> None:
        with self._locks.exclusive():
            self._engine.validate(check_occupancy)

    def __repr__(self) -> str:
        return f"ConcurrentLTree({self._engine!r})"
