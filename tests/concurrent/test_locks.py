"""RWLock: sharing, exclusion, writer preference, wake-ups, and a
writer whose wait is cut short by an exception.

Every interleaving is forced with ``threading.Event``s: a thread
signals when it is about to block, the test then checks (with a short
bounded wait) that it really is blocked, releases the holder, and
joins with a timeout.  "Still blocked" is inferred from a flag not
being set after the pause; "woken" from a flag being set before a
bounded join expires, so a regression fails instead of hanging.
"""

import sys
import threading
import time

import pytest

from repro.concurrent.locks import RWLock, ShardLockTable

#: upper bound on any join or wait in this module
TIMEOUT = 5.0
#: how long a thread must stay parked to count as blocked
PAUSE = 0.05


def _spawn(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _join(thread):
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "thread never finished"


def _sleepers(lock):
    with lock._mutex:
        return lock._sleepers


def _wait_until_asleep(lock, count):
    """Until ``count`` threads sleep inside ``lock`` (bounded)."""
    deadline = time.monotonic() + TIMEOUT
    while _sleepers(lock) < count:
        assert time.monotonic() < deadline, "thread never went to sleep"
        time.sleep(0.001)


class TestSharing:
    def test_readers_share_the_lock(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=TIMEOUT)

        def reader():
            lock.acquire_read()
            try:
                inside.wait()       # all three hold it at once
            finally:
                lock.release_read()

        threads = [_spawn(reader) for _ in range(2)]
        lock.acquire_read()
        try:
            inside.wait()
        finally:
            lock.release_read()
        for thread in threads:
            _join(thread)
        assert _sleepers(lock) == 0

    def test_uncontended_paths_never_sleep(self):
        lock = RWLock()
        for _ in range(3):
            lock.acquire_read()
            lock.acquire_read()
            lock.release_read()
            lock.release_read()
            lock.acquire_write()
            lock.release_write()
        assert (lock._readers, lock._writer, lock._writers_waiting,
                lock._sleepers) == (0, False, 0, 0)


class TestExclusion:
    def test_writer_excludes_readers(self):
        lock = RWLock()
        lock.acquire_write()
        got = threading.Event()

        def reader():
            lock.acquire_read()
            got.set()
            lock.release_read()

        thread = _spawn(reader)
        _wait_until_asleep(lock, 1)
        assert not got.wait(PAUSE)
        lock.release_write()
        assert got.wait(TIMEOUT)
        _join(thread)

    def test_writer_excludes_writers(self):
        lock = RWLock()
        lock.acquire_write()
        got = threading.Event()

        def writer():
            lock.acquire_write()
            got.set()
            lock.release_write()

        thread = _spawn(writer)
        _wait_until_asleep(lock, 1)
        assert not got.wait(PAUSE)
        lock.release_write()
        assert got.wait(TIMEOUT)
        _join(thread)

    def test_reader_excludes_writer(self):
        lock = RWLock()
        lock.acquire_read()
        got = threading.Event()

        def writer():
            lock.acquire_write()
            got.set()
            lock.release_write()

        thread = _spawn(writer)
        _wait_until_asleep(lock, 1)
        assert not got.wait(PAUSE)
        lock.release_read()
        assert got.wait(TIMEOUT)
        _join(thread)


class TestWriterPreference:
    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        order: list[str] = []

        def writer():
            lock.acquire_write()
            order.append("writer")
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("reader")
            lock.release_read()

        writer_thread = _spawn(writer)
        _wait_until_asleep(lock, 1)
        reader_thread = _spawn(late_reader)
        _wait_until_asleep(lock, 2)
        # the lock is only read-held, yet the late reader queues
        # behind the waiting writer
        time.sleep(PAUSE)
        assert order == []
        lock.release_read()
        _join(writer_thread)
        _join(reader_thread)
        assert order == ["writer", "reader"]


class TestWakeUps:
    def test_release_write_wakes_every_sleeper(self):
        lock = RWLock()
        lock.acquire_write()
        woken = [threading.Event() for _ in range(3)]

        def reader(event):
            lock.acquire_read()
            event.set()
            lock.release_read()

        threads = [_spawn(lambda e=event: reader(e)) for event in woken]
        _wait_until_asleep(lock, 3)
        lock.release_write()
        for event in woken:
            assert event.wait(TIMEOUT)
        for thread in threads:
            _join(thread)
        assert _sleepers(lock) == 0

    def test_last_reader_out_wakes_the_writer(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()
        got = threading.Event()

        def writer():
            lock.acquire_write()
            got.set()
            lock.release_write()

        thread = _spawn(writer)
        _wait_until_asleep(lock, 1)
        lock.release_read()
        assert not got.wait(PAUSE)      # one reader still inside
        lock.release_read()
        assert got.wait(TIMEOUT)
        _join(thread)


class _Interrupt(BaseException):
    """Stands in for ``KeyboardInterrupt`` inside a condition wait."""


class TestInterruptedWriter:
    def test_queued_readers_get_in_when_the_writer_gives_up(self,
                                                          monkeypatch):
        lock = RWLock()
        lock.acquire_read()                 # keeps the writer waiting
        writer_waiting = threading.Event()
        interrupt = threading.Event()
        real_wait = lock._cond.wait
        writer_ident: list[int] = []

        def wait(timeout=None):
            if threading.get_ident() in writer_ident:
                writer_waiting.set()
                # park like a real wait, but leave by an exception
                # once the test says so
                while not interrupt.is_set():
                    real_wait(0.005)
                raise _Interrupt()
            return real_wait(timeout)

        monkeypatch.setattr(lock._cond, "wait", wait)
        outcome: list[str] = []

        def writer():
            writer_ident.append(threading.get_ident())
            try:
                lock.acquire_write()
            except _Interrupt:
                outcome.append("interrupted")
            else:
                lock.release_write()
                outcome.append("acquired")

        got = threading.Event()

        def reader():
            lock.acquire_read()
            got.set()
            lock.release_read()

        writer_thread = _spawn(writer)
        assert writer_waiting.wait(TIMEOUT)
        reader_thread = _spawn(reader)
        _wait_until_asleep(lock, 2)
        assert not got.wait(PAUSE)          # queued behind the writer
        interrupt.set()
        # the first reader still holds the lock, so no release will
        # come: only the leaving writer can wake the queued reader
        assert got.wait(TIMEOUT)
        _join(writer_thread)
        _join(reader_thread)
        assert outcome == ["interrupted"]
        assert lock._writers_waiting == 0 and lock._sleepers == 0
        lock.release_read()
        lock.acquire_write()                # nothing left stranded
        lock.release_write()


class TestStress:
    def test_no_lost_update_and_no_torn_read(self):
        """More threads than cores on one lock, with a tiny switch
        interval: writers do a non-atomic read-modify-write of two
        fields, readers check the fields agree.  A writer let in
        beside a reader or another writer breaks one or the other."""
        lock = RWLock()
        state = {"a": 0, "b": 0}
        torn: list[tuple[int, int]] = []
        writes_per_writer, writers, readers = 300, 3, 3
        stop = threading.Event()

        def writer():
            for _ in range(writes_per_writer):
                lock.acquire_write()
                try:
                    value = state["a"]
                    time.sleep(0)               # invite a switch
                    state["a"] = value + 1
                    state["b"] = value + 1
                finally:
                    lock.release_write()

        def reader():
            while not stop.is_set():
                lock.acquire_read()
                try:
                    first = state["a"]
                    time.sleep(0)
                    if state["b"] != first:
                        torn.append((first, state["b"]))
                finally:
                    lock.release_read()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader_threads = [_spawn(reader) for _ in range(readers)]
            writer_threads = [_spawn(writer) for _ in range(writers)]
            for thread in writer_threads:
                _join(thread)
            stop.set()
            for thread in reader_threads:
                _join(thread)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert state == {"a": writers * writes_per_writer,
                         "b": writers * writes_per_writer}
        assert torn == []
        assert (lock._readers, lock._writer, lock._writers_waiting,
                lock._sleepers) == (0, False, 0, 0)


class TestShardLockTable:
    def test_read_all_yields_every_id_and_releases(self):
        table = ShardLockTable([3, 1, 2])
        with table.read_all() as ids:
            assert list(ids) == [1, 2, 3]
            assert all(lock._readers == 1
                       for lock in table.by_id.values())
            assert table.latch._readers == 1
        assert all(lock._readers == 0 for lock in table.by_id.values())
        assert table.latch._readers == 0

    def test_exclusive_blocks_the_latch(self):
        table = ShardLockTable([0])
        got = threading.Event()

        def routed():
            table.latch.acquire_read()
            got.set()
            table.latch.release_read()

        with table.exclusive():
            thread = _spawn(routed)
            _wait_until_asleep(table.latch, 1)
            assert not got.wait(PAUSE)
        assert got.wait(TIMEOUT)
        _join(thread)

    @pytest.mark.parametrize("add", [True, False])
    def test_membership_edits(self, add):
        table = ShardLockTable([0, 1])
        if add:
            table.add_shards([5])
            assert table.ids() == [0, 1, 5] and 5 in table
        else:
            table.drop_shards([1, 9])
            assert table.ids() == [0] and table.by_id.get(1) is None
