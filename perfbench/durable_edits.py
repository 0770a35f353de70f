"""Workload ``durable_edits``: the full durable write path.

``ConcurrentDocument.create`` with library defaults (``DEFAULT_PARAMS``
f=16 s=4, 8 shards, ``group_commit=64``, ``sync=False``) bulk loads
20k items, then runs transactions of 8 edits, each followed by
``commit()``.  The edit mix is 70% ``insert_after``, 10%
``insert_run_after`` of 8 items, 10% ``delete`` and 10%
``set_payload``, every anchor drawn uniformly from the live items.
``checkpoint()`` runs every 250 transactions.  Right after the commit
of transaction 4125 the service directory is copied without closing
the service (a simulated crash); after the loop that copy is recovered
with ``ConcurrentDocument.open`` and must equal a linked-list oracle.

Client: one thread, closed loop.  Inputs are generated from the seed
before any timer starts.  The numbers that grow with the document
(checkpoint pause, recovery, bytes per item) are taken at fixed
positions of the stream, so a faster program that gets further in the
same seconds is not charged for the larger document it built.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from typing import Any, Callable, Iterable, Iterator, Optional

from perfbench.child import run_child
from perfbench.common import (Phase, WorkloadError, clock, file_size,
                              part_seed, peak_rss_mb, pooled_result, settle)

N_INITIAL = 20_000
TXN_EDITS = 8
RUN_ITEMS = 8
CHECKPOINT_EVERY = 250
#: ``persist_ms`` is the median pause of checkpoints 1..16
PERSIST_CHECKPOINTS = 16
#: the crash copy is taken after this transaction's commit, half a
#: checkpoint interval past checkpoint 16 (recovery replays 1000 edits)
CRASH_TXN = PERSIST_CHECKPOINTS * CHECKPOINT_EVERY + CHECKPOINT_EVERY // 2
#: measuring processes per run; each runs its own seeded stream for a
#: quarter of the seconds (and at least to the crash copy).  Recovery
#: cost differs by ~10% between streams and moves with the machine's
#: load within a part, so ``recover_s`` pools 4 streams' recoveries
PARTS = 4
SETUP_REPEATS = 6
RECOVER_REPEATS = 10
#: the stream is cut at this many transactions per second of run (an
#: order of magnitude above today's rate, so the time ends the loop)
STREAM_TXNS_PER_SECOND = 10_000
#: transactions of the deterministic count replay (one checkpoint)
COUNT_TXNS = 300

INSERT, RUN, DELETE, SET = range(4)


def make_stream(seed: int, n_txns: int) -> Iterator[list[tuple]]:
    """Seeded transactions of logical ops over item ids, generated
    lazily (the loop keeps generation out of its time).

    Ops: ``(INSERT, anchor, new_id, payload)``, ``(RUN, anchor,
    first_id, payloads)``, ``(DELETE, anchor)``, ``(SET, anchor,
    payload)``.  Items ``0..N_INITIAL-1`` are the bulk-loaded ones.
    """
    rng = random.Random(seed)
    live = list(range(N_INITIAL))
    index = {item: item for item in live}
    next_id = N_INITIAL

    def add(item: int) -> None:
        index[item] = len(live)
        live.append(item)

    for number in range(n_txns):
        ops: list[tuple] = []
        for _ in range(TXN_EDITS):
            roll = rng.random()
            anchor = live[rng.randrange(len(live))]
            if roll < 0.7:
                ops.append((INSERT, anchor, next_id, f"i{next_id}"))
                add(next_id)
                next_id += 1
            elif roll < 0.8:
                ops.append((RUN, anchor, next_id,
                            [f"i{item}" for item in
                             range(next_id, next_id + RUN_ITEMS)]))
                for item in range(next_id, next_id + RUN_ITEMS):
                    add(item)
                next_id += RUN_ITEMS
            elif roll < 0.9:
                ops.append((DELETE, anchor))
                slot = index.pop(anchor)
                last = live.pop()
                if last != anchor:
                    live[slot] = last
                    index[last] = slot
            else:
                ops.append((SET, anchor, f"i{anchor}.t{number}"))
        yield ops


def initial_payloads() -> list[str]:
    return [f"i{item}" for item in range(N_INITIAL)]


class ListOracle:
    """Doubly linked list replaying the logical ops: the expected order."""

    HEAD = -1

    def __init__(self) -> None:
        self.next: dict[int, Optional[int]] = {self.HEAD: 0}
        self.prev: dict[int, int] = {}
        self.payload: dict[int, str] = {}
        for item in range(N_INITIAL):
            self.prev[item] = item - 1
            self.next[item] = item + 1 if item + 1 < N_INITIAL else None
            self.payload[item] = f"i{item}"
        self.live = N_INITIAL

    def _link_after(self, anchor: int, item: int, payload: str) -> None:
        after = self.next[anchor]
        self.next[anchor] = item
        self.next[item] = after
        self.prev[item] = anchor
        if after is not None:
            self.prev[after] = item
        self.payload[item] = payload
        self.live += 1

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == INSERT:
            self._link_after(op[1], op[2], op[3])
        elif kind == RUN:
            anchor = op[1]
            for offset, payload in enumerate(op[3]):
                self._link_after(anchor, op[2] + offset, payload)
                anchor = op[2] + offset
        elif kind == DELETE:
            item = op[1]
            before, after = self.prev.pop(item), self.next.pop(item)
            self.next[before] = after
            if after is not None:
                self.prev[after] = before
            self.live -= 1
        else:
            self.payload[op[1]] = op[2]

    def payloads(self) -> list[str]:
        out = []
        item = self.next[self.HEAD]
        while item is not None:
            out.append(self.payload[item])
            item = self.next[item]
        return out


def expected_after(seed: int, n_txns: int) -> list[str]:
    """The oracle's order after the first ``n_txns`` transactions."""
    oracle = ListOracle()
    for ops in make_stream(seed, n_txns):
        for op in ops:
            oracle.apply(op)
    return oracle.payloads()


def setup(directory: str, payloads: list[str], stats: Any = None):
    """Create the service and bulk load it: the timed set-up."""
    from repro.concurrent import ConcurrentDocument
    if stats is None:
        doc = ConcurrentDocument.create(directory)
    else:
        doc = ConcurrentDocument.create(directory, stats=stats)
    handles = doc.bulk_load(payloads)
    doc.commit()
    return doc, handles


class LoopResult:
    def __init__(self) -> None:
        self.edit_seconds: list[float] = []
        self.commit_seconds: list[float] = []
        self.checkpoint_seconds: list[float] = []
        self.txns = 0
        self.loop_seconds = 0.0
        #: this process's peak RSS when the crash copy was taken
        self.rss_at_crash_mb = 0.0


def run_loop(doc: Any, handles: list, stream: Iterable[list[tuple]],
             seconds: float, min_txns: int, phase: Phase,
             crash: Optional[tuple[str, str]] = None,
             profiler: Any = None,
             probe: Optional[Callable[[str, int], None]] = None
             ) -> LoopResult:
    """Closed loop over ``stream`` until ``seconds`` of loop time have
    passed and at least ``min_txns`` transactions are done.

    ``crash`` is ``(service_dir, copy_dir)``: the copy is taken right
    after transaction ``CRASH_TXN`` commits, outside the loop time.
    ``probe(stage, txn)`` is called untimed before each transaction
    (``"before"``) and after its commit (``"committed"``).
    """
    result = LoopResult()
    handle_of = dict(enumerate(handles))
    insert_after, insert_run_after = doc.insert_after, doc.insert_run_after
    delete, set_payload = doc.delete, doc.set_payload
    edits, commits = result.edit_seconds, result.commit_seconds
    excluded = 0.0
    txns = iter(stream)
    loop_start = clock()
    for number in itertools.count():
        mark = clock()
        ops = next(txns, None)
        excluded += clock() - mark
        if ops is None:
            break
        if probe is not None:
            mark = clock()
            probe("before", number)
            excluded += clock() - mark
        for op in ops:
            kind = op[0]
            handle = handle_of[op[1]]
            phase.begin("edit")
            if profiler is not None:
                profiler.enable()
            start = clock()
            if kind == INSERT:
                made = insert_after(handle, op[3])
            elif kind == RUN:
                made = insert_run_after(handle, op[3])
            elif kind == DELETE:
                made = delete(handle)
            else:
                made = set_payload(handle, op[2])
            stop = clock()
            if profiler is not None:
                profiler.disable()
            phase.end()
            edits.append(stop - start)
            if kind == INSERT:
                handle_of[op[2]] = made
            elif kind == RUN:
                for offset, leaf in enumerate(made):
                    handle_of[op[2] + offset] = leaf
        phase.begin("commit")
        start = clock()
        doc.commit()
        stop = clock()
        phase.end()
        commits.append(stop - start)
        done = number + 1
        if probe is not None:
            mark = clock()
            probe("committed", number)
            excluded += clock() - mark
        if done % CHECKPOINT_EVERY == 0:
            phase.begin("checkpoint")
            start = clock()
            doc.checkpoint()
            stop = clock()
            phase.end()
            result.checkpoint_seconds.append(stop - start)
        if crash is not None and done == CRASH_TXN:
            mark = clock()
            result.rss_at_crash_mb = peak_rss_mb()
            shutil.copytree(crash[0], crash[1])
            excluded += clock() - mark
        result.txns = done
        if done >= min_txns and \
                clock() - loop_start - excluded >= seconds:
            break
    result.loop_seconds = clock() - loop_start - excluded
    return result


def timed_setups(workdir: str, payloads: list[str], repeats: int,
                 phase: Phase):
    """``repeats`` timed set-ups; returns (seconds list, doc, handles,
    service dir) of the last one (the earlier ones are closed)."""
    samples = []
    doc = handles = directory = None
    for rep in range(repeats):
        if doc is not None:
            doc.close()
            shutil.rmtree(directory)
        directory = os.path.join(workdir, f"svc{rep}")
        settle()
        phase.begin("setup")
        start = clock()
        doc, handles = setup(directory, payloads)
        samples.append(clock() - start)
        phase.end()
    return samples, doc, handles, directory


def recover(copy_dir: str, repeats: int, phase: Phase,
            expected: list[str]) -> tuple[list[float], int, Any]:
    """Recover the crash copy ``repeats`` times; returns (seconds,
    failed checks, cache stats of the first recovered store)."""
    from repro.concurrent import ConcurrentDocument
    samples = []
    failed = 0
    cache = None
    for rep in range(repeats):
        settle()
        phase.begin("recover")
        start = clock()
        doc = ConcurrentDocument.open(copy_dir)
        samples.append(clock() - start)
        phase.end()
        if rep == 0:
            if doc.payloads() != expected:
                failed += 1
            cache = doc.store.cache_stats()
        doc.close()
    return samples, failed, cache


def _stream_for(seed: int, seconds: float) -> Iterator[list[tuple]]:
    return make_stream(seed, max(int(seconds * STREAM_TXNS_PER_SECOND),
                                 CRASH_TXN))


def measure_part(seed: int, seconds: float, workdir: str, part: int,
                 parts: int) -> dict:
    """One measuring process: set-ups, the loop, the crash copy and
    its recoveries (raw samples for ``pooled_result``), on the part's
    own stream."""
    seed = part_seed(seed, part, parts)
    directory = os.path.join(workdir, f"part{part}")
    phase = Phase()
    setups, doc, handles, svc = timed_setups(
        directory, initial_payloads(), SETUP_REPEATS, phase)
    crash_dir = os.path.join(directory, "crash")
    loop = run_loop(doc, handles, _stream_for(seed, seconds), seconds,
                    CRASH_TXN, phase, crash=(svc, crash_dir))
    failed = int(doc.payloads() != expected_after(seed, loop.txns))
    doc.close()
    doc = handles = None
    expected = expected_after(seed, CRASH_TXN)
    recoveries, bad, _cache = recover(crash_dir, RECOVER_REPEATS, phase,
                                      expected)
    disk = file_size(os.path.join(crash_dir, "pages.ltp")) + \
        file_size(os.path.join(crash_dir, "ops.wal"))
    return {
        "setup": setups, "op": loop.edit_seconds,
        "ack": loop.commit_seconds,
        "persist": loop.checkpoint_seconds[:PERSIST_CHECKPOINTS],
        "reopen": recoveries, "loop_seconds": loop.loop_seconds,
        "disk_bytes_per_item": disk / len(expected),
        "peak_rss_mb": loop.rss_at_crash_mb,
        "attempted": len(loop.edit_seconds) + len(loop.commit_seconds) +
        len(loop.checkpoint_seconds) + len(recoveries),
        "failed": failed + bad,
        "details": {"edits": len(loop.edit_seconds),
                    "transactions": loop.txns,
                    "checkpoints": len(loop.checkpoint_seconds)},
    }


def measure(seed: int, seconds: float, workdir: str) -> dict:
    """The untraced end-to-end run, pooled over ``PARTS`` processes."""
    parts = [run_child("part", "durable_edits", seed, seconds / PARTS,
                       workdir, part, PARTS) for part in range(PARTS)]
    return pooled_result(parts)


#: layers whose Python calls per edit are counted
CALL_LAYERS = ("core.compact", "core.sharded", "concurrent.engine",
               "concurrent.service")


def count_replay(seed: int, payloads: list[str], workdir: str,
                 phase: Phase) -> dict[str, float]:
    """The count-class metrics over the first ``COUNT_TXNS``
    transactions of a fresh service: deterministic for a seed."""
    from repro.core.stats import Counters

    from perfbench.tracing import CallCounter, calls_per
    stats = Counters()
    directory = os.path.join(workdir, "count")
    wal_path = os.path.join(directory, "ops.wal")
    doc, handles = setup(directory, payloads, stats=stats)
    before = stats.snapshot()
    records_before = doc.wal.records_appended
    mark: dict[str, Any] = {}
    totals = {"shards": 0, "wal_bytes": 0}

    def probe(stage: str, _txn: int) -> None:
        counts = doc.tree.write_counts()
        size = file_size(wal_path)
        if stage == "before":
            mark["counts"], mark["wal"] = counts, size
            return
        totals["shards"] += sum(
            1 for sid, count in counts.items()
            if count != mark["counts"].get(sid, 0))
        totals["wal_bytes"] += size - mark["wal"]

    profiler = CallCounter()
    loop = run_loop(doc, handles, make_stream(seed, COUNT_TXNS), 0.0,
                    COUNT_TXNS, phase, profiler=profiler, probe=probe)
    delta = stats - before
    records = doc.wal.records_appended - records_before
    crash_dir = os.path.join(workdir, "count-crash")
    shutil.copytree(directory, crash_dir)
    doc.close()
    _seconds, failed, cache = recover(
        crash_dir, 1, Phase(), expected_after(seed, COUNT_TXNS))
    if failed:
        raise WorkloadError("the count replay's crash copy does not "
                            "match the oracle")
    edits = len(loop.edit_seconds)
    checkpoints = len(loop.checkpoint_seconds)
    return {
        "core.compact.count_updates_per_edit": delta.count_updates / edits,
        "core.compact.relabels_per_edit": delta.relabels / edits,
        "core.compact.splits_per_edit": delta.splits / edits,
        "core.sharded.shards_written_per_batch":
            totals["shards"] / loop.txns,
        "storage.wal.records_per_edit": records / edits,
        "storage.wal.bytes_per_edit": totals["wal_bytes"] / edits,
        "storage.pages.bytes_written_per_checkpoint":
            phase.recorder.bytes_put.get("checkpoint", 0) / checkpoints,
        "storage.pages.pool_hit_rate": cache["hit_rate"],
        **calls_per(profiler, CALL_LAYERS, edits, "edit"),
    }


def measure_traced(seed: int, seconds: float, workdir: str) -> dict:
    """The traced run: an untraced reference segment, a traced segment
    (span self times), then the deterministic count replay."""
    from perfbench import tracing
    payloads = initial_payloads()
    plain = Phase()
    _setups, doc, handles, _svc = timed_setups(
        os.path.join(workdir, "plain"), payloads, 1, plain)
    reference = run_loop(doc, handles, _stream_for(seed, seconds),
                         seconds * 0.3, 0, plain)
    doc.close()

    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        phase = Phase(recorder)
        traced_dir = os.path.join(workdir, "traced")
        _setups, doc, handles, svc = timed_setups(traced_dir, payloads, 1,
                                                  phase)
        crash_dir = os.path.join(workdir, "crash")
        loop = run_loop(doc, handles, _stream_for(seed, seconds),
                        seconds * 0.7, CRASH_TXN, phase,
                        crash=(svc, crash_dir))
        doc.close()
        _seconds, failed, _cache = recover(
            crash_dir, 2, phase, expected_after(seed, CRASH_TXN))
        ledger = tracing.Ledger(recorder)
        spans = len(recorder.spans)
        recorder.write_jsonl(tracing.trace_path("durable_edits"))
        recorder.reset()
        counts = count_replay(seed, payloads, workdir, phase)
    finally:
        installation.remove()
    metrics = tracing.per_layer_result(
        tracing.timing_metrics(ledger, "recover"), counts,
        tracing.overhead(reference.edit_seconds, reference.loop_seconds,
                         loop.edit_seconds, loop.loop_seconds))
    attempted = len(loop.edit_seconds) + len(loop.commit_seconds) + \
        len(loop.checkpoint_seconds) + 2
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "details": {"traced_edits": len(loop.edit_seconds),
                        "spans": spans}}
