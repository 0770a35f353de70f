"""Workload ``edit_then_query``: writes beside reads, no WAL.

A wide document whose root holds 32 XMark-like sites (~67k elements)
is saved, untimed, with the ``ltree-sharded`` scheme, which lays the
32 sites over 8 shards aligned to top-level sections (4 sites each).
The timed set-up is ``LabeledDocument.open(path, concurrent=True)``,
``snapshot()`` and ``ColumnarStore.from_snapshot``.  The loop applies
a batch of 32 engine-level edits through ``scheme.tree`` (50%
``insert_after``, 10% ``insert_run_after`` of 8, 40% deletes of the
benchmark's own earlier inserts; 95% anchored in one hot site), then
refreshes: ``snapshot()``, ``store.repin`` and a fixed 6-query battery
in one ``QuerySession``.  Engine-level edits add tokens the DOM does
not know about, so every battery answer must equal the answer before
the loop, and every pinned snapshot's labels must strictly increase.

Client: one thread, closed loop.  The refresh takes the incremental
splice path the cold reader bypasses.
"""

from __future__ import annotations

import os
import random

from perfbench.cold_query import open_pinned, save_timed, timed_setups
from perfbench.child import load_prepared, run_child
from perfbench.common import (Phase, WorkloadError, clock, part_seed,
                              pooled_result, settle)

N_SITES = 32
SITE = (152, 76, 52)
BATCH_EDITS = 32
RUN_ITEMS = 8
HOT_SHARE = 0.95
#: measuring processes per run, each with its own set-ups, half of the
#: seconds and its own seeded batches; few, because every process pays
#: the first-write materialization of each shard
PARTS = 2
#: set-ups per part; ``setup_s`` and ``open_s`` are medians of all
#: ``PARTS * SETUP_REPEATS`` (with 2 per part they spread ~20%)
SETUP_REPEATS = 3
#: the generated stream holds this many batches per second of run
STREAM_BATCHES_PER_SECOND = 100
#: batches of the deterministic count replay
COUNT_BATCHES = 20
BATTERY = (
    "/sites/site/people/person/name",
    "//open_auction//increase",
    "//regions//item/description//listitem",
    "//item[@id='item7']",
    "//person/address/city",
    "/sites/site/open_auctions/open_auction/current",
)

INSERT, RUN, DELETE = range(3)


def prepare(seed: int, seconds: float, workdir: str) -> dict:
    """Child-process input preparation (see ``perfbench/child.py``)."""
    from repro.labeling.scheme import LabeledDocument
    from repro.order import make_scheme
    from repro.xml.generator import xmark_like
    from repro.xml.model import XMLDocument, XMLElement

    rng = random.Random(seed)
    root = XMLElement("sites")
    for _ in range(N_SITES):
        root.append_child(xmark_like(*SITE, seed=rng).root)
    document = XMLDocument(root)
    labeled = LabeledDocument(document, scheme=make_scheme("ltree-sharded"))
    path, saves = save_timed(labeled, workdir)
    return {
        "path": path,
        "save_seconds": saves,
        "file_bytes": os.path.getsize(path),
        "tokens": len(labeled.scheme),
        "elements": sum(1 for _ in document.iter_elements()),
        "shards": len(labeled.scheme.tree.shard_ids),
    }


def section_anchors(labeled) -> list[list[tuple[int, int]]]:
    """Begin and end handles of every element, per top-level site."""
    sections: list[list[tuple[int, int]]] = []
    for _element, begin, end, level in labeled.element_handles():
        if level == 1:
            sections.append([])
        if level >= 1:
            sections[-1].extend((tuple(begin), tuple(end)))
    return sections


def make_batches(sections: list[list[tuple[int, int]]], seed: int,
                 n_batches: int) -> list[list[tuple]]:
    """Seeded edit batches.  Ops: ``(INSERT, anchor, new_id)``, ``(RUN,
    anchor, first_id)``, ``(DELETE, item_id)``; an anchor is a DOM
    handle tuple or the id (an int) of an earlier benchmark insert."""
    rng = random.Random(seed * 104729 + 3)
    hot = rng.randrange(len(sections))
    own: list[list[int]] = [[] for _ in sections]
    where: dict[int, int] = {}
    next_id = 0

    def add(section: int, item: int) -> None:
        where[item] = len(own[section])
        own[section].append(item)

    batches = []
    for _ in range(n_batches):
        ops: list[tuple] = []
        for _ in range(BATCH_EDITS):
            section = hot if rng.random() < HOT_SHARE else \
                rng.randrange(len(sections))
            mine = own[section]
            roll = rng.random()
            if roll >= 0.6 and mine:
                item = mine[rng.randrange(len(mine))]
                slot = where.pop(item)
                last = mine.pop()
                if last != item:
                    mine[slot] = last
                    where[last] = slot
                ops.append((DELETE, item))
                continue
            if mine and rng.random() < 0.5:
                anchor: object = mine[rng.randrange(len(mine))]
            else:
                dom = sections[section]
                anchor = dom[rng.randrange(len(dom))]
            if roll < 0.5 or roll >= 0.6:
                ops.append((INSERT, anchor, next_id))
                add(section, next_id)
                next_id += 1
            else:
                ops.append((RUN, anchor, next_id))
                for item in range(next_id, next_id + RUN_ITEMS):
                    add(section, item)
                next_id += RUN_ITEMS
        batches.append(ops)
    return batches


def _same(answers: list[list], expected: list[list]) -> bool:
    return all(len(got) == len(want) and
               all(a is b for a, b in zip(got, want))
               for got, want in zip(answers, expected))


def _increasing(labels: list[int]) -> bool:
    return all(a < b for a, b in zip(labels, labels[1:]))


class LoopResult:
    def __init__(self) -> None:
        self.edit_seconds: list[float] = []
        self.refresh_seconds: list[float] = []
        self.loop_seconds = 0.0
        self.failed = 0


def run_loop(labeled, store, batches: list[list[tuple]], queries: list,
             expected: list[list], seconds: float, phase: Phase,
             stats=None, edit_profiler=None, query_profiler=None,
             observe=None) -> LoopResult:
    """Edit batches, each followed by a refresh, until ``seconds`` of
    loop time (checks excluded) have passed or the stream ends.

    ``observe(stage, session)`` is called untimed before each batch
    (``"before"``) and after each refresh (``"refreshed"``).
    """
    import repro.query as rq
    tree = labeled.scheme.tree
    result = LoopResult()
    edits, refreshes = result.edit_seconds, result.refresh_seconds
    handle_of: dict[int, tuple[int, int]] = {}
    excluded = 0.0
    loop_start = clock()
    for ops in batches:
        if observe is not None:
            mark = clock()
            observe("before", None)
            excluded += clock() - mark
        for op in ops:
            kind, target = op[0], op[1]
            handle = handle_of[target] if type(target) is int else target
            phase.begin("edit")
            if edit_profiler is not None:
                edit_profiler.enable()
            start = clock()
            if kind == INSERT:
                made = tree.insert_after(handle, "x")
            elif kind == RUN:
                made = tree.insert_run_after(handle, ["x"] * RUN_ITEMS)
            else:
                made = tree.mark_deleted(handle)
            stop = clock()
            if edit_profiler is not None:
                edit_profiler.disable()
            phase.end()
            edits.append(stop - start)
            if kind == INSERT:
                handle_of[op[2]] = made
            elif kind == RUN:
                for offset, leaf in enumerate(made):
                    handle_of[op[2] + offset] = leaf
        phase.begin("refresh")
        start = clock()
        snapshot = tree.snapshot()
        if stats is None:
            store = store.repin(labeled, snapshot)
            session = rq.QuerySession(store)
        else:
            store = store.repin(labeled, snapshot, stats)
            session = rq.QuerySession(store, stats=stats)
        if query_profiler is not None:
            query_profiler.enable()
        answers = [session.evaluate(query) for query in queries]
        if query_profiler is not None:
            query_profiler.disable()
        stop = clock()
        phase.end()
        refreshes.append(stop - start)
        mark = clock()
        if not _same(answers, expected):
            result.failed += 1
        if not _increasing(snapshot.labels()):
            result.failed += 1
        if observe is not None:
            observe("refreshed", session)
        excluded += clock() - mark
        if clock() - loop_start - excluded >= seconds:
            break
    result.loop_seconds = clock() - loop_start - excluded
    return result


def _battery(labeled, store):
    """Parsed battery and its answers on the freshly opened store."""
    import repro.query as rq
    queries = [rq.parse_xpath(text) for text in BATTERY]
    session = rq.QuerySession(store)
    expected = [session.evaluate(query) for query in queries]
    if any(not answer for answer in expected):
        raise WorkloadError("a battery query has an empty answer")
    return queries, expected


def _inputs(labeled, seed: int, n_batches: int):
    return make_batches(section_anchors(labeled), seed, n_batches)


def _n_batches(seconds: float) -> int:
    return max(COUNT_BATCHES, int(seconds * STREAM_BATCHES_PER_SECOND))


def measure_part(seed: int, seconds: float, workdir: str, part: int,
                 parts: int) -> dict:
    """One measuring process: set-ups, then the part's own seeded
    batches (its own hot site) for ``seconds`` (raw samples for
    ``pooled_result``)."""
    seed = part_seed(seed, part, parts)
    prep = load_prepared(workdir)
    labeled, store, opens, totals = timed_setups(prep["path"],
                                                 SETUP_REPEATS, Phase())
    queries, expected = _battery(labeled, store)
    batches = _inputs(labeled, seed, _n_batches(seconds))
    loop = run_loop(labeled, store, batches, queries, expected, seconds,
                    Phase())
    labeled.close()
    return {
        "setup": totals, "op": loop.edit_seconds,
        "ack": loop.refresh_seconds, "persist": [], "reopen": opens,
        "loop_seconds": loop.loop_seconds,
        "disk_bytes_per_item": prep["file_bytes"] / prep["tokens"],
        "attempted": len(loop.edit_seconds) + len(loop.refresh_seconds) +
        len(totals),
        "failed": loop.failed,
        "details": {"edits": len(loop.edit_seconds),
                    "refreshes": len(loop.refresh_seconds)},
    }


def measure(seed: int, seconds: float, workdir: str) -> dict:
    """The untraced end-to-end run, pooled over ``PARTS`` processes."""
    prep = run_child("prepare", "edit_then_query", seed, seconds, workdir)
    parts = [run_child("part", "edit_then_query", seed, seconds / PARTS,
                       workdir, part, PARTS) for part in range(PARTS)]
    return pooled_result(parts, persist=prep["save_seconds"],
                         details={"elements": prep["elements"],
                                  "tokens": prep["tokens"],
                                  "shards": prep["shards"]})


#: layers whose Python calls per edit are counted
CALL_LAYERS = ("core.compact", "core.sharded", "concurrent.engine")


def count_replay(prep: dict, seed: int, phase: Phase) -> dict[str, float]:
    """Count-class metrics over the first ``COUNT_BATCHES`` batches on
    a freshly opened document: deterministic for a seed."""
    from repro.core.stats import Counters

    from perfbench.tracing import CallCounter, calls_per
    stats = Counters()
    labeled, store, _opened, _total = open_pinned(prep["path"], stats)
    pool = labeled.store.cache_stats()
    queries, expected = _battery(labeled, store)
    batches = _inputs(labeled, seed, COUNT_BATCHES)
    tree = labeled.scheme.tree
    before = stats.snapshot()
    marks: dict = {"shards": 0, "ratios": []}

    def observe(stage: str, session) -> None:
        counts = tree.write_counts()
        if stage == "before":
            marks["counts"] = counts
            return
        marks["shards"] += sum(1 for sid, count in counts.items()
                               if count != marks["counts"].get(sid, 0))
        marks["ratios"].append(session.memo_hit_ratio())

    edit_profiler, query_profiler = CallCounter(), CallCounter()
    loop = run_loop(labeled, store, batches, queries, expected,
                    float("inf"), phase, stats=stats,
                    edit_profiler=edit_profiler,
                    query_profiler=query_profiler, observe=observe)
    labeled.close()
    if loop.failed:
        raise WorkloadError(f"{loop.failed} failed checks in the count "
                            f"replay")
    delta = stats - before
    edits = len(loop.edit_seconds)
    refreshes = len(loop.refresh_seconds)
    n_queries = refreshes * len(queries)
    return {
        "core.compact.count_updates_per_edit": delta.count_updates / edits,
        "core.compact.relabels_per_edit": delta.relabels / edits,
        "core.compact.splits_per_edit": delta.splits / edits,
        "core.sharded.shards_written_per_batch": marks["shards"] / refreshes,
        "storage.pages.pool_hit_rate": pool["hit_rate"],
        "query.columnar.memo_hit_ratio":
            sum(marks["ratios"]) / len(marks["ratios"]),
        "query.columnar.pushdown_pruned_per_query":
            delta.pushdown_pruned / n_queries,
        "query.columnar.comparisons_per_query":
            delta.comparisons / n_queries,
        "query.columnar.shards_reused_per_refresh":
            delta.shards_reused / refreshes,
        "query.columnar.shards_reextracted_per_refresh":
            delta.shards_reextracted / refreshes,
        "query.columnar.segments_spliced_per_refresh":
            delta.segments_spliced / refreshes,
        **calls_per(edit_profiler, CALL_LAYERS, edits, "edit"),
        **calls_per(query_profiler, ("query.columnar",), n_queries,
                    "query"),
    }


def measure_traced(seed: int, seconds: float, workdir: str) -> dict:
    """Untraced reference segment, traced segment, count replay."""
    from perfbench import tracing
    prep = run_child("prepare", "edit_then_query", seed, seconds, workdir)
    plain = Phase()
    labeled, store, _opens, _totals = timed_setups(prep["path"], 1, plain)
    queries, expected = _battery(labeled, store)
    batches = _inputs(labeled, seed, _n_batches(seconds))
    reference = run_loop(labeled, store, batches, queries, expected,
                         seconds * 0.3, plain)
    labeled.close()
    labeled = store = None
    settle()

    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        phase = Phase(recorder)
        labeled, store, _opens, _totals = timed_setups(prep["path"], 2,
                                                       phase)
        queries, expected = _battery(labeled, store)
        loop = run_loop(labeled, store, batches, queries, expected,
                        seconds * 0.7, phase)
        labeled.close()
        labeled = store = None
        ledger = tracing.Ledger(recorder)
        spans = len(recorder.spans)
        recorder.write_jsonl(tracing.trace_path("edit_then_query"))
        recorder.reset()
        counts = count_replay(prep, seed, phase)
    finally:
        installation.remove()
    metrics = tracing.per_layer_result(
        tracing.timing_metrics(ledger, "setup"), counts,
        tracing.overhead(reference.edit_seconds, reference.loop_seconds,
                         loop.edit_seconds, loop.loop_seconds))
    return {"metrics": metrics,
            "attempted": len(loop.edit_seconds) +
            len(loop.refresh_seconds) + 2,
            "failed": loop.failed + reference.failed,
            "details": {"traced_edits": len(loop.edit_seconds),
                        "spans": spans}}
