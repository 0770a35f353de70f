"""Workload ``cold_query``: the read-only cold reader.

An XMark-like site of ~69k elements (``xmark_like(5000, 2500, 1700)``,
the scale of the earlier query suites) is saved, untimed, with the
``ltree-sharded`` scheme (one shard per top-level section: regions,
people, open_auctions).  The timed set-up is ``LabeledDocument.open(
path, concurrent=True)``, ``snapshot()`` and
``ColumnarStore.from_snapshot``.  Then comes a seeded stream of
queries, parsed and answered 8 per ``QuerySession`` over the one pin:
half from the ~310 distinct ``workloads.queries.xpath_battery``
queries (no repeat within a session) and half ``[@id='...']`` point
predicates (distinct across the stream while the 18,400 distinct ones
last).  Every answer's count
and end elements are checked against ``evaluate_interval`` answers
computed, untimed, while the inputs are prepared.

Client: one thread, closed loop.  The write layers do nothing after
the open, and the incremental re-pin is never taken.
"""

from __future__ import annotations

import os
import random

from perfbench.child import load_prepared, run_child
from perfbench.common import (Phase, WorkloadError, clock, pooled_result,
                              settle)

SITE = (5000, 2500, 1700)
SESSION_QUERIES = 8
#: measuring processes per run, each with its own set-up and a quarter
#: of the seconds
PARTS = 4
SETUP_REPEATS = 1
#: a save takes ~2 s of CPU and moved ±10% between repeats in one run
SAVE_REPEATS = 4
#: ``xpath_battery`` draws whose distinct queries form the battery pool:
#: enough to reach nearly every path the generator can make (~310), so
#: the pool, and the cost mix, hardly depends on the seed
BATTERY_DRAWS = 10_000
#: the generated stream holds this many queries per second of run
STREAM_QUERIES_PER_SECOND = 3000
#: sessions of the deterministic count replay
COUNT_SESSIONS = 50
#: point-query forms; the predicate sits on the last step
POINT_FORMS = (
    ("//item", "item", SITE[0]),
    ("/site/regions//item", "item", SITE[0]),
    ("//person", "person", SITE[1]),
    ("/site/people/person", "person", SITE[1]),
    ("//open_auction", "auction", SITE[2]),
    ("/site/open_auctions/open_auction", "auction", SITE[2]),
)


def make_sessions(battery: list[str], seed: int,
                  n_sessions: int) -> list[list[str]]:
    """Seeded sessions: 4 distinct battery queries + 4 point queries."""
    rng = random.Random(seed * 7919 + 1)
    points = [f"{base}[@id='{prefix}{number}']"
              for base, prefix, count in POINT_FORMS
              for number in range(count)]
    rng.shuffle(points)
    half = SESSION_QUERIES // 2
    sessions = []
    for number in range(n_sessions):
        start = (number * half) % len(points)
        picked = rng.sample(battery, half) + \
            (points + points)[start:start + half]
        rng.shuffle(picked)
        sessions.append(picked)
    return sessions


def _order_of(elements) -> dict[int, int]:
    return {id(element): position
            for position, element in enumerate(elements)}


def _answer(result: list, order: dict[int, int]) -> list[int]:
    if not result:
        return [0, -1, -1]
    return [len(result), order[id(result[0])], order[id(result[-1])]]


def save_timed(labeled, workdir: str) -> tuple[str, list[float]]:
    """Save ``labeled`` ``SAVE_REPEATS`` times, each to a fresh file;
    returns the path of the first (the one the parts open) and the
    save times."""
    path = os.path.join(workdir, "doc.ltp")
    saves = []
    for rep in range(SAVE_REPEATS):
        target = path if rep == 0 else os.path.join(workdir, f"s{rep}.ltp")
        settle()
        start = clock()
        labeled.save(target)
        saves.append(clock() - start)
        if rep:
            os.remove(target)
    return path, saves


def prepare(seed: int, seconds: float, workdir: str) -> dict:
    """Child-process input preparation (see ``perfbench/child.py``)."""
    from repro.labeling.scheme import LabeledDocument
    from repro.order import make_scheme
    from repro.query import evaluate_interval, parse_xpath
    from repro.storage.interval_table import IntervalTableStore
    from repro.workloads.queries import xpath_battery
    from repro.xml.generator import xmark_like

    document = xmark_like(*SITE, seed=seed)
    labeled = LabeledDocument(document, scheme=make_scheme("ltree-sharded"))
    path, saves = save_timed(labeled, workdir)

    battery = list(dict.fromkeys(
        str(query) for query in xpath_battery(document, BATTERY_DRAWS,
                                              seed=seed)))
    n_sessions = max(COUNT_SESSIONS, int(
        seconds * STREAM_QUERIES_PER_SECOND / SESSION_QUERIES))
    sessions = make_sessions(battery, seed, n_sessions)

    intervals = IntervalTableStore(labeled)
    order = _order_of(document.iter_elements())
    oracle = {text: _answer(evaluate_interval(intervals, parse_xpath(text)),
                            order) for text in battery}
    by_base = {}
    for base, _prefix, _count in POINT_FORMS:
        by_id: dict[str, list] = {}
        for element in evaluate_interval(intervals, parse_xpath(base)):
            by_id.setdefault(element.attributes.get("id"), []).append(element)
        by_base[base] = by_id
    checked = 0
    for session in sessions:
        for text in session:
            if text in oracle:
                continue
            base, _, predicate = text.partition("[@id='")
            matches = by_base[base].get(predicate[:-2], [])
            oracle[text] = _answer(matches, order)
            if checked < 24:
                # the point oracle filters the predicate-free answer;
                # hold it to evaluate_interval on the query itself
                direct = _answer(
                    evaluate_interval(intervals, parse_xpath(text)), order)
                if direct != oracle[text]:
                    raise WorkloadError(f"point oracle disagrees with "
                                        f"evaluate_interval on {text}")
                checked += 1
    return {
        "path": path,
        "save_seconds": saves,
        "file_bytes": os.path.getsize(path),
        "tokens": len(labeled.scheme),
        "elements": len(order),
        "sessions": sessions,
        "oracle": oracle,
    }


def open_pinned(path: str, stats=None):
    """The timed set-up: open, pin a snapshot, build the columns.
    Returns (labeled, store, open seconds, total seconds)."""
    from repro.labeling.scheme import LabeledDocument
    from repro.query import ColumnarStore
    start = clock()
    if stats is None:
        labeled = LabeledDocument.open(path, concurrent=True)
    else:
        labeled = LabeledDocument.open(path, stats=stats, concurrent=True)
    opened = clock()
    snapshot = labeled.scheme.tree.snapshot()
    if stats is None:
        store = ColumnarStore.from_snapshot(labeled, snapshot)
    else:
        store = ColumnarStore.from_snapshot(labeled, snapshot, stats=stats)
    stop = clock()
    return labeled, store, opened - start, stop - start


def timed_setups(path: str, repeats: int, phase: Phase):
    """``repeats`` timed set-ups; keeps the last (earlier ones closed)."""
    opens, totals = [], []
    labeled = store = None
    for _ in range(repeats):
        if labeled is not None:
            labeled.close()
            labeled = store = None
        settle()
        phase.begin("setup")
        labeled, store, opened, total = open_pinned(path)
        phase.end()
        opens.append(opened)
        totals.append(total)
    return labeled, store, opens, totals


class LoopResult:
    def __init__(self) -> None:
        self.query_seconds: list[float] = []
        self.session_seconds: list[float] = []
        self.failed = 0


def run_loop(store, sessions: list[list[str]], oracle: dict,
             order: dict[int, int], seconds: float, phase: Phase,
             stats=None, profiler=None, memo_ratios=None) -> LoopResult:
    """Sessions of 8 parsed-and-answered queries until ``seconds`` of
    session time have passed (or the stream ends)."""
    import repro.query as rq
    result = LoopResult()
    queries, elapsed = result.query_seconds, result.session_seconds
    for texts in sessions:
        answers = []
        begun = clock()
        session = rq.QuerySession(store) if stats is None else \
            rq.QuerySession(store, stats=stats)
        for text in texts:
            phase.begin("query")
            if profiler is not None:
                profiler.enable()
            start = clock()
            answer = session.evaluate(rq.parse_xpath(text))
            stop = clock()
            if profiler is not None:
                profiler.disable()
            phase.end()
            queries.append(stop - start)
            answers.append(answer)
        elapsed.append(clock() - begun)
        if memo_ratios is not None:
            memo_ratios.append(session.memo_hit_ratio())
        for text, answer in zip(texts, answers):
            if _answer(answer, order) != oracle[text]:
                result.failed += 1
        if sum(elapsed) >= seconds:
            break
    return result


def measure_part(_seed: int, seconds: float, workdir: str, part: int,
                 parts: int) -> dict:
    """One measuring process: one set-up, then every ``parts``-th
    session for ``seconds`` (raw samples for ``pooled_result``)."""
    prep = load_prepared(workdir)
    labeled, store, opens, totals = timed_setups(prep["path"],
                                                 SETUP_REPEATS, Phase())
    order = _order_of(labeled.document.iter_elements())
    loop = run_loop(store, prep["sessions"][part::parts], prep["oracle"],
                    order, seconds, Phase())
    labeled.close()
    return {
        "setup": totals, "op": loop.query_seconds,
        "ack": loop.session_seconds, "persist": [], "reopen": opens,
        "loop_seconds": sum(loop.session_seconds),
        "disk_bytes_per_item": prep["file_bytes"] / prep["tokens"],
        "attempted": len(loop.query_seconds) + len(totals),
        "failed": loop.failed,
        "details": {"queries": len(loop.query_seconds),
                    "sessions": len(loop.session_seconds)},
    }


def measure(seed: int, seconds: float, workdir: str) -> dict:
    """The untraced end-to-end run, pooled over ``PARTS`` processes."""
    prep = run_child("prepare", "cold_query", seed, seconds, workdir)
    parts = [run_child("part", "cold_query", seed, seconds / PARTS,
                       workdir, part, PARTS) for part in range(PARTS)]
    return pooled_result(parts, persist=prep["save_seconds"],
                         details={"elements": prep["elements"],
                                  "tokens": prep["tokens"]})


def count_replay(prep: dict, phase: Phase) -> dict[str, float]:
    """Count-class metrics over the first ``COUNT_SESSIONS`` sessions
    on a freshly opened store: deterministic for a seed."""
    from repro.core.stats import Counters

    from perfbench.tracing import CallCounter, calls_per
    stats = Counters()
    labeled, store, _opened, _total = open_pinned(prep["path"], stats)
    pool = labeled.store.cache_stats()
    order = _order_of(labeled.document.iter_elements())
    before = stats.snapshot()
    profiler = CallCounter()
    ratios: list[float] = []
    loop = run_loop(store, prep["sessions"][:COUNT_SESSIONS],
                    prep["oracle"], order, float("inf"), phase,
                    stats=stats, profiler=profiler, memo_ratios=ratios)
    labeled.close()
    if loop.failed:
        raise WorkloadError(f"{loop.failed} wrong answers in the count "
                            f"replay")
    delta = stats - before
    queries = len(loop.query_seconds)
    return {
        "storage.pages.pool_hit_rate": pool["hit_rate"],
        "query.columnar.memo_hit_ratio": sum(ratios) / len(ratios),
        "query.columnar.pushdown_pruned_per_query":
            delta.pushdown_pruned / queries,
        "query.columnar.comparisons_per_query":
            delta.comparisons / queries,
        **calls_per(profiler, ("query.columnar",), queries, "query"),
    }


def measure_traced(seed: int, seconds: float, workdir: str) -> dict:
    """Untraced reference segment, traced segment, count replay."""
    from perfbench import tracing
    prep = run_child("prepare", "cold_query", seed, seconds, workdir)
    plain = Phase()
    labeled, store, _opens, _totals = timed_setups(prep["path"], 1, plain)
    order = _order_of(labeled.document.iter_elements())
    reference = run_loop(store, prep["sessions"], prep["oracle"], order,
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
        order = _order_of(labeled.document.iter_elements())
        loop = run_loop(store, prep["sessions"], prep["oracle"], order,
                        seconds * 0.7, phase)
        labeled.close()
        labeled = store = None
        ledger = tracing.Ledger(recorder)
        spans = len(recorder.spans)
        recorder.write_jsonl(tracing.trace_path("cold_query"))
        recorder.reset()
        counts = count_replay(prep, phase)
    finally:
        installation.remove()
    metrics = tracing.per_layer_result(
        tracing.timing_metrics(ledger, "setup"), counts,
        tracing.overhead(reference.query_seconds,
                         sum(reference.session_seconds),
                         loop.query_seconds, sum(loop.session_seconds)))
    return {"metrics": metrics,
            "attempted": len(loop.query_seconds) + 2,
            "failed": loop.failed + reference.failed,
            "details": {"traced_queries": len(loop.query_seconds),
                        "spans": spans}}
