"""Deterministic proxies for the cost of one durable write.

Wall-clock timings of a ~20 µs operation are too noisy to gate, so
these tests pin what the time is made of instead:

* the number of Python-level calls one routed
  ``ConcurrentDocument.insert_after`` makes outside the arena
  (``repro/core``) — the lock, wrapper, journal and encoder overhead
  the paper's insert cost does not include;
* the exact bytes the WAL writes for a fixed op sequence, against a
  reference framing built with ``json.dumps`` — the encoder may get
  faster, the format may not change.

Plus the one-version-per-shard contract the snapshot image cache keys
on: a compaction must invalidate a pinned epoch.
"""

import json
import os
import struct
import sys
import zlib
from collections import Counter

import pytest

from repro import obs
from repro.concurrent import ConcurrentDocument, ConcurrentLTree
from repro.concurrent.service import WAL_FILE
from repro.core.params import LTreeParams
from repro.core.sharded import ShardedCompactLTree
from repro.errors import StorageError
from repro.storage.wal import WAL_FORMAT_VERSION, WAL_MAGIC, encode_op

PARAMS = LTreeParams(f=8, s=2)

#: ceiling on Python calls outside ``repro/core`` per routed insert
#: (11 today): service 1, wrapper 4 (method, acquire, bookkeeping,
#: release), locks 4 (latch shared in/out, shard exclusive in/out),
#: encoder 1, WAL append 1.  Was 38 with generator context managers,
#: Condition locks and a ``json.dumps`` per record.
MAX_CALLS_PER_INSERT = 12

_CORE = os.sep + os.path.join("repro", "core") + os.sep


@pytest.fixture
def obs_off():
    was_metrics, was_trace = obs.METRICS.enabled, obs.TRACER.enabled
    obs.disable()
    yield
    obs.enable(metrics=was_metrics, trace=was_trace)


def _calls_outside_core(action, repeats):
    """Python ``call`` events per ``action()``, ``repro/core`` excluded."""
    counts: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call" and _CORE not in frame.f_code.co_filename:
            code = frame.f_code
            counts[(os.path.basename(code.co_filename),
                    code.co_name)] += 1

    sys.setprofile(profiler)
    try:
        for index in range(repeats):
            action(index)
    finally:
        sys.setprofile(None)
    # the profiler also sees the test's own action helper
    counts.pop((os.path.basename(__file__), "<lambda>"), None)
    counts.pop((os.path.basename(__file__), "insert"), None)
    return counts


class TestCallsPerRoutedInsert:
    def test_insert_after_stays_under_the_ceiling(self, tmp_path,
                                                  obs_off):
        # no group commit: the measured loop is the per-op path only
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4,
                                        group_commit=None)
        handles = doc.bulk_load([f"p{i}" for i in range(256)])
        for handle in handles[:16]:                  # warm every path
            doc.insert_after(handle, "warm")
        repeats = 200

        def insert(index):
            doc.insert_after(handles[(index * 37) % len(handles)],
                             ["x", index])

        counts = _calls_outside_core(insert, repeats)
        per_op = sum(counts.values()) / repeats
        assert per_op <= MAX_CALLS_PER_INSERT, sorted(
            ((name, count / repeats) for name, count in counts.items()),
            key=lambda item: -item[1])
        # none of the removed per-op machinery crept back
        assert not [key for key in counts
                    if key[0] in ("contextlib.py", "threading.py")
                    or key == ("__init__.py", "dumps")], counts
        doc.commit()
        doc.close()

    def test_engine_only_insert_skips_the_encoder(self, obs_off):
        tree = ConcurrentLTree(ShardedCompactLTree(PARAMS, n_shards=4))
        handles = tree.bulk_load([f"p{i}" for i in range(64)])
        counts = _calls_outside_core(
            lambda index: tree.insert_after(handles[index % 64], index),
            100)
        assert not any(name in ("encode_op", "iterencode")
                       for _file, name in counts), counts
        # wrapper 4 (method, acquire, bookkeeping, release) + locks 4
        assert sum(counts.values()) / 100 <= 8


def _reference_record(seq, op):
    body = json.dumps(op, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(struct.pack("<Q", seq) + body)
    return struct.pack("<IIQ", len(body), crc, seq) + body


def _reference_header(base_seq):
    prefix = struct.pack("<8sIQ", WAL_MAGIC, WAL_FORMAT_VERSION, base_seq)
    return prefix + struct.pack("<I", zlib.crc32(prefix))


#: payloads covering every JSON type the encoder emits
PAYLOADS = ["plain", "\u00fcn\u00efc\u00f8d\u00e9 \u2713",
            "quote\"back\\slash\n", 7, -2.5, 1e300, True, None,
            ["nested", [1, {"k": "v"}]], {"b": 1, "a": [2]},
            ("tuple", 3), "\u2028\x00"]


class TestWalBytes:
    def test_fixed_sequence_matches_json_dumps_framing(self, tmp_path):
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=2,
                                        group_commit=None)
        expected_ops = []
        items = [f"b{i}" for i in range(8)]
        handles = doc.bulk_load(items)
        expected_ops.append({"op": "bulk_load", "ps": items,
                             "bounds": None})
        for index, payload in enumerate(PAYLOADS):
            anchor = handles[index % len(handles)]
            kind = index % 6
            if kind == 0:
                doc.insert_after(anchor, payload)
                op = {"op": "insert_after", "h": list(anchor),
                      "p": payload}
            elif kind == 1:
                doc.insert_before(anchor, payload)
                op = {"op": "insert_before", "h": list(anchor),
                      "p": payload}
            elif kind == 2:
                doc.insert_run_after(anchor, [payload, "tail"])
                op = {"op": "insert_run_after", "h": list(anchor),
                      "ps": [payload, "tail"]}
            elif kind == 3:
                doc.set_payload(anchor, payload)
                op = {"op": "set_payload", "h": list(anchor),
                      "p": payload}
            elif kind == 4:
                doc.append(payload)
                op = {"op": "append", "p": payload}
            else:
                doc.prepend(payload)
                op = {"op": "prepend", "p": payload}
            expected_ops.append(op)
        doc.insert_run_before(handles[5], ["r1", "r2"])
        expected_ops.append({"op": "insert_run_before",
                             "h": list(handles[5]), "ps": ["r1", "r2"]})
        doc.delete(handles[6])
        expected_ops.append({"op": "delete", "h": list(handles[6])})
        doc.commit()
        doc.close()
        expected = _reference_header(1) + b"".join(
            _reference_record(seq, op)
            for seq, op in enumerate(expected_ops, start=1))
        with open(str(tmp_path / "svc" / WAL_FILE), "rb") as log:
            assert log.read() == expected

    @pytest.mark.parametrize("payload", PAYLOADS,
                             ids=[f"p{i}" for i in range(len(PAYLOADS))])
    def test_encode_op_is_json_dumps(self, payload):
        op = {"op": "insert_after", "h": [3, 9], "p": payload}
        assert encode_op(op) == \
            json.dumps(op, separators=(",", ":")).encode("utf-8")

    @pytest.mark.parametrize("payload", [{1, 2}, object(), b"raw"],
                             ids=["set", "object", "bytes"])
    def test_encode_op_rejects_like_the_log(self, payload):
        with pytest.raises(StorageError, match="JSON-serializable"):
            encode_op({"op": "append", "p": payload})

    def test_circular_op_is_rejected(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(StorageError, match="JSON-serializable"):
            encode_op({"op": "append", "p": loop})


class TestOneVersionPerShard:
    def test_snapshot_after_compact_sees_the_new_slots(self):
        tree = ConcurrentLTree(ShardedCompactLTree(PARAMS, n_shards=3))
        handles = tree.bulk_load([f"p{i}" for i in range(30)])
        for handle in handles[::4]:
            tree.mark_deleted(handle)
        before = tree.snapshot()
        for sid in before.ids:
            before.label_columns(sid)                # fill the caches
        tree.compact()
        after = tree.snapshot()
        assert after.epoch != before.epoch
        dirty, vanished = after.delta_since(before.epoch)
        assert dirty == set(after.ids) and not vanished
        assert after.label_map() == tree.label_map()
        for sid in after.ids:
            live, column = after.label_columns(sid)
            assert [after.shard_prefix(sid) + column[slot]
                    for slot in live] == \
                [tree.num((sid, slot)) for slot in live]

    def test_snapshot_epoch_is_the_engine_version(self):
        engine = ShardedCompactLTree(PARAMS, n_shards=2)
        tree = ConcurrentLTree(engine)
        handles = tree.bulk_load(list("abcdef"))
        tree.insert_after(handles[0], "x")
        tree.set_payload(handles[1], "y")            # no label change
        pinned = tree.snapshot()
        assert pinned.shard_versions() == engine.shard_versions()
        assert tree.snapshot().epoch == pinned.epoch
