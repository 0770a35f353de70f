"""Metric names, units and the per-workload meaning of each.

Names, units and directions are read from ``BENCHMARK.json``, the one
place they are declared.  Every end-to-end metric is reported on every
workload, so the names are roles ("the workload's unit operation", "its
acknowledgement"); :data:`ALIASES` gives the operation-specific name
each role stands for on each workload, and ``run.py`` prints it next to
the value.
"""

from __future__ import annotations

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as _src:
    _SPEC = json.load(_src)

#: name -> (unit, better)
END_TO_END = {metric["name"]: (metric["unit"], metric["better"])
              for metric in _SPEC["end_to_end"]}

#: name -> unit
PER_LAYER = {metric["name"]: metric["unit"]
             for metric in _SPEC["per_layer"]}

ALIASES = {
    "durable_edits": {
        "op_p50_us": "edit_p50_us", "op_p90_us": "edit_p90_us",
        "ops_per_s": "edits_per_s", "ack_p50_us": "commit_p50_us",
        "ack_p90_us": "commit_p90_us", "persist_ms": "checkpoint_ms",
        "reopen_s": "recover_s",
    },
    "cold_query": {
        "op_p50_us": "query_p50_us", "op_p90_us": "query_p90_us",
        "ops_per_s": "queries_per_s", "ack_p50_us": "session_p50_us",
        "ack_p90_us": "session_p90_us", "persist_ms": "save_ms",
        "reopen_s": "open_s",
    },
    "edit_then_query": {
        "op_p50_us": "edit_p50_us", "op_p90_us": "edit_p90_us",
        "ops_per_s": "edits_per_s", "ack_p50_us": "refresh_p50_us",
        "ack_p90_us": "refresh_p90_us", "persist_ms": "save_ms",
        "reopen_s": "open_s",
    },
}

#: per-layer metrics that must repeat exactly across same-seed runs
#: (they come from the fixed-length count replay); the rest are timings.
#: ``storage.pages.bytes_written_per_checkpoint`` is left out: each
#: checkpoint also writes the service meta blob, whose wall-clock stamp
#: serializes to a byte or two more or less from run to run, so it is
#: reported as timing-class.
COUNT_CLASS = frozenset(
    name for name, unit in PER_LAYER.items()
    if (unit in ("count", "B") or name in (
        "storage.pages.pool_hit_rate", "query.columnar.memo_hit_ratio"))
    and name != "storage.pages.bytes_written_per_checkpoint")


def alias(workload: str, name: str) -> str | None:
    return ALIASES.get(workload, {}).get(name)
