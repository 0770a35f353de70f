"""Shared helpers: clocks, percentiles, work directories, guards."""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import time
from typing import Sequence

from perfbench.names import END_TO_END

#: every timing in the benchmark reads the process's CPU clock, which
#: counts the work of all its threads (a library thread pool or a
#: background flusher stays in the numbers).  It does not see time the
#: client spends blocked: lock waits, sleeps, and I/O waits such as an
#: fsync (the workloads run with ``sync=False``, so writes land in the
#: page cache and that kernel work is CPU time).  Wall time would also
#: count waits for a CPU that other tenants of a shared machine hold,
#: which moved tails and throughput by 10-30% between runs of the same
#: code; see ``NOTES.md``.
clock = time.process_time

#: repository root (the directory holding ``src/`` and ``perfbench/``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: scratch space the benchmark writes into, always inside the checkout
WORK_ROOT = os.path.join(ROOT, ".perfbench")


class WorkloadError(Exception):
    """An oracle or invariant check of the benchmark failed."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def make_workdir(workload: str, seed: int) -> str:
    """A fresh, private scratch directory for one run."""
    path = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def check_obs_off() -> None:
    """Refuse to measure with the library's own instrumentation on.

    End-to-end numbers must come from the uninstrumented hot paths; a
    ``REPRO_OBS`` in the environment would switch ``repro.obs`` on at
    import, and anything that enabled it later would skew every span.
    """
    if "REPRO_OBS" in os.environ:
        raise WorkloadError("REPRO_OBS is set; unset it before "
                            "benchmarking (repro.obs must stay off)")
    from repro import obs
    if obs.METRICS.enabled or obs.TRACER.enabled:
        raise WorkloadError("repro.obs is enabled; the benchmark "
                            "measures the uninstrumented library")


def part_seed(seed: int, part: int, parts: int) -> int:
    """The input seed of one measuring part: parts of one run draw
    different inputs, so a run averages over several streams, and the
    same run seed always gives the same ones."""
    return seed * parts + part


def settle() -> None:
    """Collect garbage, untimed, before a single-shot timed operation
    (a set-up, save or recovery), so each starts from the same collector
    state instead of paying for a collection the work before it made
    due.  Collections the operation itself triggers still count."""
    gc.collect()


class Phase:
    """Per-run bookkeeping a workload loop reports through.

    ``begin(kind)``/``end()`` bracket one request (an edit, a commit, a
    query, ...).  With a span recorder attached they tag every span
    recorded meanwhile; without one they cost one attribute test.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder

    def begin(self, kind: str) -> None:
        if self.recorder is not None:
            self.recorder.begin(kind)

    def end(self) -> None:
        if self.recorder is not None:
            self.recorder.end()


def pooled_result(parts: list[dict], persist: list[float] | None = None,
                  details: dict | None = None) -> dict:
    """The end-to-end result from the measuring parts' raw samples.

    Every part reports sample lists ``setup``, ``op``, ``ack``,
    ``persist`` and ``reopen`` (seconds), its ``loop_seconds``,
    ``disk_bytes_per_item``, ``peak_rss_mb``, ``attempted``, ``failed``
    and additive ``details``; samples are pooled across parts.
    ``persist`` replaces the parts' persist samples (for documents
    saved while the inputs were prepared).
    """
    def pool(key: str) -> list[float]:
        return [value for part in parts for value in part[key]]

    ops = pool("op")
    acks = pool("ack")
    values = {
        "setup_s": median(pool("setup")),
        "op_p50_us": percentile(ops, 0.5) * 1e6,
        "op_p90_us": percentile(ops, 0.9) * 1e6,
        "ops_per_s": len(ops) / sum(part["loop_seconds"] for part in parts),
        "ack_p50_us": percentile(acks, 0.5) * 1e6,
        "ack_p90_us": percentile(acks, 0.9) * 1e6,
        "persist_ms": median(persist if persist is not None
                             else pool("persist")) * 1e3,
        "reopen_s": median(pool("reopen")),
        "disk_bytes_per_item": statistics.fmean(
            part["disk_bytes_per_item"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    metrics = {name: (values[name], unit)
               for name, (unit, _better) in END_TO_END.items()}
    # printed for reference only: on a shared machine the p99 moves with
    # neighbours' load far more than any bound a comparison can use
    summed: dict = {"parts": len(parts), "op_p99_us": percentile(ops, 0.99)
                    * 1e6, **(details or {})}
    for part in parts:
        for key, value in part["details"].items():
            summed[key] = summed.get(key, 0) + value
    return {"metrics": metrics,
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "details": summed}
