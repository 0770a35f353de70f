"""Child processes: input preparation and the measuring parts.

``run.py`` never measures in its own process.  A workload's untimed
input preparation (generate the document from the seed, label and save
it, compute the query oracles) runs in one child, and the measurement
itself in a few sequential *part* children, each a fresh interpreter
that sets up, runs its share of the seconds and reports raw samples,
which the parent pools.  Fresh processes keep the generator's DOM and
the oracles' tables out of the measured peak memory, and pooling parts
from several processes averages out the per-process speed differences
(memory placement) that one process cannot.

Usage (by ``run_child``)::

    python3 perfbench/child.py <task> <workload> <seed> <seconds> <workdir> <part> <parts>
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TASKS = ("prepare", "part")
CHILD_TIMEOUT_S = 150


def result_path(workdir: str, task: str, part: int) -> str:
    return os.path.join(workdir, f"{task}-{part}.json")


def run_child(task: str, workload: str, seed: int, seconds: float,
              workdir: str, part: int = 0, parts: int = 1) -> dict:
    """Run one child to completion and return the record it wrote."""
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), task,
                    workload, str(seed), repr(seconds), workdir,
                    str(part), str(parts)],
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path(workdir, task, part), encoding="utf-8") as src:
        return json.load(src)


def load_prepared(workdir: str) -> dict:
    """The record the ``prepare`` child wrote."""
    with open(result_path(workdir, "prepare", 0), encoding="utf-8") as src:
        return json.load(src)


def main(argv: list[str]) -> int:
    task, workload, seed, seconds, workdir, part, parts = argv
    if task not in TASKS:
        raise SystemExit(f"unknown task {task!r}")
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import check_obs_off, peak_rss_mb
    check_obs_off()
    module = importlib.import_module(f"perfbench.{workload}")
    if task == "prepare":
        record = module.prepare(int(seed), float(seconds), workdir)
    else:
        record = module.measure_part(int(seed), float(seconds), workdir,
                                     int(part), int(parts))
        record.setdefault("peak_rss_mb", peak_rss_mb())
    with open(result_path(workdir, task, int(part)), "w",
              encoding="utf-8") as out:
        json.dump(record, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
