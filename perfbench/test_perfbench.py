"""The benchmark's own tests (not part of the library's test suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The count-class self-check makes two short traced runs per workload
(about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import cold_query, durable_edits, edit_then_query, names, run  # noqa: E402

WORKLOADS = ("durable_edits", "cold_query", "edit_then_query")


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _traced_counts(workload: str, seed: int) -> dict[str, float]:
    done = _run("--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(names.PER_LAYER)
    return {name: result["metrics"][name]["value"]
            for name in names.COUNT_CLASS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_traced_runs_repeat_every_count(workload):
    first = _traced_counts(workload, 5)
    second = _traced_counts(workload, 5)
    assert first == second
    assert any(value for value in first.values())


def test_different_seeds_make_different_inputs():
    def stream(seed):
        return list(durable_edits.make_stream(seed, 50))
    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    battery = [f"//q{number}" for number in range(20)]
    assert cold_query.make_sessions(battery, 1, 30) == \
        cold_query.make_sessions(battery, 1, 30)
    assert cold_query.make_sessions(battery, 1, 30) != \
        cold_query.make_sessions(battery, 2, 30)
    sections = [[(shard, slot) for slot in range(50)] for shard in range(8)]
    assert edit_then_query.make_batches(sections, 1, 10) == \
        edit_then_query.make_batches(sections, 1, 10)
    assert edit_then_query.make_batches(sections, 1, 10) != \
        edit_then_query.make_batches(sections, 2, 10)


def test_list_oracle_matches_the_service(tmp_path):
    doc, handles = durable_edits.setup(str(tmp_path / "svc"),
                                       durable_edits.initial_payloads())
    from perfbench.common import Phase
    durable_edits.run_loop(doc, handles, durable_edits.make_stream(3, 40),
                           0.0, 40, Phase())
    try:
        assert doc.payloads() == durable_edits.expected_after(3, 40)
    finally:
        doc.close()


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    def failing(seed, seconds, workdir):
        return {"metrics": {"setup_s": (1.0, "s")}, "attempted": 3,
                "failed": 1, "details": {}}
    monkeypatch.setattr(durable_edits, "measure", failing)
    code = run.main(["--workload", "durable_edits", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 3, "failed": 1,
                      "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "cold_query", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
