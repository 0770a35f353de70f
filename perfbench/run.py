"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload durable_edits --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with every kind of
instrumentation off; ``--trace 1`` makes the traced run and prints the
per-layer metrics instead.  Each metric is also printed on its own
line (name, value, unit, and the operation-specific name it stands for
on this workload) before the last line, which is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every oracle check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("durable_edits", "cold_query", "edit_then_query")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop(signum: int, _frame: object) -> None:
    # unwind instead of dying in place, so the child process being
    # waited for is killed and reaped and the scratch directory removed
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no library sources at {src}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import common, names
    from perfbench.common import WorkloadError

    workdir = None
    try:
        common.check_obs_off()
        module = importlib.import_module(f"perfbench.{args.workload}")
        workdir = common.make_workdir(args.workload, args.seed)
        measure = module.measure_traced if args.trace else module.measure
        result = measure(args.seed, args.seconds, workdir)
        common.check_obs_off()
    except Exception as exc:  # any failure is reported as an incorrect run
        if isinstance(exc, WorkloadError):
            print(f"perfbench: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
        result = {"metrics": {}, "attempted": 1, "failed": 1,
                  "details": {}}
    finally:
        if workdir is not None:
            common.remove_workdir(workdir)

    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    correct = failed == 0 and bool(result["metrics"])
    for key, value in sorted(result.get("details", {}).items()):
        print(f"# {key} = {value}")
    print(f"# error_ratio = {failed / attempted!r} "
          f"({failed} failed of {attempted} attempted)")
    for name, (value, unit) in result["metrics"].items():
        alias = names.alias(args.workload, name)
        suffix = f"  [{alias}]" if alias else ""
        print(f"{name} = {value!r} {unit}{suffix}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
