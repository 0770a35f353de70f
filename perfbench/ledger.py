"""Layer ledger for the durable write path (a report, not a gate).

Replays one ``durable_edits`` op stream against four stacks the
ledger builds itself — a bare ``CompactLTree``, a
``ShardedCompactLTree``, a ``ConcurrentLTree`` over one, and a
``ConcurrentDocument`` (WAL group commit, checkpoints) — timing every
edit call.  Each layer's marginal cost per edit is its stack's time
minus the stack below it.  The same stream is then replayed once more
through the service with spans on (``perfbench/tracing.py``), and each
marginal is set beside that layer's traced self time per edit.  The
two are expected to agree within that layer's own tracing cost: the
wrapped calls per edit whose cost its self time holds (its spans and
their child spans) times the measured cost of one wrapper.

Usage, from the repository root::

    python3 perfbench/ledger.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: transactions of 8 edits replayed per stack
TXNS = 1000
#: replays per stack; the ledger reports the median
ROUNDS = 5


class _Bare:
    """The service's edit surface over a layer with no durability."""

    def __init__(self, tree) -> None:
        self.insert_after = tree.insert_after
        self.insert_run_after = tree.insert_run_after
        self.delete = tree.mark_deleted
        self.set_payload = tree.set_payload

    def commit(self) -> None:
        pass

    def checkpoint(self) -> None:
        pass


def _stacks(workdir: str):
    """(layer, factory) from the bottom of the write path up; each
    factory returns (edit surface, bulk-load handles, closer)."""
    from repro.concurrent import ConcurrentDocument, ConcurrentLTree
    from repro.core import CompactLTree
    from repro.core.params import DEFAULT_PARAMS
    from repro.core.sharded import ShardedCompactLTree

    from perfbench.durable_edits import initial_payloads

    def bare(tree):
        return _Bare(tree), tree.bulk_load(initial_payloads()), None

    def service():
        directory = os.path.join(workdir, "ledger-svc")
        shutil.rmtree(directory, ignore_errors=True)
        doc = ConcurrentDocument.create(directory)
        handles = doc.bulk_load(initial_payloads())
        doc.commit()
        return doc, handles, doc.close

    return (
        ("core.compact", lambda: bare(CompactLTree(DEFAULT_PARAMS))),
        ("core.sharded",
         lambda: bare(ShardedCompactLTree(DEFAULT_PARAMS))),
        ("concurrent.engine",
         lambda: bare(ConcurrentLTree(ShardedCompactLTree(DEFAULT_PARAMS)))),
        ("concurrent.service", service),
    )


def _replay(build, seed: int, txns: int, phase=None) -> float:
    """Seconds per edit call of one replay of the seed's stream."""
    from perfbench.common import Phase
    from perfbench.durable_edits import make_stream, run_loop
    surface, handles, close = build()
    try:
        loop = run_loop(surface, handles, make_stream(seed, txns), 0.0,
                        txns, phase or Phase())
    finally:
        if close is not None:
            close()
    return sum(loop.edit_seconds) / len(loop.edit_seconds)


def measure(seed: int, workdir: str) -> dict:
    from perfbench import tracing
    from perfbench.common import Phase, median

    stacks = _stacks(workdir)
    samples: dict[str, list[float]] = {layer: [] for layer, _ in stacks}
    for number in range(ROUNDS):
        # alternate the order so drift does not favour one stack
        order = stacks if number % 2 == 0 else tuple(reversed(stacks))
        for layer, build in order:
            samples[layer].append(_replay(build, seed, TXNS))
    per_edit = {layer: median(values) for layer, values in samples.items()}

    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        traced_total = _replay(stacks[-1][1], seed, TXNS, Phase(recorder))
        ledger = tracing.Ledger(recorder)
    finally:
        installation.remove()
    overhead = traced_total - per_edit["concurrent.service"]
    per_wrapper = tracing.wrapper_cost()

    rows = []
    below = 0.0
    for layer, _build in stacks:
        marginal = per_edit[layer] - below
        below = per_edit[layer]
        # the service's marginal includes journaling into the WAL
        layers = (layer, "storage.wal") \
            if layer == "concurrent.service" else (layer,)
        traced = sum(ledger.per_request(("edit",), name) for name in layers)
        tolerance = per_wrapper * sum(
            ledger.wrappers_per_request(("edit",), name) for name in layers)
        rows.append({
            "layer": layer,
            "stack_us_per_edit": per_edit[layer] * 1e6,
            "marginal_us_per_edit": marginal * 1e6,
            "traced_self_us_per_edit": traced * 1e6,
            "tolerance_us_per_edit": tolerance * 1e6,
            "agrees": abs(marginal - traced) <= tolerance,
        })
    return {"seed": seed, "edits": TXNS * 8, "rounds": ROUNDS,
            "tracing_overhead_us_per_edit": overhead * 1e6,
            "wrapper_us": per_wrapper * 1e6,
            "layers": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="layer ledger")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import common
    common.check_obs_off()
    workdir = common.make_workdir("ledger", args.seed)
    try:
        report = measure(args.seed, workdir)
    finally:
        common.remove_workdir(workdir)
    print(f"us/edit; one wrapper {report['wrapper_us']:.3f} us, whole "
          f"stack traced +{report['tracing_overhead_us_per_edit']:.2f}")
    print(f"{'layer':20s} {'stack':>9s} {'marginal':>9s} {'traced':>9s}"
          f" {'tolerance':>9s}  agrees")
    for row in report["layers"]:
        print(f"{row['layer']:20s} {row['stack_us_per_edit']:9.2f} "
              f"{row['marginal_us_per_edit']:9.2f} "
              f"{row['traced_self_us_per_edit']:9.2f} "
              f"{row['tolerance_us_per_edit']:9.2f}  {row['agrees']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
