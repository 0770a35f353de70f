"""End-to-end benchmark of the L-Tree document stack.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root;
``perfbench/NOTES.md`` describes the workloads, the metrics and the
layer -> end-to-end prediction table.
"""
