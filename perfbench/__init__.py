"""End-to-end benchmark of the fleet monitor (see README.md).

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.
"""
