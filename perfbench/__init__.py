"""The repository benchmark: seeded workloads, output checks and per-layer tracing.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfbench/README.md``.
"""
