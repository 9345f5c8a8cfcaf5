"""Benchmark for qreplica: four seeded workloads, end-to-end and per-layer metrics.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``bench/README.md``.
"""
