"""The repository benchmark: three simulation matrices, host and model metrics.

Run ``python3 perfbench/run.py --workload fig8-closed --seed 12648430
--seconds 30 --trace 0`` from the repository root; see ``perfbench/README.md``.
"""
