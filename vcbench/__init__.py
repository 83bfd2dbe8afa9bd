"""Benchmark harness for cyclevc: four workloads driven through the CLI and
the public library, with output checks and an optional traced run that
times calls into each module. Run it with ``python3 vcbench/run.py``; see
``vcbench/README.md``.
"""
