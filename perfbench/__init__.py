"""Benchmark of the knowledge-compilation pipeline; run ``python3 perfbench/run.py --help``."""
