"""Shared fixtures for the benchmark harness.

Each ``test_bench_*`` module regenerates one of the paper's tables or
figures (see docs/experiments.md's per-experiment index); pytest-benchmark provides the
timing statistics, and ``extra_info`` carries the non-timing columns
(AC nodes, CNF clauses, ...).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
