"""Atomic emitter for the benchmark artifact ``BENCH_all.json``.

``benchmarks/bench_all.py`` writes its artifact through :func:`emit_bench`,
so artifact I/O inherits the project's atomic-write discipline (see
:mod:`repro.atomicio`): a crash mid-emit leaves the old artifact intact,
never a torn file, and the reprolint ``atomic-write`` audit covers this one
site instead of a raw ``write_text`` in the harness.

Payloads are plain JSON trees of numbers/strings the caller has already
rounded; ``emit_bench`` rejects NaN/Infinity so a failed measurement can
never masquerade as a tracked metric.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Union

from .atomicio import atomic_write_text

__all__ = ["emit_bench"]


def emit_bench(path: Union[str, "os.PathLike[str]"], payload: Dict[str, Any]) -> None:
    """Atomically write one benchmark artifact.

    The serialized form is stable (two-space indent, trailing newline,
    insertion-ordered keys) so committed artifacts diff cleanly across
    regeneration runs.
    """
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)
