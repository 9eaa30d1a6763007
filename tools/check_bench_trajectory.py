#!/usr/bin/env python3
"""Benchmark trajectory gate: BENCH_all.json must stay above real floors.

``benchmarks/bench_all.py`` is the only harness that measures the headline
workloads, and this script is the only place they are gated.  It validates
the committed ``BENCH_all.json`` (schema + absolute floors) and, when
handed a freshly regenerated artifact, gates the fresh run against the
same floors and prints the committed-vs-fresh drift per headline metric.
Absolute floors rather than committed-vs-fresh ratios: shared runners are
2-5x slower and noisier than the machines that commit artifacts, so a
ratio gate would either flap or need so much headroom it gates nothing.

The defaults are the local bounds.  CI relaxes two of them through the
environment, for slower runners; a bound of 0 or below is rejected as a
disabled gate.

=====================  ======================  ========  ===============
metric                 statistic               default   CI (env)
=====================  ======================  ========  ===============
api_speedup            one run                 >= 3.0    --
sweep_speedup          one run                 >= 5.0    >= 3.0
stabilizer_seconds     one run                 <= 1.0    --
optimizer_speedup      one run                 >= 1.25   --
robustness_overhead    best of 7 interleaved   <= 0.10   <= 0.60
cost_routing_accuracy  50-case holdout         >= 0.80   --
=====================  ======================  ========  ===============

``GATES`` names the environment variable that overrides each bound; CI
sets ``BENCH_SWEEP_MIN_SPEEDUP=3.0`` and ``BENCH_ROBUSTNESS_MAX_OVERHEAD=0.60``.

Usage::

    python tools/check_bench_trajectory.py                # committed only
    python tools/check_bench_trajectory.py --fresh BENCH_all.fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SECTIONS = ("api", "sweep", "stabilizer", "optimizer", "robustness", "cost_routing")

# metric -> (env override, default bound, "min" floor or "max" ceiling)
GATES = {
    "api_speedup": ("BENCH_API_MIN_SPEEDUP", 3.0, "min"),
    "sweep_speedup": ("BENCH_SWEEP_MIN_SPEEDUP", 5.0, "min"),
    "stabilizer_seconds": ("BENCH_STABILIZER_MAX_SECONDS", 1.0, "max"),
    "optimizer_speedup": ("BENCH_OPTIMIZER_MIN_SPEEDUP", 1.25, "min"),
    "robustness_overhead": ("BENCH_ROBUSTNESS_MAX_OVERHEAD", 0.10, "max"),
    "cost_routing_accuracy": ("BENCH_COST_ROUTING_MIN_ACCURACY", 0.80, "min"),
}


def load_artifact(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if not isinstance(artifact, dict):
        raise SystemExit(f"{path}: not a JSON object")
    return artifact


def check_artifact(label: str, path: Path, artifact: dict) -> list:
    errors = []
    if artifact.get("benchmark") != "bench_all":
        errors.append(f"{label}: {path} is not a bench_all artifact")
        return errors
    for section in SECTIONS:
        if section not in artifact:
            errors.append(f"{label}: missing section {section!r} (partial run?)")
    metrics = artifact.get("metrics", {})
    for metric, (env, default, kind) in GATES.items():
        bound = float(os.environ.get(env, default))
        if bound <= 0:
            errors.append(f"{label}: {env} must be positive, got {bound} (gate disabled)")
            continue
        value = metrics.get(metric)
        if not isinstance(value, (int, float)):
            errors.append(f"{label}: metrics[{metric!r}] missing or non-numeric")
            continue
        if kind == "min" and value < bound:
            errors.append(f"{label}: {metric} = {value} below floor {bound} ({env})")
        if kind == "max" and value > bound:
            errors.append(f"{label}: {metric} = {value} above ceiling {bound} ({env})")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--committed",
        type=Path,
        default=ROOT / "BENCH_all.json",
        help="the committed artifact (default: repository root BENCH_all.json)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=None,
        help="a freshly regenerated artifact to gate and diff against committed",
    )
    options = parser.parse_args(argv)

    committed = load_artifact(options.committed)
    errors = check_artifact("committed", options.committed, committed)

    if options.fresh is not None:
        fresh = load_artifact(options.fresh)
        errors.extend(check_artifact("fresh", options.fresh, fresh))
        print(f"{'metric':28s} {'committed':>12s} {'fresh':>12s}")
        for metric in GATES:
            old = committed.get("metrics", {}).get(metric)
            new = fresh.get("metrics", {}).get(metric)
            print(f"{metric:28s} {old!s:>12s} {new!s:>12s}")

    for error in errors:
        print(error, file=sys.stderr)
    checked = 1 if options.fresh is None else 2
    print(f"checked {checked} artifact(s), {len(errors)} gate violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
