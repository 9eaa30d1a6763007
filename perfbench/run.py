"""Benchmark of the knowledge-compilation pipeline, in absolute seconds.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ideal-loop --seed 1 --seconds 30 --trace 0

Workloads: ``ideal-loop``, ``noisy-sample`` and ``cold-compile`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same loop with traced and untraced requests alternating
and reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the checkout; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: One process; BLAS may use every core it was given, and no more.
THREADS = str(len(os.sched_getaffinity(0)))
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def human_lines(report):
    """The report as aligned ``name value unit`` lines, with sample counts."""
    lines = [
        f"perfbench {report['workload']} seed={report['seed']}: closed loop, 1 client, "
        f"1 process, jobs=1, BLAS threads={report['threads']}",
        f"  attempted {report['attempted']}  failed {report['failed']}  "
        f"failed_frac {report['failed'] / max(1, report['attempted']):.4f}  "
        f"correct {report['correct']}",
    ]
    for name, (value, unit) in report["metrics"].items():
        lines.append(f"  {name:<48} {value:>14.6g} {unit}")
    if "requests" in report:
        lines.append(f"  {report['requests']} requests, {report['setups']} set-ups")
    if "request_s_p90" in report:
        lines.append(f"  {'request_s_p90':<48} {report['request_s_p90']:>14.6g} s")
    else:
        lines.append("  request_s_p90 not reported: fewer than ten requests beyond it")
    extras = (
        ("compile_s", "s"),
        ("shots_per_s", "1/s"),
        ("tvd", ""),
        ("tvd_expected_bound", ""),
        ("traced_request_s", "s"),
    )
    for name, unit in extras:
        if name in report:
            lines.append(f"  {name:<48} {report[name]:>14.6g} {unit}")
    return lines


def result_line(report):
    """The last output line: ``correct``, ``attempted``, ``failed`` and the metrics."""
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = parse(argv)
    package = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"no program to measure: {package} is missing", file=sys.stderr)
        return 2
    # The thread caps must be set before NumPy is first imported.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = THREADS
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        trace_path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), trace_path)
    report["threads"] = THREADS
    for line in human_lines(report):
        print(line)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
