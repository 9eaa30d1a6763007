"""Process-parallel experiment harness for the reproduction's figures/tables.

``python -m repro.experiments.runner`` executes a laptop-scale version of
every table and figure in the paper's evaluation and prints the resulting
text tables.  The harness is spec-driven and parallel:

* every driver module under :mod:`repro.experiments` declares its harness
  entry points as ``QUICK_RUNS`` / ``FULL_RUNS`` — lists of
  ``(function_name, kwargs)`` pairs — and the runner materializes them into
  :class:`ExperimentSpec` objects;
* specs run on a **worker-process pool** (``--jobs``), each worker hydrating
  compiled circuits from a shared on-disk
  :mod:`compiled-circuit cache <repro.knowledge.cache>` so a topology
  compiled by one experiment is reused by every other;
* results are printed in spec order regardless of completion order, and
  every driver uses fixed seeds, so output values (timings aside) are
  deterministic and independent of ``--jobs``.

Pass ``--quick`` for a smaller smoke-test configuration, ``--only NAME`` to
run a subset, ``--list`` to see the spec names.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..api import scheduler
from ..api.faults import RetryPolicy
from ..knowledge import cache as compile_cache
from .common import ExperimentResult

#: Driver modules consulted for ``QUICK_RUNS`` / ``FULL_RUNS``, in report order.
DRIVER_MODULES = (
    "bell_example",
    "figure1_ac_reduction",
    "figure3_peaked_distribution",
    "figure6_scaling",
    "figure7_sampling_error",
    "figure8_ideal_performance",
    "figure9_noisy_performance",
    "stabilizer_scaling",
    "table6_compilation_metrics",
    "ablation_orderings",
)


class ExperimentSpec(NamedTuple):
    """One harness work item: ``module.function(**kwargs)``."""

    name: str
    module: str
    function: str
    kwargs: Dict


def build_specs(quick: bool = False, only: Optional[Sequence[str]] = None) -> List[ExperimentSpec]:
    """Materialize the spec list from every driver's declared runs.

    ``only`` filters by spec-name substring (case-insensitive); an empty
    result for a non-empty filter raises ``ValueError`` so typos fail loudly.
    """
    specs: List[ExperimentSpec] = []
    for driver in DRIVER_MODULES:
        module = importlib.import_module(f"{__package__}.{driver}")
        runs = getattr(module, "QUICK_RUNS" if quick else "FULL_RUNS")
        for index, (function, kwargs) in enumerate(runs):
            suffix = "" if len(runs) == 1 else f"[{index}]"
            specs.append(ExperimentSpec(f"{driver}{suffix}", module.__name__, function, dict(kwargs)))
    if only:
        wanted = [token.lower() for token in only]
        specs = [spec for spec in specs if any(token in spec.name.lower() for token in wanted)]
        if not specs:
            raise ValueError(f"no experiment specs match {list(only)}")
    return specs


def execute_spec(spec: ExperimentSpec) -> List[ExperimentResult]:
    """Run one spec and normalize its outcome to a list of results."""
    module = importlib.import_module(spec.module)
    outcome = getattr(module, spec.function)(**spec.kwargs)
    return list(outcome) if isinstance(outcome, list) else [outcome]


def _worker_init(cache_dir: Optional[str]) -> None:
    """Point this process's default compile cache at the shared directory."""
    if cache_dir and os.environ.get(compile_cache.CACHE_DIR_ENV) != cache_dir:
        os.environ[compile_cache.CACHE_DIR_ENV] = cache_dir
        compile_cache.configure_default(directory=cache_dir)


def _spec_task(payload: Dict) -> List:
    """Scheduler task: hydrate the shared cache, run one spec."""
    _worker_init(payload.get("cache_dir"))
    return [(payload["index"], execute_spec(payload["spec"]))]


def run_specs(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 0,
) -> List[ExperimentResult]:
    """Execute ``specs`` and return their results flattened, in spec order.

    The specs are submitted as one job to the unified scheduler
    (:mod:`repro.api.scheduler`).  With ``jobs > 1`` its worker processes
    share ``cache_dir`` (a temporary directory when omitted) as an on-disk
    compiled-circuit cache: the first worker to need a topology compiles
    and persists it, the rest hydrate the pickle.  A serial run points this
    process's default cache at ``cache_dir`` only when one is given, so
    repeated invocations reuse compiles across runs.

    ``retries > 0`` re-runs specs whose workers crash or hit transient
    errors (up to ``retries`` extra attempts each); every spec re-runs
    with its original seeds, so a retried sweep is bit-identical to a
    fault-free one.
    """
    retry = RetryPolicy(max_attempts=retries + 1) if retries > 0 else None
    jobs = max(1, min(jobs, len(specs)))
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if cache_dir is None and jobs > 1:  # only worker processes need a shared cache
        cleanup = tempfile.TemporaryDirectory(prefix="repro-runner-cache-")
        cache_dir = cleanup.name
    try:
        tasks = [
            (
                _spec_task,
                {"index": index, "spec": spec, "cache_dir": cache_dir},
                (index,),
                f"spec-{spec.name}",
            )
            for index, spec in enumerate(specs)
        ]
        blocks = scheduler.submit(tasks, jobs=jobs, block=True, retry=retry).result()
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return [result for block in blocks for result in block]


def default_jobs() -> int:
    """Default worker count: modest parallelism that laptops tolerate."""
    return max(1, min(4, os.cpu_count() or 1))


def run_all(
    quick: bool = False,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    retries: int = 0,
) -> List[ExperimentResult]:
    """Run every experiment and return the collected results."""
    if jobs is None:
        jobs = default_jobs()
    return run_specs(build_specs(quick=quick), jobs=jobs, cache_dir=cache_dir, retries=retries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a reduced smoke-test configuration")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: min(4, cpu count); 1 disables the pool)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared compiled-circuit cache directory (default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="run only specs whose name contains NAME (repeatable)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per spec on worker crashes / transient errors (default: 0)",
    )
    parser.add_argument("--list", action="store_true", help="list spec names and exit")
    arguments = parser.parse_args(argv)

    specs = build_specs(quick=arguments.quick, only=arguments.only)
    if arguments.list:
        for spec in specs:
            print(spec.name)
        return 0
    jobs = arguments.jobs if arguments.jobs is not None else default_jobs()
    for result in run_specs(
        specs, jobs=jobs, cache_dir=arguments.cache_dir, retries=arguments.retries
    ):
        print(result.summary())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
