"""Unified benchmark harness: every headline workload, one ``BENCH_all.json``.

One seeded run measures the repository's five headline performance claims
plus the cost-model routing gate, and emits a single machine-readable
artifact (committed at the repository root, regenerated per PR):

* **api** — batched ``Device.run()`` vs a per-circuit ``sample()`` loop;
* **sweep** — compile-once parameter sweep vs per-point recompilation;
* **stabilizer** — 56-qubit depth-120 Clifford sampling latency;
* **optimizer** — circuit-rewrite pipeline compile/sweep reductions;
* **robustness** — fault-free overhead of retries + checkpointing, best
  of 7 interleaved plain/guarded runs;
* **cost_routing** — calibrates the backend cost model from a seeded
  sweep, persists it in the versioned format consumed by
  ``select_backend(mode="cost")``, and scores its routing decisions
  against measured-fastest on the 50-circuit holdout suite.

This is the only place these workloads are measured, and
``tools/check_bench_trajectory.py`` is the only place they are gated.
Every workload is seeded; wall-clock numbers vary by machine but the
schema and the seeded circuits do not.  A default run writes
``BENCH_all.json`` and the gitignored ``costmodel_fresh.json``; it never
touches the packaged cost model, which is refitted only on request.

Usage::

    PYTHONPATH=src python benchmarks/bench_all.py
    PYTHONPATH=src python benchmarks/bench_all.py --only api,stabilizer
    # refit the packaged routing="cost" model from this machine's timings:
    PYTHONPATH=src python benchmarks/bench_all.py \
        --model-artifact src/repro/api/costmodel_default.json

``--only`` exists for local iteration; a partial artifact fails the
trajectory check, so it cannot be committed unnoticed.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench import emit_bench  # noqa: E402

SECTIONS = ("api", "sweep", "stabilizer", "optimizer", "robustness", "cost_routing")

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_all.json"
DEFAULT_MODEL_ARTIFACT = REPO_ROOT / "costmodel_fresh.json"


def _qaoa_workload(num_points, seed=13):
    """The shared-topology QAOA sweep behind the api/robustness workloads."""
    from repro.variational import QAOACircuit, random_regular_maxcut

    ansatz = QAOACircuit(random_regular_maxcut(6, seed=9), iterations=1)
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.15, 1.4, size=(num_points, ansatz.num_parameters))
    return ansatz, [ansatz.resolver(list(row)) for row in grid]


def bench_api():
    """Batched ``Device.run()`` vs the legacy per-circuit ``sample()`` loop."""
    from repro.api.device import Device
    from repro.knowledge.cache import CompiledCircuitCache
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator

    num_points, repetitions = 100, 64
    ansatz, points = _qaoa_workload(num_points)

    simulator = KnowledgeCompilationSimulator(seed=1, cache=CompiledCircuitCache())
    start = time.perf_counter()
    for index, resolver in enumerate(points):
        simulator.sample(ansatz.circuit, repetitions, resolver=resolver, seed=index)
    loop_seconds = time.perf_counter() - start

    dev = Device(
        backend="knowledge_compilation",
        instances={
            "knowledge_compilation": KnowledgeCompilationSimulator(
                seed=1, cache=CompiledCircuitCache()
            )
        },
    )
    start = time.perf_counter()
    rows = dev.run(ansatz.circuit, params=points, repetitions=repetitions, seed=0).result()
    batched_seconds = time.perf_counter() - start
    assert len(rows) == num_points
    assert all(sum(counts.values()) == repetitions for counts in rows.counts())

    speedup = loop_seconds / max(batched_seconds, 1e-9)
    return {
        "workload": f"qaoa maxcut n=6, {num_points}-point batch, {repetitions} shots",
        "per_circuit_loop_seconds": round(loop_seconds, 6),
        "batched_run_seconds": round(batched_seconds, 6),
        "speedup": round(speedup, 3),
    }


def bench_sweep():
    """Compile-once parameter sweep vs per-point recompilation."""
    from repro.knowledge.cache import CompiledCircuitCache
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
    from repro.simulator.sweep import ParameterSweep
    from repro.variational import QAOACircuit, random_regular_maxcut

    num_points = 24
    ansatz = QAOACircuit(random_regular_maxcut(6, seed=9), iterations=1)
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.15, 1.4, size=(num_points, ansatz.num_parameters))
    points = [ansatz.resolver(list(row)) for row in grid]

    start = time.perf_counter()
    fresh = []
    for resolver in points:
        simulator = KnowledgeCompilationSimulator(seed=1, cache=None)
        resolved = ansatz.circuit.resolve_parameters(resolver)
        fresh.append(simulator.compile_circuit(resolved).probabilities())
    recompile_seconds = time.perf_counter() - start

    simulator = KnowledgeCompilationSimulator(seed=1, cache=CompiledCircuitCache())
    sweep = ParameterSweep(ansatz.circuit, simulator)
    start = time.perf_counter()
    cached = sweep.run(points, observables=["probabilities"]).probabilities()
    sweep_seconds = time.perf_counter() - start
    assert float(np.max(np.abs(cached - np.stack(fresh)))) < 1e-10
    assert np.allclose(cached.sum(axis=1), 1.0, atol=1e-9)

    speedup = recompile_seconds / max(sweep_seconds, 1e-9)
    return {
        "workload": f"qaoa maxcut n=6, {num_points}-point sweep",
        "per_point_recompile_seconds": round(recompile_seconds, 6),
        "compile_once_sweep_seconds": round(sweep_seconds, 6),
        "speedup": round(speedup, 3),
    }


def bench_stabilizer():
    """56-qubit depth-120 Clifford sampling latency on the tableau backend."""
    from repro.algorithms import random_clifford_circuit
    from repro.stabilizer import StabilizerSimulator

    num_qubits, depth, num_samples = 56, 120, 1000
    circuit = random_clifford_circuit(num_qubits, depth, seed=23).circuit
    assert circuit.num_qubits == num_qubits and circuit.depth >= 100
    simulator = StabilizerSimulator(seed=7)
    start = time.perf_counter()
    samples = simulator.sample(circuit, num_samples, seed=7)
    elapsed = time.perf_counter() - start
    assert len(samples) == num_samples
    assert len(samples.qubits) == num_qubits
    return {
        "workload": f"random clifford n={num_qubits} depth={depth}, {num_samples} shots",
        "sampling_seconds": round(elapsed, 6),
    }


def bench_optimizer():
    """Circuit-rewrite pipeline: fusion sweep speedup + light-cone reduction."""
    from repro.circuits import Circuit, measure
    from repro.circuits.gates import _RotationGate
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
    from repro.simulator.sweep import ParameterSweep
    from repro.variational import QAOACircuit, random_regular_maxcut

    num_points = 40
    ansatz = QAOACircuit(random_regular_maxcut(8, seed=5), iterations=1)

    # Light-cone pruning on a single-edge observable (structural metrics).
    resolved = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    edge = ansatz.problem.edges[0]
    measured = Circuit(resolved.all_operations())
    measured.append(measure(ansatz.qubits[edge[0]], ansatz.qubits[edge[1]], key="edge"))
    compiler = KnowledgeCompilationSimulator(cache=None)
    baseline = compiler.compile_circuit(measured).compilation_metrics()
    pruned = compiler.compile_circuit(measured, optimize="auto").compilation_metrics()

    # Rotation fusion on the half-angle-split ansatz, timed over a sweep.
    split = Circuit()
    for operation in ansatz.circuit.all_operations():
        gate = operation.gate
        if isinstance(gate, _RotationGate):
            half = type(gate)(0.5 * gate.angle)
            split.append([half(*operation.qubits), half(*operation.qubits)])
        else:
            split.append(operation)
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.1, 1.3, size=(num_points, ansatz.num_parameters))
    points = [ansatz.resolver(list(row)) for row in grid]

    start = time.perf_counter()
    plain = ParameterSweep(split, KnowledgeCompilationSimulator(cache=None))
    plain.run(points)
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    optimized = ParameterSweep(
        split, KnowledgeCompilationSimulator(cache=None), optimize="auto"
    )
    optimized.run(points)
    optimized_seconds = time.perf_counter() - start

    speedup = plain_seconds / max(optimized_seconds, 1e-9)
    return {
        "workload": (
            f"qaoa maxcut n=8, rotations split into half-angle pairs, "
            f"{num_points}-point sweep"
        ),
        "light_cone_ac_nodes_reduction": round(
            1 - pruned["ac_nodes"] / baseline["ac_nodes"], 3
        ),
        "fusion_sweep_seconds": {
            "off": round(plain_seconds, 4),
            "auto": round(optimized_seconds, 4),
        },
        "speedup": round(speedup, 3),
    }


def bench_robustness():
    """Fault-free overhead of retries + checkpointing vs the plain fast path."""
    from repro.api.device import Device
    from repro.api.faults import RetryPolicy
    from repro.knowledge.cache import CompiledCircuitCache
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator

    num_points, repetitions, runs = 100, 64, 7
    ansatz, points = _qaoa_workload(num_points)

    def make_device():
        return Device(
            backend="knowledge_compilation",
            instances={
                "knowledge_compilation": KnowledgeCompilationSimulator(
                    seed=1, cache=CompiledCircuitCache()
                )
            },
        )

    plain_dev, guarded_dev = make_device(), make_device()
    for dev in (plain_dev, guarded_dev):
        dev.run(ansatz.circuit, params=points[:1], repetitions=4, seed=0).result()

    with tempfile.TemporaryDirectory(prefix="bench-robustness-") as tmp:
        best_plain = best_guarded = None
        plain_rows = guarded_rows = None
        for run in range(runs):
            start = time.perf_counter()
            plain_rows = plain_dev.run(
                ansatz.circuit, params=points, repetitions=repetitions, seed=0
            ).result()
            elapsed = time.perf_counter() - start
            best_plain = elapsed if best_plain is None else min(best_plain, elapsed)

            checkpoint = Path(tmp) / f"journal-{run}"
            checkpoint.mkdir()
            start = time.perf_counter()
            guarded_rows = guarded_dev.run(
                ansatz.circuit,
                params=points,
                repetitions=repetitions,
                seed=0,
                retry=RetryPolicy(),
                checkpoint=str(checkpoint),
            ).result()
            elapsed = time.perf_counter() - start
            best_guarded = (
                elapsed if best_guarded is None else min(best_guarded, elapsed)
            )
        assert len(plain_rows) == len(guarded_rows) == num_points
        assert plain_rows.counts() == guarded_rows.counts()

    overhead = best_guarded / max(best_plain, 1e-9) - 1.0
    return {
        "workload": (
            f"qaoa maxcut n=6, {num_points}-point batch, best of {runs} interleaved"
        ),
        "plain_seconds": round(best_plain, 6),
        "fault_tolerant_seconds": round(best_guarded, 6),
        "overhead_fraction": round(overhead, 4),
    }


def bench_cost_routing(model_artifact):
    """Calibrate the cost model, persist it, and score holdout routing."""
    from repro.api import costmodel
    from repro.api.registry import create_backend
    from repro.api.routing import capable_backends

    start = time.perf_counter()
    cases = costmodel.calibration_suite(seed=0)
    samples = costmodel.collect_calibration_samples(cases, seed=0)
    model = costmodel.fit_cost_model(
        samples, meta={"calibration_seed": 0, "holdout_seed": 101}
    )
    model.save(model_artifact)
    calibration_seconds = time.perf_counter() - start

    holdout = costmodel.holdout_suite(seed=101)
    instances = {}
    hits, misses = 0, []
    start = time.perf_counter()
    for case in holdout:
        candidates = [
            name
            for name in capable_backends(
                case.circuit, sampling=True, repetitions=case.repetitions
            )
            if case.backends is None or name in case.backends
        ]
        measured = {}
        for name in candidates:
            simulator = instances.setdefault(name, create_backend(name, seed=0))
            tick = time.perf_counter()
            simulator.sample(case.circuit, case.repetitions, seed=0)
            measured[name] = time.perf_counter() - tick
        features = costmodel.extract_features(
            case.circuit, repetitions=case.repetitions
        )
        picked = model.rank(features, candidates)[0][0]
        fastest = min(measured, key=lambda name: (measured[name], name))
        if picked == fastest:
            hits += 1
        else:
            misses.append(case.label)
    holdout_seconds = time.perf_counter() - start

    artifact = Path(model_artifact).resolve()
    try:
        artifact_label = str(artifact.relative_to(REPO_ROOT))
    except ValueError:
        artifact_label = str(artifact)
    spec = model.to_dict()
    return {
        "workload": (
            f"{len(cases)}-case calibration sweep -> {len(holdout)}-case "
            f"measured-fastest holdout"
        ),
        "calibration_samples": len(samples),
        "calibration_seconds": round(calibration_seconds, 3),
        "rmse_log": {
            name: spec["backends"][name]["rmse_log"] for name in model.backends()
        },
        "holdout_cases": len(holdout),
        "holdout_hits": hits,
        "holdout_misses": misses,
        "holdout_seconds": round(holdout_seconds, 3),
        "accuracy": round(hits / len(holdout), 3),
        "model_artifact": artifact_label,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="BENCH_all.json path"
    )
    parser.add_argument(
        "--model-artifact",
        type=Path,
        default=DEFAULT_MODEL_ARTIFACT,
        help="where to persist the calibrated cost model",
    )
    parser.add_argument(
        "--only",
        default=None,
        help=f"comma-separated subset of sections to run ({', '.join(SECTIONS)})",
    )
    options = parser.parse_args(argv)
    selected = SECTIONS if options.only is None else tuple(options.only.split(","))
    unknown = set(selected) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown sections: {sorted(unknown)}")

    runners = {
        "api": bench_api,
        "sweep": bench_sweep,
        "stabilizer": bench_stabilizer,
        "optimizer": bench_optimizer,
        "robustness": bench_robustness,
        "cost_routing": lambda: bench_cost_routing(options.model_artifact),
    }
    payload = {"benchmark": "bench_all", "schema_version": 1}
    metrics = {}
    for section in SECTIONS:
        if section not in selected:
            continue
        print(f"[bench_all] {section} ...", flush=True)
        start = time.perf_counter()
        payload[section] = runners[section]()
        print(
            f"[bench_all] {section} done in {time.perf_counter() - start:.1f}s",
            flush=True,
        )
    if "api" in payload:
        metrics["api_speedup"] = payload["api"]["speedup"]
    if "sweep" in payload:
        metrics["sweep_speedup"] = payload["sweep"]["speedup"]
    if "stabilizer" in payload:
        metrics["stabilizer_seconds"] = payload["stabilizer"]["sampling_seconds"]
    if "optimizer" in payload:
        metrics["optimizer_speedup"] = payload["optimizer"]["speedup"]
    if "robustness" in payload:
        metrics["robustness_overhead"] = payload["robustness"]["overhead_fraction"]
    if "cost_routing" in payload:
        metrics["cost_routing_accuracy"] = payload["cost_routing"]["accuracy"]
    payload["metrics"] = metrics

    emit_bench(options.output, payload)
    print(f"[bench_all] wrote {options.output}")
    for name, value in metrics.items():
        print(f"  {name}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
