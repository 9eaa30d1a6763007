"""The benchmark's three workloads and the loop that measures them.

Every workload is driven through the public API by one closed-loop client
(the classical optimiser): it sends a request, waits for the result, then
sends the next one.  One process, ``jobs=1``.  Parameter points and
per-request sampling seeds come from the ``--seed`` argument.  The problem
instances (graphs and grids) are fixed per workload instead: the 3-regular
graph alone moves the n=10 arithmetic circuit between 2k and 18k edges, so
a seed-drawn graph would measure a different program input on every seed.

Outputs are checked between requests against independent backends; the
time of a request excludes its check:

* sampled distributions against the state-vector probabilities (ideal) or
  the density-matrix diagonal (noisy), with a total-variation tolerance
  derived from the number of independent sampling units (see
  ``expected_tvd_bound`` and ``tvd_slack``), per request and pooled over
  the run;
* cold compiles against state-vector amplitudes at ``AMPLITUDE_TOLERANCE``.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.device import KC_BACKEND, Device
from repro.circuits import depolarize
from repro.densitymatrix import DensityMatrixSimulator
from repro.knowledge.cache import CompiledCircuitCache
from repro.sampling.gibbs import DEFAULT_MAX_CHAINS
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.statevector import StateVectorSimulator
from repro.trajectory import TrajectorySimulator
from repro.variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising

from .spans import PER_LAYER, Tracer, install, layer_metrics

SHOTS = 1000
NOISE = 0.005
#: Probability that a correct sampler fails one distribution check.
DELTA = 1e-6
AMPLITUDE_TOLERANCE = 1e-10


def make_ansatz(family: str, qubits: int, iterations: int, instance_seed: int):
    if family == "qaoa":
        return QAOACircuit(random_regular_maxcut(qubits, seed=instance_seed), iterations)
    return VQECircuit(square_grid_ising(qubits, seed=instance_seed), iterations)


def with_noise(circuit):
    return circuit.with_noise(lambda: depolarize(NOISE))


def draw_point(rng: np.random.Generator, ansatz) -> List[float]:
    return list(rng.uniform(0.2, 0.9, size=ansatz.num_parameters))


def gibbs_units(shots: int) -> float:
    """Independent sampling units behind one Gibbs sample set.

    The sampler runs ``min(shots, DEFAULT_MAX_CHAINS)`` independent chains
    and records round-major, so chain ``c`` holds ``n_c`` of the shots.
    Samples within a chain are correlated; chains are not.  Treating each
    chain as one unit of weight ``n_c / shots`` gives ``1 / sum(w_c^2)``
    units for both the variance and the bounded-difference bound below.
    """
    chains = min(shots, DEFAULT_MAX_CHAINS)
    sizes = [shots // chains + (1 if c < shots % chains else 0) for c in range(chains)]
    return 1.0 / sum((size / shots) ** 2 for size in sizes)


def expected_tvd_bound(probabilities: np.ndarray, units: float) -> float:
    """Upper bound on the expected TVD of a sample set with ``units`` independent units.

    Per outcome, ``E|p_hat - p| <= sqrt(Var p_hat) <= sqrt(p (1 - p) / units)``.
    """
    p = np.clip(probabilities, 0.0, 1.0)
    return 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / units)))


def tvd_slack(units: float, sets: int = 1) -> float:
    """Excess over the expected mean TVD of ``sets`` sample sets allowed at ``DELTA``.

    Each unit moves the mean TVD by at most its weight, so McDiarmid's
    inequality gives ``P(excess >= t) <= exp(-2 t^2 units sets)``.
    """
    return math.sqrt(math.log(1.0 / DELTA) / (2.0 * units * sets))


def empirical(counts: Dict[str, int], qubits: int) -> np.ndarray:
    distribution = np.zeros(2**qubits)
    for bits, count in counts.items():
        distribution[int(bits, 2)] += count
    return distribution / max(1, sum(counts.values()))


def basis_bits(qubits: int) -> np.ndarray:
    """The ``(2^n, n)`` bit matrix in basis order (qubit 0 is the MSB)."""
    indices = np.arange(2**qubits, dtype=np.int64)
    return (indices[:, np.newaxis] >> np.arange(qubits - 1, -1, -1)) & 1


class Sampling:
    """``ideal-loop`` and ``noisy-sample``: compile once, then one ``Device.run`` per request."""

    def __init__(
        self, qubits: int, noisy: bool, instance_seed: int, setups: int, traced_requests: int
    ):
        self.noisy = noisy
        self.setups = setups
        self.traced_requests = traced_requests
        self.ansatz = make_ansatz("qaoa", qubits, 1, instance_seed)
        self.qubits = qubits
        self.circuit = with_noise(self.ansatz.circuit) if noisy else self.ansatz.circuit
        # Ideal circuits of at most 16 qubits take the exact path (iid
        # draws); noisy ones always take the Gibbs sampler.
        self.units = gibbs_units(SHOTS) if noisy else float(SHOTS)

    def setup(self) -> Tuple[Any, float]:
        """A fresh device with its own compile cache, compiled for the ansatz."""
        device = Device(
            KC_BACKEND, backend_options={KC_BACKEND: {"cache": CompiledCircuitCache()}}
        )
        start = time.perf_counter()
        device.ensure_compiled(self.circuit)
        return device, time.perf_counter() - start

    def request(self, device, rng: np.random.Generator, tracer: Tracer, index: int):
        """One parameter point through ``Device.run``; returns what its check needs."""
        resolver = self.ansatz.resolver(draw_point(rng, self.ansatz))
        seed = int(rng.integers(2**31))
        with tracer.span("api.device", request=index):
            job = device.run(self.circuit, params=[resolver], repetitions=SHOTS, seed=seed)
            row = job.result()[0]
        return resolver, seed, row["backend"], row["counts"]

    def references(self, pending, tracer: Tracer, index: int) -> None:
        """Time the baseline backends on this request's inputs (traced runs)."""
        resolver, seed, _, _ = pending
        resolved = self.circuit.resolve_parameters(resolver)
        backends = (
            [
                ("densitymatrix.sample", DensityMatrixSimulator),
                ("trajectory.sample", TrajectorySimulator),
            ]
            if self.noisy
            else [("statevector.sample", StateVectorSimulator)]
        )
        for name, backend in backends:
            with tracer.span(name, request=f"reference-{index}"):
                backend().sample(resolved, SHOTS, seed=seed)

    def exact(self, resolver) -> np.ndarray:
        resolved = self.circuit.resolve_parameters(resolver)
        if self.noisy:
            return DensityMatrixSimulator().simulate(resolved).probabilities()
        return StateVectorSimulator().simulate(resolved).probabilities()

    def check(self, pending) -> Tuple[bool, Optional[Tuple[float, float]]]:
        """TVD of the samples from the exact distribution, against its tolerance."""
        resolver, _, backend, counts = pending
        if backend != KC_BACKEND or sum(counts.values()) != SHOTS:
            return False, None
        if any(len(bits) != self.qubits for bits in counts):
            return False, None
        exact = self.exact(resolver)
        tvd = 0.5 * float(np.abs(empirical(counts, self.qubits) - exact).sum())
        bound = expected_tvd_bound(exact, self.units)
        return tvd <= bound + tvd_slack(self.units), (tvd, bound)


#: Table 6 instance set: (family, qubits, iterations, noisy), graphs and grids from seed 21.
COLD_SEED = 21
COLD_INSTANCES = (
    ("qaoa", 12, 1, False),
    ("vqe", 9, 1, False),
    ("qaoa", 5, 1, True),
    ("vqe", 4, 1, True),
    ("qaoa", 8, 2, False),
    ("vqe", 6, 2, False),
)


class ColdCompile:
    """``cold-compile``: one request compiles the whole instance set with ``cache=None``.

    A request is the set, not one instance: the instances differ 20-fold in
    compile time, so a median over single compiles would rest on the two
    mid-sized instances and follow the machine's drift over one second.
    """

    setups = 30
    traced_requests = 1

    def __init__(self, rng: np.random.Generator):
        self.points = []
        for family, qubits, iterations, _ in COLD_INSTANCES:
            self.points.append(draw_point(rng, make_ansatz(family, qubits, iterations, COLD_SEED)))

    def setup(self) -> Tuple[Any, float]:
        """The simulator and the instance circuits, built from scratch; nothing is compiled."""
        circuits = []
        for (family, qubits, iterations, noisy), point in zip(COLD_INSTANCES, self.points):
            ansatz = make_ansatz(family, qubits, iterations, COLD_SEED)
            ideal = ansatz.circuit.resolve_parameters(ansatz.resolver(point))
            circuits.append((ideal, with_noise(ideal) if noisy else ideal))
        simulator = KnowledgeCompilationSimulator(order_method="hypergraph", cache=None)
        return (simulator, circuits), 0.0

    def request(self, state, rng: np.random.Generator, tracer: Tracer, index: int):
        simulator, circuits = state
        tracer.request = index
        return [(ideal, simulator.compile_circuit(circuit)) for ideal, circuit in circuits]

    def references(self, pending, tracer: Tracer, index: int) -> None:
        return None

    def check(self, pending) -> Tuple[bool, None]:
        """Every compile of the request, against the state-vector backend."""
        return all(self.check_compile(ideal, compiled) for ideal, compiled in pending), None

    @staticmethod
    def check_compile(ideal, compiled) -> bool:
        """Ideal rows: every amplitude.  Noisy rows: the all-identity noise branch.

        The identity branch of ``depolarize(p)`` is ``sqrt(1 - p) * I``, so
        its amplitudes are the ideal ones times ``sqrt(1 - p)`` per channel.
        """
        reference = StateVectorSimulator().simulate(ideal).state_vector
        bits = basis_bits(compiled.num_qubits)
        if compiled.noise_variables:
            branches = np.zeros((1, len(compiled.noise_variables)), dtype=np.int64)
            amplitudes = compiled.amplitudes(bits, noise_branches=branches)
            reference = reference * math.sqrt(1.0 - NOISE) ** len(compiled.noise_variables)
        else:
            amplitudes = compiled.amplitudes(bits)
        return float(np.max(np.abs(amplitudes - reference))) <= AMPLITUDE_TOLERANCE


# Graph seeds 9 and 13 are the Figure 8 and Figure 9 defaults of
# ``repro.experiments``; every 4-vertex 3-regular graph is K4.
WORKLOADS: Dict[str, Callable[[np.random.Generator], Any]] = {
    "ideal-loop": lambda rng: Sampling(
        10, noisy=False, instance_seed=9, setups=9, traced_requests=8
    ),
    "noisy-sample": lambda rng: Sampling(
        4, noisy=True, instance_seed=13, setups=5, traced_requests=1
    ),
    "cold-compile": ColdCompile,
}


def _timed_setup(workload, tracer: Tracer, traced: bool) -> Tuple[Any, float, float]:
    """One set-up: (state, seconds, compile seconds); traced into request ``"setup"``."""
    tracer.enabled = traced
    with tracer.span("setup", request="setup"):
        start = time.perf_counter()
        state, compile_seconds = workload.setup()
        seconds = time.perf_counter() - start
    tracer.enabled = False
    return state, seconds, compile_seconds


def run(
    name: str, seed: int, seconds: float, trace: bool, trace_path: Optional[str] = None
) -> Dict:
    """Run one workload; returns the report (metrics plus the raw figures behind them)."""
    rng = np.random.default_rng(seed)
    workload = WORKLOADS[name](rng)
    tracer = Tracer()
    uninstall = install(tracer) if trace else None
    tvds: List[float] = []
    bounds: List[float] = []
    timed: List[Tuple[int, bool, float]] = []  # (request, traced, seconds) of each success
    traced: List[int] = []
    attempted = failed = 0
    try:
        state, total, compile_seconds = _timed_setup(workload, tracer, trace)
        setup_totals, setup_compiles = [total], [compile_seconds]
        wall = 0.0  # time inside requests; the checks between them are not measured
        index = 0
        while index == 0 or wall < seconds or (trace and len(traced) < workload.traced_requests):
            # A traced run alternates untraced and traced requests, so the
            # overhead is measured under the same conditions.
            tracer.enabled = trace and index % 2 == 1
            start = time.perf_counter()
            try:
                item = workload.request(state, rng, tracer, index)
            except Exception:  # one failed request must not end the closed loop
                traceback.print_exc(file=sys.stderr)
                item = None
            latency = time.perf_counter() - start
            wall += latency
            attempted += 1
            if item is None:
                failed += 1
            else:
                timed.append((index, tracer.enabled, latency))
                if tracer.enabled:
                    traced.append(index)
                    workload.references(item, tracer, index)
                tracer.enabled = False
                try:
                    ok, detail = workload.check(item)
                except Exception:  # a check that raises is a failed check
                    traceback.print_exc(file=sys.stderr)
                    ok, detail = False, None
                failed += 0 if ok else 1
                if detail is not None:
                    tvds.append(detail[0])
                    bounds.append(detail[1])
            tracer.enabled = False
            del item  # the next request's peak memory should not hold this one's compiles
            index += 1
            # The machine's speed drifts over seconds, so the repeated set-ups
            # are spread evenly over the timed phase; their states are dropped.
            while (
                len(setup_totals) < workload.setups
                and wall >= len(setup_totals) * seconds / workload.setups
            ):
                _, total, compile_seconds = _timed_setup(workload, tracer, False)
                setup_totals.append(total)
                setup_compiles.append(compile_seconds)
    finally:
        if uninstall is not None:
            uninstall()

    latencies = [seconds for _, _, seconds in timed]
    pooled_ok = True
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "requests": len(latencies),
        "setups": len(setup_totals),
    }
    if tvds:
        # Pooled over the run the slack shrinks with the number of sets.
        report["tvd"] = statistics.fmean(tvds)
        report["tvd_expected_bound"] = statistics.fmean(bounds)
        pooled_ok = report["tvd"] <= report["tvd_expected_bound"] + tvd_slack(
            workload.units, len(tvds)
        )
    report["correct"] = failed == 0 and pooled_ok

    if not trace:
        if isinstance(workload, ColdCompile):
            report["compile_s"] = statistics.median(latencies)
        else:
            report["compile_s"] = statistics.median(setup_compiles)
            report["shots_per_s"] = len(latencies) * SHOTS / wall
        if len(latencies) >= 100:  # at least ten requests beyond the 90th percentile
            report["request_s_p90"] = statistics.quantiles(latencies, n=10)[8]
        report["metrics"] = {
            "setup_s": (statistics.median(setup_totals), "s"),
            "request_s_p50": (statistics.median(latencies), "s"),
            "requests_per_s": (len(latencies) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return report

    counted = traced[: workload.traced_requests]
    compile_sets = counted if isinstance(workload, ColdCompile) else ["setup"]
    values = layer_metrics(tracer, counted, compile_sets)
    values["trace.overhead_frac"] = (
        statistics.median(s for _, on, s in timed if on)
        / statistics.median(s for _, on, s in timed if not on)
        - 1.0
    )
    report["traced_request_s"] = statistics.fmean(s for i, _, s in timed if i in counted)
    units = {name: unit for name, unit, _ in PER_LAYER}
    report["metrics"] = {name: (value, units[name]) for name, value in values.items()}
    if trace_path is not None:
        tracer.write(trace_path)
    return report
