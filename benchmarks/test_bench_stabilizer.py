"""Stabilizer backend at scale: 50+ qubit Clifford circuits in milliseconds.

The acceptance bar for the sixth backend: a >= 50-qubit, depth >= 100
Clifford circuit sampled in under one second wall-clock (measured and
gated by the ``stabilizer`` section of ``benchmarks/bench_all.py``) — a
regime where every existing backend is infeasible (a single dense state
vector at 56 qubits would need ``2^56 * 16`` bytes ≈ 1.15 exabytes; the
density matrix squares that; the knowledge compile of an entangling
56-qubit random circuit blows up in structure long before memory).  The
tableau pays ``O(n^2)`` bits of state and ``O(n)`` work per gate, so the
whole run is milliseconds.

A second benchmark measures hybrid-dispatch overhead: the classification
pass must be a negligible fraction of a dense sampling run.
"""

import time

import numpy as np
import pytest

from repro.algorithms import ghz_circuit, random_clifford_circuit
from repro.simulator.hybrid import HybridSimulator
from repro.stabilizer import StabilizerSimulator
from repro.statevector import StateVectorSimulator

NUM_QUBITS = 56
DEPTH = 120
NUM_SAMPLES = 1000
WALL_CLOCK_BUDGET_SECONDS = 1.0


@pytest.fixture(scope="module")
def wide_clifford_instance():
    return random_clifford_circuit(NUM_QUBITS, DEPTH, seed=23)


class TestFiftyQubitBudget:
    def test_hybrid_dispatch_reaches_the_same_scale(self, wide_clifford_instance):
        """The dispatcher, not just the raw backend, must survive 56 qubits."""
        simulator = HybridSimulator(seed=7)
        start = time.perf_counter()
        simulator.sample(wide_clifford_instance.circuit, NUM_SAMPLES, seed=7)
        elapsed = time.perf_counter() - start
        assert simulator.last_decision.backend == "stabilizer"
        assert elapsed < WALL_CLOCK_BUDGET_SECONDS

    def test_hundred_qubit_ghz_smoke(self):
        """Far past the dense wall: a 100-qubit GHZ state samples correctly."""
        instance = ghz_circuit(100)
        samples = StabilizerSimulator(seed=3).sample(instance.circuit, 200)
        observed = {tuple(bits) for bits in samples.samples}
        assert observed == {tuple([0] * 100), tuple([1] * 100)}


class TestThroughput:
    def test_tableau_sampling_throughput(self, benchmark, wide_clifford_instance):
        simulator = StabilizerSimulator(seed=7)
        result = benchmark(
            lambda: simulator.sample(wide_clifford_instance.circuit, NUM_SAMPLES, seed=7)
        )
        assert len(result) == NUM_SAMPLES
        benchmark.extra_info["qubits"] = NUM_QUBITS
        benchmark.extra_info["depth"] = DEPTH
        benchmark.extra_info["gates"] = wide_clifford_instance.circuit.gate_count()

    def test_dispatch_overhead_ratio_small_on_dense_route(self, benchmark):
        """Classification cost stays a sliver of a dense 10-qubit sampling run."""
        from repro.algorithms import random_circuit

        circuit = random_circuit(10, 8, seed=5).circuit
        hybrid = HybridSimulator(seed=7)
        dense = StateVectorSimulator(seed=7)

        start = time.perf_counter()
        dense.sample(circuit, NUM_SAMPLES, seed=7)
        dense_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        hybrid.sample(circuit, NUM_SAMPLES, seed=7)
        hybrid_elapsed = time.perf_counter() - start
        assert hybrid.last_decision.backend == "state_vector"
        # Dispatch adds classification only; allow generous slack for timer noise.
        assert hybrid_elapsed < dense_elapsed * 2.0 + 0.05

        result = benchmark(lambda: hybrid.sample(circuit, 64, seed=7))
        assert len(result) == 64
