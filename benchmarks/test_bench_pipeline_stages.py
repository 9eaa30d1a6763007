"""Ablation benchmarks for the individual toolchain stages.

Not a paper table per se, but the per-stage costs perfbench/README.md traces:
circuit -> Bayesian network, network -> CNF, CNF -> d-DNNF, elision/smoothing,
weight re-binding and single amplitude queries.  These quantify where time
goes and how cheap the "repeat with new parameters" path is compared with a
full recompilation — the design choice at the heart of the paper.
"""

import numpy as np
import pytest

from repro.bayesnet import circuit_to_bayesnet
from repro.cnf import encode_bayesnet
from repro.knowledge import ArithmeticCircuit, KnowledgeCompiler, forget, smooth
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

NUM_QUBITS = 10


@pytest.fixture(scope="module")
def ansatz():
    return QAOACircuit(random_regular_maxcut(NUM_QUBITS, seed=5), iterations=1)


@pytest.fixture(scope="module")
def resolver(ansatz):
    return ansatz.resolver([0.6, 0.4])


@pytest.fixture(scope="module")
def compiled(ansatz):
    return KnowledgeCompilationSimulator(seed=1).compile_circuit(ansatz.circuit)


def test_stage_circuit_to_bayesnet(benchmark, ansatz):
    network = benchmark(lambda: circuit_to_bayesnet(ansatz.circuit))
    benchmark.extra_info["bn_nodes"] = network.num_nodes


def test_stage_bayesnet_to_cnf(benchmark, ansatz):
    network = circuit_to_bayesnet(ansatz.circuit)
    encoding = benchmark(lambda: encode_bayesnet(network))
    benchmark.extra_info["cnf_clauses"] = encoding.cnf.num_clauses


def test_stage_cnf_to_ddnnf(benchmark, ansatz):
    network = circuit_to_bayesnet(ansatz.circuit)
    encoding = encode_bayesnet(network)
    compiler = KnowledgeCompiler(order_method="hypergraph")
    state_bits = [bit for bits in encoding.node_bits.values() for bit in bits]

    def compile_once():
        root, manager, _ = compiler.compile(encoding.cnf, decision_variables=state_bits)
        return root, manager

    root, manager = benchmark(compile_once)
    benchmark.extra_info["cnf_clauses"] = encoding.cnf.num_clauses


def test_stage_full_compile(benchmark, ansatz):
    simulator = KnowledgeCompilationSimulator(seed=1)
    compiled = benchmark(lambda: simulator.compile_circuit(ansatz.circuit))
    benchmark.extra_info["ac_nodes"] = compiled.arithmetic_circuit.num_nodes


def test_stage_weight_rebinding(benchmark, compiled, ansatz):
    """Re-binding parameters for a new variational iteration (no recompilation)."""
    resolvers = [ansatz.resolver([g, b]) for g, b in [(0.2, 0.8), (0.9, 0.1), (1.2, 0.5)]]
    counter = {"i": 0}

    def rebind():
        counter["i"] = (counter["i"] + 1) % len(resolvers)
        return compiled.base_literal_values(resolvers[counter["i"]])

    benchmark(rebind)
    benchmark.extra_info["weight_variables"] = len(compiled.encoding.weight_refs)


def test_stage_single_amplitude_query(benchmark, compiled, resolver):
    bits = [0] * NUM_QUBITS
    value = benchmark(lambda: compiled.amplitude(bits, resolver=resolver))
    assert np.isfinite(abs(value))


def test_stage_upward_downward_pass(benchmark, compiled, resolver):
    """The per-Gibbs-step cost: one upward + downward differential sweep."""
    literal_values, _ = compiled.base_literal_values(resolver)
    compiled.apply_evidence(literal_values, compiled.assignment_for([0] * NUM_QUBITS))
    ac = compiled.arithmetic_circuit
    benchmark(lambda: ac.evaluate_with_derivatives(literal_values))
    benchmark.extra_info["ac_edges"] = ac.num_edges


def test_stage_elision_ablation(benchmark, ansatz):
    """Compile without elision to quantify the size the optimization saves."""
    simulator = KnowledgeCompilationSimulator(seed=1, elide_internal=False)
    compiled = benchmark(lambda: simulator.compile_circuit(ansatz.circuit))
    benchmark.extra_info["ac_nodes_without_elision"] = compiled.arithmetic_circuit.num_nodes
