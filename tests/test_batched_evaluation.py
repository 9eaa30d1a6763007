"""Tests for the batched arithmetic-circuit evaluation engine.

The batched APIs (``evaluate_batch`` / ``evaluate_with_derivatives_batch`` /
``CompiledCircuit.amplitudes``) must agree with the scalar path elementwise —
including the forced-literal shortcut and all-zero-amplitude rows — and the
multi-chain Gibbs ensemble must converge to the exact output distribution.
"""

import itertools

import numpy as np
import pytest

from repro.circuits import CNOT, Circuit, H, LineQubit, Ry, Rz, depolarize
from repro.knowledge import NNFManager
from repro.knowledge import arithmetic_circuit as ac_module
from repro.knowledge.arithmetic_circuit import ArithmeticCircuit
from repro.sampling import GibbsSampler, total_variation_distance
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut


def _random_literal_batch(circuit_ac, batch, rng):
    literal_values = np.ones((batch, circuit_ac.num_vars + 1, 2), dtype=complex)
    literal_values += 0.5 * (
        rng.standard_normal(literal_values.shape)
        + 1j * rng.standard_normal(literal_values.shape)
    )
    # Sprinkle exact zeros so the zero-bookkeeping paths are exercised.
    zero_mask = rng.random(literal_values.shape) < 0.15
    literal_values[zero_mask] = 0.0
    return literal_values


@pytest.fixture
def compiled_ideal():
    q = LineQubit.range(3)
    circuit = Circuit(
        [Ry(0.9)(q[0]), H(q[1]), CNOT(q[0], q[1]), Rz(0.4)(q[1]), CNOT(q[1], q[2])]
    )
    return KnowledgeCompilationSimulator(seed=2).compile_circuit(circuit)


@pytest.fixture
def compiled_noisy():
    q = LineQubit.range(2)
    circuit = Circuit([Ry(1.1)(q[0]), CNOT(q[0], q[1])]).with_noise(
        lambda: depolarize(0.08)
    )
    return KnowledgeCompilationSimulator(seed=3).compile_circuit(circuit)


class TestBatchedEvaluation:
    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy"])
    def test_evaluate_batch_matches_scalar(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        ac = compiled.arithmetic_circuit
        rng = np.random.default_rng(7)
        literal_values = _random_literal_batch(ac, 9, rng)
        batched = ac.evaluate_batch(literal_values)
        for row in range(literal_values.shape[0]):
            scalar = ac.evaluate(literal_values[row])
            assert batched[row] == pytest.approx(scalar, abs=1e-10)

    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy"])
    def test_derivatives_batch_matches_scalar(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        ac = compiled.arithmetic_circuit
        rng = np.random.default_rng(11)
        literal_values = _random_literal_batch(ac, 7, rng)
        roots, derivatives = ac.evaluate_with_derivatives_batch(literal_values)
        for row in range(literal_values.shape[0]):
            scalar_root, scalar_derivatives = ac.evaluate_with_derivatives(
                literal_values[row]
            )
            assert roots[row] == pytest.approx(scalar_root, abs=1e-10)
            np.testing.assert_allclose(
                derivatives[row], scalar_derivatives, atol=1e-10
            )

    def test_all_zero_amplitude_rows(self, compiled_ideal):
        ac = compiled_ideal.arithmetic_circuit
        literal_values = np.zeros((3, ac.num_vars + 1, 2), dtype=complex)
        roots, derivatives = ac.evaluate_with_derivatives_batch(literal_values)
        assert np.all(roots == 0.0)
        for row in range(3):
            scalar_root, scalar_derivatives = ac.evaluate_with_derivatives(
                literal_values[row]
            )
            assert roots[row] == pytest.approx(scalar_root, abs=1e-10)
            np.testing.assert_allclose(derivatives[row], scalar_derivatives, atol=1e-10)

    def test_batch_shape_validation(self, compiled_ideal):
        ac = compiled_ideal.arithmetic_circuit
        with pytest.raises(ValueError):
            ac.evaluate_batch(np.ones((ac.num_vars + 1, 2), dtype=complex))

    def test_empty_batch(self, compiled_ideal):
        ac = compiled_ideal.arithmetic_circuit
        empty = np.ones((0, ac.num_vars + 1, 2), dtype=complex)
        assert ac.evaluate_batch(empty).shape == (0,)
        roots, derivatives = ac.evaluate_with_derivatives_batch(empty)
        assert roots.shape == (0,)
        assert derivatives.shape == empty.shape

    def test_workspace_reuse_across_batch_sizes(self, compiled_ideal):
        """Alternating batch sizes must not corrupt results."""
        ac = compiled_ideal.arithmetic_circuit
        rng = np.random.default_rng(13)
        small = _random_literal_batch(ac, 2, rng)
        large = _random_literal_batch(ac, 6, rng)
        expected_small = [ac.evaluate(small[i]) for i in range(2)]
        expected_large = [ac.evaluate(large[i]) for i in range(6)]
        np.testing.assert_allclose(ac.evaluate_batch(large), expected_large, atol=1e-10)
        np.testing.assert_allclose(ac.evaluate_batch(small), expected_small, atol=1e-10)
        np.testing.assert_allclose(ac.evaluate_batch(large), expected_large, atol=1e-10)


class TestBatchedAmplitudes:
    def test_amplitudes_match_scalar_ideal(self, compiled_ideal):
        bit_matrix = np.asarray(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        batched = compiled_ideal.amplitudes(bit_matrix)
        for row, bits in enumerate(bit_matrix):
            assert batched[row] == pytest.approx(
                compiled_ideal.amplitude(list(bits)), abs=1e-10
            )

    def test_amplitudes_match_scalar_noisy(self, compiled_noisy):
        bit_matrix = np.asarray(list(itertools.product([0, 1], repeat=2)), dtype=np.int64)
        cardinalities = [v.cardinality for v in compiled_noisy.noise_variables]
        for branches in itertools.product(*[range(c) for c in cardinalities]):
            branch_row = np.asarray(branches, dtype=np.int64)[np.newaxis]
            batched = compiled_noisy.amplitudes(bit_matrix, noise_branches=branch_row)
            for row, bits in enumerate(bit_matrix):
                scalar = compiled_noisy.amplitude(list(bits), noise_branches=branches)
                assert batched[row] == pytest.approx(scalar, abs=1e-10)

    def test_forced_literal_shortcut_rows(self):
        """Rows contradicting a CNF-forced literal must come back exactly zero."""
        # The idle second qubit's final state is forced to 0 by unit
        # propagation, so asking for it to be 1 hits the forced-literal
        # shortcut rather than a circuit evaluation.
        q = LineQubit.range(2)
        compiled = KnowledgeCompilationSimulator(seed=5).compile_circuit(
            Circuit([Ry(0.7)(q[0]), Ry(0.0)(q[1])])
        )
        encoding = compiled.encoding
        forced_bits = [
            (variable, int(encoding.forced_value(bit_var)))
            for variable in compiled.final_variables
            for bit_var in variable.bit_vars
            if encoding.forced_value(bit_var) is not None
        ]
        assert forced_bits, "expected the idle qubit's final bit to be forced"
        variable, forced = forced_bits[0]
        column = compiled.final_variables.index(variable)
        bit_matrix = np.zeros((2, compiled.num_qubits), dtype=np.int64)
        bit_matrix[0, column] = 1 - forced  # contradicts the forced literal
        bit_matrix[1, column] = forced
        batched = compiled.amplitudes(bit_matrix)
        assert batched[0] == 0.0
        assert batched[0] == pytest.approx(
            compiled.amplitude(list(bit_matrix[0])), abs=1e-12
        )

    def test_amplitudes_chunking_is_invisible(self, compiled_ideal):
        bit_matrix = np.asarray(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        one_chunk = compiled_ideal.amplitudes(bit_matrix, chunk_size=1024)
        tiny_chunks = compiled_ideal.amplitudes(bit_matrix, chunk_size=3)
        np.testing.assert_allclose(one_chunk, tiny_chunks, atol=1e-12)

    def test_state_vector_probabilities_consistent(self, compiled_ideal):
        state = compiled_ideal.state_vector()
        assert np.abs(state) ** 2 == pytest.approx(compiled_ideal.probabilities(), abs=1e-10)
        assert float(np.sum(np.abs(state) ** 2)) == pytest.approx(1.0, abs=1e-9)

    def test_noisy_probabilities_match_density_matrix(self, compiled_noisy):
        probabilities = compiled_noisy.probabilities()
        diagonal = np.real(np.diag(compiled_noisy.density_matrix())).clip(min=0.0)
        np.testing.assert_allclose(probabilities, diagonal, atol=1e-10)


class TestMultiChainSampling:
    def test_multi_chain_converges_in_tvd(self, compiled_ideal):
        sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(17))
        samples = sampler.sample(4000, burn_in_sweeps=5, num_chains=32)
        exact = compiled_ideal.probabilities()
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.12

    def test_noisy_multi_chain_converges_in_tvd(self, compiled_noisy):
        sampler = GibbsSampler(
            compiled_noisy, rng=np.random.default_rng(19), restart_probability=0.2
        )
        samples = sampler.sample(4000, burn_in_sweeps=5, steps_per_sample=4, num_chains=64)
        exact = compiled_noisy.probabilities()
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.10

    def test_num_chains_plumbed_through_simulator(self, compiled_ideal):
        simulator = KnowledgeCompilationSimulator(seed=23)
        result = simulator.sample(compiled_ideal, 100, num_chains=8)
        assert len(result.samples) == 100

    def test_single_chain_equals_default_semantics(self, compiled_ideal):
        """num_chains=1 still produces valid, reproducible samples."""
        first = GibbsSampler(compiled_ideal, rng=np.random.default_rng(29)).sample(
            40, num_chains=1
        )
        second = GibbsSampler(compiled_ideal, rng=np.random.default_rng(29)).sample(
            40, num_chains=1
        )
        assert first.samples == second.samples

    def test_warm_ensemble_continues_chains(self, compiled_ideal):
        """Repeated sample() calls reuse the equilibrated ensemble and stay valid."""
        sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(31))
        sampler.sample(256, num_chains=32)
        assert sampler._ensemble is not None
        combined = []
        for _ in range(8):
            combined.extend(sampler.sample(512, num_chains=32).samples)
        exact = compiled_ideal.probabilities()
        empirical = np.bincount(
            [int("".join(map(str, s)), 2) for s in combined], minlength=len(exact)
        ) / len(combined)
        assert total_variation_distance(exact, empirical) < 0.12


#: The knowledge-compilation entries of the differential-fuzz corpus
#: (tests/test_differential_fuzz.py): (alphabet, seed, qubits, depth).
FUZZ_CORPUS = (
    [("universal", seed, 3, 4) for seed in (0, 1, 2)]
    + [("universal", 3, 4, 3)]
    + [("clifford+t", seed, 3, 5) for seed in (0, 1)]
    + [("pauli-noise", seed, 3, 3) for seed in (0, 1, 2)]
)

#: Row-block budget for the fuzz corpus: its circuits are so small that the
#: default budget gives blocks of thousands of rows, which would make the
#: row-by-row reference slow.  The kernel is the same at any budget.
FUZZ_BLOCK_BYTES = 1 << 13


def _qaoa(num_qubits, graph_seed, noisy=False):
    ansatz = QAOACircuit(random_regular_maxcut(num_qubits, seed=graph_seed), 1)
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.4, 0.7]))
    if noisy:
        circuit = circuit.with_noise(lambda: depolarize(0.005))
    return KnowledgeCompilationSimulator(seed=1).compile_circuit(circuit)


@pytest.fixture(scope="module")
def compiled_qaoa():
    """Figure 8's ideal QAOA n=10 p=1 (graph seed 9) and Figure 9's QAOA n=4
    p=1 with 0.5% depolarizing after every gate."""
    return {"qaoa10": _qaoa(10, 9), "noisy-qaoa4": _qaoa(4, 9, noisy=True)}


@pytest.fixture(
    params=["qaoa10", "noisy-qaoa4"] + FUZZ_CORPUS,
    ids=lambda case: case if isinstance(case, str) else "-".join(map(str, case)),
)
def compiled_case(request, compiled_qaoa, circuit_fuzzer, monkeypatch):
    if isinstance(request.param, str):
        return compiled_qaoa[request.param]
    alphabet, seed, num_qubits, depth = request.param
    monkeypatch.setattr(ac_module, "UPWARD_BLOCK_BYTES", FUZZ_BLOCK_BYTES)
    circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet=alphabet)
    compiled = KnowledgeCompilationSimulator(seed=0, cache=None).compile_circuit(circuit)
    assert compiled.arithmetic_circuit.block_rows < 64
    return compiled


def _evidence_batch(compiled, batch, rng):
    """Bound literal rows with random bitstring (and noise-branch) evidence.

    Evidence zeroes the indicator literal of every unobserved value, so AND
    nodes with zero children occur on every row; on odd rows a few further
    literals are zeroed at random on top.
    """
    literal_values, _ = compiled.base_literal_values_batch(batch)
    retained = compiled.retained_variables
    assignments = np.column_stack(
        [rng.integers(0, variable.cardinality, size=batch) for variable in retained]
    )
    compiled.apply_evidence_batch(literal_values, assignments)
    odd_rows = literal_values[1::2]
    odd_rows[rng.random(odd_rows.shape) < 0.02] = 0.0
    return literal_values


def _block_sizes(block):
    return [1, block - 1, block, block + 1, 3 * block + 2]


def _poison_workspaces(ac):
    """Fill every cached scratch buffer with NaN: a pass must not read stale values."""
    for workspace in ac._workspaces.values():
        for buffer in workspace.values():
            buffer.fill(np.nan)


class TestRowBlockedUpwardKernel:
    def test_matches_derivative_roots_and_row_by_row(self, compiled_case):
        compiled = compiled_case
        ac = compiled.arithmetic_circuit
        rng = np.random.default_rng(5)
        all_roots = []
        for batch in _block_sizes(ac.block_rows):
            literal_values = _evidence_batch(compiled, batch, rng)
            _poison_workspaces(ac)
            roots = ac.evaluate_batch(literal_values)
            _poison_workspaces(ac)
            derivative_roots, _ = ac.evaluate_with_derivatives_batch(literal_values)
            assert np.all(roots == derivative_roots), f"B={batch}"
            row_by_row = [ac.evaluate(row) for row in literal_values]
            assert np.all(roots == np.asarray(row_by_row)), f"B={batch}"
            all_roots.append(roots)
        all_roots = np.concatenate(all_roots)
        assert np.any(all_roots != 0) and np.any(all_roots == 0)

    def test_workspace_never_wider_than_block(self, compiled_case):
        compiled = compiled_case
        ac = compiled.arithmetic_circuit
        rng = np.random.default_rng(6)
        ac._workspaces.clear()
        for batch in _block_sizes(ac.block_rows):
            ac.evaluate_batch(_evidence_batch(compiled, batch, rng))
            widths = [space["values"].shape[1] for space in ac._workspaces.values()]
            assert max(widths) <= ac.block_rows, f"B={batch}"

    def test_exact_queries_bit_equal_to_derivative_pass(self, compiled_case, monkeypatch):
        """Same probabilities, bit for bit, so seeded exact-sampling counts cannot change.

        Noisy QAOA has 4^20 noise branches, too many for ``probabilities()``;
        there the amplitudes of the no-jump branch stand in.
        """
        compiled = compiled_case
        branches = np.prod([v.cardinality for v in compiled.noise_variables], dtype=float)
        if branches > 1024:
            bits = (np.arange(2**compiled.num_qubits)[:, None] >> np.arange(compiled.num_qubits)) & 1
            no_jump = np.zeros((1, len(compiled.noise_variables)), dtype=np.int64)
            query = lambda: compiled.amplitudes(bits, noise_branches=no_jump)  # noqa: E731
        else:
            query = compiled.probabilities
        blocked = query()
        monkeypatch.setattr(
            ArithmeticCircuit,
            "evaluate_batch",
            lambda self, literal_values: self.evaluate_with_derivatives_batch(literal_values)[0],
        )
        assert np.array_equal(blocked, query())

    def test_constant_roots_ignore_stale_workspace(self):
        """Leaves are rewritten on every pass, including a lone TRUE/FALSE root."""
        manager = NNFManager()
        literal_values = np.ones((3, 3, 2), dtype=complex)
        for root, expected in ((manager.false(), 0.0), (manager.true(), 1.0)):
            ac = ArithmeticCircuit(root, 2)
            ac._workspace_for(3)["values"].fill(np.nan)
            assert np.all(ac.evaluate_batch(literal_values) == expected)
            ac._workspace_for(3)["values"].fill(np.nan)
            assert np.all(ac.evaluate_with_derivatives_batch(literal_values)[0] == expected)

    def test_stats_report_block_rule(self, compiled_qaoa):
        ac = compiled_qaoa["qaoa10"].arithmetic_circuit
        stats = ac.stats()
        assert (stats["levels"], stats["widest_level_edges"], stats["block_rows"]) == (18, 896, 73)
        assert stats["block_rows"] == ac_module.UPWARD_BLOCK_BYTES // (16 * 896)
