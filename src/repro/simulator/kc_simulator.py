"""The knowledge-compilation simulator — the paper's primary contribution.

Pipeline (Figure 4 of the paper):

1. circuit -> complex-valued Bayesian network (:mod:`repro.bayesnet`);
2. Bayesian network -> weighted CNF (:mod:`repro.cnf`);
3. CNF -> d-DNNF / arithmetic circuit (:mod:`repro.knowledge`), with
   intermediate qubit states elided and the circuit smoothed;
4. repeated amplitude queries (upward passes) and Gibbs sampling (upward +
   downward passes) with per-run numeric parameters.

The compile step is performed once per circuit *structure*; variational
iterations only re-bind weight values.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..bayesnet.from_circuit import QuantumBayesNet, circuit_to_bayesnet
from ..circuits.circuit import Circuit
from ..circuits.parameters import ParameterValue, ParamResolver
from ..circuits.passes import OptimizeSpec, PipelineStats, resolve_pipeline
from ..circuits.qubits import Qubit
from ..circuits.topology import bind_canonical_parameters, canonicalize_circuit
from ..cnf.encoder import CNFEncoding, encode_bayesnet
from ..errors import CompilationError, UnsupportedCircuitError
from ..knowledge.arithmetic_circuit import ArithmeticCircuit
from ..knowledge.cache import CompiledCircuitCache, default_cache
from ..knowledge.compiler import KnowledgeCompiler
from ..knowledge.transform import forget, smooth
from ..linalg.tensor_ops import index_to_bits
from .base import Simulator
from .results import DensityMatrixResult, SampleResult, StateVectorResult

#: Sentinel distinguishing "use the process-wide shared cache" (the default)
#: from an explicit ``cache=None`` (caching disabled).
USE_DEFAULT_CACHE = object()


def _encoding_fingerprint(encoding: CNFEncoding) -> str:
    """Cheap structural fingerprint validating disk-cached compiles.

    The polynomial front end (circuit -> Bayesian network -> CNF) is re-run
    on every disk-cache load; a stored arithmetic circuit is only accepted if
    the freshly built encoding matches the one it was compiled from, so a
    stale or foreign cache file degrades to a recompile rather than a wrong
    answer.
    """
    description = (
        encoding.cnf.num_vars,
        encoding.cnf.num_clauses,
        tuple(encoding.weight_variables),
        tuple(sorted(encoding.forced_literals)),
        tuple(sorted((name, tuple(bits)) for name, bits in encoding.node_bits.items())),
    )
    return hashlib.sha256(repr(description).encode("utf-8")).hexdigest()


class RetainedVariable:
    """A Bayesian-network variable that survives elision and can be queried.

    Either a final qubit-state node (binary) or a noise branch-selector node
    (cardinality = number of Kraus operators, log-encoded over several CNF
    bits).
    """

    def __init__(self, node_name: str, cardinality: int, kind: str, bit_vars: List[int]):
        self.node_name = node_name
        self.cardinality = cardinality
        self.kind = kind  # "final" or "noise"
        self.bit_vars = list(bit_vars)  # CNF variable per bit, MSB first

    @property
    def width(self) -> int:
        return len(self.bit_vars)

    def bit_values(self, value: int) -> List[int]:
        """The bit pattern (MSB first) for ``value``."""
        if not 0 <= value < 2 ** self.width:
            raise ValueError(f"value {value} out of range for {self.node_name}")
        return [(value >> (self.width - 1 - j)) & 1 for j in range(self.width)]

    def value_from_bits(self, bits: Sequence[int]) -> int:
        value = 0
        for bit in bits:
            value = (value << 1) | (int(bit) & 1)
        return value

    def __repr__(self) -> str:
        return f"RetainedVariable({self.node_name!r}, kind={self.kind!r}, card={self.cardinality})"


class _EvidenceIndex:
    """Precomputed fancy-index arrays binding a list of retained variables.

    Splits the variables' CNF bits into *free* bits (written into the literal
    value table) and *forced* bits (fixed by CNF simplification; an assignment
    disagreeing with one has amplitude exactly zero).  Binding evidence is
    then a couple of vectorised shift/mask/assign operations instead of
    nested Python loops over variables and bits, and the same index arrays
    serve whole batches of assignments at once.
    """

    def __init__(self, variables: Sequence[RetainedVariable], encoding: CNFEncoding):
        free_vars: List[int] = []
        free_columns: List[int] = []
        free_shifts: List[int] = []
        forced_columns: List[int] = []
        forced_shifts: List[int] = []
        forced_bits: List[int] = []
        for column, variable in enumerate(variables):
            width = variable.width
            for position, bit_var in enumerate(variable.bit_vars):
                shift = width - 1 - position  # MSB first
                forced = encoding.forced_value(bit_var)
                if forced is None:
                    free_vars.append(bit_var)
                    free_columns.append(column)
                    free_shifts.append(shift)
                else:
                    forced_columns.append(column)
                    forced_shifts.append(shift)
                    forced_bits.append(int(forced))
        self.num_variables = len(variables)
        self.limits = np.asarray([2 ** variable.width for variable in variables], dtype=np.int64)
        self.free_vars = np.asarray(free_vars, dtype=np.int64)
        self.free_columns = np.asarray(free_columns, dtype=np.int64)
        self.free_shifts = np.asarray(free_shifts, dtype=np.int64)
        self.forced_columns = np.asarray(forced_columns, dtype=np.int64)
        self.forced_shifts = np.asarray(forced_shifts, dtype=np.int64)
        self.forced_bits = np.asarray(forced_bits, dtype=np.int64)

    def apply(self, literal_values: np.ndarray, values: np.ndarray) -> bool:
        """Bind one assignment (``values`` has one entry per variable).

        Returns ``True`` if the assignment contradicts a forced bit.
        """
        if np.any((values < 0) | (values >= self.limits)):
            raise ValueError("retained-variable value out of range")
        if len(self.free_vars):
            bits = (values[self.free_columns] >> self.free_shifts) & 1
            literal_values[self.free_vars, 1] = bits
            literal_values[self.free_vars, 0] = 1 - bits
        if len(self.forced_columns):
            observed = (values[self.forced_columns] >> self.forced_shifts) & 1
            return bool(np.any(observed != self.forced_bits))
        return False

    def apply_batch(self, literal_values: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Bind a ``(B, num_variables)`` assignment batch.

        Writes into the ``(B, num_vars + 1, 2)`` literal batch and returns the
        ``(B,)`` boolean mask of rows contradicting a forced bit (amplitude
        exactly zero — the scalar path's shortcut).
        """
        batch = values.shape[0]
        if np.any((values < 0) | (values >= self.limits)):
            raise ValueError("retained-variable value out of range")
        if len(self.free_vars):
            bits = (values[:, self.free_columns] >> self.free_shifts) & 1
            literal_values[:, self.free_vars, 1] = bits
            literal_values[:, self.free_vars, 0] = 1 - bits
        if len(self.forced_columns):
            observed = (values[:, self.forced_columns] >> self.forced_shifts) & 1
            return np.any(observed != self.forced_bits, axis=1)
        return np.zeros(batch, dtype=bool)


class CompiledCircuit:
    """A circuit compiled once, queryable many times with different parameters."""

    def __init__(
        self,
        circuit: Circuit,
        network: QuantumBayesNet,
        encoding: CNFEncoding,
        arithmetic_circuit: ArithmeticCircuit,
        elided: bool,
        order_method: str,
    ):
        self.circuit = circuit
        self.network = network
        self.encoding = encoding
        self.arithmetic_circuit = arithmetic_circuit
        self.elided = elided
        self.order_method = order_method

        self.qubits: List[Qubit] = list(network.qubit_order)
        self.final_variables: List[RetainedVariable] = []
        self.noise_variables: List[RetainedVariable] = []
        for name in network.final_node_names:
            node = network.node(name)
            self.final_variables.append(
                RetainedVariable(name, node.cardinality, "final", encoding.bits_of(name))
            )
        for name in network.noise_node_names:
            node = network.node(name)
            self.noise_variables.append(
                RetainedVariable(name, node.cardinality, "noise", encoding.bits_of(name))
            )

        # Index arrays for vectorised weight/evidence binding (built once).
        self._weight_vars = np.asarray(encoding.weight_variables, dtype=np.int64)
        self._final_index = _EvidenceIndex(self.final_variables, encoding)
        self._noise_index = _EvidenceIndex(self.noise_variables, encoding)
        self._retained_index = _EvidenceIndex(self.retained_variables, encoding)
        self._index_by_name: Dict[str, _EvidenceIndex] = {
            variable.node_name: _EvidenceIndex([variable], encoding)
            for variable in self.retained_variables
        }

        # Per-resolver cache: (key, bound literal template, constant factor).
        self._weights_cache: Optional[Tuple[Optional[int], np.ndarray, complex]] = None
        # Canonical-parameter translation for rebound views (see rebound_for):
        # (canonical symbol name, original ParameterValue) pairs, or None when
        # this object's circuit is the compiled template itself.
        self._canonical_bindings: Optional[List[Tuple[str, ParameterValue]]] = None

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def retained_variables(self) -> List[RetainedVariable]:
        return self.final_variables + self.noise_variables

    def compilation_metrics(self) -> Dict[str, int]:
        """Table 6-style metrics: gates, CNF clauses, AC nodes/edges/size."""
        return {
            "qubits": self.num_qubits,
            "gates": self.circuit.gate_count(include_noise=True),
            "bn_nodes": self.network.num_nodes,
            "cnf_variables": self.encoding.cnf.num_vars,
            "cnf_clauses": self.encoding.cnf.num_clauses,
            "ac_nodes": self.arithmetic_circuit.num_nodes,
            "ac_edges": self.arithmetic_circuit.num_edges,
            "ac_size_bytes": self.arithmetic_circuit.size_bytes(),
        }

    # ------------------------------------------------------------------
    # Parameter binding
    # ------------------------------------------------------------------
    def rebound_for(
        self,
        circuit: Circuit,
        bindings: Optional[Sequence[Tuple[str, ParameterValue]]],
        qubit_order: Optional[Sequence[Qubit]] = None,
    ) -> "CompiledCircuit":
        """A lightweight view of this compile bound to another circuit.

        The view shares every heavy structure (network, encoding, arithmetic
        circuit, evidence indices) with this object but reports ``circuit``'s
        qubits and translates resolvers through ``bindings`` — the
        canonical-symbol assignments produced by
        :func:`repro.circuits.topology.canonicalize_circuit`.  This is how a
        topology-cache hit rebinds new parameter values into an existing
        compile instead of recompiling.
        """
        view = copy.copy(self)
        view.circuit = circuit
        view._canonical_bindings = list(bindings) if bindings else None
        view._weights_cache = None
        if qubit_order is not None:
            view.qubits = list(qubit_order)
        else:
            qubits = circuit.all_qubits()
            if len(qubits) == len(self.qubits):
                view.qubits = qubits
        return view

    def effective_resolver(self, resolver: Optional[ParamResolver] = None) -> Optional[ParamResolver]:
        """Translate a caller resolver into the compiled template's symbols.

        For rebound views this evaluates each canonical symbol's original
        expression under ``resolver`` (concrete angles need no resolver) and
        merges the result over the caller's own assignments, so symbols the
        canonicalization left untouched still resolve.  For directly compiled
        circuits this is the identity.

        Raises
        ------
        ValueError
            If an original angle is symbolic and ``resolver`` is ``None``.
        """
        return bind_canonical_parameters(self._canonical_bindings or (), resolver)

    def _resolver_key(self, resolver: Optional[ParamResolver]) -> Optional[int]:
        resolver = self.effective_resolver(resolver)
        if resolver is None:
            return None
        return hash(tuple(sorted(resolver.as_dict().items())))

    def _base_template(self, resolver: Optional[ParamResolver] = None) -> Tuple[np.ndarray, complex]:
        """Literal-value template with weights bound, memoized per resolver.

        The template is shared — callers must copy (or broadcast-copy) before
        writing evidence into it.  Weight emission goes through the
        encoding's vectorized :class:`~repro.cnf.encoder.WeightEmitter`: one
        table evaluation per parameterized node plus one fancy-indexed
        assignment, which is the entire per-point cost of a compile-once
        parameter sweep.
        """
        effective = self.effective_resolver(resolver)
        key = None if effective is None else hash(tuple(sorted(effective.as_dict().items())))
        if self._weights_cache is not None and self._weights_cache[0] == key:
            _, template, constant = self._weights_cache
            return template, constant
        weight_values, constant = self.encoding.weight_emitter().emit(effective)
        template = self.arithmetic_circuit.default_literal_values()
        if len(self._weight_vars):
            template[self._weight_vars, 1] = weight_values
        self._weights_cache = (key, template, constant)
        return template, constant

    def base_literal_values(self, resolver: Optional[ParamResolver] = None) -> Tuple[np.ndarray, complex]:
        """Literal values with weights bound and every state bit left free.

        Returns ``(literal_values, constant_factor)``; callers overwrite the
        retained-variable bit entries with evidence before evaluating.
        Weight binding is a single fancy-indexed assignment into a template
        that is memoized per resolver binding.
        """
        template, constant = self._base_template(resolver)
        return template.copy(), constant

    def base_literal_values_batch(
        self, batch: int, resolver: Optional[ParamResolver] = None
    ) -> Tuple[np.ndarray, complex]:
        """A ``(batch, num_vars + 1, 2)`` stack of weight-bound literal values."""
        template, constant = self._base_template(resolver)
        return np.broadcast_to(template, (batch,) + template.shape).copy(), constant

    def apply_evidence(
        self,
        literal_values: np.ndarray,
        assignment: Mapping[str, int],
    ) -> Optional[complex]:
        """Set bit entries for ``assignment`` (node name -> value).

        Returns ``0j`` immediately if the assignment contradicts a literal
        forced during CNF simplification (the amplitude is exactly zero) and
        ``None`` otherwise.
        """
        contradiction = False
        for name, observed in assignment.items():
            index = self._index_by_name.get(name)
            if index is None:
                continue
            contradiction |= index.apply(
                literal_values, np.asarray([int(observed)], dtype=np.int64)
            )
        return 0j if contradiction else None

    def apply_evidence_batch(
        self,
        literal_values: np.ndarray,
        assignments: np.ndarray,
        index: Optional[_EvidenceIndex] = None,
    ) -> np.ndarray:
        """Bind a ``(B, R)`` matrix of retained-variable values.

        Columns follow :attr:`retained_variables` order (final qubits first,
        then noise selectors) unless another :class:`_EvidenceIndex` is
        given.  Returns the ``(B,)`` mask of rows whose amplitude is exactly
        zero because they contradict a forced literal.
        """
        index = self._retained_index if index is None else index
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.ndim != 2 or assignments.shape[1] != index.num_variables:
            raise ValueError(
                f"assignments must have shape (B, {index.num_variables}); "
                f"got {assignments.shape}"
            )
        return index.apply_batch(literal_values, assignments)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def assignment_for(
        self, bits: Sequence[int], noise_branches: Optional[Sequence[int]] = None
    ) -> Dict[str, int]:
        if len(bits) != self.num_qubits:
            raise ValueError("bits length must equal the number of qubits")
        assignment: Dict[str, int] = {
            variable.node_name: int(bit) for variable, bit in zip(self.final_variables, bits)
        }
        if noise_branches is not None:
            if len(noise_branches) != len(self.noise_variables):
                raise ValueError("noise_branches length must equal the number of noise channels")
            for variable, branch in zip(self.noise_variables, noise_branches):
                assignment[variable.node_name] = int(branch)
        return assignment

    def amplitude(
        self,
        bits: Sequence[int],
        noise_branches: Optional[Sequence[int]] = None,
        resolver: Optional[ParamResolver] = None,
    ) -> complex:
        """Amplitude of the output bitstring (given noise branch outcomes, if noisy)."""
        if self.noise_variables and noise_branches is None:
            raise ValueError("noisy circuit: a noise branch assignment is required for amplitudes")
        literal_values, constant = self.base_literal_values(resolver)
        assignment = self.assignment_for(bits, noise_branches)
        shortcut = self.apply_evidence(literal_values, assignment)
        if shortcut is not None:
            return shortcut
        return self.arithmetic_circuit.evaluate(literal_values) * constant

    def amplitudes(
        self,
        assignments: np.ndarray,
        noise_branches: Optional[np.ndarray] = None,
        resolver: Optional[ParamResolver] = None,
        chunk_size: int = 1024,
    ) -> np.ndarray:
        """Amplitudes of a batch of output bitstrings in chunked batched passes.

        ``assignments`` is a ``(B, num_qubits)`` bit matrix; for noisy
        circuits ``noise_branches`` is the matching ``(B, num_noise)`` branch
        matrix.  Each chunk of rows costs one batched upward pass over the
        arithmetic circuit, so all ``B`` amplitudes are computed in
        ``ceil(B / chunk_size)`` passes instead of ``B`` scalar ones.  The
        pass itself walks the chunk in cache-sized row blocks (see
        :meth:`ArithmeticCircuit.evaluate_batch`), so ``chunk_size`` bounds
        the literal batch, not the pass's working set.
        """
        assignments = np.atleast_2d(np.asarray(assignments, dtype=np.int64))
        total = assignments.shape[0]
        if assignments.shape[1] != self.num_qubits:
            raise ValueError("assignments must have shape (B, num_qubits)")
        if self.noise_variables and noise_branches is None:
            raise ValueError("noisy circuit: a noise branch assignment is required for amplitudes")
        if noise_branches is not None:
            noise_branches = np.atleast_2d(np.asarray(noise_branches, dtype=np.int64))
            if noise_branches.shape[0] == 1 and total > 1:
                noise_branches = np.broadcast_to(
                    noise_branches, (total, noise_branches.shape[1])
                )
            if noise_branches.shape != (total, len(self.noise_variables)):
                raise ValueError("noise_branches must have shape (B, num_noise_channels)")
        amplitudes = np.empty(total, dtype=complex)
        chunk_size = max(1, int(chunk_size))
        for start in range(0, total, chunk_size):
            stop = min(total, start + chunk_size)
            literal_batch, constant = self.base_literal_values_batch(stop - start, resolver)
            zero_rows = self._final_index.apply_batch(literal_batch, assignments[start:stop])
            if noise_branches is not None:
                zero_rows = zero_rows | self._noise_index.apply_batch(
                    literal_batch, noise_branches[start:stop]
                )
            roots = self.arithmetic_circuit.evaluate_batch(literal_batch)
            roots *= constant
            roots[zero_rows] = 0.0
            amplitudes[start:stop] = roots
        return amplitudes

    def _all_bitstrings(self) -> np.ndarray:
        """The ``(2**n, n)`` bit matrix in basis order (qubit 0 = MSB)."""
        indices = np.arange(2 ** self.num_qubits, dtype=np.int64)
        shifts = np.arange(self.num_qubits - 1, -1, -1, dtype=np.int64)
        return (indices[:, np.newaxis] >> shifts) & 1

    def state_vector(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        """Full final state vector of an ideal circuit (exponential; validation only)."""
        if self.noise_variables:
            raise UnsupportedCircuitError("circuit is noisy; use density_matrix()")
        return self.amplitudes(self._all_bitstrings(), resolver=resolver)

    def _noise_branch_product(self):
        cardinalities = [variable.cardinality for variable in self.noise_variables]
        return itertools.product(*[range(c) for c in cardinalities])

    def density_matrix(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        """Full density matrix, summing over noise branches (validation only)."""
        dim = 2 ** self.num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        bit_matrix = self._all_bitstrings()
        for branches in self._noise_branch_product():
            branch_row = np.asarray(branches, dtype=np.int64)[np.newaxis]
            vector = self.amplitudes(bit_matrix, noise_branches=branch_row, resolver=resolver)
            rho += np.outer(vector, vector.conj())
        return rho

    def probabilities(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        """Exact output measurement distribution (validation only).

        Built on :meth:`amplitudes`: the noisy case sums ``|amplitude|^2``
        per noise branch without materialising the full density matrix.
        """
        if not self.noise_variables:
            return np.abs(self.state_vector(resolver)) ** 2
        dim = 2 ** self.num_qubits
        probabilities = np.zeros(dim, dtype=float)
        bit_matrix = self._all_bitstrings()
        for branches in self._noise_branch_product():
            branch_row = np.asarray(branches, dtype=np.int64)[np.newaxis]
            vector = self.amplitudes(bit_matrix, noise_branches=branch_row, resolver=resolver)
            probabilities += np.abs(vector) ** 2
        return probabilities.clip(min=0.0)

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit(qubits={self.num_qubits}, ac_nodes={self.arithmetic_circuit.num_nodes}, "
            f"noise_vars={len(self.noise_variables)})"
        )


class KnowledgeCompilationSimulator(Simulator):
    """Simulator backend based on knowledge compilation of noisy circuits.

    Parameters
    ----------
    order_method:
        Elimination-ordering heuristic for the decision order
        (``"min_fill"``, ``"min_degree"``, ``"lexicographic"`` or
        ``"hypergraph"``).
    elide_internal:
        Forget intermediate qubit-state variables after compilation (the
        paper's optimization; final states and noise selectors remain
        queryable).
    seed:
        Seed for the backend's default random generator (Gibbs sampling).
    burn_in_sweeps:
        Default number of Gibbs burn-in sweeps per ``sample`` call.
    cache:
        Compiled-circuit cache consulted by :meth:`compile_circuit`.  The
        default is the process-wide shared
        :class:`~repro.knowledge.cache.CompiledCircuitCache`; pass an
        explicit instance for isolation (e.g. one with a disk directory for
        cross-process sweeps) or ``None`` to disable caching entirely.
    """

    name = "knowledge_compilation"

    def __init__(
        self,
        order_method: str = "hypergraph",
        elide_internal: bool = True,
        seed: Optional[int] = None,
        burn_in_sweeps: int = 4,
        cache: object = USE_DEFAULT_CACHE,
    ):
        super().__init__(seed)
        self.order_method = order_method
        self.elide_internal = elide_internal
        self.burn_in_sweeps = burn_in_sweeps
        self._cache_setting = cache
        # Warm Gibbs samplers keyed by compiled-circuit identity, so seedless
        # repeated sample() calls continue their chain ensembles instead of
        # paying the initial-state search and burn-in again; resolver changes
        # re-bind the cached sampler in place.
        self._sampler_cache: "OrderedDict[int, object]" = OrderedDict()
        #: Rewrite stats from the most recent ``compile_circuit(optimize=...)``.
        self.last_optimization: Optional[PipelineStats] = None

    @property
    def cache(self) -> Optional[CompiledCircuitCache]:
        """The compiled-circuit cache in effect (``None`` when disabled)."""
        if self._cache_setting is USE_DEFAULT_CACHE:
            return default_cache()
        return self._cache_setting  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def cache_key_for(
        self,
        circuit: Circuit,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_bits: Optional[Sequence[int]] = None,
        elide_internal: Optional[bool] = None,
    ) -> str:
        """The cache key ``compile_circuit`` would use for this compile.

        Combines the circuit's topology fingerprint with this simulator's
        ordering heuristic and elision setting — everything that determines
        the compiled artifact.
        """
        elide = self.elide_internal if elide_internal is None else elide_internal
        canonical = canonicalize_circuit(circuit, qubit_order=qubit_order, initial_bits=initial_bits)
        return self._cache_key(canonical.topology_key, elide)

    def _cache_key(self, topology_key: str, elide: bool) -> str:
        """The single source of truth for the cache-key format."""
        return f"{topology_key}-{self.order_method}-e{int(elide)}"

    def compile_circuit(
        self,
        circuit: Circuit,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_bits: Optional[Sequence[int]] = None,
        elide_internal: Optional[bool] = None,
        optimize: OptimizeSpec = None,
    ) -> CompiledCircuit:
        """Compile a circuit's *topology* once, for repeated parameterized queries.

        The circuit is first canonicalized: every rotation-family angle —
        symbolic or concrete — is lifted to a canonical symbol, and the
        resulting template is compiled (or fetched from the cache, keyed by
        topology + ordering + elision).  The returned
        :class:`CompiledCircuit` is a lightweight view binding the template
        back to ``circuit``'s own parameter values, so a sweep over twenty
        parameter points compiles exactly once.

        Parameters
        ----------
        circuit:
            The circuit to compile; a :class:`CompiledCircuit` passes through
            unchanged.
        qubit_order:
            Qubit-to-basis-position order (defaults to sorted qubits).
        initial_bits:
            Initial computational-basis bits, baked into the compile.
        elide_internal:
            Per-call override of the constructor's ``elide_internal``.
        optimize:
            ``None``/``False`` (default) compiles the circuit as given;
            ``True``/``"auto"`` runs :func:`repro.circuits.passes.default_pipeline`
            first, a :class:`~repro.circuits.passes.PassPipeline` runs that
            pipeline.  Rewriting happens *before* canonicalization, so the
            optimized symbolic ansatz and its resolved instances still share
            one topology key and one cached compile.  Stats land in
            :attr:`last_optimization`.  Note the light-cone contract: for a
            circuit containing measurement gates, the compiled distribution
            is guaranteed only over the *measured* qubits.

        Returns
        -------
        CompiledCircuit
            A queryable compiled circuit bound to ``circuit``'s parameters.
        """
        if isinstance(circuit, CompiledCircuit):
            return circuit
        pipeline = resolve_pipeline(optimize)
        if pipeline is not None:
            optimized = pipeline.run(circuit)
            circuit = optimized.circuit
            self.last_optimization = optimized.stats
        elide = self.elide_internal if elide_internal is None else elide_internal
        canonical = canonicalize_circuit(circuit, qubit_order=qubit_order, initial_bits=initial_bits)
        cache = self.cache
        if cache is None:
            master = self._compile_template(canonical.template, qubit_order, initial_bits, elide)
        else:
            key = self._cache_key(canonical.topology_key, elide)
            master = cache.lookup(key)
            if master is None:
                master = self._compile_template(
                    canonical.template, qubit_order, initial_bits, elide, cache=cache, key=key
                )
                cache.store(key, master)
        return master.rebound_for(circuit, canonical.bindings, qubit_order)

    def _compile_template(
        self,
        template: Circuit,
        qubit_order: Optional[Sequence[Qubit]],
        initial_bits: Optional[Sequence[int]],
        elide: bool,
        cache: Optional[CompiledCircuitCache] = None,
        key: Optional[str] = None,
    ) -> CompiledCircuit:
        """Run the full pipeline on a canonical template circuit.

        The polynomial front end (Bayesian network + CNF encoding) always
        runs; the exponential d-DNNF compile is skipped when ``cache`` holds
        a disk payload for ``key`` whose encoding fingerprint matches.
        """
        network = circuit_to_bayesnet(template, qubit_order=qubit_order, initial_bits=initial_bits)
        encoding = encode_bayesnet(network)
        fingerprint = _encoding_fingerprint(encoding)

        arithmetic_circuit: Optional[ArithmeticCircuit] = None
        if cache is not None and key is not None:
            payload = cache.load_payload(key)
            if payload is not None and payload.get("fingerprint") == fingerprint:
                candidate = payload.get("arithmetic_circuit")
                if isinstance(candidate, ArithmeticCircuit):
                    arithmetic_circuit = candidate

        if arithmetic_circuit is None:
            compiler = KnowledgeCompiler(order_method=self.order_method)
            state_bits = [bit for bits in encoding.node_bits.values() for bit in bits]
            try:
                root, manager, _stats = compiler.compile(
                    encoding.cnf, decision_variables=state_bits
                )
            except (RecursionError, MemoryError, ValueError) as error:
                raise CompilationError(
                    f"d-DNNF compilation failed for a {len(template.all_qubits())}-qubit "
                    f"circuit ({self.order_method} ordering): {error}"
                ) from error

            if elide:
                elidable: List[int] = []
                finals = set(network.final_node_names)
                for node in network.nodes:
                    if node.kind in ("initial", "qubit") and node.name not in finals:
                        elidable.extend(encoding.bits_of(node.name))
                root = forget(manager, root, elidable)
                keep_vars = sorted(set(encoding.cnf.variables()) - set(elidable))
            else:
                keep_vars = sorted(encoding.cnf.variables())

            root = smooth(manager, root, keep_vars)
            arithmetic_circuit = ArithmeticCircuit(root, encoding.cnf.num_vars)
            if cache is not None and key is not None:
                cache.store_payload(
                    key, {"arithmetic_circuit": arithmetic_circuit, "fingerprint": fingerprint}
                )

        return CompiledCircuit(template, network, encoding, arithmetic_circuit, elide, self.order_method)

    def _ensure_compiled(self, circuit) -> CompiledCircuit:
        if isinstance(circuit, CompiledCircuit):
            return circuit
        return self.compile_circuit(circuit)

    # ------------------------------------------------------------------
    def amplitude(
        self,
        circuit,
        bits: Sequence[int],
        noise_branches: Optional[Sequence[int]] = None,
        resolver: Optional[ParamResolver] = None,
    ) -> complex:
        return self._ensure_compiled(circuit).amplitude(bits, noise_branches, resolver)

    def simulate(
        self,
        circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ) -> StateVectorResult:
        compiled = self._compiled_with_initial_state(circuit, qubit_order, initial_state)
        return StateVectorResult(compiled.qubits, compiled.state_vector(resolver))

    def simulate_density_matrix(
        self,
        circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ) -> DensityMatrixResult:
        compiled = self._compiled_with_initial_state(circuit, qubit_order, initial_state)
        return DensityMatrixResult(compiled.qubits, compiled.density_matrix(resolver))

    def _compiled_with_initial_state(
        self,
        circuit,
        qubit_order: Optional[Sequence[Qubit]],
        initial_state: int,
    ) -> CompiledCircuit:
        """Compile honoring ``initial_state``; the starting state is baked in at compile time."""
        if isinstance(circuit, CompiledCircuit):
            if initial_state != 0:
                raise ValueError(
                    "a CompiledCircuit fixes its initial state at compile time; "
                    "pass initial_bits to compile_circuit instead of initial_state"
                )
            return circuit
        initial_bits = None
        if initial_state:
            num_qubits = len(qubit_order) if qubit_order is not None else circuit.num_qubits
            initial_bits = list(index_to_bits(initial_state, num_qubits))
        return self.compile_circuit(circuit, qubit_order=qubit_order, initial_bits=initial_bits)

    def sample(
        self,
        circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        initial_state: int = 0,
        burn_in_sweeps: Optional[int] = None,
        steps_per_sample: int = 1,
        num_chains: Optional[int] = None,
    ) -> SampleResult:
        """Draw output samples via Gibbs sampling on the compiled arithmetic circuit.

        ``num_chains`` controls the size of the lockstep chain ensemble (see
        :class:`repro.sampling.gibbs.GibbsSampler`); the default lets the
        sampler pick one based on ``repetitions``.  A non-zero
        ``initial_state`` is baked into the compile (same contract as
        :meth:`simulate`); a :class:`CompiledCircuit` input already fixed its
        starting state at compile time and rejects the argument.

        Seedless calls reuse a cached sampler per compiled circuit, so
        repeated sampling continues the warm chain ensemble and skips the
        cold start; when the resolver binding changes (the variational
        loop), the sampler re-binds weights in place and only repeats its
        burn-in rounds.  Passing ``seed`` creates a fresh sampler,
        preserving call-for-call reproducibility.
        """
        from ..sampling.gibbs import GibbsSampler

        if isinstance(circuit, CompiledCircuit):
            if initial_state != 0:
                raise ValueError(
                    "a CompiledCircuit fixes its initial state at compile time; "
                    "pass initial_bits to compile_circuit instead of initial_state"
                )
            compiled = circuit
        else:
            compiled = self._compiled_with_initial_state(circuit, qubit_order, initial_state)
        if seed is not None:
            sampler = GibbsSampler(compiled, resolver=resolver, rng=self._rng(seed))
        else:
            key = id(compiled)
            sampler = self._sampler_cache.get(key)
            if sampler is None or sampler.compiled is not compiled:
                sampler = GibbsSampler(compiled, resolver=resolver, rng=self._rng())
                self._sampler_cache[key] = sampler
                while len(self._sampler_cache) > 8:
                    self._sampler_cache.popitem(last=False)
            else:
                self._sampler_cache.move_to_end(key)
                if compiled._resolver_key(resolver) != compiled._resolver_key(sampler.resolver):
                    # New parameter binding for the same compiled structure
                    # (the variational loop): keep the warm chains, re-bind
                    # weights and let the sampler repeat its burn-in before
                    # recording.
                    sampler.rebind(resolver)
        sweeps = self.burn_in_sweeps if burn_in_sweeps is None else burn_in_sweeps
        return sampler.sample(
            repetitions,
            burn_in_sweeps=sweeps,
            steps_per_sample=steps_per_sample,
            num_chains=num_chains,
        )
