"""Arithmetic circuits: evaluating and differentiating compiled NNF.

A smooth, deterministic, decomposable NNF evaluated over a semiring —
literal leaves replaced by numeric values, AND by multiplication, OR by
addition — is the paper's arithmetic circuit (Figure 5).  Two passes matter:

* the **upward pass** computes the weighted model count, which in the
  quantum encoding is the amplitude of the evidence (Section 3.3.1);
* the **downward pass** computes the partial derivative of the root with
  respect to every leaf (Darwiche's differential approach), which yields the
  amplitude of every single-flip neighbour of the current assignment in one
  sweep — exactly what the Gibbs sampler needs (Section 3.3.2).

Values are complex (quantum amplitudes); noise probabilities embed as the
real entries of Kraus operators.  Both passes are vectorised: nodes are
grouped by topological level and evaluated with ``reduceat``/scatter-add
operations, so repeated queries (the variational-algorithm use case) cost a
handful of NumPy calls per level rather than a Python loop per node.

Batch axis
----------
Both passes additionally accept a *batch* of literal bindings:
:meth:`ArithmeticCircuit.evaluate_batch` and
:meth:`ArithmeticCircuit.evaluate_with_derivatives_batch` take literal values
of shape ``(B, num_vars + 1, 2)`` and run the same level-grouped passes over
``(num_nodes, rows)`` value/gradient arrays.  Amortising the per-level
dispatch overhead across many simultaneous queries is what makes many-chain
Gibbs sampling and full state-vector reconstruction cheap (one batched sweep
instead of ``B`` scalar sweeps).  The scalar :meth:`evaluate` /
:meth:`evaluate_with_derivatives` API is kept as a ``B = 1`` wrapper.

The upward-only pass (:meth:`evaluate_batch`) has its own kernel: AND nodes
are a plain ``multiply.reduceat`` (no zero bookkeeping, which only the
downward pass reads), and rows are taken in blocks of :attr:`block_rows`, so
that the widest level's gathered child array stays within
:data:`UPWARD_BLOCK_BYTES` and in cache.  The derivative pass keeps the
whole batch and the bookkeeping.  Node-sized scratch arrays are cached in a
per-width workspace so repeated calls (the variational loop, Gibbs sweeps)
do not churn allocations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .nnf import (
    AndNode,
    FalseNode,
    LiteralNode,
    NNFNode,
    OrNode,
    TrueNode,
    topological_nodes,
)

NODE_FALSE = 0
NODE_TRUE = 1
NODE_LITERAL = 2
NODE_AND = 3
NODE_OR = 4

#: Byte budget of the widest level group's gathered child array
#: (edges x rows x 16 B) in the upward-only kernel; it fixes the row block.
UPWARD_BLOCK_BYTES = 1 << 20


class _ScatterPlan:
    """Duplicate-safe segment-sum accumulation into a target array.

    Replaces ``np.add.at`` (whose unbuffered element-wise scatter costs
    O(entries * batch) and would swallow the batch-axis win): contributions
    are permuted so equal target indices are adjacent, summed per target with
    one ``reduceat``, and added with a plain fancy-indexed ``+=`` — safe
    because the surviving indices are unique.
    """

    __slots__ = ("permutation", "unique_targets", "segment_offsets")

    def __init__(self, target_indices: np.ndarray):
        target_indices = np.asarray(target_indices, dtype=np.int64)
        self.permutation = np.argsort(target_indices, kind="stable")
        ordered = target_indices[self.permutation]
        if len(ordered):
            boundaries = np.flatnonzero(
                np.concatenate(([True], ordered[1:] != ordered[:-1]))
            )
        else:
            boundaries = np.zeros(0, dtype=np.int64)
        self.unique_targets = ordered[boundaries]
        self.segment_offsets = boundaries

    def add_to(self, target: np.ndarray, contributions: np.ndarray) -> None:
        """``target[indices] += contributions`` along axis 0, duplicates summed."""
        if not len(self.unique_targets):
            return
        sums = np.add.reduceat(
            contributions[self.permutation], self.segment_offsets, axis=0
        )
        target[self.unique_targets] += sums


class _LevelGroup:
    """All AND (or all OR) nodes sharing one topological level."""

    __slots__ = (
        "is_and",
        "node_positions",
        "child_indices",
        "offsets",
        "arities",
        "parent_per_edge",
        "scatter",
    )

    def __init__(self, is_and: bool, node_positions: List[int], children: List[List[int]]):
        self.is_and = is_and
        self.node_positions = np.asarray(node_positions, dtype=np.int64)
        self.arities = np.asarray([len(c) for c in children], dtype=np.int64)
        flat: List[int] = []
        offsets: List[int] = []
        cursor = 0
        for child_list in children:
            offsets.append(cursor)
            flat.extend(child_list)
            cursor += len(child_list)
        self.child_indices = np.asarray(flat, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        # Absolute node position of each edge's parent, for direct gathers in
        # the downward pass.
        self.parent_per_edge = np.repeat(self.node_positions, self.arities)
        self.scatter = _ScatterPlan(self.child_indices)


class ArithmeticCircuit:
    """A flattened, topologically ordered, vectorised arithmetic circuit.

    Evaluation reuses per-width scratch buffers held on the instance,
    so a circuit object is stateful and not safe for concurrent evaluation
    from multiple threads.
    """

    def __init__(self, root: NNFNode, num_vars: int):
        self.num_vars = int(num_vars)
        nodes = topological_nodes(root)
        index_of: Dict[int, int] = {node.node_id: i for i, node in enumerate(nodes)}
        self.root_index = index_of[root.node_id]
        self.num_nodes = len(nodes)

        self.node_types: List[int] = []
        self.literals: List[int] = []
        self.children: List[List[int]] = []
        levels = np.zeros(self.num_nodes, dtype=np.int64)

        literal_positions: List[int] = []
        literal_vars: List[int] = []
        literal_signs: List[int] = []
        true_positions: List[int] = []
        false_positions: List[int] = []

        for position, node in enumerate(nodes):
            if isinstance(node, FalseNode):
                self.node_types.append(NODE_FALSE)
                self.literals.append(0)
                self.children.append([])
                false_positions.append(position)
            elif isinstance(node, TrueNode):
                self.node_types.append(NODE_TRUE)
                self.literals.append(0)
                self.children.append([])
                true_positions.append(position)
            elif isinstance(node, LiteralNode):
                self.node_types.append(NODE_LITERAL)
                self.literals.append(node.literal)
                self.children.append([])
                literal_positions.append(position)
                literal_vars.append(abs(node.literal))
                literal_signs.append(1 if node.literal > 0 else 0)
            elif isinstance(node, (AndNode, OrNode)):
                child_positions = [index_of[c.node_id] for c in node.children()]
                self.node_types.append(NODE_AND if isinstance(node, AndNode) else NODE_OR)
                self.literals.append(0)
                self.children.append(child_positions)
                levels[position] = 1 + max(levels[c] for c in child_positions)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown NNF node type: {type(node)}")

        self._literal_positions = np.asarray(literal_positions, dtype=np.int64)
        self._literal_vars = np.asarray(literal_vars, dtype=np.int64)
        self._literal_signs = np.asarray(literal_signs, dtype=np.int64)
        self._true_positions = np.asarray(true_positions, dtype=np.int64)
        self._false_positions = np.asarray(false_positions, dtype=np.int64)
        # Flattened (var, sign) slot per literal leaf, for the downward scatter.
        self._literal_scatter = _ScatterPlan(
            self._literal_vars * 2 + self._literal_signs
        )

        # Group internal nodes by (level, type) for vectorised passes.
        grouped: Dict[Tuple[int, int], Tuple[List[int], List[List[int]]]] = {}
        for position in range(self.num_nodes):
            node_type = self.node_types[position]
            if node_type not in (NODE_AND, NODE_OR):
                continue
            key = (int(levels[position]), node_type)
            bucket = grouped.setdefault(key, ([], []))
            bucket[0].append(position)
            bucket[1].append(self.children[position])
        self._groups: List[_LevelGroup] = [
            _LevelGroup(node_type == NODE_AND, positions, children)
            for (level, node_type), (positions, children) in sorted(grouped.items())
        ]

        # Row block of the upward-only kernel: as many rows as keep the widest
        # level group's gathered child array within UPWARD_BLOCK_BYTES.
        self.num_levels = int(levels.max()) if self.num_nodes else 0
        self.widest_level_edges = max(
            (len(group.child_indices) for group in self._groups), default=0
        )
        self.block_rows = max(
            1, UPWARD_BLOCK_BYTES // (16 * max(1, self.widest_level_edges))
        )

        # Per-width scratch arrays (small LRU), managed by _workspace_for.
        self._workspaces: "OrderedDict[int, Dict[str, np.ndarray]]" = OrderedDict()

    # ------------------------------------------------------------------
    # Structural metrics (used by Figure 6 / Table 4 / Table 6 experiments)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return sum(len(c) for c in self.children)

    @property
    def num_literal_leaves(self) -> int:
        return len(self._literal_positions)

    def size_bytes(self) -> int:
        """Approximate serialized size (length of the c2d-style .nnf text)."""
        return len(self.to_nnf_text().encode("utf-8"))

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "literal_leaves": self.num_literal_leaves,
            "size_bytes": self.size_bytes(),
            "levels": self.num_levels,
            "widest_level_edges": self.widest_level_edges,
            "block_rows": self.block_rows,
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def default_literal_values(self) -> np.ndarray:
        """Array of literal values, all ones: shape (num_vars + 1, 2).

        Index ``[v, 1]`` holds the value of literal ``+v`` and ``[v, 0]`` the
        value of ``-v``; row 0 is unused.
        """
        return np.ones((self.num_vars + 1, 2), dtype=complex)

    def _workspace_for(self, batch: int) -> Dict[str, np.ndarray]:
        """Node-sized scratch arrays for ``batch`` rows at a time.

        The ``(num_nodes, rows)`` value/gradient arrays dominate the
        allocation cost of a pass; they are cached per width (a small LRU, so
        an interleaved Gibbs batch does not evict the hot buffer) and the hot
        loops (variational re-binding, Gibbs sweeps, chunked state-vector
        reconstruction) reuse the same buffers call after call.  The
        derivative pass asks for the whole batch, the upward-only kernel for
        at most one row block.  The gradients buffer is allocated lazily so
        upward-only callers pay for one buffer, not two.
        """
        workspace = self._workspaces.get(batch)
        if workspace is None:
            workspace = {"values": np.empty((self.num_nodes, batch), dtype=complex)}
            self._workspaces[batch] = workspace
            while len(self._workspaces) > 3:
                self._workspaces.popitem(last=False)
        else:
            self._workspaces.move_to_end(batch)
        return workspace

    def _gradients_buffer(self, batch: int) -> np.ndarray:
        workspace = self._workspace_for(batch)
        gradients = workspace.get("gradients")
        if gradients is None:
            gradients = np.empty((self.num_nodes, batch), dtype=complex)
            workspace["gradients"] = gradients
        return gradients

    @staticmethod
    def _as_batch(literal_values: np.ndarray) -> np.ndarray:
        literal_values = np.asarray(literal_values)
        if literal_values.ndim != 3:
            raise ValueError(
                "batched literal values must have shape (B, num_vars + 1, 2); "
                f"got shape {literal_values.shape}"
            )
        return literal_values

    def _upward_batch(
        self, literal_values: np.ndarray, values: np.ndarray
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
        """Bottom-up pass over a ``(B, num_vars + 1, 2)`` binding batch.

        Fills the ``(num_nodes, B)`` ``values`` array in place and returns the
        per-AND-group zero bookkeeping needed by the downward pass: the zero
        counts and zero-masked products per node, plus the per-edge child zero
        mask and the gathered child values with zeros replaced by one (reused
        by the downward pass as a division-safe denominator).
        """
        self._fill_leaves(literal_values, values)
        and_bookkeeping: List[
            Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
        ] = []
        for group in self._groups:
            gathered = values[group.child_indices]
            if group.is_and:
                zero_mask = gathered == 0
                zero_counts = np.add.reduceat(
                    zero_mask.astype(np.int32), group.offsets, axis=0
                )
                gathered[zero_mask] = 1.0  # fresh gather copy; safe to clean in place
                nonzero_product = np.multiply.reduceat(gathered, group.offsets, axis=0)
                values[group.node_positions] = np.where(zero_counts > 0, 0.0 + 0j, nonzero_product)
                and_bookkeeping.append((zero_counts, nonzero_product, zero_mask, gathered))
            else:
                values[group.node_positions] = np.add.reduceat(gathered, group.offsets, axis=0)
                and_bookkeeping.append(None)
        return and_bookkeeping

    def _fill_leaves(self, literal_values: np.ndarray, values: np.ndarray) -> None:
        """Write the constant and literal leaves of ``values`` (num_nodes, rows).

        Only leaves are written: both sweeps overwrite every internal node, so
        a reused workspace needs no clearing.
        """
        if len(self._false_positions):
            values[self._false_positions] = 0.0
        if len(self._true_positions):
            values[self._true_positions] = 1.0
        if len(self._literal_positions):
            values[self._literal_positions] = literal_values[
                :, self._literal_vars, self._literal_signs
            ].T

    def _upward_block(self, literal_values: np.ndarray, values: np.ndarray) -> None:
        """Upward-only pass of one row block into ``values`` (num_nodes, rows).

        An AND node is one ``multiply.reduceat`` over its children: a zero
        child already makes the product zero, so unlike :meth:`_upward_batch`
        no zero bookkeeping is built.
        """
        self._fill_leaves(literal_values, values)
        for group in self._groups:
            reduce = np.multiply.reduceat if group.is_and else np.add.reduceat
            values[group.node_positions] = reduce(
                values[group.child_indices], group.offsets, axis=0
            )

    def evaluate_batch(self, literal_values: np.ndarray) -> np.ndarray:
        """Batched upward pass.

        ``literal_values`` has shape ``(B, num_vars + 1, 2)``; returns the
        ``(B,)`` array of weighted model counts.  One call is one upward pass
        of ``B`` rows, run in row blocks of :attr:`block_rows` so that each
        level's gathered child array stays within ``UPWARD_BLOCK_BYTES``
        (cache-resident); the workspace is sized by the block, not by ``B``.
        Roots compare equal (``==``) to those of
        :meth:`evaluate_with_derivatives_batch`: the same products in the same
        order, where only the sign of an exact zero may differ.
        """
        literal_values = self._as_batch(literal_values)
        batch = literal_values.shape[0]
        roots = np.empty(batch, dtype=complex)
        if batch == 0:
            return roots
        block = self.block_rows
        buffer = self._workspace_for(min(batch, block))["values"]
        for start in range(0, batch, block):
            stop = min(batch, start + block)
            values = buffer[:, : stop - start]
            self._upward_block(literal_values[start:stop], values)
            roots[start:stop] = values[self.root_index]
        return roots

    def evaluate_with_derivatives_batch(
        self, literal_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched upward + downward pass.

        Returns ``(root_values, derivatives)`` where ``root_values`` has
        shape ``(B,)`` and ``derivatives`` has the same shape as
        ``literal_values`` and holds the partial derivative of each root with
        respect to each literal leaf value.
        """
        literal_values = self._as_batch(literal_values)
        batch = literal_values.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=complex), np.zeros_like(literal_values, dtype=complex)
        values = self._workspace_for(batch)["values"]
        gradients = self._gradients_buffer(batch)
        and_bookkeeping = self._upward_batch(literal_values, values)

        gradients.fill(0.0)
        gradients[self.root_index] = 1.0
        for group_index in range(len(self._groups) - 1, -1, -1):
            group = self._groups[group_index]
            per_edge_gradient = gradients[group.parent_per_edge]
            if group.is_and:
                zero_counts, nonzero_product, zero_mask, cleaned_children = (
                    and_bookkeeping[group_index]
                )
                zero_counts_per_edge = np.repeat(zero_counts, group.arities, axis=0)
                nonzero_product_per_edge = np.repeat(nonzero_product, group.arities, axis=0)
                # Product of the node's *other* children:
                #  - no zero children: nonzero_product / child_value
                #  - exactly one zero child: nonzero_product for that child, 0 for others
                #  - two or more zero children: 0 everywhere.
                # ``cleaned_children`` has the zeros replaced by one, so the
                # division needs no masking; masked slots are discarded below.
                ratio = nonzero_product_per_edge / cleaned_children
                others_product = np.where(
                    zero_counts_per_edge == 0,
                    ratio,
                    np.where(
                        (zero_counts_per_edge == 1) & zero_mask,
                        nonzero_product_per_edge,
                        0.0 + 0j,
                    ),
                )
                contributions = per_edge_gradient * others_product
            else:
                contributions = per_edge_gradient
            group.scatter.add_to(gradients, contributions)

        # Scatter leaf gradients back to (var, sign) slots; duplicate literal
        # leaves for the same (var, sign) accumulate, matching the scalar path.
        leaf_derivatives = np.zeros(((self.num_vars + 1) * 2, batch), dtype=complex)
        if len(self._literal_positions):
            self._literal_scatter.add_to(leaf_derivatives, gradients[self._literal_positions])
        derivatives = np.ascontiguousarray(
            leaf_derivatives.reshape(self.num_vars + 1, 2, batch).transpose(2, 0, 1)
        )
        return values[self.root_index].copy(), derivatives

    def evaluate(self, literal_values: np.ndarray) -> complex:
        """Upward pass: the weighted model count under ``literal_values``.

        A ``B = 1`` wrapper over :meth:`evaluate_batch`.
        """
        roots = self.evaluate_batch(np.asarray(literal_values)[np.newaxis])
        return complex(roots[0])

    def evaluate_with_derivatives(
        self, literal_values: np.ndarray
    ) -> Tuple[complex, np.ndarray]:
        """Upward + downward pass.

        Returns ``(root_value, derivatives)`` where ``derivatives`` has the
        same shape as ``literal_values`` and holds the partial derivative of
        the root with respect to each literal leaf value.  A ``B = 1``
        wrapper over :meth:`evaluate_with_derivatives_batch`.
        """
        roots, derivatives = self.evaluate_with_derivatives_batch(
            np.asarray(literal_values)[np.newaxis]
        )
        return complex(roots[0]), derivatives[0]

    # ------------------------------------------------------------------
    # Pickling (persistent compiled-circuit cache)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict:
        """Pickle everything but the per-width scratch buffers.

        Workspaces are pure caches (and can be hundreds of megabytes for
        large batch sizes); a restored circuit re-grows them lazily on first
        evaluation.
        """
        state = dict(self.__dict__)
        state["_workspaces"] = None
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._workspaces = OrderedDict()

    # ------------------------------------------------------------------
    # Serialisation (c2d-compatible .nnf text)
    # ------------------------------------------------------------------
    def to_nnf_text(self) -> str:
        lines = [f"nnf {self.num_nodes} {self.num_edges} {self.num_vars}"]
        for index in range(self.num_nodes):
            node_type = self.node_types[index]
            if node_type == NODE_FALSE:
                lines.append("O 0 0")
            elif node_type == NODE_TRUE:
                lines.append("A 0")
            elif node_type == NODE_LITERAL:
                lines.append(f"L {self.literals[index]}")
            elif node_type == NODE_AND:
                children = self.children[index]
                lines.append("A " + " ".join(str(c) for c in [len(children)] + children))
            else:
                children = self.children[index]
                lines.append("O 0 " + " ".join(str(c) for c in [len(children)] + children))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"ArithmeticCircuit(nodes={self.num_nodes}, edges={self.num_edges}, vars={self.num_vars})"
