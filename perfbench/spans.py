"""In-memory span recorder for the traced benchmark run.

The benchmark does not change the program: it wraps the public functions
and methods at the points where ``repro.api.device``,
``repro.simulator.kc_simulator`` and ``repro.sampling.gibbs`` call them,
and records one span per call.  A span carries its name, start and end
(``time.perf_counter``), the index of the span that was open when it
started (its parent), the request it belongs to and a few counters read at
that boundary.  Spans stay in memory until the run ends and are then
written out once.

``install`` patches the wrappers in and returns the function that takes
them out again; the wrappers record only while ``Tracer.enabled`` is set,
so one process can alternate traced and untraced requests.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Counters = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counters")

    def __init__(self, name: str, start: float, parent: int, request: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counters: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.request: Any = None
        self._stack: List[int] = []
        # ``num_edges`` walks every node, so it is read once per circuit.
        self._edges: Dict[int, Tuple[Any, int]] = {}

    def edges(self, circuit) -> int:
        entry = self._edges.get(id(circuit))
        if entry is None:
            entry = (circuit, circuit.num_edges)
            self._edges[id(circuit)] = entry
        return entry[1]

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[Optional[Span]]:
        """A span opened by the benchmark itself (a request root, a set-up)."""
        if not self.enabled:
            yield None
            return
        if request is not None:
            self.request = request
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def write(self, path: str) -> None:
        records = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "request": span.request,
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)


def _wrap(tracer: Tracer, name: str, function: Callable, counters: Counters) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if counters is not None:
            tracer.spans[index].counters = counters(args, kwargs, result)
        return result

    return wrapper


def _targets(tracer: Tracer) -> List[Tuple[Any, str, str, Counters]]:
    """(owner, attribute, span name, counters) for every wrapped call site."""
    # ``repro.api.device`` the function shadows the module of that name.
    device = importlib.import_module("repro.api.device")
    from repro.knowledge.arithmetic_circuit import ArithmeticCircuit
    from repro.knowledge.compiler import KnowledgeCompiler
    from repro.sampling.gibbs import GibbsSampler
    from repro.simulator import kc_simulator
    from repro.simulator.results import SampleResult

    def pass_counters(args, kwargs, result):
        return {"rows": args[1].shape[0], "edges": tracer.edges(args[0])}

    return [
        (device, "canonicalize_circuit", "circuits.topology.canonicalize", None),
        (kc_simulator, "canonicalize_circuit", "circuits.topology.canonicalize", None),
        (
            kc_simulator,
            "circuit_to_bayesnet",
            "bayesnet.build",
            lambda a, k, network: {"nodes": network.num_nodes},
        ),
        (
            kc_simulator,
            "encode_bayesnet",
            "cnf.encode",
            lambda a, k, encoding: {
                "vars": encoding.cnf.num_vars,
                "clauses": encoding.cnf.num_clauses,
            },
        ),
        (
            KnowledgeCompiler,
            "compile",
            "knowledge.compiler.compile",
            lambda a, k, result: result[2].as_dict(),
        ),
        (kc_simulator, "forget", "knowledge.transform.forget", None),
        (kc_simulator, "smooth", "knowledge.transform.smooth", None),
        (
            ArithmeticCircuit,
            "__init__",
            "knowledge.arithmetic_circuit.build",
            lambda a, k, _: {"circuit": a[0]},
        ),
        (ArithmeticCircuit, "evaluate_batch", "knowledge.arithmetic_circuit.upward", pass_counters),
        (
            ArithmeticCircuit,
            "evaluate_with_derivatives_batch",
            "knowledge.arithmetic_circuit.diff",
            pass_counters,
        ),
        (kc_simulator.CompiledCircuit, "base_literal_values", "simulator.kc_simulator.bind", None),
        (
            kc_simulator.CompiledCircuit,
            "base_literal_values_batch",
            "simulator.kc_simulator.bind",
            None,
        ),
        (
            kc_simulator.CompiledCircuit,
            "probabilities",
            "simulator.kc_simulator.probabilities",
            None,
        ),
        (
            kc_simulator.KnowledgeCompilationSimulator,
            "compile_circuit",
            "simulator.kc_simulator.compile",
            None,
        ),
        (
            kc_simulator.KnowledgeCompilationSimulator,
            "sample",
            "simulator.kc_simulator.sample",
            None,
        ),
        (
            GibbsSampler,
            "sample",
            "sampling.gibbs.sample",
            lambda a, k, result: {"shots": len(result)},
        ),
        (SampleResult, "__init__", "simulator.results.build", None),
        (SampleResult, "bitstring_counts", "simulator.results.build", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch the wrappers in; the returned function restores the originals."""
    saved = []
    for owner, attribute, name, counters in _targets(tracer):
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(tracer, name, original, counters))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall


#: Per-layer metrics in report order: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("api.device.self_s", "s", "lower"),
    ("circuits.topology.canonicalize_s", "s", "lower"),
    ("simulator.kc_simulator.bind_s", "s", "lower"),
    ("simulator.kc_simulator.probabilities_s", "s", "lower"),
    ("simulator.kc_simulator.sample_s", "s", "lower"),
    ("sampling.gibbs.sample_s", "s", "lower"),
    ("sampling.gibbs.diff_passes_per_shot", "count", "lower"),
    ("simulator.results.build_s", "s", "lower"),
    ("knowledge.arithmetic_circuit.upward_passes", "count", "lower"),
    ("knowledge.arithmetic_circuit.upward_rows", "count", "lower"),
    ("knowledge.arithmetic_circuit.upward_s", "s", "lower"),
    ("knowledge.arithmetic_circuit.diff_passes", "count", "lower"),
    ("knowledge.arithmetic_circuit.diff_rows", "count", "lower"),
    ("knowledge.arithmetic_circuit.diff_s", "s", "lower"),
    ("knowledge.arithmetic_circuit.gbps_computed", "GB/s", "higher"),
    ("knowledge.cache.hits", "count", "higher"),
    ("knowledge.cache.misses", "count", "lower"),
    ("simulator.kc_simulator.compile_s", "s", "lower"),
    ("bayesnet.build_s", "s", "lower"),
    ("bayesnet.nodes", "count", "lower"),
    ("cnf.encode_s", "s", "lower"),
    ("cnf.vars", "count", "lower"),
    ("cnf.clauses", "count", "lower"),
    ("knowledge.compiler.compile_s", "s", "lower"),
    ("knowledge.compiler.decisions", "count", "lower"),
    ("knowledge.compiler.cache_hits", "count", "higher"),
    ("knowledge.compiler.component_splits", "count", "higher"),
    ("knowledge.transform.forget_s", "s", "lower"),
    ("knowledge.transform.smooth_s", "s", "lower"),
    ("knowledge.arithmetic_circuit.build_s", "s", "lower"),
    ("knowledge.arithmetic_circuit.nodes", "count", "lower"),
    ("knowledge.arithmetic_circuit.edges", "count", "lower"),
    ("knowledge.arithmetic_circuit.size_bytes", "bytes", "lower"),
    ("statevector.sample_s", "s", "lower"),
    ("densitymatrix.sample_s", "s", "lower"),
    ("trajectory.sample_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: Span name -> self-time metric, for spans read per request.
REQUEST_SELF_TIME = {
    "api.device": "api.device.self_s",
    "circuits.topology.canonicalize": "circuits.topology.canonicalize_s",
    "simulator.kc_simulator.bind": "simulator.kc_simulator.bind_s",
    "simulator.kc_simulator.probabilities": "simulator.kc_simulator.probabilities_s",
    "simulator.kc_simulator.sample": "simulator.kc_simulator.sample_s",
    "sampling.gibbs.sample": "sampling.gibbs.sample_s",
    "simulator.results.build": "simulator.results.build_s",
    "knowledge.arithmetic_circuit.upward": "knowledge.arithmetic_circuit.upward_s",
    "knowledge.arithmetic_circuit.diff": "knowledge.arithmetic_circuit.diff_s",
}

#: Span name -> self-time metric, for spans read per compiled instance set.
COMPILE_SELF_TIME = {
    "simulator.kc_simulator.compile": "simulator.kc_simulator.compile_s",
    "bayesnet.build": "bayesnet.build_s",
    "cnf.encode": "cnf.encode_s",
    "knowledge.compiler.compile": "knowledge.compiler.compile_s",
    "knowledge.transform.forget": "knowledge.transform.forget_s",
    "knowledge.transform.smooth": "knowledge.transform.smooth_s",
    "knowledge.arithmetic_circuit.build": "knowledge.arithmetic_circuit.build_s",
}

#: Reference backends timed on the same inputs: span name -> metric.
REFERENCE_TIME = {
    "statevector.sample": "statevector.sample_s",
    "densitymatrix.sample": "densitymatrix.sample_s",
    "trajectory.sample": "trajectory.sample_s",
}

#: Bytes one row moves along one edge in one direction (a complex128 value).
EDGE_BYTES = 16

_PASSES = {
    "knowledge.arithmetic_circuit.upward": "upward",
    "knowledge.arithmetic_circuit.diff": "diff",
}


def layer_metrics(
    tracer: Tracer, requests: List[Any], compile_sets: List[Any]
) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Request-path layers are means per traced request (ids ``requests``);
    compile-path layers are means per compiled instance set (request ids
    ``compile_sets``: the traced set-up on the sampling workloads, the
    traced requests on ``cold-compile``).  Reference backends are means per
    timed call.  ``trace.overhead_frac`` is left to the caller.
    """
    spans = tracer.spans
    own = tracer.self_times()
    request_ids = set(requests)
    compile_ids = set(compile_sets)
    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    roots: List[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent < 0 else roots[span.parent])
    request_roots = {
        i for i, span in enumerate(spans) if span.parent < 0 and span.request in request_ids
    }
    compiled_roots = set()
    pass_bytes = 0.0
    pass_seconds = 0.0
    gibbs_shots = 0
    reference_calls: Dict[str, int] = {}

    for index, span in enumerate(spans):
        if span.request in request_ids:
            metric = REQUEST_SELF_TIME.get(span.name)
            if metric is not None:
                metrics[metric] += own[index] / len(request_ids)
            kind = _PASSES.get(span.name)
            if kind is not None:
                rows = span.counters["rows"]
                prefix = "knowledge.arithmetic_circuit." + kind
                metrics[prefix + "_passes"] += 1 / len(request_ids)
                metrics[prefix + "_rows"] += rows / len(request_ids)
                directions = 2 if kind == "diff" else 1
                pass_bytes += span.counters["edges"] * rows * EDGE_BYTES * directions
                pass_seconds += own[index]
            if span.name == "sampling.gibbs.sample":
                gibbs_shots += span.counters["shots"]
            if span.name == "knowledge.compiler.compile":
                compiled_roots.add(roots[index])
        if span.request in compile_ids:
            metric = COMPILE_SELF_TIME.get(span.name)
            if metric is not None:
                metrics[metric] += own[index] / len(compile_ids)
            counters = span.counters
            share = 1 / len(compile_ids)
            if span.name == "bayesnet.build":
                metrics["bayesnet.nodes"] += counters["nodes"] * share
            elif span.name == "cnf.encode":
                metrics["cnf.vars"] += counters["vars"] * share
                metrics["cnf.clauses"] += counters["clauses"] * share
            elif span.name == "knowledge.compiler.compile":
                for key in ("decisions", "cache_hits", "component_splits"):
                    metrics["knowledge.compiler." + key] += counters[key] * share
            elif span.name == "knowledge.arithmetic_circuit.build":
                circuit = counters["circuit"]
                metrics["knowledge.arithmetic_circuit.nodes"] += circuit.num_nodes * share
                metrics["knowledge.arithmetic_circuit.edges"] += tracer.edges(circuit) * share
                metrics["knowledge.arithmetic_circuit.size_bytes"] += circuit.size_bytes() * share
        metric = REFERENCE_TIME.get(span.name)
        if metric is not None:
            metrics[metric] += span.duration
            reference_calls[metric] = reference_calls.get(metric, 0) + 1

    for metric, calls in reference_calls.items():
        metrics[metric] /= calls
    if pass_seconds > 0:
        metrics["knowledge.arithmetic_circuit.gbps_computed"] = pass_bytes / pass_seconds / 1e9
    if gibbs_shots:
        metrics["sampling.gibbs.diff_passes_per_shot"] = (
            metrics["knowledge.arithmetic_circuit.diff_passes"] * len(request_ids) / gibbs_shots
        )
    metrics["knowledge.cache.misses"] = len(compiled_roots & request_roots) / len(request_ids)
    metrics["knowledge.cache.hits"] = len(request_roots - compiled_roots) / len(request_ids)
    return metrics
