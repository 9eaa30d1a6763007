"""The benchmark's own tests: exact repeats, trace accounting and the manifest."""

import json
import os

import numpy as np
import pytest

from perfbench.spans import COMPILE_SELF_TIME, PER_LAYER, REQUEST_SELF_TIME
from perfbench.workloads import WORKLOADS, basis_bits, empirical, gibbs_units, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTER_UNITS = ("count", "bytes")


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Two shortest traced runs per workload with the same seed, plus the first trace file."""
    pairs = {}
    for name in WORKLOADS:
        path = str(tmp_path_factory.mktemp("trace") / f"{name}.json")
        first = run(name, seed=5, seconds=0.0, trace=True, trace_path=path)
        second = run(name, seed=5, seconds=0.0, trace=True)
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        pairs[name] = (first, second, spans)
    return pairs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_structural_counters_repeat_exactly(traced_pairs, name):
    first, second, _ = traced_pairs[name]
    assert first["correct"] and second["correct"]
    counters = [metric for metric, unit, _ in PER_LAYER if unit in COUNTER_UNITS]
    assert {m: first["metrics"][m][0] for m in counters} == {
        m: second["metrics"][m][0] for m in counters
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_account_for_the_traced_requests(traced_pairs, name):
    report, _, spans = traced_pairs[name]
    requests = sorted({span["request"] for span in spans if isinstance(span["request"], int)})
    counted = set(requests[: WORKLOADS[name](np.random.default_rng(0)).traced_requests])
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    in_requests = [i for i, span in enumerate(spans) if span["request"] in counted]
    covered = set(REQUEST_SELF_TIME) | set(COMPILE_SELF_TIME)
    assert {spans[i]["name"] for i in in_requests} <= covered
    root_seconds = sum(own[i] for i in in_requests) / len(counted)
    assert root_seconds == pytest.approx(
        sum(spans[i]["end"] - spans[i]["start"] for i in in_requests if spans[i]["parent"] < 0)
        / len(counted)
    )
    layer_metrics = set(REQUEST_SELF_TIME.values())
    if name == "cold-compile":
        layer_metrics |= set(COMPILE_SELF_TIME.values())
    reported = sum(report["metrics"][metric][0] for metric in layer_metrics)
    assert reported == pytest.approx(root_seconds)


def test_cache_and_pass_predictions(traced_pairs):
    ideal, noisy, cold = (
        traced_pairs[name][0]["metrics"] for name in ("ideal-loop", "noisy-sample", "cold-compile")
    )
    assert ideal["knowledge.arithmetic_circuit.diff_passes"][0] == 0
    assert ideal["knowledge.arithmetic_circuit.upward_passes"][0] >= 1
    assert noisy["sampling.gibbs.diff_passes_per_shot"][0] > 0
    assert cold["knowledge.arithmetic_circuit.upward_passes"][0] == 0
    for metrics in (ideal, noisy):
        assert (metrics["knowledge.cache.hits"][0], metrics["knowledge.cache.misses"][0]) == (1, 0)
    assert cold["knowledge.cache.hits"][0] == 0 and cold["knowledge.cache.misses"][0] == 6
    assert traced_pairs["cold-compile"][0]["attempted"] == 2


def test_manifest_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == PER_LAYER


def test_empirical_distribution_uses_the_basis_order():
    bits = basis_bits(3)
    assert [int("".join(map(str, row)), 2) for row in bits] == list(range(8))
    assert empirical({"110": 3, "001": 1}, 3).tolist() == [0, 0.25, 0, 0, 0, 0, 0.75, 0]


def test_gibbs_units_count_chains_not_shots():
    assert gibbs_units(64) == pytest.approx(64)
    assert 63 < gibbs_units(1000) < 64


def test_untraced_run_reports_the_manifest_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    report = run("ideal-loop", seed=3, seconds=0.0, trace=False)
    assert report["correct"] and report["attempted"] == 1
    assert [(name, unit) for name, (_, unit) in report["metrics"].items()] == [
        (m["name"], m["unit"]) for m in manifest["end_to_end"]
    ]
    assert all(value > 0 for value, _ in report["metrics"].values())
