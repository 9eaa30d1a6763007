"""The benchmark gate in ``tools/check_bench_trajectory.py``.

Drives ``main()`` on temporary ``BENCH_all.json`` artifacts: each bound
sits where its default says, CI's environment values relax exactly the
bounds they name, a disabled (non-positive) bound fails, and a partial
artifact cannot pass.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench_trajectory", REPO_ROOT / "tools" / "check_bench_trajectory.py"
)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

#: Every metric comfortably inside its default bound.
PASSING_METRICS = {
    "api_speedup": 60.0,
    "sweep_speedup": 25.0,
    "stabilizer_seconds": 0.5,
    "optimizer_speedup": 3.5,
    "robustness_overhead": 0.05,
    "cost_routing_accuracy": 1.0,
}


@pytest.fixture(autouse=True)
def _no_bench_env(monkeypatch):
    for env, _default, _kind in check.GATES.values():
        monkeypatch.delenv(env, raising=False)


def _artifact(tmp_path, sections=check.SECTIONS, **overrides):
    payload = {"benchmark": "bench_all", "schema_version": 1}
    payload.update({section: {} for section in sections})
    payload["metrics"] = {**PASSING_METRICS, **overrides}
    path = tmp_path / "BENCH_all.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _run(path, capsys):
    code = check.main(["--committed", str(path)])
    return code, capsys.readouterr().err


def test_passing_artifact(tmp_path, capsys):
    assert _run(_artifact(tmp_path), capsys) == (0, "")


def test_gates_match_table():
    assert {metric: gate[1:] for metric, gate in check.GATES.items()} == {
        "api_speedup": (3.0, "min"),
        "sweep_speedup": (5.0, "min"),
        "stabilizer_seconds": (1.0, "max"),
        "optimizer_speedup": (1.25, "min"),
        "robustness_overhead": (0.10, "max"),
        "cost_routing_accuracy": (0.80, "min"),
    }


@pytest.mark.parametrize(
    "metric, value, env, ci_value",
    [
        ("sweep_speedup", 4.99, "BENCH_SWEEP_MIN_SPEEDUP", "3.0"),
        ("stabilizer_seconds", 1.01, "BENCH_STABILIZER_MAX_SECONDS", None),
        ("robustness_overhead", 0.11, "BENCH_ROBUSTNESS_MAX_OVERHEAD", "0.60"),
    ],
)
def test_value_just_past_default_fails(
    tmp_path, capsys, monkeypatch, metric, value, env, ci_value
):
    path = _artifact(tmp_path, **{metric: value})
    code, err = _run(path, capsys)
    assert code == 1 and metric in err and env in err
    if ci_value is None:
        # CI keeps this bound at its default; nothing relaxes it.
        return
    monkeypatch.setenv(env, ci_value)
    assert _run(path, capsys) == (0, "")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_disabled_gate_is_rejected(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("BENCH_ROBUSTNESS_MAX_OVERHEAD", value)
    code, err = _run(_artifact(tmp_path), capsys)
    assert code == 1 and "gate disabled" in err


def test_missing_section_is_rejected(tmp_path, capsys):
    path = _artifact(tmp_path, sections=check.SECTIONS[:-1])
    code, err = _run(path, capsys)
    assert code == 1 and "missing section 'cost_routing'" in err


def test_missing_metric_is_rejected(tmp_path, capsys):
    path = _artifact(tmp_path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["metrics"]["api_speedup"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, err = _run(path, capsys)
    assert code == 1 and "api_speedup" in err


def test_fresh_artifact_is_gated_too(tmp_path, capsys):
    committed = _artifact(tmp_path)
    fresh = tmp_path / "fresh.json"
    payload = json.loads(committed.read_text(encoding="utf-8"))
    payload["metrics"]["api_speedup"] = 2.0
    fresh.write_text(json.dumps(payload), encoding="utf-8")
    code = check.main(["--committed", str(committed), "--fresh", str(fresh)])
    captured = capsys.readouterr()
    assert code == 1
    assert "fresh: api_speedup = 2.0 below floor 3.0" in captured.err
    assert "committed" not in captured.err
    assert "api_speedup" in captured.out  # the drift table


def test_committed_artifact_passes_under_ci_env(capsys, monkeypatch):
    """The committed artifact must pass the bounds CI applies to it."""
    monkeypatch.setenv("BENCH_SWEEP_MIN_SPEEDUP", "3.0")
    monkeypatch.setenv("BENCH_ROBUSTNESS_MAX_OVERHEAD", "0.60")
    assert check.main([]) == 0
