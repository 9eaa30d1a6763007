"""Fault-injection tests: retries, timeouts, worker crashes, memory budgets.

The robustness contract of the fault-tolerant execution engine:

* transient failures, SIGKILLed workers and stuck items retry up to the
  :class:`~repro.api.faults.RetryPolicy`'s budget, and a faulted run
  converges to results **bit-identical** to a fault-free one (retried items
  re-run with their original ``seed + index``);
* a per-item timeout reaps the stuck worker and surfaces a retryable
  :class:`~repro.errors.JobTimeoutError`;
* ``on_error="partial"`` returns the successful rows and records terminal
  failures as :class:`~repro.api.faults.ItemFailure` entries;
* memory budgets reject (or, under auto routing, downgrade) dense items
  *before* any allocation.
"""

import numpy as np
import pytest

from repro import (
    CNOT,
    Circuit,
    FaultInjector,
    H,
    JobError,
    LineQubit,
    MemoryBudgetError,
    RetryPolicy,
    Rx,
    TransientError,
    depolarize,
    device,
    measure,
)
from repro.api import scheduler
from repro.api.faults import DEFAULT_RETRYABLE, NO_RETRY, ItemFailure
from repro.errors import (
    BackendCapabilityError,
    InvalidRequestError,
    JobTimeoutError,
    UnsupportedCircuitError,
    WorkerCrashedError,
)

RETRY_FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _ghz(n=3):
    qubits = LineQubit.range(n)
    ops = [H(qubits[0])]
    ops += [CNOT(qubits[i], qubits[i + 1]) for i in range(n - 1)]
    ops.append(measure(*qubits))
    return Circuit(ops)


def _rows_equal(a, b):
    return all(
        np.array_equal(
            np.asarray(a[i]["samples"].samples), np.asarray(b[i]["samples"].samples)
        )
        for i in range(len(a))
    )


def _flaky_task(payload):
    if payload.get("attempt", 0) < payload.get("fail_attempts", 0):
        raise TransientError(f"flaky (attempt {payload.get('attempt', 0)})")
    return [(payload["index"], payload["value"])]


def _deterministic_failure(payload):
    raise UnsupportedCircuitError("bad circuit, every time")


class TestRetryPolicy:
    def test_default_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientError("x"))
        assert policy.is_retryable(WorkerCrashedError("x"))
        assert policy.is_retryable(JobTimeoutError("x"))
        assert not policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(BackendCapabilityError("x"))

    def test_custom_retryable_classes(self):
        policy = RetryPolicy(retryable=(ValueError,))
        assert policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(TransientError("x"))

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.0
        )
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert delays[3] == delays[4] == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        first = policy.delay(1, key="item-3")
        assert first == policy.delay(1, key="item-3")
        assert first != policy.delay(1, key="item-4")
        assert 0.1 <= first <= 0.15

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_no_retry_policy(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.delay(1) == 0.0

    def test_default_retryable_tuple(self):
        assert TransientError in DEFAULT_RETRYABLE
        assert WorkerCrashedError in DEFAULT_RETRYABLE
        assert JobTimeoutError in DEFAULT_RETRYABLE


class TestSchedulerRetries:
    def test_transient_failures_retry_inline(self):
        tasks = [
            (_flaky_task, {"index": i, "value": i * i, "fail_attempts": i % 3}, (i,), f"item-{i}")
            for i in range(5)
        ]
        job = scheduler.submit(tasks, retry=RETRY_FAST)
        assert job.status() == scheduler.DONE
        assert job.result() == [0, 1, 4, 9, 16]
        assert job.failures() == []

    def test_transient_failures_retry_pooled(self):
        tasks = [
            (_flaky_task, {"index": i, "value": i, "fail_attempts": 1 if i % 2 else 0}, (i,), f"item-{i}")
            for i in range(6)
        ]
        job = scheduler.submit(tasks, jobs=2, retry=RETRY_FAST)
        assert job.result(timeout=60) == list(range(6))

    def test_exhausted_retries_aggregate_failures(self):
        tasks = [
            (_flaky_task, {"index": 0, "value": 0, "fail_attempts": 0}, (0,), "item-0"),
            (_flaky_task, {"index": 1, "value": 1, "fail_attempts": 99}, (1,), "item-1"),
        ]
        job = scheduler.submit(tasks, retry=RETRY_FAST)
        assert job.status() == scheduler.FAILED
        with pytest.raises(JobError) as excinfo:
            job.result()
        assert excinfo.value.failures
        failure = excinfo.value.failures[0]
        assert isinstance(failure, ItemFailure)
        assert failure.indices == (1,)
        assert failure.attempts == RETRY_FAST.max_attempts
        assert isinstance(failure.error, TransientError)

    def test_deterministic_errors_never_retry(self):
        tasks = [(_deterministic_failure, {"index": 0}, (0,), "item-0")]
        job = scheduler.submit(tasks, retry=RETRY_FAST)
        with pytest.raises(JobError) as excinfo:
            job.result()
        assert excinfo.value.failures[0].attempts == 1

    def test_partial_returns_successes_and_records_failures(self):
        tasks = [
            (_flaky_task, {"index": 0, "value": 10, "fail_attempts": 0}, (0,), "item-0"),
            (_flaky_task, {"index": 1, "value": 11, "fail_attempts": 99}, (1,), "item-1"),
            (_flaky_task, {"index": 2, "value": 12, "fail_attempts": 0}, (2,), "item-2"),
        ]
        job = scheduler.submit(tasks, retry=RETRY_FAST, on_error="partial")
        rows = job.result()
        assert rows == [10, 12]
        assert len(job.failures()) == 1
        assert job.failures()[0].indices == (1,)

    def test_on_error_validated(self):
        with pytest.raises(ValueError):
            scheduler.submit([], on_error="ignore")


class TestDeviceFaultInjection:
    def test_transient_faults_converge_bit_identical(self):
        circuit = _ghz()
        clean = device("auto", seed=11).run([circuit] * 4, repetitions=64).result()
        injector = FaultInjector(transient={0: 1, 2: 2})
        job = device("auto", seed=11).run(
            [circuit] * 4,
            repetitions=64,
            retry=RETRY_FAST,
            fault_injector=injector,
        )
        assert _rows_equal(job.result(), clean)
        assert injector.injected == 3

    def test_pooled_transient_faults_converge_bit_identical(self):
        circuit = _ghz()
        clean = device("auto", seed=11).run([circuit] * 6, repetitions=32).result()
        job = device("auto", seed=11).run(
            [circuit] * 6,
            repetitions=32,
            jobs=2,
            retry=RETRY_FAST,
            fault_injector=FaultInjector(transient={1: 1, 4: 1}),
        )
        assert _rows_equal(job.result(timeout=120), clean)

    def test_sigkilled_worker_is_contained_and_retried(self):
        # The injector SIGKILLs the worker running item 1 on its first
        # attempt; the engine must resurrect capacity, re-dispatch only that
        # item, and converge to the fault-free result.
        circuit = _ghz()
        clean = device("auto", seed=11).run([circuit] * 3, repetitions=32).result()
        job = device("auto", seed=11).run(
            [circuit] * 3,
            repetitions=32,
            jobs=2,
            retry=RETRY_FAST,
            fault_injector=FaultInjector(kill={1: 1}),
        )
        assert _rows_equal(job.result(timeout=120), clean)

    def test_worker_crash_without_retry_reports_crash_error(self):
        circuit = _ghz()
        job = device("auto", seed=11).run(
            [circuit] * 2,
            repetitions=16,
            jobs=2,
            retry=NO_RETRY,
            fault_injector=FaultInjector(kill={0: 1}),
        )
        with pytest.raises(JobError) as excinfo:
            job.result(timeout=120)
        assert any(
            isinstance(failure.error, WorkerCrashedError)
            for failure in excinfo.value.failures
        )

    def test_item_timeout_reaps_stuck_worker_then_retry_converges(self):
        circuit = _ghz()
        clean = device("auto", seed=11).run([circuit] * 2, repetitions=16).result()
        job = device("auto", seed=11).run(
            [circuit] * 2,
            repetitions=16,
            item_timeout=2.0,
            retry=RETRY_FAST,
            fault_injector=FaultInjector(hang={0: 1}, hang_seconds=30.0),
        )
        assert _rows_equal(job.result(timeout=120), clean)

    def test_item_timeout_without_retry_raises_timeout_failure(self):
        circuit = _ghz()
        job = device("auto", seed=11).run(
            [circuit],
            repetitions=16,
            item_timeout=1.0,
            retry=NO_RETRY,
            fault_injector=FaultInjector(hang={0: 1}, hang_seconds=30.0),
        )
        with pytest.raises(JobError) as excinfo:
            job.result(timeout=60)
        assert any(
            isinstance(failure.error, JobTimeoutError)
            for failure in excinfo.value.failures
        )

    def test_bad_item_timeout_rejected(self):
        with pytest.raises(ValueError):
            device("auto").run([_ghz()], repetitions=4, item_timeout="forever")
        tasks = [(_flaky_task, {"index": 0, "value": 0}, (0,), "item-0")]
        for value in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidRequestError):
                device("auto").run([_ghz()], repetitions=4, item_timeout=value)
            with pytest.raises(InvalidRequestError):
                scheduler.submit(tasks, item_timeout=value)

    def test_auto_item_timeout_resolves_from_capabilities(self):
        job = device("auto", seed=5).run(
            [_ghz()], repetitions=8, item_timeout="auto", retry=NO_RETRY
        )
        assert job.result(timeout=60)


class TestMemoryBudget:
    def _noisy_non_clifford(self):
        qubits = LineQubit.range(2)
        return Circuit(
            [
                H(qubits[0]),
                Rx(0.3).on(qubits[1]),
                CNOT(qubits[0], qubits[1]),
                depolarize(0.01).on(qubits[0]),
            ]
        )

    def test_fixed_backend_over_budget_raises(self):
        with pytest.raises(MemoryBudgetError):
            device("state_vector", seed=1).run(
                [_ghz(3)], repetitions=8, memory_budget=16
            )

    def test_auto_downgrades_density_matrix_to_trajectory(self):
        circuit = self._noisy_non_clifford()
        dev = device("auto", seed=3)
        baseline = dev.run([circuit], observables=["probabilities"]).result()[0]
        assert baseline["backend"] == "density_matrix"
        # 2 qubits: density matrix needs 16*4^2 = 256 B; trajectory 16*2^2.
        row = dev.run(
            [circuit], observables=["probabilities"], memory_budget=128
        ).result()[0]
        assert row["backend"] == "trajectory"
        assert "memory budget" in row["reason"]

    def test_auto_without_cheaper_backend_raises(self):
        circuit = self._noisy_non_clifford()
        with pytest.raises(MemoryBudgetError):
            device("auto", seed=3).run(
                [circuit], observables=["probabilities"], memory_budget=32
            )

    def test_partial_turns_budget_rejection_into_failure_record(self):
        job = device("state_vector", seed=1).run(
            [_ghz(3)], repetitions=8, memory_budget=16, on_error="partial"
        )
        assert job.status() == scheduler.FAILED
        assert len(job.result()) == 0
        assert len(job.failures()) == 1
        assert isinstance(job.failures()[0].error, MemoryBudgetError)

    def test_partial_mixes_budget_rejections_with_successes(self):
        small = _ghz(2)
        big = _ghz(3)
        budget = 16 * 2**2  # exactly the 2-qubit state vector
        job = device("state_vector", seed=1).run(
            [small, big, small], repetitions=8, memory_budget=budget, on_error="partial"
        )
        rows = job.result()
        assert [row["index"] for row in rows] == [0, 2]
        assert job.failures()[0].indices == (1,)

    def test_stabilizer_exempt_from_budget(self):
        # Clifford circuits route to the poly(n) tableau: no dense footprint.
        row = device("auto", seed=1).run(
            [_ghz(4)], repetitions=8, memory_budget=16
        ).result()[0]
        assert row["backend"] == "stabilizer"


class TestFaultInjector:
    def test_transient_schedule_honoured(self):
        injector = FaultInjector(transient={0: 2})
        with pytest.raises(TransientError):
            injector(0, 0)
        with pytest.raises(TransientError):
            injector(0, 1)
        injector(0, 2)  # third attempt passes
        injector(1, 0)  # unscheduled item passes
        assert injector.injected == 2

    def test_rate_mode_is_deterministic(self):
        injected_a = []
        injected_b = []
        for target in (injected_a, injected_b):
            injector = FaultInjector(rate=0.5, seed=42)
            for index in range(32):
                try:
                    injector(index, 0)
                except TransientError:
                    target.append(index)
        assert injected_a == injected_b
        assert 4 < len(injected_a) < 28

    def test_rate_only_faults_first_attempts(self):
        injector = FaultInjector(rate=1.0, seed=1)
        with pytest.raises(TransientError):
            injector(0, 0)
        injector(0, 1)  # retries always pass in rate mode

    def test_injector_pickles(self):
        import pickle

        injector = FaultInjector(transient={1: 1}, kill={2: 1}, rate=0.1, seed=3)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.transient == {1: 1}
        assert clone.kill == {2: 1}
        assert clone.rate == 0.1
