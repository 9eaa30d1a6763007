"""Job lifecycle tests: cancellation, error propagation, seeding parity.

The satellite contract of the Device/Job redesign:

* cancelling a job mid-batch stops not-yet-started tasks, keeps completed
  rows reachable, and makes ``result()`` raise ``JobCancelledError``;
* a worker exception crosses the process boundary with its **original**
  type (the remote traceback attached as ``__cause__``);
* a plain run starts no task after its first failure, a crashed pooled
  worker fails only its own task, and Ctrl-C stops an inline run;
* serial (``jobs=1``), pooled (``jobs>1``) and async (``block=False``)
  runs of the same seeded batch are bit-identical (``seed + index``
  fan-out is independent of scheduling).
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import (
    CNOT,
    Circuit,
    H,
    JobCancelledError,
    JobTimeoutError,
    LineQubit,
    Rx,
    TransientError,
    UnsupportedCircuitError,
    WorkerCrashedError,
    depolarize,
    device,
)
from repro.api import scheduler
from repro.api.faults import NO_RETRY
from repro.errors import BackendCapabilityError


def _echo_task(payload):
    return [(payload["index"], payload["value"])]


def _slow_task(payload):
    time.sleep(payload.get("sleep", 0.2))
    return [(payload["index"], payload["value"])]


def _failing_task(payload):
    raise UnsupportedCircuitError(f"boom on {payload['index']}")


def _killed_task(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupting_task(payload):
    payload["log"].append(payload["index"])
    if payload.get("interrupt"):
        raise KeyboardInterrupt
    return [(payload["index"], payload["index"])]


class _InterruptingObjective:
    """Expectation objective that raises KeyboardInterrupt on call ``at``."""

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def __call__(self, probabilities):
        self.calls += 1
        if self.calls == self.at:
            raise KeyboardInterrupt
        return float(probabilities[0])


class TestSchedulerLifecycle:
    def test_inline_job_is_done_immediately(self):
        job = scheduler.submit([(_echo_task, {"index": i, "value": i * i}) for i in range(4)])
        assert job.status() == scheduler.DONE
        assert job.result() == [0, 1, 4, 9]

    def test_async_job_completes_in_background(self):
        tasks = [(_echo_task, {"index": i, "value": i}) for i in range(6)]
        job = scheduler.submit(tasks, jobs=2, block=False)
        assert job.result(timeout=60) == list(range(6))
        assert job.status() == scheduler.DONE

    def test_cancel_mid_batch_keeps_partial_results(self):
        # One worker, staggered tasks: cancel as soon as the first row lands.
        tasks = [(_slow_task, {"index": i, "value": i, "sleep": 0.3}) for i in range(8)]
        job = scheduler.submit(tasks, jobs=1, block=False)
        deadline = time.time() + 30
        while not job.partial_results() and time.time() < deadline:
            time.sleep(0.02)
        assert job.cancel()
        job.wait(timeout=30)
        assert job.status() == scheduler.CANCELLED
        partial = job.partial_results()
        assert 1 <= len(partial) < len(tasks)
        with pytest.raises(JobCancelledError):
            job.result()
        # Cancelling a finished job is a no-op.
        assert not job.cancel()

    def test_worker_failure_reraises_original_type(self):
        tasks = [(_echo_task, {"index": 0, "value": 0}), (_failing_task, {"index": 1})]
        job = scheduler.submit(tasks, jobs=2, block=True)
        assert job.status() == scheduler.FAILED
        with pytest.raises(UnsupportedCircuitError, match="boom on 1"):
            job.result()
        # The remote traceback rides along as the cause.
        try:
            job.result()
        except UnsupportedCircuitError as error:
            assert "worker traceback" in str(error.__cause__)

    def test_inline_failure_reraises_original_type(self):
        # A plain run starts no task after the first failure.
        tasks = [
            (_echo_task, {"index": 0, "value": 0}),
            (_failing_task, {"index": 1}),
            (_echo_task, {"index": 2, "value": 2}),
        ]
        job = scheduler.submit(tasks)
        with pytest.raises(UnsupportedCircuitError) as excinfo:
            job.result()
        assert "worker traceback" in str(excinfo.value.__cause__)
        assert job.partial_results() == {0: 0}

    def test_crashed_worker_takes_down_only_its_own_task(self):
        tasks = [
            (_killed_task, {"index": 0}),
            (_slow_task, {"index": 1, "value": "healthy", "sleep": 0.3}),
        ]
        job = scheduler.submit(tasks, jobs=2)
        assert job.partial_results() == {1: "healthy"}
        with pytest.raises(WorkerCrashedError):
            job.result(timeout=60)

    def test_keyboard_interrupt_stops_inline_run(self):
        for retry in (None, NO_RETRY):
            log = []
            tasks = [
                (_interrupting_task, {"index": i, "log": log, "interrupt": i == 1})
                for i in range(4)
            ]
            with pytest.raises(KeyboardInterrupt):
                scheduler.submit(tasks, retry=retry)
            assert log == [0, 1]
        bell = Circuit([H(LineQubit(0)), CNOT(LineQubit(0), LineQubit(1))])
        objective = _InterruptingObjective(at=2)
        with pytest.raises(KeyboardInterrupt):
            device("state_vector", seed=0).run(
                [bell] * 4, observables=["expectation"], objective=objective, jobs=1
            )
        assert objective.calls == 2

    def test_stream_yields_rows_in_arrival_order(self):
        tasks = [(_echo_task, {"index": i, "value": -i}) for i in range(5)]
        job = scheduler.submit(tasks, jobs=2, block=False)
        rows = dict(job.stream(timeout=60))
        assert rows == {i: -i for i in range(5)}


@pytest.fixture(scope="module")
def mixed_batch():
    q = LineQubit.range(3)
    bell = Circuit([H(q[0]), CNOT(q[0], q[1])])
    rotated = [
        Circuit([H(q[0]), Rx(0.1 + 0.2 * k)(q[1]), CNOT(q[1], q[2])]) for k in range(4)
    ]
    noisy = bell.with_noise(lambda: depolarize(0.05))
    return [bell, noisy, *rotated, bell, noisy]


class TestDeviceJobLifecycle:
    def test_serial_parallel_and_async_runs_are_identical(self, mixed_batch):
        runs = {}
        for label, kwargs in {
            "serial": dict(jobs=1, block=True),
            "parallel": dict(jobs=2, block=True),
            "async": dict(jobs=2, block=False),
        }.items():
            job = device("auto", seed=11).run(
                mixed_batch, repetitions=40, seed=17, **kwargs
            )
            result = job.result(timeout=120)
            runs[label] = (result.backends(), result.counts())
        assert runs["serial"] == runs["parallel"] == runs["async"]

    def test_worker_exception_keeps_original_type_through_device(self, mixed_batch):
        noisy = mixed_batch[1]
        for kwargs in (dict(jobs=2, block=False), dict(jobs=1)):
            job = device("kc", seed=0).run(
                [noisy, noisy], repetitions=10, sampling="exact", **kwargs
            )
            with pytest.raises(BackendCapabilityError, match="exact sampling"):
                job.result(timeout=120)
            assert job.status() == scheduler.FAILED

    def test_device_job_cancellation(self, mixed_batch):
        # Enough repetitions that the single worker cannot drain the queue
        # before cancel() lands.
        job = device("auto", seed=3).run(
            mixed_batch * 6, repetitions=2000, seed=5, jobs=1, block=False
        )
        job.cancel()
        job.wait(timeout=120)
        assert job.status() == scheduler.CANCELLED
        with pytest.raises(JobCancelledError):
            job.result()
        assert len(job.partial_results()) < len(mixed_batch) * 6

    def test_streaming_partial_results(self, mixed_batch):
        job = device("auto", seed=1).run(
            mixed_batch, repetitions=10, seed=2, jobs=2, block=False
        )
        seen = sorted(index for index, _row in job.stream(timeout=120))
        assert seen == list(range(len(mixed_batch)))


class TestJobTimeouts:
    def test_wait_timeout_raises_job_timeout_error(self):
        tasks = [(_slow_task, {"index": 0, "value": 0, "sleep": 5.0})]
        job = scheduler.submit(tasks, jobs=1, block=False)
        try:
            with pytest.raises(JobTimeoutError):
                job.wait(timeout=0.1)
        finally:
            job.cancel()
            job.wait(timeout=60)

    def test_result_timeout_raises_job_timeout_error(self):
        tasks = [(_slow_task, {"index": 0, "value": 0, "sleep": 5.0})]
        job = scheduler.submit(tasks, jobs=1, block=False)
        try:
            with pytest.raises(JobTimeoutError):
                job.result(timeout=0.1)
        finally:
            job.cancel()
            job.wait(timeout=60)

    def test_job_timeout_error_is_timeout_error_compatible(self):
        # Callers catching the builtin TimeoutError keep working.
        tasks = [(_slow_task, {"index": 0, "value": 0, "sleep": 5.0})]
        job = scheduler.submit(tasks, jobs=1, block=False)
        try:
            with pytest.raises(TimeoutError):
                job.wait(timeout=0.1)
        finally:
            job.cancel()
            job.wait(timeout=60)

    def test_wait_returns_true_on_completion(self):
        job = scheduler.submit([(_echo_task, {"index": 0, "value": 7})])
        assert job.wait(timeout=1) is True
        assert job.wait() is True  # terminal jobs never block


class TestCancelRaces:
    def test_cancel_mid_item_keeps_completed_partials(self):
        # Fault-tolerant pooled engine: cancel while an item is mid-flight;
        # rows completed before the cancel stay reachable.
        tasks = [
            (_slow_task, {"index": i, "value": i, "sleep": 0.05 if i < 2 else 2.0}, (i,), f"item-{i}")
            for i in range(6)
        ]
        job = scheduler.submit(
            tasks, jobs=1, block=False, retry=scheduler.RetryPolicy(max_attempts=1)
        )
        deadline = time.time() + 30
        while len(job.partial_results()) < 2 and time.time() < deadline:
            time.sleep(0.02)
        assert job.cancel()
        job.wait(timeout=60)
        assert job.status() == scheduler.CANCELLED
        partial = job.partial_results()
        assert 2 <= len(partial) < len(tasks)
        assert partial[0] == 0 and partial[1] == 1
        with pytest.raises(JobCancelledError):
            job.result()

    def test_cancel_after_completion_is_noop(self):
        job = scheduler.submit([(_echo_task, {"index": 0, "value": 1})])
        assert job.status() == scheduler.DONE
        assert not job.cancel()
        assert job.status() == scheduler.DONE
        assert job.result() == [1]  # result still reachable after the no-op

    def test_double_cancel_is_idempotent(self):
        tasks = [(_slow_task, {"index": i, "value": i, "sleep": 0.5}) for i in range(4)]
        job = scheduler.submit(tasks, jobs=1, block=False)
        first = job.cancel()
        second = job.cancel()
        assert first
        assert not second
        job.wait(timeout=60)
        assert job.status() == scheduler.CANCELLED

    def test_cancel_during_retry_backoff_stops_promptly(self):
        # The inline resilient loop must observe the cancel while sleeping
        # out a retry delay instead of burning the full attempt budget.
        def _always_transient(payload):
            raise TransientError("never succeeds")

        policy = scheduler.RetryPolicy(
            max_attempts=50, backoff_base=0.2, backoff_factor=1.0, jitter=0.0
        )
        tasks = [(_always_transient, {"index": 0}, (0,), "item-0")]
        started = time.time()

        import threading

        job_holder = {}

        def _cancel_soon():
            deadline = time.time() + 10
            while "job" not in job_holder and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)
            job_holder["job"].cancel()

        canceller = threading.Thread(target=_cancel_soon)
        canceller.start()
        job = scheduler.submit(tasks, jobs=2, block=False, retry=policy)
        job_holder["job"] = job
        job.wait(timeout=60)
        canceller.join()
        assert job.status() == scheduler.CANCELLED
        assert time.time() - started < 30

    def test_cancelled_fault_tolerant_job_raises_cancelled_not_job_error(self):
        tasks = [
            (_slow_task, {"index": i, "value": i, "sleep": 1.0}, (i,), f"item-{i}")
            for i in range(4)
        ]
        job = scheduler.submit(
            tasks, jobs=1, block=False, retry=scheduler.RetryPolicy(max_attempts=2)
        )
        job.cancel()
        job.wait(timeout=60)
        with pytest.raises(JobCancelledError):
            job.result()
