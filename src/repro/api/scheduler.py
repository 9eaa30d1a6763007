"""Job scheduling: one in-process loop and one crash-contained process pool.

The execution layer behind :meth:`repro.api.device.Device.run` and the
experiment harness.  A :class:`Job` owns a set of *tasks* — picklable
``(function, payload)`` pairs where ``function`` is module-level and returns
``[(item_index, row), ...]`` — and runs them through one of two runners:

* **inline** (``jobs <= 1``, ``block=True``, no ``item_timeout``): tasks run
  one after another in this process, with no pickling.  Only ``Exception``
  becomes a failure record, so an interrupt (Ctrl-C) or ``SystemExit``
  propagates out of :func:`submit` and no later task starts;
* **pooled** (everything else): every task runs in a **dedicated worker
  process**, at most ``jobs`` at a time.  Killed workers take down only their
  own task: a worker that dies without reporting — SIGKILL, OOM — fails its
  task with a :class:`~repro.errors.WorkerCrashedError`, and a worker that
  exceeds ``item_timeout`` seconds of wall clock is killed and fails its task
  with a :class:`~repro.errors.JobTimeoutError`.  The other tasks' rows still
  land.

The handle:

* ``Job.status()`` reports ``pending`` / ``running`` / ``done`` /
  ``failed`` / ``cancelled``;
* ``Job.result()`` blocks for completion and returns the assembled rows in
  item order;
* ``Job.partial_results()`` and ``Job.stream()`` expose per-item rows as
  tasks complete (streaming partial results);
* ``Job.cancel()`` stops every not-yet-started task and kills running pooled
  workers; completed rows stay available through ``partial_results()``.

Every terminal task failure becomes an :class:`~repro.api.faults.ItemFailure`
that keeps the **original exception type** (a pooled worker returns its
error as data; unpicklable exceptions degrade to a
:class:`~repro.errors.JobError` describing the original).

Plain and fault-tolerant runs
-----------------------------
Both runners serve both kinds of submission; they differ only in how a
failure is reported.  :func:`submit` decides which applies
(:func:`fault_tolerant`): passing any of ``retry`` / ``item_timeout`` /
``journal`` / ``on_error="partial"`` makes the run fault-tolerant.

* **Plain:** no task starts after the first terminal failure; tasks already
  running finish.  ``Job.result()`` re-raises that failure's original
  exception with the worker traceback attached as the ``__cause__`` (a
  :class:`~repro.errors.JobError` carrying the formatted traceback).
* **Fault-tolerant:** each task re-runs under its
  :class:`~repro.api.faults.RetryPolicy` (exponential backoff, deterministic
  jitter, retryable-error classification); the task's payload is
  re-dispatched verbatim, so retried items keep their original
  ``seed + index`` and a faulted run converges to the bit-identical
  fault-free result.  A task that exhausts its retries leaves its
  ``ItemFailure`` and the job *keeps going*.
  ``Job.result(on_error="raise")`` (the default) then raises a
  :class:`~repro.errors.JobError` aggregating every record, while
  ``on_error="partial"`` returns the successful rows (failures stay
  inspectable on ``Job.failures()``).  Every completed row checkpoints to the
  optional :class:`~repro.api.journal.JobJournal` the moment it lands, so a
  later :func:`~repro.api.journal.resume_job` replays nothing already done.
"""

from __future__ import annotations

import math
import numbers
import pickle
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    InvalidRequestError,
    JobCancelledError,
    JobError,
    JobTimeoutError,
    WorkerCrashedError,
)
from .faults import ItemFailure, RetryPolicy

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Poll interval of the pooled dispatcher (seconds).
_POLL_SECONDS = 0.05


class _RemoteFailure:
    """A worker exception captured as data so its type survives the pipe."""

    def __init__(self, error: BaseException):
        self.traceback = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        try:
            pickle.dumps(error)
            self.error: BaseException = error
        except Exception:
            self.error = JobError(f"unpicklable worker error: {error!r}")


class _TaskState:
    """Bookkeeping for one task."""

    __slots__ = (
        "function",
        "payload",
        "indices",
        "key",
        "attempts",
        "not_before",
        "process",
        "conn",
        "deadline",
    )

    def __init__(self, function, payload, indices: Tuple[int, ...], key: str):
        self.function = function
        self.payload = payload
        self.indices = indices
        self.key = key
        self.attempts = 0
        self.not_before = 0.0
        self.process = None
        self.conn = None
        self.deadline: Optional[float] = None

    def task(self) -> Tuple[Callable, Any]:
        """The dispatchable pair; dict payloads learn their attempt number."""
        payload = self.payload
        if isinstance(payload, dict):
            payload = dict(payload, attempt=self.attempts)
        return (self.function, payload)


def _normalize_tasks(tasks: Sequence) -> List[_TaskState]:
    states: List[_TaskState] = []
    for position, task in enumerate(tasks):
        function, payload = task[0], task[1]
        indices = tuple(task[2]) if len(task) > 2 and task[2] is not None else ()
        key = task[3] if len(task) > 3 and task[3] else f"task-{position}"
        states.append(_TaskState(function, payload, indices, key))
    return states


def _child_entry(conn, function, payload) -> None:
    """Entry point of a dedicated worker process: every outcome becomes data."""
    try:
        outcome = function(payload)
    except BaseException as error:  # noqa: BLE001 - repackaged for the parent
        outcome = _RemoteFailure(error)
    try:
        conn.send(outcome)
    except Exception as error:  # unpicklable rows degrade to a typed failure
        try:
            conn.send(_RemoteFailure(JobError(f"unpicklable worker result: {error!r}")))
        except Exception:  # reprolint: disable=broad-except -- worker is dying; the parent sees the closed pipe as a crash and re-dispatches
            pass
    finally:
        conn.close()


class Job:
    """Handle on one batch submission (see the module docstring).

    Created by :func:`submit`; not constructed directly by users.
    """

    def __init__(self, assemble: Optional[Callable[[List[Tuple[int, Any]]], Any]] = None):
        self._assemble = assemble
        self._lock = threading.Condition()
        self._rows: Dict[int, Any] = {}
        self._status = PENDING
        self._failures: List[ItemFailure] = []
        #: True once the runner has exited: no further rows will arrive.
        self._settled = False
        #: Plain run: stop at the first terminal failure and re-raise it.
        self._fail_fast = False
        self._journal = None
        self._on_error = "raise"
        #: Journal identifier when the submission checkpoints (else ``None``).
        self.job_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Runners (used by submit()).
    # ------------------------------------------------------------------
    def _halted(self) -> bool:
        """True once no further task may start: cancelled, or a plain run failed."""
        with self._lock:
            return self._status == CANCELLED or (self._fail_fast and bool(self._failures))

    def _retry_or_fail(
        self, state: _TaskState, failure: ItemFailure, retry: Optional[RetryPolicy]
    ) -> Optional[float]:
        """Backoff seconds when ``state`` should re-run, else record ``failure``."""
        if (
            retry is not None
            and retry.is_retryable(failure.error)
            and state.attempts < retry.max_attempts
        ):
            return retry.delay(state.attempts, key=state.key)
        with self._lock:
            self._failures.append(failure)
            self._lock.notify_all()
        return None

    def _run_inline(self, states: List[_TaskState], retry: Optional[RetryPolicy]) -> None:
        """Run every task in this process, one after another.

        Only ``Exception`` becomes a failure record: ``KeyboardInterrupt``
        and ``SystemExit`` propagate to the caller and no later task starts.
        """
        for state in states:
            while not self._halted():
                try:
                    rows = state.function(state.task()[1])
                except Exception as error:
                    state.attempts += 1
                    failure = ItemFailure(
                        state.indices, error, state.attempts, traceback.format_exc()
                    )
                    delay = self._retry_or_fail(state, failure, retry)
                    if delay is None:
                        break
                    time.sleep(delay)
                else:
                    state.attempts += 1
                    self._record(rows)
                    break
        self._settle()

    def _run_pooled(
        self,
        states: List[_TaskState],
        jobs: int,
        retry: Optional[RetryPolicy],
        item_timeout: Optional[float],
    ) -> None:
        """Fan tasks out over dedicated worker processes (crash containment)."""
        import multiprocessing
        from multiprocessing.connection import wait as connection_wait

        context = multiprocessing.get_context()
        pending: deque = deque(states)
        delayed: List[_TaskState] = []
        running: Dict[Any, _TaskState] = {}

        def spawn(state: _TaskState) -> None:
            function, payload = state.task()
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_child_entry, args=(child_conn, function, payload), daemon=True
            )
            process.start()
            child_conn.close()
            state.process, state.conn = process, parent_conn
            state.deadline = (
                time.monotonic() + item_timeout if item_timeout is not None else None
            )
            running[parent_conn] = state

        def reap(state: _TaskState) -> None:
            running.pop(state.conn, None)
            if state.conn is not None:
                try:
                    state.conn.close()
                except OSError:
                    pass
            if state.process is not None:
                state.process.join(timeout=5)
            state.process = state.conn = None

        def settle_failure(state: _TaskState, error: BaseException, tb: str) -> None:
            """Schedule the task's retry or record its terminal failure."""
            failure = ItemFailure(state.indices, error, state.attempts, tb)
            delay = self._retry_or_fail(state, failure, retry)
            if delay is not None:
                state.not_before = time.monotonic() + delay
                delayed.append(state)

        try:
            while True:
                with self._lock:
                    if self._status == CANCELLED:
                        break
                    if self._fail_fast and self._failures:
                        pending.clear()  # a plain run failed: start nothing new
                now = time.monotonic()
                for state in [s for s in delayed if s.not_before <= now]:
                    delayed.remove(state)
                    pending.append(state)
                while pending and len(running) < jobs:
                    spawn(pending.popleft())
                if not running and not pending and not delayed:
                    break
                if not running:
                    time.sleep(_POLL_SECONDS)
                    continue
                ready = connection_wait(list(running), timeout=_POLL_SECONDS)
                for conn in ready:
                    state = running[conn]
                    state.attempts += 1
                    try:
                        outcome = conn.recv()
                    except (EOFError, OSError):
                        outcome = None  # died before (or while) reporting
                    reap(state)
                    if outcome is None:
                        settle_failure(
                            state,
                            WorkerCrashedError(
                                f"worker for {state.key} died without reporting "
                                f"a result (attempt {state.attempts})"
                            ),
                            "",
                        )
                    elif isinstance(outcome, _RemoteFailure):
                        settle_failure(state, outcome.error, outcome.traceback)
                    else:
                        self._record(outcome)
                now = time.monotonic()
                for conn, state in list(running.items()):
                    process = state.process
                    if process is not None and not process.is_alive():
                        if conn.poll():
                            # Exited normally with its result still buffered
                            # in the pipe; the next connection_wait drains it.
                            continue
                        # Dead without a readable result: crashed worker.
                        state.attempts += 1
                        reap(state)
                        settle_failure(
                            state,
                            WorkerCrashedError(
                                f"worker for {state.key} crashed "
                                f"(exit code {process.exitcode}, attempt {state.attempts})"
                            ),
                            "",
                        )
                    elif state.deadline is not None and now > state.deadline:
                        state.attempts += 1
                        if process is not None:
                            process.kill()
                        reap(state)
                        settle_failure(
                            state,
                            JobTimeoutError(
                                f"{state.key} exceeded its {item_timeout}s item "
                                f"timeout; worker killed (attempt {state.attempts})"
                            ),
                            "",
                        )
        finally:
            # Cancelled (or dispatcher failure): kill whatever still runs
            # before wait()ers wake up.
            for state in list(running.values()):
                if state.process is not None:
                    state.process.kill()
                reap(state)
            self._settle()

    def _settle(self) -> None:
        with self._lock:
            if self._status == RUNNING:
                self._status = FAILED if self._failures else DONE
            self._settled = True
            self._lock.notify_all()

    def _record(self, rows: Sequence[Tuple[int, Any]]) -> None:
        with self._lock:
            for index, row in rows:
                self._rows[index] = row
                if self._journal is not None:
                    self._journal.checkpoint_row(index, row)
            self._lock.notify_all()

    def _raise_failures(self, failures: List[ItemFailure]) -> None:
        """Raise a plain run's first failure as itself, else the aggregate."""
        if self._fail_fast:
            first = failures[0]
            raise first.error from JobError(f"worker traceback:\n{first.traceback}")
        summary = "; ".join(f.describe() for f in failures[:5])
        if len(failures) > 5:
            summary += f"; ... {len(failures) - 5} more"
        raise JobError(
            f"{len(failures)} item(s) failed after retries: {summary}",
            failures=failures,
        ) from failures[0].error

    # ------------------------------------------------------------------
    # Public lifecycle API.
    # ------------------------------------------------------------------
    def status(self) -> str:
        """One of ``pending`` / ``running`` / ``done`` / ``failed`` / ``cancelled``."""
        with self._lock:
            return self._status

    def done(self) -> bool:
        """True once no further rows will arrive."""
        return self.status() in (DONE, FAILED, CANCELLED)

    def failures(self) -> List[ItemFailure]:
        """Per-item terminal failure records."""
        with self._lock:
            return list(self._failures)

    def cancel(self) -> bool:
        """Stop the job: no further task starts and running pooled workers are killed.

        Rows completed before the cancel remain available via
        :meth:`partial_results`.  Idempotent: returns ``True`` only on the
        call that actually cancelled, ``False`` once the job is already
        terminal.
        """
        with self._lock:
            if self._status in (DONE, FAILED, CANCELLED):
                return False
            self._status = CANCELLED
            self._lock.notify_all()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns ``True`` on completion; raises :class:`JobTimeoutError`
        (TimeoutError-compatible) when ``timeout`` seconds elapse first.
        """
        with self._lock:
            if not self._lock.wait_for(lambda: self._settled, timeout=timeout):
                raise JobTimeoutError(
                    f"job still {self._status} after {timeout}s "
                    f"({len(self._rows)} item(s) completed)"
                )
        return True

    def result(self, timeout: Optional[float] = None, on_error: Optional[str] = None) -> Any:
        """Assembled rows in item order; raises on failure or cancellation.

        Parameters
        ----------
        timeout:
            Seconds to wait for completion.
        on_error:
            ``"raise"`` (default) raises when any item failed terminally —
            the original exception type for plain jobs, a
            :class:`~repro.errors.JobError` aggregating every per-item
            :class:`~repro.api.faults.ItemFailure` for fault-tolerant jobs.
            ``"partial"`` returns the successfully completed rows instead;
            the records stay available via :meth:`failures`.  Defaults to
            the submission's ``on_error``.

        Raises
        ------
        JobCancelledError
            If :meth:`cancel` was called before completion.
        JobTimeoutError
            If the job is still running after ``timeout`` seconds
            (``TimeoutError``-compatible).
        Exception
            A plain job's failure re-raised with its original type, the
            worker traceback attached as ``__cause__``.
        """
        if on_error is None:
            on_error = self._on_error
        if on_error not in ("raise", "partial"):
            raise InvalidRequestError(f"on_error must be 'raise' or 'partial', got {on_error!r}")
        self.wait(timeout)
        with self._lock:
            if self._status == CANCELLED:
                raise JobCancelledError(
                    f"job cancelled with {len(self._rows)} item(s) completed; "
                    "use partial_results() to retrieve them"
                )
            if on_error == "raise" and self._failures:
                self._raise_failures(self._failures)
            rows = sorted(self._rows.items())
        return self._assemble(rows) if self._assemble else [row for _, row in rows]

    def partial_results(self) -> Dict[int, Any]:
        """Item-index -> row for every item completed so far (streaming reads)."""
        with self._lock:
            return dict(self._rows)

    def stream(self, timeout: Optional[float] = None) -> Iterator[Tuple[int, Any]]:
        """Yield ``(item_index, row)`` pairs as they complete, in arrival order.

        Stops once the job reaches a terminal state; failures are raised as
        :meth:`result` raises them, after every already-completed row has
        been yielded.
        """
        seen: set = set()
        while True:
            with self._lock:
                fresh = [(i, row) for i, row in sorted(self._rows.items()) if i not in seen]
                terminal = self._settled
                if not fresh and not terminal:
                    if not self._lock.wait(timeout):
                        raise JobTimeoutError("no job progress before timeout")
                    continue
            for index, row in fresh:
                seen.add(index)
                yield index, row
            if terminal and not fresh:
                failures = self.failures()
                if failures and self._on_error == "raise":
                    self._raise_failures(failures)
                return

    def __repr__(self) -> str:
        with self._lock:
            extra = f" failures={len(self._failures)}" if self._failures else ""
            return f"<Job status={self._status} completed={len(self._rows)}{extra}>"


def check_item_timeout(item_timeout: Optional[float]) -> None:
    """Reject an ``item_timeout`` that is not ``None`` or a positive, finite number."""
    if item_timeout is None:
        return
    if (
        not isinstance(item_timeout, numbers.Real)
        or not math.isfinite(item_timeout)
        or item_timeout <= 0
    ):
        raise InvalidRequestError(
            "item_timeout must be None or a positive, finite number of seconds, "
            f"got {item_timeout!r}"
        )


def runs_inline(jobs: int, block: bool, item_timeout: Optional[float]) -> bool:
    """True when :func:`submit` runs the tasks in this process.

    Item timeouts need a killable worker, so they always take the pool.
    """
    return jobs <= 1 and block and item_timeout is None


def fault_tolerant(
    retry: Optional[RetryPolicy],
    item_timeout: Optional[float],
    journal,
    on_error: str,
    prefailures: Optional[Sequence[ItemFailure]] = None,
) -> bool:
    """True when a submission retries, times out, checkpoints or keeps partials.

    Such a run keeps going past terminal failures and reports them together
    (see the module docstring); every other run is plain.
    """
    return bool(
        retry is not None
        or item_timeout is not None
        or journal is not None
        or on_error == "partial"
        or prefailures
    )


def submit(
    tasks: Sequence,
    jobs: int = 1,
    block: bool = True,
    assemble: Optional[Callable[[List[Tuple[int, Any]]], Any]] = None,
    retry: Optional[RetryPolicy] = None,
    item_timeout: Optional[float] = None,
    on_error: str = "raise",
    journal=None,
    preloaded_rows: Optional[Sequence[Tuple[int, Any]]] = None,
    prefailures: Optional[Sequence[ItemFailure]] = None,
) -> Job:
    """Run ``tasks`` and return the :class:`Job` handle.

    Tasks are ``(function, payload)`` pairs, optionally extended to
    ``(function, payload, indices, key)`` — ``indices`` names the batch item
    indices the task covers (for failure records) and ``key`` is a stable
    identity used for deterministic backoff jitter.

    ``jobs <= 1`` with ``block=True`` and no ``item_timeout`` runs inline in
    this process (no pickling of payloads or results).  Everything else fans
    out over up to ``max(1, jobs)`` dedicated worker processes; with
    ``block=True`` the call waits for completion before returning, with
    ``block=False`` it returns immediately and the job completes in the
    background.

    ``retry`` / ``item_timeout`` / ``journal`` / ``on_error="partial"`` make
    the run fault-tolerant (see the module docstring).  ``preloaded_rows``
    (e.g. journal checkpoints from a previous life of the job) and
    ``prefailures`` (pre-dispatch rejections) seed the job before any task
    runs.
    """
    if on_error not in ("raise", "partial"):
        raise InvalidRequestError(f"on_error must be 'raise' or 'partial', got {on_error!r}")
    check_item_timeout(item_timeout)
    job = Job(assemble=assemble)
    job._journal = journal
    job._on_error = on_error
    job._fail_fast = not fault_tolerant(retry, item_timeout, journal, on_error, prefailures)
    if journal is not None:
        job.job_id = journal.job_id
    if preloaded_rows:
        job._rows.update(dict(preloaded_rows))
    if prefailures:
        job._failures.extend(prefailures)
    job._status = RUNNING
    states = _normalize_tasks(tasks)
    if not states:
        job._settle()
    elif runs_inline(jobs, block, item_timeout):
        job._run_inline(states, retry)
    elif block:
        job._run_pooled(states, max(1, jobs), retry, item_timeout)
    else:
        threading.Thread(
            target=job._run_pooled,
            args=(states, max(1, jobs), retry, item_timeout),
            daemon=True,
            name="repro-job-dispatcher",
        ).start()
    return job
