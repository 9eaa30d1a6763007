"""Typed error hierarchy for the ``repro`` public API.

Every failure the execution layer can route on derives from
:class:`ReproError`.  The concrete classes double-inherit from the builtin
exception each call site historically raised (``ValueError`` or
``RuntimeError``), so code written against the old untyped contract —
``except ValueError`` around a backend call — keeps working, while new code
can catch the precise class:

``UnsupportedCircuitError``
    The circuit itself is outside the backend's input class (a non-Clifford
    gate on the stabilizer tableau, a noise channel on an ideal-only
    backend).  Routing layers treat this as "pick another backend".
``BackendCapabilityError``
    The request exceeds a declared backend capability (too many qubits for a
    dense reconstruction, a mixed-state query on a pure-state backend, an
    unknown backend name).  Raised *before* any simulation work happens.
``CompilationError``
    The knowledge-compilation pipeline failed to lower the circuit
    (unbound symbols at compile time, malformed encodings).
``JobError`` / ``JobCancelledError``
    Job-lifecycle failures from the async scheduler: ``JobError`` wraps a
    worker failure that could not be represented by its original type (and
    aggregates per-item :class:`~repro.api.faults.ItemFailure` records on its
    ``failures`` attribute when a fault-tolerant job exhausts its retries);
    ``JobCancelledError`` is raised by ``Job.result()`` after ``cancel()``.
``JobTimeoutError``
    A deadline expired: ``Job.result(timeout=...)`` / ``Job.wait(timeout=...)``
    ran out of time, or a work item exceeded its per-item wall-clock budget
    and its worker was killed.  Inherits :class:`TimeoutError`, so code
    catching the builtin keeps working.
``WorkerCrashedError``
    A worker process died without reporting a result (SIGKILL, OOM kill).
    Retryable by default: the scheduler resurrects the worker and
    re-dispatches only the in-flight items; the other workers' rows still
    land.
``TransientError``
    A failure the caller declares to be transient (flaky I/O, injected
    chaos).  The default :class:`~repro.api.faults.RetryPolicy` retries it.
``MemoryBudgetError``
    A work item's estimated dense ``2^n`` footprint exceeds the submission's
    memory budget and no capable cheaper backend exists.  Raised *before*
    the allocation is attempted.
``CostModelError``
    A calibrated cost-model artifact is malformed, version-incompatible, or
    queried for a backend it was never fitted on.  Routing falls back to the
    rule-based path rather than guessing.
``InvalidRequestError`` / ``RequestTypeError``
    The submission itself is malformed — an unknown option value, a
    non-``Circuit`` argument, inconsistent sweep shapes.  These replace the
    bare ``ValueError``/``TypeError`` raises the api layer used to make, so
    a future service gateway can map "your request was bad" (4xx) apart from
    "the system failed" (5xx).  ``RequestTypeError`` additionally inherits
    ``TypeError`` for the wrong-argument-type sites.
``MissingObservableError``
    A result lookup asked a batch for an observable it never recorded
    (``KeyError``-compatible, so ``except KeyError`` and ``dict``-style
    probing keep working).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.faults import ItemFailure


class ReproError(Exception):
    """Base class of every typed ``repro`` error."""


class UnsupportedCircuitError(ReproError, ValueError):
    """The circuit is outside the backend's supported input class."""


class BackendCapabilityError(ReproError, ValueError):
    """The request exceeds a backend's declared capabilities."""


class MemoryBudgetError(BackendCapabilityError):
    """The item's estimated memory footprint exceeds the submission budget."""


class CostModelError(ReproError, ValueError):
    """A cost-model artifact is malformed, incompatible, or unfitted."""


class InvalidRequestError(ReproError, ValueError):
    """The submission is malformed (bad option value, inconsistent shapes)."""


class RequestTypeError(InvalidRequestError, TypeError):
    """A submission argument has the wrong type (TypeError-compatible)."""


class MissingObservableError(ReproError, KeyError):
    """A result lookup asked for an observable the batch never recorded."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the readable message.
        return Exception.__str__(self)


class CompilationError(ReproError, RuntimeError):
    """The knowledge-compilation pipeline failed to compile the circuit."""


class TransientError(ReproError, RuntimeError):
    """A transient failure; the default retry policy re-runs the item."""


class JobError(ReproError, RuntimeError):
    """A job failed in a way that could not be re-raised as its original type.

    Fault-tolerant jobs aggregate their per-item failure records here: the
    ``failures`` attribute holds one :class:`~repro.api.faults.ItemFailure`
    per item that exhausted its retries.
    """

    def __init__(
        self, *args: object, failures: Optional[Iterable["ItemFailure"]] = None
    ) -> None:
        super().__init__(*args)
        #: Per-item failure records (fault-tolerant jobs), else ``()``.
        self.failures: Tuple["ItemFailure", ...] = tuple(failures or ())


class JobCancelledError(JobError):
    """``Job.result()`` was called on a cancelled job."""


class JobTimeoutError(JobError, TimeoutError):
    """A job- or item-level deadline expired (TimeoutError-compatible)."""


class WorkerCrashedError(JobError):
    """A pool worker died (SIGKILL / OOM / broken pool) without a result."""


__all__ = [
    "ReproError",
    "UnsupportedCircuitError",
    "BackendCapabilityError",
    "MemoryBudgetError",
    "CostModelError",
    "InvalidRequestError",
    "RequestTypeError",
    "MissingObservableError",
    "CompilationError",
    "TransientError",
    "JobError",
    "JobCancelledError",
    "JobTimeoutError",
    "WorkerCrashedError",
]
