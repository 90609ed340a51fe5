"""Structured exception hierarchy for the routing stack.

Every error the library deliberately raises derives from :class:`ReproError`
and carries a machine-readable ``context`` dict next to its human-readable
message, so supervisors (the :mod:`repro.engine` layer, the CLI, a service
wrapper) can react to *what* failed without parsing strings:

* :class:`InputError` — the problem statement or a file is malformed
  (exit code 2 at the CLI);
* :class:`EngineError` — an internal invariant was violated (a bug, never
  a user mistake; subclasses :class:`RuntimeError` so legacy ``except
  RuntimeError`` call sites keep working).

A routing run that hits its deadline or cannot complete is not an error:
the engine returns its best result, and the CLI's exit codes 3 (deadline)
and 4 (infeasible) are read from that result's ``stats.timed_out`` and
``status``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class of every structured error raised by this library.

    Parameters
    ----------
    message:
        Human-readable one-line description.
    context:
        Machine-readable details (plain JSON-compatible values only), e.g.
        ``{"deadline_s": 0.5, "routed": 7, "connections": 12}``.
    """

    #: Process exit code the CLI maps this error class to.
    exit_code: int = 1
    #: Stable machine-readable error category.
    kind: str = "error"

    def __init__(
        self, message: str, context: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = dict(context or {})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible view: kind, message, exit code and context."""
        return {
            "kind": self.kind,
            "message": self.message,
            "exit_code": self.exit_code,
            "context": dict(self.context),
        }

    def __str__(self) -> str:
        if not self.context:
            return self.message
        details = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.context.items())
        )
        return f"{self.message} [{details}]"


class InputError(ReproError, ValueError):
    """A problem file, flag or payload is malformed (user error)."""

    exit_code = 2
    kind = "input"


class EngineError(ReproError, RuntimeError):
    """An internal invariant of the routing engine was violated (a bug)."""

    exit_code = 5
    kind = "engine"


class ServiceOverloaded(ReproError):
    """The routing service shed this job at admission time.

    Raised (and returned over the wire as ``kind="overloaded"``) when the
    daemon's queue depth times the estimated per-job cost exceeds the
    job's deadline budget — the job would miss its deadline waiting, so
    the service refuses it immediately instead of hanging.  ``context``
    conventionally carries ``queue_depth``, ``estimated_wait_s`` and
    ``deadline_s``.
    """

    exit_code = 6
    kind = "overloaded"


class ServiceUnavailable(ReproError):
    """The routing service cannot be reached (or is draining).

    Raised client-side when the daemon's socket does not answer, and
    returned by a draining daemon that no longer admits new jobs.
    """

    exit_code = 7
    kind = "unavailable"
