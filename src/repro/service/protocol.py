"""Wire protocol of the routing daemon.

One request per connection, newline-delimited JSON both ways (a single
line each).  Requests are ``{"op": ..., "version": 1, ...}`` — a
declared ``version`` other than :data:`PROTOCOL_VERSION` is rejected
with a structured input error, an absent one is accepted; the
operations are:

``submit``
    ``{"op": "submit", "problem": <problem dict>, "options": {...}}``
    where the problem dict is the :func:`repro.netlist.io.problem_to_dict`
    shape and options may carry ``deadline_s``, ``max_attempts`` and
    ``no_cache``; any other option key, or a numeric option of the wrong
    type or range, is a structured input error.  The success response
    wraps a full :func:`repro.core.serialize.result_to_dict` payload plus
    per-job telemetry (queue wait, service time, cache status, worker).
``health``
    Service self-description: queue depth, worker count, job counters,
    cache statistics, total executed search work.
``shutdown``
    Ask the daemon to drain and exit (the in-band equivalent of
    SIGTERM, used by tests and orchestration tools).

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": {...}}``
where the error envelope is :meth:`repro.errors.ReproError.to_dict` —
``kind``, ``message``, ``exit_code``, ``context`` — so callers react to
*what* failed without parsing prose.  The ``SERVICE_OVERLOADED`` shed
travels as ``kind="overloaded"`` with exit code 6; its context carries a
``retry_after_s`` hint (the admission controller's estimate of when
capacity frees up) which the retrying client honours as its minimum
backoff.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import EngineError, ReproError

#: Protocol revision.  Clients stamp every request with ``version`` and
#: servers reject a request that declares a different one (a request
#: with no ``version`` field is accepted, so hand-rolled clients keep
#: working); every response carries the server's version.
PROTOCOL_VERSION = 1

#: Hard cap on one request/response line (a malicious or corrupt client
#: must not balloon the daemon's memory).
MAX_LINE_BYTES = 32 * 1024 * 1024

OPS = ("submit", "health", "shutdown")


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises ``ValueError`` on garbage."""
    message = json.loads(line.decode())
    if not isinstance(message, dict):
        raise ValueError("protocol message must be a JSON object")
    return message


def ok_response(**fields: Any) -> Dict[str, Any]:
    """A success envelope."""
    return {"ok": True, "version": PROTOCOL_VERSION, **fields}


def error_response(error: ReproError) -> Dict[str, Any]:
    """A failure envelope carrying the structured error."""
    return {
        "ok": False,
        "version": PROTOCOL_VERSION,
        "error": error.to_dict(),
    }


def error_from_payload(payload: Optional[Dict[str, Any]]) -> ReproError:
    """Rehydrate a wire error envelope into a raisable ReproError.

    The concrete class is chosen by exit code so client-side ``except``
    clauses and the CLI exit-code contract keep working across the wire;
    unknown codes degrade to :class:`~repro.errors.EngineError`.
    """
    from repro import errors

    payload = payload or {}
    by_code = {
        cls.exit_code: cls
        for cls in (
            errors.InputError,
            errors.EngineError,
            errors.ServiceOverloaded,
            errors.ServiceUnavailable,
        )
    }
    cls = by_code.get(payload.get("exit_code"), EngineError)
    return cls(
        payload.get("message", "unspecified service error"),
        context=payload.get("context") or {},
    )
