"""Blocking client for the routing daemon.

Used by ``repro submit``, the daemon smoke tests and the load-generator
benchmark.  One request per connection (mirroring the server); every
transport failure — missing socket, refused connection, timeout, a
server that died mid-response — surfaces as the structured
:class:`~repro.errors.ServiceUnavailable` (exit code 7), and structured
errors returned *by* the server are re-raised as their original
:class:`~repro.errors.ReproError` subclasses, so callers handle local
and remote failures through one exception hierarchy.

**Retries.**  With ``retries=N`` the client retries the two transient
failure classes — :class:`~repro.errors.ServiceUnavailable` (daemon
down, restarting, or draining) and
:class:`~repro.errors.ServiceOverloaded` (shed at admission) — with
bounded exponential backoff and *deterministic* jitter (hashed from the
socket path and attempt number, so behaviour is reproducible in tests
and fleet-wide retry storms still decorrelate).  An overload error's
``retry_after_s`` hint, stamped by the server's admission controller,
is honoured as the minimum wait.  The whole retry budget is charged
against ``timeout_s``: attempts and backoff sleeps share one wall-clock
deadline, so enabling retries never extends how long a call can take.
Permanent errors (malformed input, infeasible, engine bugs) are never
retried.
"""

from __future__ import annotations

import socket
import time
import zlib
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceOverloaded, ServiceUnavailable
from repro.service import protocol


class ServiceClient:
    """Talk to a :class:`~repro.service.server.RoutingService` socket.

    Parameters
    ----------
    socket_path:
        The daemon's Unix-domain socket.
    timeout_s:
        Total wall-clock budget for one call, shared by every attempt
        and backoff sleep when retries are enabled.
    retries:
        Extra attempts after a transient failure (0 = single shot).
    retry_base_s / retry_max_wait_s:
        Exponential backoff bounds: waits grow ``base * 2**attempt``,
        jittered deterministically, capped at ``retry_max_wait_s``.
    clock / sleep:
        Injectable monotonic clock and sleeper, so tests drive the
        retry schedule without real waiting.
    """

    def __init__(
        self,
        socket_path: str,
        timeout_s: float = 120.0,
        retries: int = 0,
        retry_base_s: float = 0.05,
        retry_max_wait_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_base_s <= 0 or retry_max_wait_s <= 0:
            raise ValueError("retry waits must be positive")
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_base_s = retry_base_s
        self.retry_max_wait_s = retry_max_wait_s
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One raw round trip; returns the response envelope verbatim.

        Single attempt, no retries — the raw protocol surface used by
        tests and debugging tools.  Stamps the protocol version (unless
        the caller set one) so the server's compatibility check sees
        what this client speaks.
        """
        message.setdefault("version", protocol.PROTOCOL_VERSION)
        return self._request_once(message, self._clock() + self.timeout_s)

    def _request_once(
        self, message: Dict[str, Any], deadline: float
    ) -> Dict[str, Any]:
        """One attempt, its socket timeout clipped to the call deadline."""
        remaining = deadline - self._clock()
        if remaining <= 0:
            raise ServiceUnavailable(
                f"client deadline exhausted before reaching "
                f"{self.socket_path}",
                context={
                    "socket": self.socket_path,
                    "timeout_s": self.timeout_s,
                },
            )
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(min(self.timeout_s, remaining))
                sock.connect(self.socket_path)
                sock.sendall(protocol.encode(message))
                sock.shutdown(socket.SHUT_WR)
                line = self._read_line(sock)
        except (OSError, socket.timeout) as exc:
            raise ServiceUnavailable(
                f"routing service at {self.socket_path} is unreachable: "
                f"{exc}",
                context={"socket": self.socket_path},
            ) from exc
        try:
            return protocol.decode(line)
        except ValueError as exc:
            raise ServiceUnavailable(
                f"routing service returned garbage: {exc}",
                context={"socket": self.socket_path},
            ) from exc

    def _read_line(self, sock: socket.socket) -> bytes:
        buffer = bytearray()
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            # The newline may land anywhere in a chunk (e.g. followed by
            # trailing bytes); waiting for a chunk that *ends* with it
            # would stall until EOF or timeout.
            newline = chunk.find(b"\n")
            if newline != -1:
                buffer += chunk[: newline + 1]
                return bytes(buffer)
            buffer += chunk
            if len(buffer) > protocol.MAX_LINE_BYTES:
                raise OSError("response exceeds the protocol limit")
        if not buffer:
            raise OSError("connection closed before a response arrived")
        return bytes(buffer)

    # ------------------------------------------------------------------
    # Retry loop
    # ------------------------------------------------------------------
    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Round trip + unwrap, retrying transient failures in budget."""
        message.setdefault("version", protocol.PROTOCOL_VERSION)
        deadline = self._clock() + self.timeout_s
        attempt = 0
        while True:
            try:
                return self._unwrap(self._request_once(message, deadline))
            except (ServiceOverloaded, ServiceUnavailable) as exc:
                if attempt >= self.retries:
                    raise
                wait = self._retry_wait(attempt, exc)
                if self._clock() + wait >= deadline:
                    raise  # the backoff would blow the caller's deadline
                self._sleep(wait)
                attempt += 1

    def _retry_wait(self, attempt: int, exc: Exception) -> float:
        """Backoff before retry number ``attempt + 1``.

        Deterministic: exponential in ``attempt`` with jitter hashed
        from (socket path, attempt), floored by the server's
        ``retry_after_s`` hint when one was sent, capped at
        ``retry_max_wait_s``.
        """
        base = min(
            self.retry_max_wait_s, self.retry_base_s * (2.0 ** attempt)
        )
        seed = zlib.crc32(f"{self.socket_path}:{attempt}".encode())
        jitter = 0.5 + (seed % 1000) / 2000.0  # [0.5, 1.0)
        wait = base * jitter
        hint = getattr(exc, "context", {}).get("retry_after_s")
        if isinstance(hint, (int, float)) and hint > 0:
            wait = max(wait, float(hint))
        return min(wait, self.retry_max_wait_s)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def submit(
        self,
        problem_payload: Dict[str, Any],
        deadline_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        no_cache: bool = False,
    ) -> Dict[str, Any]:
        """Submit one problem dict; returns the full success envelope.

        The envelope carries ``result`` (a
        :func:`repro.core.serialize.result_to_dict` payload) and ``job``
        (queue wait, service time, cache status, worker).  Server-side
        failures re-raise as structured errors; transient ones are
        retried per the client's retry policy (safe: submissions are
        idempotent — a duplicate of a completed job is a cache hit).
        """
        options: Dict[str, Any] = {}
        if deadline_s is not None:
            options["deadline_s"] = deadline_s
        if max_attempts is not None:
            options["max_attempts"] = max_attempts
        if no_cache:
            options["no_cache"] = True
        return self._call(
            {"op": "submit", "problem": problem_payload, "options": options}
        )

    def health(self) -> Dict[str, Any]:
        """The daemon's health dict (see ``RoutingService.health``)."""
        return self._call({"op": "health"})["health"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit (never retried: one shot)."""
        return self._unwrap(self.request({"op": "shutdown"}))

    @staticmethod
    def _unwrap(response: Dict[str, Any]) -> Dict[str, Any]:
        if response.get("ok"):
            return response
        raise protocol.error_from_payload(response.get("error"))
