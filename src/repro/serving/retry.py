"""Client-side resilience: deterministic retries with backoff.

The server half of the resilience contract sheds load with 429/503 +
``Retry-After`` and drops the connection outright when a worker
"crashes" (see :mod:`repro.serving.server`); this module is the client
half:

* :class:`RetryPolicy` — exponential backoff with deterministic,
  seeded jitter.  Jitter de-synchronizes a fleet of retrying clients
  (no thundering herd), and seeding it keeps every test replayable:
  the same policy object produces the same delay sequence every run.
  A server-supplied ``Retry-After`` acts as a *floor* on the computed
  delay, never a replacement — the client still backs off further on
  repeated failures.
* :class:`ServiceClient` — a JSON client for
  :class:`~repro.serving.server.CatalogServer` over one persistent
  HTTP/1.1 connection of its own (a socket with Nagle off and one
  buffered reader): one write per request, and a strict reply reader.
  It retries torn connections and 429/503 responses under a
  :class:`RetryPolicy`, and raises
  :class:`~repro._util.errors.TransientFault` only when the budget is
  exhausted.  An attempt that fails mid-exchange drops the connection;
  the next attempt opens a fresh one.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np

from .._util.errors import ServingError, TransientFault
from .._util.rng import DEFAULT_SEED, derive_seed
from .server import read_fields

__all__ = ["RetryPolicy", "ServiceClient"]


class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Parameters
    ----------
    attempts:
        Total tries including the first (so ``attempts=1`` never
        retries).
    base_delay, multiplier, max_delay:
        Attempt ``k`` (0-based) backs off
        ``min(max_delay, base_delay * multiplier**k)`` seconds before
        jitter.
    jitter:
        Fraction of the delay added as seeded-uniform noise: the
        actual delay is ``delay * (1 + U[0, jitter))``.
    seed:
        Root seed for the jitter stream — same seed, same delays.
    sleep:
        Injectable sleep (tests pass a recorder; production the real
        :func:`time.sleep`).
    """

    def __init__(
        self,
        attempts: int = 5,
        *,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        seed: int = DEFAULT_SEED,
        sleep=time.sleep,
    ):
        if attempts < 1:
            raise ServingError(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0 or jitter < 0:
            raise ServingError("delays and jitter must be non-negative")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(derive_seed(seed, "retry-jitter"))
        self._sleep = sleep

    def backoff(self, attempt: int, retry_after: float | None = None) -> float:
        """Delay before retry number ``attempt`` (0-based), in seconds.

        ``retry_after`` (the server's header, when present) floors the
        jittered exponential delay: the client never comes back sooner
        than the server asked, but still backs off further on its own.
        """
        delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        delay *= 1.0 + self.jitter * float(self._rng.random())
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def call(self, fn, *, retry_on=(TransientFault,)):
        """Run ``fn()`` under this policy.

        Retries on the ``retry_on`` exception types, sleeping
        :meth:`backoff` between attempts (honoring the exception's
        ``retry_after`` attribute when it carries one).  The final
        failure propagates unchanged.
        """
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on as exc:
                if attempt == self.attempts - 1:
                    raise
                retry_after = getattr(exc, "retry_after", None)
                self._sleep(self.backoff(attempt, retry_after))
        raise AssertionError("unreachable")  # pragma: no cover


class ServiceClient:
    """Retrying JSON client for one :class:`CatalogServer` endpoint.

    ``request`` POSTs one request dict and returns the response dict;
    torn connections and 429/503 replies are retried under ``policy``,
    honoring a numeric ``Retry-After`` (an HTTP-date is no hint).  Other
    error statuses raise :class:`~repro._util.errors.ServingError` at
    once (a 403 will not succeed on retry); a timeout propagates.

    Each request leaves in one ``sendall`` on a keep-alive socket.  A
    reply other than an ``HTTP/1.1`` status line, a head accepted by
    :func:`~repro.serving.server.read_fields` and exactly one plain
    ``Content-Length`` of body bytes is a torn connection.  Any failure
    inside an exchange, and a ``Connection: close`` reply, closes the
    socket; the next call reconnects.  A lock serializes exchanges, so
    threads may share one client.  ``close()`` — or leaving a ``with``
    block — releases the socket.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        timeout: float = 10.0,
    ):
        self.host = host
        self.port = int(port)
        self.policy = policy if policy is not None else RetryPolicy()
        self.timeout = float(timeout)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._lock = threading.Lock()

    def _drop(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def close(self) -> None:
        """Close the connection (a later call reopens it)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, data: bytes) -> tuple[int, dict, bytes]:
        """Send one request; read ``(status, fields, body)`` of its reply."""
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._rfile = sock, sock.makefile("rb")
        self._sock.sendall(data)
        words = self._rfile.readline(65537).split(None, 2)
        if len(words) < 2 or words[0] != b"HTTP/1.1" or not words[1].isdigit():
            raise ConnectionError(f"bad status line {b' '.join(words)!r}")
        fields = read_fields(self._rfile)
        if fields is None or "transfer-encoding" in fields:
            raise ConnectionError("reply head is not strict HTTP/1.1")
        length = fields.get("content-length", [""])
        if len(length) != 1 or not (length[0].isascii() and length[0].isdigit()):
            raise ConnectionError(f"bad Content-Length {length!r}")
        body = self._rfile.read(int(length[0]))
        if len(body) < int(length[0]):
            raise ConnectionError("connection closed mid-reply")
        if "close" in ",".join(fields.get("connection", [])).lower():
            self._drop()
        return int(words[1]), fields, body

    def _roundtrip(self, method: str, path: str, payload: dict | None) -> dict:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        with self._lock:
            try:
                status, fields, data = self._exchange(head.encode() + body)
            except BaseException:
                # The exchange stopped part-way: whatever is left on
                # the socket belongs to no one.  Drop it; the next
                # attempt reconnects.
                self._drop()
                raise
        if status in (429, 503):
            fault = TransientFault(
                f"{method} {path} returned {status}: {data.decode(errors='replace')}"
            )
            hint = fields.get("retry-after", [""])[0]  # an HTTP-date is no hint
            fault.retry_after = int(hint) if hint.isascii() and hint.isdigit() else None
            raise fault
        try:
            decoded = json.loads(data)
        except ValueError as exc:
            raise ServingError(
                f"{method} {path} returned unparseable body: {data!r}"
            ) from exc
        if status != 200:
            raise ServingError(
                f"{method} {path} returned {status}: "
                f"{decoded.get('error')}: {decoded.get('detail')}"
            )
        return decoded

    def request(self, payload: dict) -> dict:
        """POST one request dict; returns the response dict."""

        def attempt() -> dict:
            try:
                return self._roundtrip("POST", "/", payload)
            except ConnectionError as exc:
                raise TransientFault(f"connection torn: {exc}") from exc

        return self.policy.call(attempt)

    def health(self) -> dict:
        """GET ``/health`` (no retries — a probe should not mask state)."""
        return self._roundtrip("GET", "/health", None)

    def stats(self) -> dict:
        """GET ``/stats``."""
        return self._roundtrip("GET", "/stats", None)
