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
* :class:`ServiceClient` — a minimal stdlib (:mod:`http.client`)
  JSON client for :class:`~repro.serving.server.CatalogServer` that
  retries torn connections and 429/503 responses under a
  :class:`RetryPolicy`, and raises
  :class:`~repro._util.errors.TransientFault` only when the budget is
  exhausted.  It holds one persistent HTTP/1.1 connection, so a
  request costs no TCP handshake and no new server-side handler
  thread.  An attempt that fails mid-exchange drops that connection;
  the next attempt opens a fresh one.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from .._util.errors import ServingError, TransientFault
from .._util.rng import DEFAULT_SEED, derive_seed

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


#: Connection-level failures worth a retry: the server dropped or tore
#: the socket (a "crashed" worker) before a complete reply arrived.
_TORN_CONNECTION = (
    ConnectionError,
    http.client.BadStatusLine,
    http.client.ImproperConnectionState,
    http.client.IncompleteRead,
)


class ServiceClient:
    """Retrying JSON client for one :class:`CatalogServer` endpoint.

    ``request`` POSTs one request dict and returns the response dict;
    torn connections and 429/503 replies are retried under ``policy``,
    honoring ``Retry-After``.  Other error statuses raise
    :class:`~repro._util.errors.ServingError` immediately (a 403 will
    not succeed on retry).  When the retry budget runs out the last
    transient failure surfaces as
    :class:`~repro._util.errors.TransientFault`.

    Every call goes over one keep-alive connection.  Any failure inside
    an exchange closes it, so a half-read reply never leaks into the
    next call; :mod:`http.client` reopens the socket on the next
    attempt.  A lock serializes exchanges, so one client may be shared
    by threads (they take turns on the connection).  ``close()`` — or
    leaving a ``with`` block — releases the socket.
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
        self._conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection (a later call reopens it)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, method: str, path: str, payload: dict | None) -> dict:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        with self._lock:
            conn = self._conn
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except BaseException:
                # The exchange stopped part-way: whatever is left on
                # the socket belongs to no one.  Drop it; the next
                # attempt reconnects.
                conn.close()
                raise
        status = response.status
        retry_after = response.getheader("Retry-After")
        if status in (429, 503):
            fault = TransientFault(
                f"{method} {path} returned {status}: {data.decode(errors='replace')}"
            )
            fault.retry_after = (
                float(retry_after) if retry_after is not None else None
            )
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
            except _TORN_CONNECTION as exc:
                raise TransientFault(f"connection torn: {exc}") from exc

        return self.policy.call(attempt)

    def health(self) -> dict:
        """GET ``/health`` (no retries — a probe should not mask state)."""
        return self._roundtrip("GET", "/health", None)

    def stats(self) -> dict:
        """GET ``/stats``."""
        return self._roundtrip("GET", "/stats", None)
