"""Sessions and tenant scoping for the serving layer.

A *tenant* is a named principal with a :class:`TenantScope`: the set of
catalog sources it may touch and, optionally, per-column value clamps —
the serving twin of a range shard's partition bounds, letting one
catalog host several tenants whose queries are confined to disjoint
value ranges of shared tables.  A *session* is a token-addressed
handle a client opens for one tenant; every request carries the token,
and the service charges traffic accounting to the session's tenant.

Scope violations raise :class:`~repro._util.errors.ScopeError` (the
HTTP front end maps it to 403), unknown or closed tokens raise
:class:`~repro._util.errors.SessionError` (401).
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass, field

from .._util.errors import ScopeError, SessionError

__all__ = ["TenantScope", "Session", "SessionManager"]


@dataclass(frozen=True)
class TenantScope:
    """What one tenant is allowed to see.

    Parameters
    ----------
    tables:
        Source names the tenant may address, or ``None`` for all.
    value_bounds:
        Optional ``{column: (low, high)}`` clamps: every predicate
        bound, every ingested value and every forgotten row's value on
        ``column`` must lie inside ``[low, high)``.  This is how two
        tenants share one physical table while each sees only its value
        slice.
    """

    tables: frozenset | None = None
    value_bounds: dict | None = None

    def check_source(self, tenant: str, name: str) -> None:
        """Raise :class:`ScopeError` unless ``name`` is in scope."""
        if self.tables is not None and name not in self.tables:
            raise ScopeError(
                f"tenant {tenant!r} may not address source {name!r} "
                f"(scope: {sorted(self.tables)})"
            )

    def check_values(self, tenant: str, column: str, low: int, high: int) -> None:
        """Raise :class:`ScopeError` unless ``[low, high)`` fits the clamp."""
        if not self.value_bounds or column not in self.value_bounds:
            return
        clamp_low, clamp_high = self.value_bounds[column]
        if low < clamp_low or high > clamp_high:
            raise ScopeError(
                f"tenant {tenant!r} is clamped to {column!r} in "
                f"[{clamp_low}, {clamp_high}) but addressed [{low}, {high})"
            )


@dataclass
class Session:
    """One open client session (token-addressed, single-tenant)."""

    token: str
    tenant: str
    scope: TenantScope
    #: Requests served through this session (any operation).
    requests: int = 0
    #: Mutable per-session notes (the HTTP layer stores nothing here
    #: today; tests and embedders may).
    attributes: dict = field(default_factory=dict)


class SessionManager:
    """Thread-safe registry of open sessions.

    Tokens are opaque and unguessable (``secrets``); sessions never
    expire on their own — :meth:`close` is explicit, and the service
    closes everything on shutdown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._opened = 0

    def open(self, tenant: str, scope: TenantScope) -> Session:
        """Open a session for ``tenant`` under ``scope``; returns it."""
        token = f"{tenant}-{secrets.token_hex(12)}"
        session = Session(token=token, tenant=tenant, scope=scope)
        with self._lock:
            self._sessions[token] = session
            self._opened += 1
        return session

    def get(self, token: str) -> Session:
        """The session behind ``token``; :class:`SessionError` if unknown."""
        with self._lock:
            session = self._sessions.get(token)
        if session is None:
            raise SessionError(f"unknown or closed session token {token!r}")
        return session

    def close(self, token: str) -> None:
        """Close a session; :class:`SessionError` if unknown."""
        with self._lock:
            if self._sessions.pop(token, None) is None:
                raise SessionError(f"unknown or closed session token {token!r}")

    def close_all(self) -> int:
        """Close every open session; returns how many were open."""
        with self._lock:
            n = len(self._sessions)
            self._sessions.clear()
        return n

    @property
    def open_count(self) -> int:
        """Currently open sessions."""
        with self._lock:
            return len(self._sessions)

    @property
    def opened_total(self) -> int:
        """Sessions ever opened (monotonic)."""
        with self._lock:
            return self._opened
