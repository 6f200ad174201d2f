"""The catalog as a long-lived service.

Two layers:

* :class:`QueryService` — the transport-independent core: sessions and
  tenant scoping (:mod:`repro.serving.sessions`), admission control (a
  bounded in-flight semaphore), per-tenant traffic accounting, and the
  two caches (:mod:`repro.serving.plan_cache`,
  :mod:`repro.serving.result_cache`).  Requests and responses are plain
  dicts, so tests and embedders can drive it without sockets.
* :class:`CatalogServer` — a wire-simple HTTP/JSON front end on the
  stdlib's threaded :class:`http.server.ThreadingHTTPServer` (no new
  dependencies): ``POST /`` carries one JSON request, ``GET /health``
  and ``GET /stats`` are unauthenticated probes.  Serving-layer errors
  map to status codes (401 unknown session, 403 out of scope, 429
  admission, 400 malformed, 500 internal).

Wire contract: connections are HTTP/1.1 keep-alive, so one client
pays one handshake and occupies one handler thread for all of its
requests.  Each reply is buffered and leaves in one write with Nagle
off.  Request heads go through :func:`read_fields`, the strict head
reader the client shares: ``name: value`` + CRLF lines, at most 100,
or a 400.  Because a connection outlives a request, framing is strict: a
POST must carry one plain ``Content-Length`` of at most
:data:`MAX_REQUEST_BYTES`.  A ``Transfer-Encoding``, a missing (411),
malformed (400) or oversized (413) length is refused before any body
byte is read (and before any ``100 Continue``), and the connection is
closed — a body the server did not consume must never be parsed as
the next request.  ``server_close()``
shuts the read side of every open connection: a reply in flight still
completes, then its handler sees end-of-stream and exits, and
``server_close()`` returns only after every handler thread has.

Correctness doctrine (the serving twin of the equivalence harness):
every cache hit is **bit-identical** to a fresh execution.  The result
cache guarantees it through cohort-set invalidation (see
:mod:`repro.serving.result_cache`); the plan cache through generation
keying (see :mod:`repro.serving.plan_cache`); and on every hit the
entry's active positions are replayed through
``table.record_access``, so the amnesia policies observe exactly the
access stream an uncached service would have produced.  ``paranoid=
True`` additionally re-executes every hit under the same source lock
and raises :class:`~repro._util.errors.ServingError` on any mismatch —
the smoke tests run paranoid, so "zero stale answers" is asserted, not
assumed.

Resilience doctrine: the service degrades before it dies.  Admission
control rejects with 429 + ``Retry-After`` instead of queueing without
bound; per-request deadlines (``make_server(..., deadline=...)``)
abort a wedged handler with 503 instead of occupying its slot forever;
sustained overload flips a *degraded mode* that sheds the paranoid
re-execution and result-cache writes — accuracy scaffolding — before
it would ever shed queries; and ``GET /health`` surfaces in-flight
depth plus the degraded flag so a load balancer can act on the same
signals.  :class:`~repro.serving.retry.RetryPolicy` is the client half
of the contract: exponential backoff with deterministic jitter,
honoring ``Retry-After``.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .._util.errors import (
    AdmissionError,
    QueryError,
    ReproError,
    SchemaError,
    ScopeError,
    ServingError,
    SessionError,
    TransientFault,
)
from .._util.validation import checked_int64
from ..faults import SERVE_HANDLE, SERVE_QUERY, FaultInjected, fault_point
from ..query.predicates import (
    AndPredicate,
    NotPredicate,
    OrPredicate,
    PointPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
)
from ..query.queries import (
    AggregateFunction,
    AggregateQuery,
    RangeQuery,
    RangeResult,
)
from .plan_cache import PlanCache, predicate_shape
from .result_cache import ResultCache, guard_bounds
from .sessions import SessionManager, TenantScope

__all__ = [
    "QueryService",
    "CatalogServer",
    "make_server",
    "serve_in_thread",
    "predicate_from_json",
]


def _json_int(value, name: str) -> int:
    """One integer request field; strings, fractions and overflow are
    a :class:`QueryError` (HTTP 400), never a silent truncation."""
    return int(checked_int64([value], name)[0])


def predicate_from_json(obj) -> Predicate:
    """Build a predicate from its JSON form.

    ``{"type": "range", "column": c, "low": l, "high": h}`` /
    ``{"type": "point", "column": c, "value": v}`` / ``{"type": "true"}``
    and the combinators ``and`` / ``or`` (``"children": [...]``) and
    ``not`` (``"child": {...}``).
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise QueryError(f"malformed predicate {obj!r}")
    kind = obj["type"]
    try:
        if kind == "range":
            return RangePredicate(
                obj["column"],
                _json_int(obj["low"], "range 'low'"),
                _json_int(obj["high"], "range 'high'"),
            )
        if kind == "point":
            return PointPredicate(
                obj["column"], _json_int(obj["value"], "point 'value'")
            )
        if kind == "true":
            return TruePredicate()
        if kind == "and":
            return AndPredicate(*map(predicate_from_json, obj["children"]))
        if kind == "or":
            return OrPredicate(*map(predicate_from_json, obj["children"]))
        if kind == "not":
            return NotPredicate(predicate_from_json(obj["child"]))
    except KeyError as exc:
        raise QueryError(f"predicate {kind!r} lacks field {exc}") from None
    raise QueryError(f"unknown predicate type {kind!r}")


def _fingerprint(positions: np.ndarray) -> str:
    """Order-sensitive digest of a position array (bit-identity proof)."""
    data = np.ascontiguousarray(positions, dtype=np.int64).tobytes()
    return hashlib.sha1(data).hexdigest()


class QueryService:
    """Multi-tenant query service over one :class:`~repro.storage.Catalog`.

    Parameters
    ----------
    catalog:
        The catalog to serve.  The service subscribes to its lifecycle
        hooks, so dropping or recreating a source purges both caches
        for that name.
    max_inflight:
        Admission-control bound: data operations beyond this many
        concurrently in flight are rejected with
        :class:`~repro._util.errors.AdmissionError` (HTTP 429) instead
        of queueing without bound.  Session management is always
        admitted.
    paranoid:
        Verify every result-cache hit against a fresh execution under
        the same source lock; raise ``ServingError`` on mismatch.
    degrade_after:
        Graceful-degradation trigger: after this many consecutive
        admissions at or above the high-water depth (3/4 of
        ``max_inflight``), the service enters *degraded mode* — it
        sheds the paranoid re-execution and stops writing the result
        cache (accuracy scaffolding) while still answering every
        admitted query.  Depth falling to the low-water mark (1/4)
        exits the mode; the hysteresis stops flapping.  ``/health``
        surfaces the flag.
    """

    def __init__(
        self,
        catalog,
        *,
        max_inflight: int = 64,
        plan_cache: PlanCache | None = None,
        result_cache: ResultCache | None = None,
        paranoid: bool = False,
        degrade_after: int = 8,
    ):
        if max_inflight < 1:
            raise ServingError(f"max_inflight must be >= 1, got {max_inflight}")
        if degrade_after < 1:
            raise ServingError(
                f"degrade_after must be >= 1, got {degrade_after}"
            )
        self.catalog = catalog
        self.paranoid = bool(paranoid)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.result_cache = (
            result_cache if result_cache is not None else ResultCache()
        )
        self.sessions = SessionManager()
        self._admission = threading.BoundedSemaphore(int(max_inflight))
        self.max_inflight = int(max_inflight)
        self.degrade_after = int(degrade_after)
        self._high_water = max(1, (3 * int(max_inflight)) // 4)
        self._low_water = int(max_inflight) // 4
        self._inflight = 0
        self._overload_streak = 0
        self._degraded = False
        self._shed_writes = 0
        self._tenants: dict[str, TenantScope] = {}
        self._traffic_lock = threading.Lock()
        self._traffic: dict[str, dict] = {}
        self._rejected = 0
        self._stale_hits = 0
        catalog.add_lifecycle_hook(self._on_lifecycle)

    # -- lifecycle ------------------------------------------------------

    def _on_lifecycle(self, event: str, name: str) -> None:
        """Catalog hook: shed all cached state of a dropped/reused name."""
        self.plan_cache.invalidate_source(name)
        self.result_cache.unwatch(name)

    def close(self) -> None:
        """Detach from the catalog and close every session."""
        self.catalog.remove_lifecycle_hook(self._on_lifecycle)
        self.sessions.close_all()

    # -- tenants & sessions ---------------------------------------------

    def register_tenant(
        self,
        tenant: str,
        *,
        tables=None,
        value_bounds: dict | None = None,
    ) -> TenantScope:
        """Declare a tenant and its scope; returns the scope."""
        scope = TenantScope(
            tables=None if tables is None else frozenset(tables),
            value_bounds=None
            if value_bounds is None
            else {
                column: (int(low), int(high))
                for column, (low, high) in value_bounds.items()
            },
        )
        self._tenants[tenant] = scope
        return scope

    def open_session(self, tenant: str):
        """Open a session for a registered tenant; returns it."""
        scope = self._tenants.get(tenant)
        if scope is None:
            raise SessionError(
                f"unknown tenant {tenant!r} "
                f"(registered: {sorted(self._tenants)})"
            )
        return self.sessions.open(tenant, scope)

    # -- request entry point --------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one request dict; returns the response dict.

        Raises the typed serving errors — the HTTP layer maps them to
        status codes; embedded callers catch them directly.
        """
        if not isinstance(request, dict) or "op" not in request:
            raise QueryError("request must be an object with an 'op' field")
        op = request["op"]
        if op == "open_session":
            session = self.open_session(str(request.get("tenant", "")))
            return {"ok": True, "token": session.token, "tenant": session.tenant}
        if op == "close_session":
            self.sessions.close(str(request.get("token", "")))
            return {"ok": True}
        if op == "stats":
            return self.stats()
        session = self.sessions.get(str(request.get("token", "")))
        if not self._admission.acquire(blocking=False):
            with self._traffic_lock:
                self._rejected += 1
                self._tenant_counters(session.tenant)["rejected"] += 1
            raise AdmissionError(
                f"service at capacity ({self.max_inflight} in flight)"
            )
        try:
            with self._traffic_lock:
                session.requests += 1
                self._inflight += 1
                self._note_load_locked()
            fault_point(SERVE_HANDLE)
            if op == "query":
                return self._query(session, request)
            if op == "ingest":
                return self._ingest(session, request)
            if op == "forget":
                return self._forget(session, request)
            if op == "explain":
                return self._explain(session, request)
            raise QueryError(f"unknown operation {op!r}")
        finally:
            self._admission.release()
            with self._traffic_lock:
                self._inflight -= 1

    def _note_load_locked(self) -> None:
        """Track sustained overload; caller holds ``_traffic_lock``.

        Hysteresis: ``degrade_after`` consecutive admissions at or
        above the high-water depth enter degraded mode; only falling
        back to the low-water depth exits it.  In between, the mode
        holds whatever it was — no flapping at the boundary.
        """
        if self._inflight >= self._high_water:
            self._overload_streak += 1
            if self._overload_streak >= self.degrade_after:
                self._degraded = True
        else:
            self._overload_streak = 0
            if self._inflight <= self._low_water:
                self._degraded = False

    @property
    def degraded(self) -> bool:
        """Is the service currently shedding accuracy scaffolding?"""
        with self._traffic_lock:
            return self._degraded

    def health(self) -> dict:
        """Liveness probe payload: load and degradation signals.

        ``inflight`` is the instantaneous admitted-request depth,
        ``degraded`` the graceful-degradation flag, ``rejected`` and
        ``shed_writes`` the cumulative shed counters — everything a
        load balancer needs to route around a hot replica.
        """
        with self._traffic_lock:
            return {
                "ok": True,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "degraded": self._degraded,
                "rejected": self._rejected,
                "shed_writes": self._shed_writes,
            }

    # -- scoping --------------------------------------------------------

    def _tenant_counters(self, tenant: str) -> dict:
        return self._traffic.setdefault(
            tenant,
            {
                "queries": 0,
                "cache_hits": 0,
                "ingests": 0,
                "forgets": 0,
                "rows_returned": 0,
                "rows_ingested": 0,
                "rows_forgotten": 0,
                "rejected": 0,
            },
        )

    def _check_query_scope(self, session, table, predicate: Predicate) -> None:
        """Enforce the tenant's value clamps on a query predicate."""
        scope = session.scope
        if not scope.value_bounds:
            return
        guard = guard_bounds(predicate)
        by_column = {} if guard is None else {c: (lo, hi) for c, lo, hi in guard}
        for column in scope.value_bounds:
            if not table.has_column(column):
                continue
            if column not in by_column:
                raise ScopeError(
                    f"tenant {session.tenant!r} is clamped on {column!r}: "
                    "queries must carry provable bounds on it"
                )
            low, high = by_column[column]
            scope.check_values(session.tenant, column, low, high)

    # -- query path -----------------------------------------------------

    def _parse_query(self, request: dict):
        kind = request.get("kind", "range")
        raw = request.get("predicate")  # absent and null both mean "all"
        predicate = predicate_from_json(
            raw if raw is not None else {"type": "true"}
        )
        if kind == "range":
            query = RangeQuery(predicate)
            key = ("range", predicate_shape(predicate))
        elif kind == "aggregate":
            try:
                function = AggregateFunction(str(request["function"]))
                column = str(request["column"])
            except KeyError as exc:
                raise QueryError(f"aggregate query lacks field {exc}") from None
            except ValueError:
                raise QueryError(
                    f"unknown aggregate function {request.get('function')!r}"
                ) from None
            bare = request.get("predicate") is None
            query = AggregateQuery(function, column, None if bare else predicate)
            key = ("agg", function.value, column, predicate_shape(predicate))
        else:
            raise QueryError(f"unknown query kind {kind!r}")
        return query, key

    def _execute(self, table, query, epoch: int, *, plan=None):
        """Run ``query`` through the table's catalog executor.

        :meth:`QueryExecutor.match` does the validation, matching and
        access accounting, exactly as for :meth:`Catalog.execute`; this
        only shapes the JSON payload.  Returns
        ``(payload, active, missed)``.
        """
        executor = self.catalog.executor(table.name)
        active, missed = executor.match(query, epoch, plan=plan)
        if isinstance(query, RangeQuery):
            result = RangeResult(
                query=query, active_positions=active, missed_positions=missed
            )
            payload = {
                "kind": "range",
                "rf": result.rf,
                "mf": result.mf,
                "oracle_count": result.oracle_count,
                "precision": result.precision,
            }
        else:
            result = executor.aggregate(query, active, missed)
            payload = {
                "kind": "aggregate",
                "function": query.function.value,
                "column": query.column,
                "amnesiac_value": result.amnesiac_value,
                "oracle_value": result.oracle_value,
                "active_matches": result.active_matches,
                "oracle_matches": result.oracle_matches,
            }
        payload["fingerprint"] = {
            "active": _fingerprint(active),
            "missed": _fingerprint(missed),
        }
        return payload, active, missed

    def _query(self, session, request: dict) -> dict:
        name = str(request.get("source", ""))
        session.scope.check_source(session.tenant, name)
        query, key = self._parse_query(request)
        predicate = (
            query.predicate
            if isinstance(query, RangeQuery)
            else query.effective_predicate()
        )
        # Nothing is mutated yet — no lock held, no access recorded —
        # so a crash injected here retries bit-identically.
        fault_point(SERVE_QUERY)
        degraded = self.degraded
        with self.catalog.source_lock(name):
            table = self.catalog.get(name)
            self._check_query_scope(session, table, predicate)
            self.result_cache.watch(name, table)
            epoch = max(table.cohorts.latest_epoch, 0)
            entry = self.result_cache.lookup(name, key)
            if entry is not None:
                # Degraded mode sheds the paranoid re-execution (the
                # most expensive accuracy scaffolding) before anything
                # else; the cohort-invalidated cache entry is still
                # correct, just no longer double-checked.
                if self.paranoid and not degraded:
                    # Fresh execution does the access recording; the
                    # two payloads must be bit-identical or the cache
                    # broke its contract.
                    fresh, _, _ = self._execute(table, query, epoch)
                    if fresh != entry.payload:
                        with self._traffic_lock:
                            self._stale_hits += 1
                        raise ServingError(
                            f"stale cache hit on {name!r}: cached "
                            f"{entry.payload} != fresh {fresh}"
                        )
                else:
                    table.record_access(entry.active_positions, epoch)
                payload = entry.payload
                cached = True
            else:
                planner = self.catalog.planner(name)
                shape = (
                    key[-1],
                    tuple(query.columns),
                )  # predicate shape + projected columns
                generation = planner.generation
                plan = self.plan_cache.lookup(name, shape, generation)
                if plan is None:
                    plan = planner.plan(predicate)
                    self.plan_cache.store(name, shape, generation, plan)
                payload, active, missed = self._execute(
                    table, query, epoch, plan=plan
                )
                if degraded:
                    # Shed the cache write, not the query: the answer
                    # still ships, the service just stops investing in
                    # future hits while overloaded.
                    with self._traffic_lock:
                        self._shed_writes += 1
                else:
                    self.result_cache.store(
                        name,
                        key,
                        payload,
                        active,
                        missed,
                        table,
                        guard_bounds(predicate),
                    )
                cached = False
        with self._traffic_lock:
            counters = self._tenant_counters(session.tenant)
            counters["queries"] += 1
            counters["cache_hits"] += int(cached)
            counters["rows_returned"] += int(
                payload.get("rf", payload.get("active_matches", 0))
            )
        response = dict(payload)
        response.update(ok=True, cached=cached, source=name, epoch=epoch)
        return response

    def _explain(self, session, request: dict) -> dict:
        name = str(request.get("source", ""))
        session.scope.check_source(session.tenant, name)
        query, _ = self._parse_query(request)
        with self.catalog.source_lock(name):
            plan = self.catalog.plan(name, query)
        return {
            "ok": True,
            "source": name,
            "mode": plan.mode,
            "plan": plan.describe(),
        }

    # -- write path -----------------------------------------------------

    def _ingest(self, session, request: dict) -> dict:
        name = str(request.get("source", ""))
        session.scope.check_source(session.tenant, name)
        rows = request.get("rows")
        if not isinstance(rows, dict) or not rows:
            raise QueryError("ingest needs a non-empty 'rows' column mapping")
        rows = {
            column: checked_int64(values, f"ingest column {column!r}")
            for column, values in rows.items()
        }
        scope = session.scope
        if scope.value_bounds:
            for column, values in rows.items():
                if column in scope.value_bounds and values.size:
                    scope.check_values(
                        session.tenant,
                        column,
                        int(values.min()),
                        int(values.max()) + 1,
                    )
        with self.catalog.source_lock(name):
            table = self.catalog.get(name)
            self.result_cache.watch(name, table)
            epoch = table.cohorts.latest_epoch + 1
            positions = table.insert_batch(epoch, rows)
        with self._traffic_lock:
            counters = self._tenant_counters(session.tenant)
            counters["ingests"] += 1
            counters["rows_ingested"] += int(positions.size)
        return {
            "ok": True,
            "source": name,
            "inserted": int(positions.size),
            "epoch": epoch,
        }

    def _forget(self, session, request: dict) -> dict:
        """Forget named positions, or the first ``n`` active ones.

        A tenant clamped by ``value_bounds`` may forget only rows whose
        clamped values it could read: a named position outside the
        clamp is a :class:`ScopeError` with nothing forgotten, and the
        ``n`` form counts only in-clamp rows.
        """
        name = str(request.get("source", ""))
        scope = session.scope
        scope.check_source(session.tenant, name)
        with self.catalog.source_lock(name):
            table = self.catalog.get(name)
            self.result_cache.watch(name, table)
            epoch = max(table.cohorts.latest_epoch, 0)
            clamped = {
                column: bounds
                for column, bounds in (scope.value_bounds or {}).items()
                if table.has_column(column)
            }
            named = "positions" in request
            if named:
                positions = checked_int64(
                    request["positions"], "forget positions"
                )
                if positions.size and (
                    positions.min() < 0 or positions.max() >= table.total_rows
                ):
                    raise QueryError(
                        f"forget positions must lie in [0, {table.total_rows})"
                    )
            else:
                n = _json_int(request.get("n", 0), "forget 'n'")
                if n < 1:
                    raise QueryError("forget needs 'positions' or a positive 'n'")
                positions = table.active_positions()
            if clamped:
                inside = np.ones(positions.size, dtype=bool)
                for column, (low, high) in clamped.items():
                    values = table.values(column)[positions]
                    inside &= (values >= low) & (values < high)
                if named and not inside.all():
                    raise ScopeError(
                        f"tenant {session.tenant!r} may not forget rows "
                        f"outside its clamp on {sorted(clamped)}"
                    )
                positions = positions[inside]
            if not named:
                positions = positions[:n]
            forgotten = table.forget(positions, epoch)
        with self._traffic_lock:
            counters = self._tenant_counters(session.tenant)
            counters["forgets"] += 1
            counters["rows_forgotten"] += int(forgotten)
        return {"ok": True, "source": name, "forgotten": int(forgotten), "epoch": epoch}

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        """Service-wide counters: caches, sessions, per-tenant traffic.

        Per-tenant ``access_total`` reuses the storage layer's access
        counters — the same signal the rot/overuse policies learn from
        — summed over the tenant's visible tables.
        """
        with self._traffic_lock:
            traffic = {
                tenant: dict(counters)
                for tenant, counters in self._traffic.items()
            }
            rejected = self._rejected
            stale = self._stale_hits
        for tenant, counters in traffic.items():
            scope = self._tenants.get(tenant)
            total = 0
            for name in self.catalog.names():
                if scope is None or scope.tables is None or name in scope.tables:
                    total += int(self.catalog.get(name).access_counts().sum())
            counters["access_total"] = total
        return {
            "ok": True,
            "sessions_open": self.sessions.open_count,
            "sessions_opened": self.sessions.opened_total,
            "rejected": rejected,
            "stale_hits": stale,
            "plan_cache": self.plan_cache.stats(),
            "result_cache": self.result_cache.stats(),
            "tenants": traffic,
        }


# -- HTTP layer ---------------------------------------------------------

#: Serving error type → HTTP status.  ``TransientFault`` (an injected
#: or environmental blip the client should retry) maps to 503 and
#: carries ``Retry-After``, like the deadline timeout.
_STATUS = (
    (SessionError, 401),
    (ScopeError, 403),
    (AdmissionError, 429),
    (TransientFault, 503),
    (ServingError, 500),
    (SchemaError, 400),
    (QueryError, 400),
    (ReproError, 400),
)

#: Largest POST body the server will read, in bytes.  A longer
#: ``Content-Length`` is refused with 413 before any of it is read.
MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: Backoff hint (seconds) sent with every 429/503 — coarse on purpose:
#: it is a floor for the client's jittered exponential backoff, not a
#: schedule (see :class:`repro.serving.retry.RetryPolicy`).
RETRY_AFTER_SECONDS = 1


def _status_for(exc: Exception) -> int:
    for kind, status in _STATUS:
        if isinstance(exc, kind):
            return status
    return 500


def read_fields(rfile) -> dict[str, list[str]] | None:
    """Read a head's header lines (both ends of the wire use this).

    Returns each lower-cased name's values in arrival order, or None if
    a line is not ``name: value`` + CRLF (whitespace in or around the
    name, obs-fold included), exceeds 64 KiB or 100 lines, or is cut off.
    """
    fields: dict[str, list[str]] = {}
    for _ in range(101):
        line = rfile.readline(65537)
        if line == b"\r\n":
            return fields
        name, colon, value = line.partition(b":")
        if not colon or not line.endswith(b"\r\n") or name.split() != [name]:
            return None
        fields.setdefault(name.decode("latin-1").lower(), []).append(
            value.strip().decode("latin-1")
        )
    return None


class _Handler(BaseHTTPRequestHandler):
    """One JSON request per POST; probes on GET."""

    service: QueryService  # set by make_server on the subclass
    protocol_version = "HTTP/1.1"
    # Buffer the reply (``handle_one_request`` flushes once per request)
    # and send it without Nagle's delay: headers and body leave together.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service keeps its own counters; stderr stays quiet

    def parse_request(self) -> bool:
        """Read the head with :func:`read_fields` and check its framing,
        both before any ``100 Continue``; False after a refusal."""
        self.command, self.request_version = None, "HTTP/1.1"
        self.requestline = self.raw_requestline.decode("latin-1").rstrip("\r\n")
        words = self.requestline.split()
        strict = len(words) == 3 and words[2] in ("HTTP/1.0", "HTTP/1.1")
        self.headers = read_fields(self.rfile) if strict else None
        if self.headers is None:
            self._refuse(400, "BadRequest", "malformed request head")
            return False
        self.command, self.path, self.request_version = words
        connection = ",".join(self.headers.get("connection", [])).lower()
        self.close_connection = "close" in connection or words[2] == "HTTP/1.0"
        self.content_length = self._body_length()
        if self.content_length is None:
            return False
        expect = ",".join(self.headers.get("expect", [])).lower()
        if expect == "100-continue" and words[2] == "HTTP/1.1":
            # Sent at once: the client holds its body back until then.
            self.send_response_only(100)
            self.end_headers()
            self.wfile.flush()
        return True

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if status in (429, 503):
            # Shed-load statuses carry the backoff hint load balancers
            # and RetryPolicy honor.
            self.send_header("Retry-After", str(RETRY_AFTER_SECONDS))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _refuse(self, status: int, error: str, detail: str) -> None:
        """Reply ``status`` and close: the request's body is unread."""
        self.close_connection = True
        self._reply(status, {"ok": False, "error": error, "detail": detail})

    def _body_length(self) -> int | None:
        """The request's ``Content-Length``, or None after a refusal.

        Only a single plain decimal length is accepted.  Anything else
        leaves the position of the next request on the connection
        unknown, so it is refused without reading a byte.
        """
        if "transfer-encoding" in self.headers:
            self._refuse(400, "BadFraming", "Transfer-Encoding is not supported")
            return None
        values = self.headers.get("content-length", [])
        if not values:
            if self.command == "POST":
                self._refuse(411, "LengthRequired", "POST needs a Content-Length")
                return None
            return 0
        raw = values[0]
        if len(values) > 1 or not (raw.isascii() and raw.isdigit()):
            self._refuse(400, "BadFraming", f"bad Content-Length {values!r}")
            return None
        length = int(raw)
        if length > MAX_REQUEST_BYTES:
            self._refuse(
                413,
                "RequestTooLarge",
                f"body of {length} bytes exceeds {MAX_REQUEST_BYTES}",
            )
            return None
        if length and self.command != "POST":
            self._refuse(400, "BadFraming", f"{self.command} takes no body")
            return None
        return length

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._reply(200, self.service.health())
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"ok": False, "error": "NotFound"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        body = self.rfile.read(self.content_length)
        if len(body) < self.content_length:
            # The client hung up mid-body: nothing to answer, and a
            # truncated request must not run.
            self.close_connection = True
            return
        try:
            request = json.loads(body or b"{}")
            response = self._dispatch(request)
            self._reply(200, response)
        except json.JSONDecodeError as exc:
            self._reply(400, {"ok": False, "error": "BadJSON", "detail": str(exc)})
        except FaultInjected:
            # A simulated worker crash: drop the connection without a
            # reply, exactly what a killed process would do.  The
            # client sees a torn connection and retries.
            self.close_connection = True
        except FutureTimeoutError:
            # Deadline exceeded: the handler slot is freed with a 503
            # while the wedged execution finishes in the dispatch pool
            # (its admission slot stays held until then — sustained
            # wedging therefore drives the degradation signal).
            self._reply(
                503,
                {
                    "ok": False,
                    "error": "DeadlineExceeded",
                    "detail": f"request exceeded {self.server.deadline}s",
                },
            )
        except Exception as exc:  # typed errors → status codes
            self._reply(
                _status_for(exc),
                {"ok": False, "error": type(exc).__name__, "detail": str(exc)},
            )

    def _dispatch(self, request: dict) -> dict:
        """Run one request, under the server's deadline if it has one."""
        deadline = self.server.deadline
        if deadline is None:
            return self.service.handle(request)
        future = self.server.dispatch_pool.submit(self.service.handle, request)
        try:
            return future.result(timeout=deadline)
        except FutureTimeoutError:
            future.cancel()  # best-effort; a running handler finishes
            raise


class CatalogServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`QueryService`.

    Each accepted connection gets a daemon handler thread that serves
    it until the client hangs up.  The server tracks those connections
    so :meth:`server_close` can end them: a keep-alive connection would
    otherwise go on answering after the server was closed.
    """

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog (5) resets connections under a
    # concurrent-client burst; admission control, not the accept queue,
    # is the intended load shedder.
    request_queue_size = 128

    #: Per-request deadline in seconds (None: no deadline) and the
    #: executor that enforces it; both set by :func:`make_server`.
    deadline: float | None = None
    dispatch_pool: ThreadPoolExecutor | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._live_lock = threading.Lock()
        #: Open connection -> the handler thread serving it.
        self._live: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=self.daemon_threads,
        )
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, end every open connection, join its handler.

        Shutting only the read side lets a reply in flight complete;
        the handler's next read then sees end-of-stream and it exits.
        Call after :meth:`shutdown` (or once ``serve_forever`` has
        returned), so no connection is accepted meanwhile.
        """
        super().server_close()
        with self._live_lock:
            live = list(self._live.items())
        for request, _ in live:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler
        for _, thread in live:
            thread.join()
        if self.dispatch_pool is not None:
            self.dispatch_pool.shutdown(wait=False)


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    deadline: float | None = None,
) -> CatalogServer:
    """Build (but do not start) an HTTP server for ``service``.

    ``port=0`` binds an ephemeral port; read it back from
    ``server.server_address``.  With ``deadline`` (seconds), each POST
    executes on a dispatch pool and a request still running at the
    deadline returns 503 + ``Retry-After`` instead of wedging its
    handler slot — the execution itself runs to completion in the
    background, so no lock is ever abandoned mid-flight.
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = CatalogServer((host, port), handler)
    if deadline is not None:
        if not deadline > 0:
            raise ServingError(f"deadline must be > 0 seconds, got {deadline}")
        server.deadline = float(deadline)
        server.dispatch_pool = ThreadPoolExecutor(
            max_workers=service.max_inflight + 4,
            thread_name_prefix="repro-dispatch",
        )
    return server


def serve_in_thread(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    deadline: float | None = None,
) -> tuple[CatalogServer, threading.Thread]:
    """Start a server on a daemon thread; returns ``(server, thread)``.

    Stop with ``server.shutdown(); thread.join()``.
    """
    server = make_server(service, host, port, deadline=deadline)
    thread = threading.Thread(
        target=server.serve_forever, name="catalog-server", daemon=True
    )
    thread.start()
    return server, thread

