"""Serving layer: the catalog as a long-lived multi-tenant service.

See :mod:`repro.serving.server` for the doctrine.  Quick start::

    from repro.serving import QueryService, serve_in_thread

    service = QueryService(catalog)
    service.register_tenant("alice", tables={"obs"})
    server, thread = serve_in_thread(service)          # HTTP on a thread
    token = service.open_session("alice").token        # or over the wire
"""

from .plan_cache import PlanCache, predicate_shape
from .result_cache import ResultCache, ResultEntry, guard_bounds
from .retry import RetryPolicy, ServiceClient
from .server import (
    CatalogServer,
    QueryService,
    make_server,
    predicate_from_json,
    serve_in_thread,
)
from .sessions import Session, SessionManager, TenantScope

__all__ = [
    "PlanCache",
    "predicate_shape",
    "ResultCache",
    "ResultEntry",
    "guard_bounds",
    "QueryService",
    "CatalogServer",
    "make_server",
    "serve_in_thread",
    "predicate_from_json",
    "RetryPolicy",
    "ServiceClient",
    "Session",
    "SessionManager",
    "TenantScope",
]
