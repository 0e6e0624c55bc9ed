"""Multi-tenant streaming query service over the online engines.

The batch engines answer a query and exit; a monitoring deployment runs
*standing* queries over live feeds — registered and cancelled while the
stream runs, with results pushed as they close and the whole service
migratable between processes mid-stream.  This package is that layer:

* :class:`QueryService` — the asyncio service core (streams, stepping,
  result push, snapshot/resume);
* :class:`ServiceClient` — a tenant's in-process handle;
* :class:`AdmissionController` / :class:`TenantQuota` — per-tenant
  admission control at the registration boundary;
* :class:`ServiceState` — the versioned migration bundle.

See DESIGN.md § "Service layer" for the lifecycle and bundle format.
"""

from repro.service.admission import AdmissionController, TenantQuota
from repro.service.client import ServiceClient
from repro.service.migration import SERVICE_BUNDLE_VERSION, ServiceState
from repro.service.service import QueryService, ResultEvent

__all__ = [
    "QueryService",
    "ServiceClient",
    "ResultEvent",
    "AdmissionController",
    "TenantQuota",
    "ServiceState",
    "SERVICE_BUNDLE_VERSION",
]
