"""Routing as a service: the persistent engine daemon.

The :class:`~repro.engine.supervisor.RoutingEngine` cascade already has
the contract of a production backend — deadlines, retries, structured
errors, graceful partial results.  This package wraps it in a long-lived
local daemon so other flow stages can *call* the router instead of
shelling out to a script:

* :mod:`repro.service.protocol` — newline-delimited JSON over a Unix
  domain socket (requests, responses, error envelopes);
* :mod:`repro.service.cache` — the canonical-instance result cache
  (content-hashed under translation / mirror / net relabeling via
  :mod:`repro.netlist.canonical`);
* :mod:`repro.service.store` — the cache's durable journal + snapshot
  backing (``repro serve --cache-dir``): crash-safe appends, atomic
  compaction, corruption-tolerant replay;
* :mod:`repro.service.workers` — a pool of warm worker processes,
  each job sent to the first idle worker;
* :mod:`repro.service.server` — the asyncio front door: bounded job
  queue, cost-model admission control (``SERVICE_OVERLOADED`` shedding),
  per-job telemetry, graceful SIGTERM drain;
* :mod:`repro.service.client` — the blocking client used by
  ``repro submit`` and the end-to-end service benchmark.

See ``docs/SERVICE.md`` for the protocol and semantics.
"""

from repro.service.cache import CanonicalCache
from repro.service.client import ServiceClient
from repro.service.server import RoutingService, ServiceConfig
from repro.service.store import CacheStore
from repro.service.workers import WorkerPool

__all__ = [
    "CacheStore",
    "CanonicalCache",
    "RoutingService",
    "ServiceClient",
    "ServiceConfig",
    "WorkerPool",
]
