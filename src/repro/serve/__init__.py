"""repro.serve: the multi-tenant coalescing evaluation service.

A zero-heavy-dependency async HTTP/JSON server (stdlib ``asyncio`` only)
that exposes the repro engine to concurrent callers:

* :mod:`repro.serve.batcher` — the coalescing micro-batcher: concurrent
  requests with compatible shapes fuse into one engine dispatch sharing
  the warm process-wide invariant cache;
* :mod:`repro.serve.protocol` — the request schema (one field function
  per endpoint), request parsing, compatibility keys, the shared
  :class:`ServeState` (interned designs, memoized scenario models), and
  the fused batch executors;
* :mod:`repro.serve.http` — the one HTTP/1.1 codec and connection loop
  the worker and the shard router both serve through;
* :mod:`repro.serve.server` — the worker front end (``/evaluate``,
  ``/mc``, ``/splits``, ``/scenarios``, ``/metrics``, ``/healthz``,
  ``/debug/*``), backpressure, deadlines, graceful drain;
* :mod:`repro.serve.shard` — the prefork worker pool: a parent-side
  sticky router (rendezvous-hashed coalescing groups), zero-copy warm
  caches published through :mod:`repro.engine.shm`, aggregated
  ``/metrics`` and ``/healthz``, rolling drain and worker respawn;
* :mod:`repro.serve.client` — a small blocking client used by tests,
  benchmarks, and the smoke script (opt-in 429 retry with jittered
  ``Retry-After`` backoff).

The contract callers rely on: a coalesced response is byte-identical to
the response the same request would get alone on an idle server — with
or without sharding. Batch size is surfaced only in the
``X-Batch-Size`` header, never in a body.
"""

from .batcher import (
    BatchFunction,
    CoalescingBatcher,
    QueueFullError,
    ServerClosingError,
)
from .client import (
    ServeClient,
    ServeClientError,
    ServeResponse,
    ServerDrainingError,
)
from .protocol import (
    BATCHED_ENDPOINTS,
    BadRequestError,
    ServeState,
    WarmBundle,
    build_warm_bundle,
    canonical_json,
    parse_request,
)
from .server import EvalServer, ServerConfig, ServerThread
from .shard import (
    ShardConfig,
    ShardSupervisor,
    ShardThread,
    WorkerUnavailableError,
    rendezvous_worker,
    routing_key,
)

__all__ = [
    "BATCHED_ENDPOINTS",
    "BadRequestError",
    "BatchFunction",
    "CoalescingBatcher",
    "EvalServer",
    "QueueFullError",
    "ServeClient",
    "ServeClientError",
    "ServeResponse",
    "ServeState",
    "ServerClosingError",
    "ServerConfig",
    "ServerDrainingError",
    "ServerThread",
    "ShardConfig",
    "ShardSupervisor",
    "ShardThread",
    "WarmBundle",
    "WorkerUnavailableError",
    "build_warm_bundle",
    "canonical_json",
    "parse_request",
    "rendezvous_worker",
    "routing_key",
]
