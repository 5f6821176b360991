"""Micro-batching solver serving layer (asyncio request coalescing).

The serving stack turns the batched-solve advantage measured in
``BENCH_solver.json`` (5–7x over looped solves at ``k = 8``, bit-for-bit
identical results) into solves/sec under concurrent load:

* :class:`SolverService` — the asyncio front-end: ``submit()`` single-RHS
  requests (plus a ``solve_sync`` wrapper for threaded callers), coalesced
  per (graph fingerprint, method, tolerance bucket) into one batched solve
  under a bounded latency window; each registration owns its factorized
  operator.
* :class:`ServiceConfig` — window / batch-width / executor knobs.
* :class:`ServiceStats` — the metrics snapshot (latency percentiles,
  batch-width histogram, update counters) from ``service.stats()``.
* :func:`bucket_tol` / :class:`GroupKey` — the coalescing identity.

See ``benchmarks/bench_serving.py`` for the load-test harness and the
README's "Serving" section for tuning guidance.
"""

from repro.serving.batcher import GroupKey, RequestBatcher, bucket_tol
from repro.serving.metrics import ServiceMetrics, ServiceStats
from repro.serving.service import ServiceConfig, SolverService

__all__ = [
    "SolverService",
    "ServiceConfig",
    "ServiceStats",
    "ServiceMetrics",
    "GroupKey",
    "RequestBatcher",
    "bucket_tol",
]
