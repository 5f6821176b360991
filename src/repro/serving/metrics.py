"""Service-level counters for the micro-batching solver service.

:class:`ServiceMetrics` is the mutable, lock-guarded accumulator the
service updates as requests flow through (submissions land on the event
loop; batch solves report from executor threads).  :meth:`ServiceMetrics.snapshot`
freezes it into an immutable :class:`ServiceStats` with derived figures —
latency percentiles, batch-width histogram and mean — which is what
``SolverService.stats()`` returns and what the load harness serializes into
``BENCH_serving.json``.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict

import numpy as np

#: Bound on the retained per-request latency samples (reservoir for the
#: percentile figures; oldest samples are discarded beyond this).
LATENCY_RESERVOIR = 100_000


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of a service's counters.

    ``requests`` counts every accepted submission; ``served`` those that
    returned a result; ``failed``/``cancelled`` the ones that raised or
    were abandoned.  ``batches`` is the number of batched
    solves dispatched, ``coalesced_requests`` the requests served in a
    batch of width >= 2.  ``updates`` counts
    ``SolverService.update`` calls that mutated a registration, and
    ``updates_rebuilt`` the subset whose edit batch fell back to a full
    re-factorization.  Latency figures are end-to-end per request (enqueue
    to result), in seconds.
    """

    requests: int
    served: int
    failed: int
    cancelled: int
    batches: int
    coalesced_requests: int
    updates: int
    updates_rebuilt: int
    batch_width_histogram: Dict[int, int]
    max_batch_width: int
    mean_batch_width: float
    latency_count: int
    latency_mean: float
    latency_p50: float
    latency_p99: float
    solve_seconds: float


class ServiceMetrics:
    """Lock-guarded accumulator behind :class:`ServiceStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._served = 0
        self._failed = 0
        self._cancelled = 0
        self._batches = 0
        self._coalesced_requests = 0
        self._updates = 0
        self._updates_rebuilt = 0
        self._batch_widths: Counter = Counter()
        self._latencies: deque = deque(maxlen=LATENCY_RESERVOIR)
        self._solve_seconds = 0.0

    def record_request(self) -> None:
        with self._lock:
            self._requests += 1

    def record_batch(self, width: int, *, solve_seconds: float) -> None:
        with self._lock:
            self._batches += 1
            self._batch_widths[int(width)] += 1
            if width >= 2:
                self._coalesced_requests += width
            self._solve_seconds += solve_seconds

    def record_served(self, latency_seconds: float) -> None:
        with self._lock:
            self._served += 1
            self._latencies.append(float(latency_seconds))

    def record_failed(self, count: int = 1) -> None:
        with self._lock:
            self._failed += count

    def record_cancelled(self, count: int = 1) -> None:
        with self._lock:
            self._cancelled += count

    def record_update(self, *, rebuilt: bool) -> None:
        with self._lock:
            self._updates += 1
            if rebuilt:
                self._updates_rebuilt += 1

    def snapshot(self) -> ServiceStats:
        with self._lock:
            widths = dict(sorted(self._batch_widths.items()))
            total_width = sum(w * c for w, c in widths.items())
            batches = self._batches
            lat = np.asarray(self._latencies, dtype=float)
            return ServiceStats(
                requests=self._requests,
                served=self._served,
                failed=self._failed,
                cancelled=self._cancelled,
                batches=batches,
                coalesced_requests=self._coalesced_requests,
                updates=self._updates,
                updates_rebuilt=self._updates_rebuilt,
                batch_width_histogram=widths,
                max_batch_width=max(widths) if widths else 0,
                mean_batch_width=total_width / batches if batches else 0.0,
                latency_count=int(lat.size),
                latency_mean=float(lat.mean()) if lat.size else 0.0,
                latency_p50=float(np.percentile(lat, 50)) if lat.size else 0.0,
                latency_p99=float(np.percentile(lat, 99)) if lat.size else 0.0,
                solve_seconds=self._solve_seconds,
            )
