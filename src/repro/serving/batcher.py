"""Request-coalescing machinery of the micro-batching solver service.

The batcher is the loop-confined half of :class:`repro.serving.SolverService`:
it groups pending single-RHS solve requests by :class:`GroupKey` — the
(graph fingerprint, solve method, tolerance bucket) triple under which the
batched==looped bit-identity guarantee lets columns share one ``(n, k)``
solve — and hands each group to a flush callback when either the bounded
latency window expires or the group reaches the maximum batch width.

Everything here runs on one asyncio event loop (the service's), so no
locking is needed; the service marshals cross-thread submissions onto the
loop before they reach the batcher.

Tolerance bucketing
-------------------
Requests are grouped by :func:`bucket_tol`, which rounds the requested
tolerance *down* to its decade (``5e-7 -> 1e-7``).  The coalesced solve runs
at the bucket's tolerance, so a request is never solved looser than it
asked for, and every caller's answer is bit-identical to a solo
``operator.solve(b, tol=bucket)`` — the bucket, not the raw request value,
is the reproducibility contract.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import check_tol


def bucket_tol(tol: float) -> float:
    """Quantize a tolerance to its decade floor (``5e-7 -> 1e-7``).

    The bucket is always ``<= tol``, so coalesced solves are at least as
    tight as every member request asked for.  Exact powers of ten map to
    themselves (a small epsilon guards ``log10`` rounding, e.g.
    ``log10(1e-7)`` evaluating just below ``-7``).  A ``tol`` that is not
    finite and positive raises :class:`ValueError`.
    """
    return 10.0 ** math.floor(math.log10(check_tol(tol)) + 1e-12)


@dataclass(frozen=True)
class GroupKey:
    """Coalescing identity: requests with equal keys may share one batch.

    ``fingerprint`` identifies the registered (graph, config, seed)
    operator; ``method`` and ``tol`` (already bucketed) are the per-call
    solve parameters that must match for the batched solve to be
    bit-identical to each member's solo solve.
    """

    fingerprint: str
    method: str
    tol: float


@dataclass
class PendingRequest:
    """One enqueued single-RHS solve awaiting its batch.

    ``registration`` is the service's registration object captured at
    submit time: the batch solve takes its operator from it, so a registry
    swap (``SolverService.update`` re-registering a mutated graph, or
    ``unregister``) can never strand a pending or in-flight request — it
    keeps solving against the graph it was submitted for.
    """

    b: np.ndarray
    future: "asyncio.Future"
    enqueued_at: float
    registration: object


@dataclass
class _Group:
    requests: List[PendingRequest] = field(default_factory=list)
    timer: Optional["asyncio.TimerHandle"] = None


class RequestBatcher:
    """Coalesce pending requests per :class:`GroupKey` under a latency window.

    ``flush`` (the constructor callback) receives ``(key, requests)`` when a
    group is released — because it filled to ``max_batch``, its window
    expired, or :meth:`flush_all` drained it.  With ``window_seconds <= 0``
    or ``max_batch == 1`` every request is released immediately, which is
    the no-coalescing baseline mode the load harness measures against.
    """

    def __init__(
        self,
        *,
        window_seconds: float,
        max_batch: int,
        flush: Callable[[GroupKey, List[PendingRequest]], None],
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 (got {max_batch})")
        if not (math.isfinite(window_seconds) and window_seconds >= 0):
            raise ValueError(f"window_seconds must be finite and >= 0 (got {window_seconds})")
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._flush_cb = flush
        self._groups: Dict[GroupKey, _Group] = {}

    @property
    def pending(self) -> int:
        """Number of requests currently buffered (all groups)."""
        return sum(len(g.requests) for g in self._groups.values())

    def add(self, key: GroupKey, request: PendingRequest) -> None:
        """Buffer ``request`` under ``key``; release the group if full.

        Must be called from the owning event loop (arms ``call_later``
        timers on it).
        """
        group = self._groups.setdefault(key, _Group())
        group.requests.append(request)
        if len(group.requests) >= self.max_batch or self.window_seconds <= 0:
            self.flush(key)
        elif group.timer is None:
            loop = asyncio.get_running_loop()
            group.timer = loop.call_later(self.window_seconds, self.flush, key)

    def flush(self, key: GroupKey) -> None:
        """Release ``key``'s buffered requests to the flush callback now."""
        group = self._groups.pop(key, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        if group.requests:
            self._flush_cb(key, group.requests)

    def flush_all(self) -> None:
        """Release every buffered group (service drain/shutdown)."""
        for key in list(self._groups):
            self.flush(key)
