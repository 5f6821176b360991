"""Micro-batching solver service: asyncio coalescing over registered operators.

``BENCH_solver.json``'s key lever is that a batched ``(n, k)`` solve is
5–7x faster than ``k`` looped solves at ``k = 8`` — and, since PR 4,
bit-for-bit identical to them.  :class:`SolverService` turns that into
serving throughput: concurrent single-RHS requests against the same
registered graph are buffered for a bounded latency window (or until a
maximum batch width), coalesced into one batched
:meth:`~repro.core.operator.LaplacianOperator.solve`, and scattered back
per caller via :meth:`~repro.core.operator.SolveReport.split` — so every
caller receives exactly the answer (and per-request work/depth accounting)
a solo solve would have produced.

Each registration owns its operator: it is factorized at most once (at
``register(warm=True)``, otherwise by the first batch), through the chain
cache so a registration of an already-factorized (matrix, config, seed)
shares that operator.  Batches never consult the cache again, so resident
operators are bounded by the live registrations plus the cache's LRU
capacity, and :meth:`SolverService.unregister` drops the service's
reference.

Usage — asyncio::

    service = SolverService()
    fp = service.register(graph, seed=0)
    async with service:
        reports = await asyncio.gather(
            *[service.submit(fp, b, tol=1e-8) for b in rhs_pool]
        )

Usage — synchronous callers (the service runs its own loop thread)::

    with service:                       # start()/stop()
        report = service.solve_sync(fp, b, tol=1e-8)
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import chain_cache
from repro.core.config import ChainConfig, SolverConfig, check_count, check_method
from repro.core.operator import LaplacianOperator, MatrixInput, SolveReport, factorize
from repro.graph.graph import Graph
from repro.serving.batcher import GroupKey, PendingRequest, RequestBatcher, bucket_tol
from repro.serving.metrics import ServiceMetrics, ServiceStats


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable knobs of the micro-batching front-end.

    Attributes
    ----------
    window_seconds:
        Bounded coalescing latency: the first request of a group waits at
        most this long before its batch is dispatched.  Finite and
        ``>= 0``; ``0`` disables coalescing (every request solves solo —
        the baseline mode).
    max_batch:
        Maximum coalesced width; a group dispatches immediately when it
        fills.  ``BENCH_solver.json`` shows the batched-speedup curve is
        still climbing at ``k = 8``, so widths of 8–32 are the sweet spot.
    executor_workers:
        Threads in the solve executor.  Solves are GIL-bound today
        (``BENCH_concurrency.json``), so 1 worker loses no throughput; more
        workers reduce head-of-line blocking between *different* groups.
    """

    window_seconds: float = 0.004
    max_batch: int = 16
    executor_workers: int = 1

    def __post_init__(self) -> None:
        # A NaN or infinite window never expires: ``call_later`` would hold
        # the first request of every group forever.
        if not (math.isfinite(self.window_seconds) and self.window_seconds >= 0):
            raise ValueError(
                f"window_seconds must be finite and >= 0 (got {self.window_seconds})"
            )
        check_count("max_batch", self.max_batch)
        check_count("executor_workers", self.executor_workers)


@dataclass(eq=False)
class _Registration:
    """One registered matrix and the operator that serves it."""

    matrix: MatrixInput
    n: int
    chain_config: ChainConfig
    solver_config: SolverConfig
    seed: object
    factorized: Optional[LaplacianOperator] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def operator(self) -> LaplacianOperator:
        """The registration's operator, factorized on first use only.

        The lock makes concurrent first batches (different tol buckets on
        different executor threads) share one factorization.  Non-integer
        seeds bypass the chain cache inside ``factorize``.
        """
        with self.lock:
            if self.factorized is None:
                self.factorized = factorize(
                    self.matrix,
                    self.chain_config,
                    self.solver_config,
                    seed=self.seed,
                    cache=True,
                )
            return self.factorized


def _as_single_rhs(b: np.ndarray) -> np.ndarray:
    """Validate one submitted right-hand side: a finite ``(n,)`` vector."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError("submit() takes a single right-hand side of shape (n,)")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite (found NaN or inf entries)")
    return b


class SolverService:
    """Coalesce concurrent single-RHS solve requests into batched solves.

    Construction is cheap and synchronous; the asyncio front-end activates
    with :meth:`astart`/:meth:`aclose` (``async with service``) on the
    caller's loop, or :meth:`start`/:meth:`stop` (``with service``) which
    spin a private loop thread so plain synchronous callers — including
    many threads at once — can use :meth:`solve_sync` and still coalesce
    with each other.

    ``chain``/``solver``/``seed`` are the defaults applied when
    :meth:`register` (or auto-registration through :meth:`submit`) is not
    given explicit configuration.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        chain: Optional[ChainConfig] = None,
        solver: Optional[SolverConfig] = None,
        seed: int = 0,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._chain = chain if chain is not None else ChainConfig()
        self._solver = solver if solver is not None else SolverConfig()
        self._seed = seed
        self._registry: Dict[str, _Registration] = {}
        self._registry_lock = threading.Lock()
        self._metrics = ServiceMetrics()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[RequestBatcher] = None
        self._inflight: set = set()
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        matrix: MatrixInput,
        *,
        chain: Optional[ChainConfig] = None,
        solver: Optional[SolverConfig] = None,
        seed: object = None,
        warm: bool = True,
    ) -> str:
        """Register ``matrix`` for coalesced serving; returns its fingerprint.

        The registration owns its operator.  ``warm=True`` factorizes it
        now so the first request pays no setup; ``warm=False`` defers that
        to the first dispatched batch.  Either way it is factorized once,
        through the chain cache (integer seeds only).  Matrices whose
        :func:`~repro.core.chain_cache.fingerprint_matrix` is ``None``
        cannot be registered (or submitted) and raise :class:`ValueError`.
        """
        chain_cfg = chain if chain is not None else self._chain
        solver_cfg = solver if solver is not None else self._solver
        seed = self._seed if seed is None else seed
        fp = chain_cache.fingerprint_matrix(matrix)
        if fp is None:
            raise ValueError(
                "matrix cannot be fingerprinted; solve it with "
                "repro.factorize(...).solve instead"
            )
        reg = _Registration(
            matrix=matrix,
            n=matrix.n if isinstance(matrix, Graph) else int(matrix.shape[0]),
            chain_config=chain_cfg,
            solver_config=solver_cfg,
            seed=seed,
        )
        if warm:
            reg.operator()
        with self._registry_lock:
            self._registry[fp] = reg
        return fp

    def unregister(self, fingerprint: str) -> bool:
        """Drop a registration (and with it the service's operator reference).

        Requests already submitted under ``fingerprint`` still complete.
        """
        with self._registry_lock:
            return self._registry.pop(fingerprint, None) is not None

    def update(self, fingerprint: str, edits) -> Tuple[str, object]:
        """Apply a batched edge edit to a registered graph; returns the new
        fingerprint and the :class:`~repro.core.update.UpdateReport`.

        The registered operator is updated through
        :meth:`LaplacianOperator.update <repro.core.operator.LaplacianOperator.update>`
        — patched incrementally when the edit batch's damage stays under
        :data:`~repro.core.update.REBUILD_DAMAGE`,
        fully re-factorized (bit-identical to fresh) beyond it — and the
        mutated graph is re-registered under its new fingerprint.

        In-flight safety: requests already submitted under the old
        fingerprint captured the old registration, which keeps the old
        operator — pending and in-flight batches complete against the graph
        they were submitted for, while new submissions use the new
        fingerprint.  The new registration owns the updated operator
        (patched or rebuilt, never cached).  An empty edit batch changes
        nothing and returns the old fingerprint.

        The swap is published only if ``fingerprint`` still maps to the
        registration this call updated; if a concurrent ``unregister`` or
        ``update`` replaced it meanwhile, :class:`KeyError` is raised and no
        update is recorded.
        """
        reg = self._lookup_registration(fingerprint)
        if reg is None:
            raise KeyError(f"unknown fingerprint {fingerprint!r}; register() it first")
        new_operator, report = reg.operator().update(edits)
        if report.strategy == "noop":
            return fingerprint, report
        new_graph = new_operator.graph
        new_fp = chain_cache.fingerprint_matrix(new_graph)
        new_reg = _Registration(
            matrix=new_graph,
            n=new_graph.n,
            chain_config=reg.chain_config,
            solver_config=reg.solver_config,
            seed=reg.seed,
            factorized=new_operator,
        )
        with self._registry_lock:
            if self._registry.get(fingerprint) is not reg:
                raise KeyError(
                    f"fingerprint {fingerprint!r} was unregistered or updated "
                    "while this update ran"
                )
            del self._registry[fingerprint]
            self._registry[new_fp] = new_reg
        self._metrics.record_update(rebuilt=report.strategy == "rebuilt")
        return new_fp, report

    def registered(self) -> Tuple[str, ...]:
        """Fingerprints currently registered."""
        with self._registry_lock:
            return tuple(self._registry)

    def stats(self) -> ServiceStats:
        """Snapshot of the service counters (see :class:`ServiceStats`)."""
        return self._metrics.snapshot()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._loop is not None

    async def astart(self) -> "SolverService":
        """Activate the front-end on the *current* event loop."""
        if self._loop is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="repro-serving",
        )
        self._batcher = RequestBatcher(
            window_seconds=self.config.window_seconds,
            max_batch=self.config.max_batch,
            flush=self._dispatch_group,
        )
        return self

    async def aclose(self) -> None:
        """Drain pending batches and release the executor."""
        if self._loop is None:
            return
        assert self._batcher is not None and self._executor is not None
        self._batcher.flush_all()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._loop = None
        self._executor = None
        self._batcher = None

    async def __aenter__(self) -> "SolverService":
        return await self.astart()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def start(self) -> "SolverService":
        """Run the front-end on a private loop thread (for sync callers)."""
        if self._loop is not None or self._thread is not None:
            raise RuntimeError("service already started")
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.astart())
            ready.set()
            loop.run_forever()

        self._thread_loop = loop
        self._thread = threading.Thread(target=run, name="repro-serving-loop", daemon=True)
        self._thread.start()
        ready.wait()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain and shut down the private loop thread started by :meth:`start`."""
        if self._thread is None or self._thread_loop is None:
            return
        loop = self._thread_loop
        asyncio.run_coroutine_threadsafe(self.aclose(), loop).result(timeout)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout)
        loop.close()
        self._thread = None
        self._thread_loop = None

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # request front-end
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        matrix_or_fingerprint: Union[str, MatrixInput],
        b: np.ndarray,
        *,
        tol: Optional[float] = None,
        method: Optional[str] = None,
    ) -> SolveReport:
        """Enqueue one single-RHS solve; resolves when its batch completes.

        ``matrix_or_fingerprint`` is either a fingerprint returned by
        :meth:`register` or a matrix/graph (auto-registered on first
        sight).  A right-hand side with NaN or inf entries raises
        :class:`ValueError` here, before it can join (and poison) a
        coalesced batch.  ``tol`` is quantized down to its decade bucket (see
        :func:`repro.serving.batcher.bucket_tol`); the request's answer is
        bit-identical to a solo ``operator.solve(b, tol=bucket,
        method=method)``.  Unfingerprintable matrices raise
        :class:`ValueError` (see :meth:`register`).  Cancelling the returned
        awaitable (or timing it out via ``asyncio.wait_for``) abandons only
        this request; the rest of its batch is unaffected.
        """
        if self._loop is None or self._batcher is None:
            raise RuntimeError("service not started (use 'async with service' or start())")
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            raise RuntimeError("submit() must run on the loop the service started on")

        if isinstance(matrix_or_fingerprint, str):
            fingerprint = matrix_or_fingerprint
            reg = self._lookup_registration(fingerprint)
            if reg is None:
                raise KeyError(f"unknown fingerprint {fingerprint!r}; register() it first")
        else:
            matrix = matrix_or_fingerprint
            fingerprint = chain_cache.fingerprint_matrix(matrix)
            reg = self._lookup_registration(fingerprint)
            if reg is None:
                self.register(matrix, warm=False)
                reg = self._lookup_registration(fingerprint)

        b = _as_single_rhs(b)
        if b.shape[0] != reg.n:
            raise ValueError(f"b must have length {reg.n} (got {b.shape[0]})")
        eff_tol = bucket_tol(reg.solver_config.tol if tol is None else float(tol))
        eff_method = check_method(reg.solver_config.method if method is None else method)

        self._metrics.record_request()
        key = GroupKey(fingerprint=fingerprint, method=eff_method, tol=eff_tol)
        request = PendingRequest(
            b=b.copy(),
            future=loop.create_future(),
            enqueued_at=time.monotonic(),
            registration=reg,
        )
        self._batcher.add(key, request)
        return await request.future

    def solve_sync(
        self,
        matrix_or_fingerprint: Union[str, MatrixInput],
        b: np.ndarray,
        *,
        tol: Optional[float] = None,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> SolveReport:
        """Blocking :meth:`submit` for callers outside the event loop.

        Requires the private loop thread (:meth:`start`).  Concurrent
        ``solve_sync`` calls from different threads coalesce with each
        other exactly like asyncio submissions.
        """
        if self._thread_loop is None:
            raise RuntimeError("solve_sync() needs the loop thread; call start() first")
        future = asyncio.run_coroutine_threadsafe(
            self.submit(matrix_or_fingerprint, b, tol=tol, method=method),
            self._thread_loop,
        )
        return future.result(timeout)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _lookup_registration(self, fingerprint: str) -> Optional[_Registration]:
        with self._registry_lock:
            return self._registry.get(fingerprint)

    def _dispatch_group(self, key: GroupKey, requests: List[PendingRequest]) -> None:
        """Batcher flush callback (event loop): launch the batch solve task."""
        live = []
        for request in requests:
            if request.future.done():  # cancelled while pending
                self._metrics.record_cancelled()
            else:
                live.append(request)
        if not live:
            return
        assert self._loop is not None
        task = self._loop.create_task(self._run_batch(key, live))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _solve_batch(
        self, key: GroupKey, live: List[PendingRequest]
    ) -> Tuple[SolveReport, float]:
        """Executor-thread body: one batched solve over the group's columns."""
        # The registration captured at submit time survives registry swaps
        # (update/unregister), so a batch always solves the graph its
        # members were submitted against.  Every member of a group shares
        # the fingerprint, hence an equivalent registration.
        operator = live[0].registration.operator()
        block = np.stack([request.b for request in live], axis=1)
        t0 = time.perf_counter()
        report = operator.solve(block, tol=key.tol, method=key.method)
        return report, time.perf_counter() - t0

    async def _run_batch(self, key: GroupKey, live: List[PendingRequest]) -> None:
        assert self._loop is not None and self._executor is not None
        try:
            report, solve_seconds = await self._loop.run_in_executor(
                self._executor, self._solve_batch, key, live
            )
        except Exception as exc:
            failed = 0
            for request in live:
                if request.future.done():
                    self._metrics.record_cancelled()
                else:
                    request.future.set_exception(exc)
                    failed += 1
            self._metrics.record_failed(failed)
            return
        width = len(live)
        self._metrics.record_batch(width, solve_seconds=solve_seconds)
        now = time.monotonic()
        for request, column in zip(live, report.split()):
            if request.future.done():  # cancelled in flight; batch unaffected
                self._metrics.record_cancelled()
                continue
            request.future.set_result(column)
            self._metrics.record_served(now - request.enqueued_at)
