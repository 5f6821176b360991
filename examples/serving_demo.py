#!/usr/bin/env python
"""Micro-batching solver service, end to end.

Registers two graphs with :class:`repro.SolverService`, then drives it two
ways: a burst of concurrent asyncio clients with mixed tolerances (watch
them coalesce into a handful of batched solves), and plain synchronous
threads through ``solve_sync`` (they coalesce with each other the same
way).  One served answer is checked bit-for-bit against a solo
``operator.solve`` call — coalescing changes throughput, never the bits —
and the service/chain-cache metrics are printed at the end.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

import repro
from repro.graph import generators
from repro.serving import ServiceConfig, SolverService


def rhs_pool(graph, count, seed):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(count):
        b = rng.standard_normal(graph.n)
        pool.append(b - b.mean())
    return pool


async def async_burst(service, fp_grid, fp_er, grid_pool, er_pool):
    """16 concurrent clients, two graphs, two tolerance buckets."""
    jobs = []
    for i in range(16):
        if i % 4 == 3:
            jobs.append(service.submit(fp_er, er_pool[i % len(er_pool)], tol=1e-6))
        else:
            tol = 1e-8 if i % 2 else 3e-7  # 3e-7 buckets down to 1e-7
            jobs.append(service.submit(fp_grid, grid_pool[i % len(grid_pool)], tol=tol))
    return await asyncio.gather(*jobs)


def main() -> None:
    grid = generators.grid_2d(12, 12)
    er = generators.erdos_renyi_gnm(150, 400, seed=5)
    grid_pool = rhs_pool(grid, 4, seed=1)
    er_pool = rhs_pool(er, 4, seed=2)

    service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=16))
    fp_grid = service.register(grid, seed=0)
    fp_er = service.register(er, seed=0)
    print(f"registered {fp_grid[:14]}... (grid) and {fp_er[:14]}... (erdos-renyi)")

    async def run_async():
        async with service:
            return await async_burst(service, fp_grid, fp_er, grid_pool, er_pool)

    reports = asyncio.run(run_async())
    widths = sorted({r.batch_width for r in reports})
    print(f"async burst: {len(reports)} requests served in batches of widths {widths}")

    # Bit-identity spot check: the served answer equals a solo solve at the
    # same tolerance bucket on the same cached operator.
    op = repro.factorize(grid, seed=0, cache=True)
    solo = op.solve(grid_pool[0], tol=1e-7)  # the bucket of the 3e-7 request
    assert np.array_equal(reports[0].x, solo.x)
    print("bit-identity vs solo solve: ok")

    # Synchronous threads coalesce too (the service runs its own loop).
    results = [None] * 8
    with service:
        def worker(i):
            results[i] = service.solve_sync(fp_grid, grid_pool[i % 4], tol=1e-8)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    print(f"sync threads: {sum(r.converged for r in results)}/8 converged")

    stats = service.stats()
    print(
        f"service: {stats.requests} requests -> {stats.batches} batched solves, "
        f"mean width {stats.mean_batch_width:.1f}, "
        f"p50 latency {stats.latency_p50 * 1e3:.1f}ms, "
        f"p99 {stats.latency_p99 * 1e3:.1f}ms"
    )
    cache = repro.chain_cache_stats()
    print(
        f"chain cache: {cache.hits} hits / {cache.misses} misses, "
        f"{cache.size} entries"
    )


if __name__ == "__main__":
    main()
