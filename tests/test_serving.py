"""Serving-layer tests: coalescing bit-identity, cancellation, fallbacks.

Plain ``asyncio.run`` throughout — no async test plugin.  The load-bearing
property is that every coalesced answer is **bit-identical** to a solo
``operator.solve(b, tol=bucket, method=method)`` call (the PR-4
batched==looped guarantee lifted to the service boundary), across mixed
batch widths, methods, and tolerance buckets — and that cancelling or
timing out one request never perturbs the rest of its batch.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import chain_cache
from repro.core.operator import LaplacianOperator, factorize
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.laplacian import graph_to_laplacian
from repro.serving import RequestBatcher, ServiceConfig, SolverService, bucket_tol


@pytest.fixture(autouse=True)
def fresh_cache():
    repro.clear_chain_cache()
    yield
    repro.clear_chain_cache()


def _pool(g, k: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(k):
        b = rng.standard_normal(g.n)
        pool.append(b - b.mean())
    return pool


class _NoFingerprint(Graph):
    """A graph the cache cannot key — the service must reject it."""

    def fingerprint(self):
        return None


class TestBucketTol:
    def test_decade_floor(self):
        assert bucket_tol(5e-7) == 1e-7
        assert bucket_tol(9.9e-8) == 1e-8
        assert bucket_tol(1e-8) == 1e-8
        assert bucket_tol(1.0) == 1.0

    def test_bucket_never_looser_than_request(self):
        for tol in (3e-5, 9e-7, 1.0000001e-8, 2.5e-11):
            assert bucket_tol(tol) <= tol

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_tol(0.0)
        with pytest.raises(ValueError):
            bucket_tol(-1e-8)


class TestCoalescingBitIdentity:
    def test_full_batch_matches_solo_solves(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 6)
        op = factorize(g, seed=0, cache=True)
        refs = [op.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=0.2, max_batch=6))
        fp = service.register(g, seed=0)

        async def run():
            async with service:
                return await asyncio.gather(
                    *[service.submit(fp, b, tol=1e-8) for b in pool]
                )

        reports = asyncio.run(run())
        for report, ref in zip(reports, refs):
            assert np.array_equal(report.x, ref.x)
            assert report.iterations == ref.iterations
            assert report.converged
            assert report.batch_width == 6
        stats = service.stats()
        assert stats.batches == 1
        assert stats.batch_width_histogram == {6: 1}
        assert stats.served == 6

    def test_mixed_tol_buckets_and_methods_split_groups(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 4)
        op = factorize(g, seed=0, cache=True)
        # (tol, method) per request: the first two share the 1e-7 pcg bucket,
        # the third is a tighter pcg bucket, the fourth a different method.
        jobs = [
            (pool[0], 3e-7, None),
            (pool[1], 9.5e-7, None),
            (pool[2], 1e-8, None),
            (pool[3], 4e-7, "chebyshev"),
        ]
        refs = [
            op.solve(b, tol=bucket_tol(t), method=m) for b, t, m in jobs
        ]
        service = SolverService(ServiceConfig(window_seconds=0.1, max_batch=8))
        fp = service.register(g, seed=0)

        async def run():
            async with service:
                return await asyncio.gather(
                    *[service.submit(fp, b, tol=t, method=m) for b, t, m in jobs]
                )

        reports = asyncio.run(run())
        for report, ref in zip(reports, refs):
            assert np.array_equal(report.x, ref.x)
            assert report.iterations == ref.iterations
        assert [r.batch_width for r in reports] == [2, 2, 1, 1]
        assert service.stats().batches == 3

    def test_multiple_graphs_group_separately(self):
        g1 = generators.grid_2d(7, 7)
        g2 = generators.erdos_renyi_gnm(60, 150, seed=5)
        pools = {1: _pool(g1, 2, seed=1), 2: _pool(g2, 2, seed=2)}
        refs = {
            1: [factorize(g1, seed=0, cache=True).solve(b, tol=1e-8) for b in pools[1]],
            2: [factorize(g2, seed=0, cache=True).solve(b, tol=1e-8) for b in pools[2]],
        }
        service = SolverService(ServiceConfig(window_seconds=0.1, max_batch=8))
        fp1 = service.register(g1, seed=0)
        fp2 = service.register(g2, seed=0)

        async def run():
            async with service:
                return await asyncio.gather(
                    service.submit(fp1, pools[1][0], tol=1e-8),
                    service.submit(fp2, pools[2][0], tol=1e-8),
                    service.submit(fp1, pools[1][1], tol=1e-8),
                    service.submit(fp2, pools[2][1], tol=1e-8),
                )

        r = asyncio.run(run())
        assert np.array_equal(r[0].x, refs[1][0].x)
        assert np.array_equal(r[1].x, refs[2][0].x)
        assert np.array_equal(r[2].x, refs[1][1].x)
        assert np.array_equal(r[3].x, refs[2][1].x)
        assert service.stats().batch_width_histogram == {2: 2}

    def test_auto_registration_from_matrix_submit(self):
        g = generators.grid_2d(6, 6)
        b = _pool(g, 1)[0]
        ref = factorize(g, seed=0, cache=True).solve(b, tol=1e-8)
        service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=4))

        async def run():
            async with service:
                return await service.submit(g, b, tol=1e-8)

        report = asyncio.run(run())
        assert np.array_equal(report.x, ref.x)
        assert g.fingerprint() in service.registered()


class TestCancellation:
    def test_pending_cancellation_leaves_batch_unaffected(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 4)
        op = factorize(g, seed=0, cache=True)
        refs = [op.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=5.0, max_batch=4))
        fp = service.register(g, seed=0)

        async def run():
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit(fp, b, tol=1e-8))
                    for b in pool[:2]
                ]
                await asyncio.sleep(0.02)  # both enqueued, window still open
                tasks[0].cancel()
                tasks += [
                    asyncio.ensure_future(service.submit(fp, b, tol=1e-8))
                    for b in pool[2:]
                ]  # fourth add fills max_batch -> immediate flush
                return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(run())
        assert isinstance(results[0], asyncio.CancelledError)
        for i in (1, 2, 3):
            assert np.array_equal(results[i].x, refs[i].x)
            assert results[i].batch_width == 3
        stats = service.stats()
        assert stats.cancelled == 1
        assert stats.served == 3
        assert stats.batch_width_histogram == {3: 1}

    def test_inflight_cancellation_leaves_batch_unaffected(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 3)
        op = factorize(g, seed=0, cache=True)
        refs = [op.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=5.0, max_batch=3))
        fp = service.register(g, seed=0)

        release = threading.Event()
        original = service._solve_batch

        def gated(key, live):
            release.wait(10.0)
            return original(key, live)

        service._solve_batch = gated

        async def run():
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit(fp, b, tol=1e-8))
                    for b in pool
                ]  # third submit fills the batch -> dispatched, gated in executor
                await asyncio.sleep(0.02)
                tasks[1].cancel()
                release.set()
                return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(run())
        assert np.array_equal(results[0].x, refs[0].x)
        assert isinstance(results[1], asyncio.CancelledError)
        assert np.array_equal(results[2].x, refs[2].x)
        stats = service.stats()
        assert stats.cancelled == 1
        assert stats.served == 2
        # The cancelled column was still solved in the batch of 3.
        assert stats.batch_width_histogram == {3: 1}

    def test_wait_for_timeout_is_a_cancellation(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 2)
        op = factorize(g, seed=0, cache=True)
        refs = [op.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=5.0, max_batch=2))
        fp = service.register(g, seed=0)

        release = threading.Event()
        original = service._solve_batch

        def gated(key, live):
            release.wait(10.0)
            return original(key, live)

        service._solve_batch = gated

        async def run():
            async with service:
                slow = asyncio.ensure_future(
                    asyncio.wait_for(service.submit(fp, pool[0], tol=1e-8), 0.05)
                )
                ok = asyncio.ensure_future(service.submit(fp, pool[1], tol=1e-8))
                await asyncio.sleep(0.15)  # let the timeout fire mid-flight
                release.set()
                return await asyncio.gather(slow, ok, return_exceptions=True)

        slow_result, ok_result = asyncio.run(run())
        assert isinstance(slow_result, asyncio.TimeoutError)
        assert np.array_equal(ok_result.x, refs[1].x)
        assert service.stats().cancelled == 1


class TestSyncWrapper:
    def test_threaded_sync_callers_coalesce_and_match(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 4)
        op = factorize(g, seed=0, cache=True)
        refs = [op.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=0.2, max_batch=4))
        fp = service.register(g, seed=0)
        results = [None] * len(pool)

        def worker(i):
            results[i] = service.solve_sync(fp, pool[i], tol=1e-8, timeout=30)

        with service:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(len(pool))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        for report, ref in zip(results, refs):
            assert np.array_equal(report.x, ref.x)
        stats = service.stats()
        assert stats.served == len(pool)
        assert stats.requests == len(pool)

    def test_solve_sync_requires_loop_thread(self):
        service = SolverService()
        with pytest.raises(RuntimeError):
            service.solve_sync("anything", np.zeros(4))


class TestFallbacksAndValidation:
    def test_submit_rejects_unfingerprintable(self):
        g = generators.grid_2d(6, 6)
        nofp = _NoFingerprint(g.n, g.u, g.v, g.w)
        b = _pool(g, 1)[0]
        service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=4))

        async def run():
            async with service:
                with pytest.raises(ValueError, match="fingerprint"):
                    await service.submit(nofp, b, tol=1e-8)

        asyncio.run(run())
        stats = service.stats()
        assert stats.requests == 0
        assert stats.served == 0 and stats.failed == 0
        assert service.registered() == ()
        # The cache never saw the unfingerprintable matrix.
        assert chain_cache.chain_cache_stats().size == 0

    def test_register_rejects_unfingerprintable(self):
        g = generators.grid_2d(5, 5)
        nofp = _NoFingerprint(g.n, g.u, g.v, g.w)
        service = SolverService()
        with pytest.raises(ValueError, match="fingerprint"):
            service.register(nofp)

    def test_unknown_fingerprint_raises(self):
        service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=2))

        async def run():
            async with service:
                await service.submit("g:deadbeef", np.zeros(4))

        with pytest.raises(KeyError, match="register"):
            asyncio.run(run())

    def test_submit_validation_errors(self):
        g = generators.grid_2d(5, 5)
        service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=2))
        fp = service.register(g, seed=0)

        async def expect(exc_type, **kwargs):
            with pytest.raises(exc_type):
                await service.submit(fp, kwargs.pop("b", np.zeros(g.n)), **kwargs)

        async def run():
            async with service:
                await expect(ValueError, b=np.zeros(g.n + 1))
                await expect(ValueError, b=np.zeros((g.n, 2)))
                await expect(ValueError, method="no-such-method")
                await expect(ValueError, tol=0.0)

        asyncio.run(run())

    def test_submit_before_start_raises(self):
        g = generators.grid_2d(5, 5)
        service = SolverService()
        fp = service.register(g, seed=0)

        async def run():
            await service.submit(fp, np.zeros(g.n))

        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(run())

    def test_service_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(window_seconds=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(executor_workers=0)

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -1.0])
    def test_window_must_be_finite_and_nonnegative(self, window):
        """A NaN or infinite window would arm a timer that never fires."""
        with pytest.raises(ValueError, match="window_seconds"):
            ServiceConfig(window_seconds=window)
        with pytest.raises(ValueError, match="window_seconds"):
            RequestBatcher(window_seconds=window, max_batch=4, flush=lambda key, requests: None)


class TestOperatorOwnership:
    """Each registration owns its operator; batches never consult the cache."""

    def test_cleared_cache_adds_no_miss_and_keeps_bits(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 4)
        service = SolverService(ServiceConfig(window_seconds=0.05, max_batch=4))
        fp = service.register(g, seed=0)
        op = factorize(g, seed=0, cache=True)  # cache hit: the registration's operator
        refs = [op.solve(b, tol=1e-8) for b in pool]
        repro.clear_chain_cache()

        async def run():
            async with service:
                return await asyncio.gather(
                    *[service.submit(fp, b, tol=1e-8) for b in pool]
                )

        reports = asyncio.run(run())
        for report, ref in zip(reports, refs):
            assert np.array_equal(report.x, ref.x)
        stats = chain_cache.chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)

    def test_unregister_keeps_pending_requests_served(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 2)
        op = factorize(g, seed=0)
        refs = [op.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=0.05, max_batch=4))
        fp = service.register(g, seed=0)

        async def run():
            async with service:
                futures = [
                    asyncio.ensure_future(service.submit(fp, b, tol=1e-8))
                    for b in pool
                ]
                await asyncio.sleep(0)  # both enqueued, window still open
                assert service.unregister(fp) is True
                return await asyncio.gather(*futures)

        reports = asyncio.run(run())
        for report, ref in zip(reports, refs):
            assert np.array_equal(report.x, ref.x)
        assert service.registered() == ()

    def test_auto_registration_factorizes_once_across_workers(self, monkeypatch):
        from repro.serving import service as service_module

        g = generators.grid_2d(8, 8)
        pool = _pool(g, 2)
        real_factorize = service_module.factorize
        calls = []

        def slow_factorize(*args, **kwargs):
            calls.append(threading.current_thread().name)
            # Hold the first factorization until the other bucket's batch
            # has reached its executor thread too.
            time.sleep(0.05)
            return real_factorize(*args, **kwargs)

        monkeypatch.setattr(service_module, "factorize", slow_factorize)
        service = SolverService(
            ServiceConfig(window_seconds=0.02, max_batch=8, executor_workers=2)
        )

        async def run():
            async with service:
                return await asyncio.gather(
                    service.submit(g, pool[0], tol=1e-8),
                    service.submit(g, pool[1], tol=1e-6),
                )

        reports = asyncio.run(run())
        assert len(calls) == 1
        assert service.stats().batches == 2
        assert chain_cache.chain_cache_stats().misses == 1
        op = factorize(g, seed=0)
        assert np.array_equal(reports[0].x, op.solve(pool[0], tol=1e-8).x)
        assert np.array_equal(reports[1].x, op.solve(pool[1], tol=1e-6).x)

    def test_generator_seeded_registration_serves_and_updates(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 3)
        ref_op = factorize(g, seed=np.random.default_rng(11))
        refs = [ref_op.solve(b, tol=1e-8) for b in pool]
        edits = repro.EdgeEdits.reweights([0, 3], [4.0, 0.5])
        mutated = g.apply_edits(edits)
        service = SolverService(ServiceConfig(window_seconds=0.05, max_batch=3))
        fp = service.register(g, seed=np.random.default_rng(11))

        async def run():
            async with service:
                served = await asyncio.gather(
                    *[service.submit(fp, b, tol=1e-8) for b in pool]
                )
                new_fp, report = service.update(fp, edits)
                after = await service.submit(new_fp, pool[0], tol=1e-8)
                return served, new_fp, report, after

        served, new_fp, report, after = asyncio.run(run())
        for got, ref in zip(served, refs):
            assert np.array_equal(got.x, ref.x)
        assert report.strategy == "patched"
        assert service.registered() == (new_fp,)
        residual = np.linalg.norm(graph_to_laplacian(mutated) @ after.x - pool[0])
        assert after.converged
        assert residual <= 1e-8 * np.linalg.norm(pool[0])
        # Generator seeds are not cacheable: nothing went through the cache.
        stats = chain_cache.chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)


class TestSplitReports:
    def test_split_matches_columns_and_conserves_work(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 3)
        op = factorize(g, seed=0)
        block = np.stack(pool, axis=1)
        batched = op.solve(block, tol=1e-8)
        solos = [op.solve(b, tol=1e-8) for b in pool]
        parts = batched.split()
        assert len(parts) == 3
        for part, solo in zip(parts, solos):
            assert np.array_equal(part.x, solo.x)
            assert part.iterations == solo.iterations
            assert part.converged == solo.converged
            assert part.depth == batched.depth
            assert part.batch_width == 3
        assert sum(p.work for p in parts) == pytest.approx(batched.work)

    def test_split_vector_and_empty_reports(self):
        g = generators.grid_2d(6, 6)
        op = factorize(g, seed=0)
        b = _pool(g, 1)[0]
        vector_report = op.solve(b, tol=1e-8)
        assert vector_report.batch_width == 1
        assert vector_report.split() == [vector_report]
        empty_report = op.solve(np.zeros((g.n, 0)))
        assert empty_report.batch_width == 0
        assert empty_report.split() == []


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
class TestMetricsWeighting:
    def test_update_counters(self):
        from repro.serving.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.record_update(rebuilt=False)
        metrics.record_update(rebuilt=True)
        stats = metrics.snapshot()
        assert stats.updates == 2
        assert stats.updates_rebuilt == 1


# --------------------------------------------------------------------------- #
# live graph updates through the service
# --------------------------------------------------------------------------- #
class TestServiceUpdate:
    def test_update_reregisters_under_new_fingerprint(self):
        g = generators.grid_2d(8, 8)
        b = _pool(g, 1)[0]
        edits = repro.EdgeEdits.reweights([0, 3], [4.0, 0.5])
        mutated = g.apply_edits(edits)
        # Two independent tol=1e-8 solves need not agree to 1e-8 in max norm;
        # a tol=1e-12 reference leaves only the served answer's own error.
        ref = factorize(mutated, seed=0).solve(b, tol=1e-12)
        service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=4))
        fp = service.register(g, seed=0)

        async def run():
            async with service:
                await service.submit(fp, b, tol=1e-8)  # warm the old operator
                new_fp, report = service.update(fp, edits)
                assert new_fp != fp
                assert report.strategy in ("patched", "rebuilt")
                assert service.registered() == (new_fp,)
                with pytest.raises(KeyError):
                    await service.submit(fp, b, tol=1e-8)
                return await service.submit(new_fp, b, tol=1e-8)

        report = asyncio.run(run())
        assert report.converged
        assert np.max(np.abs(report.x - ref.x)) <= 1e-8
        # The served answer solves the mutated system, not the old one.
        b_norm = np.linalg.norm(b)
        new_residual = np.linalg.norm(graph_to_laplacian(mutated) @ report.x - b) / b_norm
        old_residual = np.linalg.norm(graph_to_laplacian(g) @ report.x - b) / b_norm
        assert new_residual <= 1e-8
        assert old_residual > 1e-3
        stats = service.stats()
        assert stats.updates == 1

    def test_update_does_not_drop_in_flight_requests(self):
        g = generators.grid_2d(8, 8)
        pool = _pool(g, 6)
        op_ref = factorize(g, seed=0)
        refs = [op_ref.solve(b, tol=1e-8) for b in pool]
        service = SolverService(ServiceConfig(window_seconds=0.05, max_batch=3))
        fp = service.register(g, seed=0)
        edits = repro.EdgeEdits.reweights([1], [9.0])

        async def run():
            async with service:
                futures = [
                    asyncio.ensure_future(service.submit(fp, b, tol=1e-8))
                    for b in pool
                ]
                await asyncio.sleep(0)  # let submissions enqueue
                # Swap the registration while those requests are pending.
                new_fp, _ = service.update(fp, edits)
                results = await asyncio.gather(*futures)
                return new_fp, results

        new_fp, results = asyncio.run(run())
        # Every pre-update request solved against the graph it was submitted
        # for, bit-identical to a solo solve on the old operator.
        for report, ref in zip(results, refs):
            assert np.array_equal(report.x, ref.x)
        assert service.registered() == (new_fp,)

    def test_noop_update_keeps_fingerprint(self):
        g = generators.grid_2d(6, 6)
        service = SolverService()
        fp = service.register(g, seed=0)
        new_fp, report = service.update(fp, repro.EdgeEdits.empty())
        assert new_fp == fp
        assert report.strategy == "noop"
        assert service.registered() == (fp,)

    def test_unregister_racing_update_leaves_nothing_registered(self, monkeypatch):
        g = generators.grid_2d(8, 8)
        service = SolverService()
        fp = service.register(g, seed=0)
        original = LaplacianOperator.update

        def racing_update(op, edits):
            # Another thread unregisters while this update is under way.
            monkeypatch.setattr(LaplacianOperator, "update", original)
            assert service.unregister(fp)
            return original(op, edits)

        monkeypatch.setattr(LaplacianOperator, "update", racing_update)
        with pytest.raises(KeyError):
            service.update(fp, repro.EdgeEdits.reweights([0], [2.0]))
        assert service.registered() == ()
        assert service.stats().updates == 0
        assert service.unregister(fp) is False

    def test_racing_updates_of_one_fingerprint_publish_one(self, monkeypatch):
        g = generators.grid_2d(8, 8)
        service = SolverService()
        fp = service.register(g, seed=0)
        first = repro.EdgeEdits.reweights([0], [2.0])
        second = repro.EdgeEdits.reweights([5], [3.0])
        original = LaplacianOperator.update
        winner = []

        def racing_update(op, edits):
            # Another thread updates the same fingerprint meanwhile.
            monkeypatch.setattr(LaplacianOperator, "update", original)
            winner.append(service.update(fp, second)[0])
            return original(op, edits)

        monkeypatch.setattr(LaplacianOperator, "update", racing_update)
        with pytest.raises(KeyError):
            service.update(fp, first)
        assert winner == [g.apply_edits(second).fingerprint()]
        assert service.registered() == tuple(winner)
        assert service.stats().updates == 1

    def test_update_unknown_fingerprint_raises(self):
        service = SolverService()
        with pytest.raises(KeyError):
            service.update("no-such-fp", repro.EdgeEdits.empty())
