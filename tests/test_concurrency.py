"""Concurrent solves on one shared factorized operator.

The paper's parallel-solver story only serves traffic if a single
:class:`~repro.core.operator.LaplacianOperator` (possibly shared through the
process-level chain cache) can run many solves at once.  These tests pin the
re-entrancy contract: every concurrent :class:`SolveReport` must match the
serial one **bit for bit** — ``x``, ``work``, and ``depth`` — for warm and
cold-start operators, for both chain methods, and the chain cache must stay
exact under concurrent store/lookup pressure.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.chain_cache import (
    chain_cache_stats,
    clear_chain_cache,
    set_chain_cache_capacity,
)
from repro.core.config import SolverConfig
from repro.core.operator import factorize
from repro.graph import generators

NUM_THREADS = 8
SOLVES_PER_THREAD = 3


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_chain_cache()
    yield
    clear_chain_cache()


def _problem(side=6, seed=1, width=None):
    g = generators.grid_2d(side, side)
    rng = np.random.default_rng(seed)
    shape = (g.n,) if width is None else (g.n, width)
    b = rng.standard_normal(shape)
    b -= b.mean(axis=0)
    return g, b


def _run_threads(worker, num_threads=NUM_THREADS):
    """Run ``worker(i)`` on ``num_threads`` threads through a start barrier."""
    barrier = threading.Barrier(num_threads)
    errors = []

    def wrapped(i):
        try:
            barrier.wait()
            worker(i)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _assert_report_matches(report, reference):
    np.testing.assert_array_equal(report.x, reference.x)
    assert report.work == reference.work
    assert report.depth == reference.depth
    assert report.iterations == reference.iterations
    assert report.relative_residual == reference.relative_residual
    assert report.converged == reference.converged


class TestSharedOperatorStress:
    @pytest.mark.parametrize("method", ["pcg", "chebyshev"])
    def test_warm_operator_bit_identical_under_8_threads(self, method):
        """The ISSUE repro: concurrent per-solve work must equal serial work."""
        g, b = _problem()
        op = factorize(g, solver=SolverConfig(method=method), seed=0)
        reference = op.solve(b)  # warm: any lazy calibration happens here
        assert reference.converged

        reports = [[None] * SOLVES_PER_THREAD for _ in range(NUM_THREADS)]

        def worker(i):
            for j in range(SOLVES_PER_THREAD):
                reports[i][j] = op.solve(b)

        _run_threads(worker)
        for per_thread in reports:
            for report in per_thread:
                _assert_report_matches(report, reference)

    @pytest.mark.parametrize("method", ["pcg", "chebyshev"])
    def test_cold_start_concurrent_solves(self, method):
        """First-ever solves race the lazy initializers; all must still agree."""
        g, b = _problem()
        op = factorize(g, solver=SolverConfig(method=method), seed=0)
        reports = [None] * NUM_THREADS

        def worker(i):
            reports[i] = op.solve(b)

        _run_threads(worker)
        reference = op.solve(b)
        for report in reports:
            _assert_report_matches(report, reference)

    def test_cold_start_method_overrides(self):
        """Lazy Chebyshev/dense/Jacobi setup races on a pcg-configured operator."""
        g, b = _problem()
        op = factorize(g, seed=0)
        methods = ["chebyshev", "direct", "jacobi", "pcg"]
        reports = [None] * NUM_THREADS

        def worker(i):
            reports[i] = op.solve(b, method=methods[i % len(methods)])

        _run_threads(worker)
        references = {m: op.solve(b, method=m) for m in methods}
        for i, report in enumerate(reports):
            _assert_report_matches(report, references[methods[i % len(methods)]])

    def test_lazy_setup_charged_once_and_never_to_a_solve(self):
        """Cold-start races must not duplicate calibration/factorization work."""
        g, b = _problem()
        op = factorize(g, seed=0)
        setup_before = op.setup_work

        def worker(i):
            op.solve(b, method="chebyshev" if i % 2 == 0 else "direct")

        _run_threads(worker)
        calibrated_setup = op.setup_work
        assert calibrated_setup > setup_before  # charged to setup accounting...
        op.solve(b, method="chebyshev")
        op.solve(b, method="direct")
        assert op.setup_work == calibrated_setup  # ...exactly once

    def test_batched_and_mixed_width_solves(self):
        """Concurrent (n,) and (n, k) solves on one operator stay exact."""
        g, b1 = _problem()
        _, b4 = _problem(width=4, seed=7)
        op = factorize(g, seed=0)
        ref1, ref4 = op.solve(b1), op.solve(b4)
        reports = [None] * NUM_THREADS

        def worker(i):
            reports[i] = op.solve(b1 if i % 2 == 0 else b4)

        _run_threads(worker)
        for i, report in enumerate(reports):
            _assert_report_matches(report, ref1 if i % 2 == 0 else ref4)

    def test_warm_solves_leave_setup_accounting_unchanged(self):
        """After warm-up a solve writes no operator state, setup cost included."""
        g, b = _problem()
        op = factorize(g, seed=0)
        methods = ["pcg", "chebyshev", "direct"]
        # Warm-up: calibrates the Chebyshev bounds and builds the direct factor.
        references = {m: op.solve(b, method=m) for m in methods}
        setup = (op.setup_work, op.setup_depth)
        reports = [[None] * SOLVES_PER_THREAD for _ in range(NUM_THREADS)]

        def method_of(i, j):
            return methods[(i + j) % len(methods)]

        def worker(i):
            for j in range(SOLVES_PER_THREAD):
                reports[i][j] = op.solve(b, method=method_of(i, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to expose stray writes
        try:
            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        assert (op.setup_work, op.setup_depth) == setup
        for i, per_thread in enumerate(reports):
            for j, report in enumerate(per_thread):
                _assert_report_matches(report, references[method_of(i, j)])


class TestChainCacheConcurrency:
    def test_concurrent_hits_on_warm_cache_count_exactly(self):
        g, b = _problem(side=8)
        op = factorize(g, seed=0, cache=True)  # warm: exactly one miss
        reference = op.solve(b)
        lookups_per_thread = 4

        def worker(i):
            for _ in range(lookups_per_thread):
                shared = factorize(g, seed=0, cache=True)
                assert shared is op
                _assert_report_matches(shared.solve(b), reference)

        _run_threads(worker)
        stats = chain_cache_stats()
        assert stats.misses == 1
        assert stats.hits == NUM_THREADS * lookups_per_thread
        assert stats.size == 1

    def test_concurrent_stores_of_distinct_keys(self):
        graphs = [generators.grid_2d(4 + i, 4) for i in range(NUM_THREADS)]

        def worker(i):
            factorize(graphs[i], seed=0, cache=True)

        _run_threads(worker)
        stats = chain_cache_stats()
        assert stats.misses == NUM_THREADS
        assert stats.hits == 0
        assert stats.size == NUM_THREADS
        # every key is now resident: a second sweep is all hits
        _run_threads(worker)
        assert chain_cache_stats().hits == NUM_THREADS

    def test_concurrent_stores_respect_capacity(self):
        set_chain_cache_capacity(4)
        try:
            graphs = [generators.grid_2d(4 + i, 4) for i in range(NUM_THREADS)]

            def worker(i):
                factorize(graphs[i], seed=0, cache=True)

            _run_threads(worker)
            assert chain_cache_stats().size == 4
        finally:
            set_chain_cache_capacity(32)


class TestUpdateRacingSolves:
    def test_update_while_8_threads_solve_old_operator(self):
        """``op.update`` builds new operators; it never touches the old one.

        Threads hammer the original operator while the main thread applies a
        sequence of patch/rebuild updates.  Every concurrent report must stay
        bit-identical to the pre-update serial reference, and each updated
        operator must still converge on its own (mutated) graph.
        """
        from repro.graph.edits import EdgeEdits

        g, b = _problem(side=8, seed=2)
        op = factorize(g, seed=0)
        reference = op.solve(b, tol=1e-8)
        updated_ops = []

        def worker(i):
            for _ in range(SOLVES_PER_THREAD):
                _assert_report_matches(op.solve(b, tol=1e-8), reference)

        barrier = threading.Barrier(NUM_THREADS + 1)
        errors = []

        def wrapped(i):
            try:
                barrier.wait()
                worker(i)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=wrapped, args=(i,)) for i in range(NUM_THREADS)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        cur, cur_g = op, g
        for i in range(4):
            edits = EdgeEdits.reweights([i], [2.0 + i])
            cur_g = cur_g.apply_edits(edits)
            cur, report = cur.update(edits)
            assert report.strategy in ("patched", "rebuilt")
            updated_ops.append((cur, cur_g))
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        # The final updated operator agrees with a fresh factorize of the
        # final graph — the race changed nothing about update correctness.
        final_op, final_g = updated_ops[-1]
        fresh = factorize(final_g, seed=0)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(final_g.n)
        x_upd = final_op.solve(rhs, tol=1e-10).x
        x_ref = fresh.solve(rhs, tol=1e-10).x
        assert np.max(np.abs(x_upd - x_ref)) <= 1e-8


class TestServiceRegistrationConcurrency:
    def test_8_first_batches_share_one_factorization(self, monkeypatch):
        """Eight tol buckets of an unfactorized registration, eight workers.

        Every first batch asks the registration for its operator at once;
        exactly one factorizes and all eight solve on that operator.
        """
        import asyncio
        import sys

        from repro.serving import ServiceConfig, SolverService
        from repro.serving import service as service_module

        g, b = _problem(side=8, seed=3)
        real_factorize = service_module.factorize
        built = []

        def counting_factorize(*args, **kwargs):
            op = real_factorize(*args, **kwargs)
            built.append(op)
            return op

        monkeypatch.setattr(service_module, "factorize", counting_factorize)
        service = SolverService(
            ServiceConfig(window_seconds=0.0, executor_workers=NUM_THREADS)
        )
        tols = [10.0 ** -(i + 1) for i in range(NUM_THREADS)]

        async def run():
            async with service:
                return await asyncio.wait_for(
                    asyncio.gather(*[service.submit(g, b, tol=t) for t in tols]), 60
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        for report, tol in zip(reports, tols):
            _assert_report_matches(report, built[0].solve(b, tol=tol))
        assert service.stats().batches == NUM_THREADS
