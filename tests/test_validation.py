"""Bad input fails at the boundary with a clear error.

Non-finite or non-positive edge weights are rejected by every entry point
that accepts weights, and non-finite right-hand sides are rejected by
``LaplacianOperator.solve`` and ``SolverService.submit`` — instead of
running ``max_iterations`` of NaN arithmetic and returning a NaN answer.
A tolerance that is not finite and positive is rejected by every entry
point that takes one.  So are a count (level cap, bottom size, iteration
cap, batch width, worker count) or a vertex id that is not an integer, and
a vertex count that is not a non-negative integer.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.graph import generators
from repro.graph.edits import EdgeEdits
from repro.graph.graph import Graph
from repro.graph.io import graph_from_edge_blocks, graph_from_edge_list
from repro.serving import ServiceConfig, SolverService

BAD_WEIGHTS = [np.nan, np.inf, 0.0, -1.0]

_U = np.array([0, 1, 2])
_V = np.array([1, 2, 3])


def _weights(bad: float) -> np.ndarray:
    return np.array([1.0, bad, 2.0])


WEIGHT_ENTRY_POINTS = {
    "Graph": lambda w: Graph(4, _U, _V, w),
    "Graph.reweighted": lambda w: Graph(4, _U, _V).reweighted(w),
    "Graph.reweight_edges": lambda w: Graph(4, _U, _V).reweight_edges(np.arange(3), w),
    "graph_from_edge_list": lambda w: graph_from_edge_list(4, (_U, _V, w)),
    "EdgeEdits.inserts": lambda w: EdgeEdits.inserts([0, 0, 1], [2, 3, 3], w),
    "EdgeEdits.reweights": lambda w: EdgeEdits.reweights(np.arange(3), w),
}


@pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_rejects_bad_edge_weight(entry, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        WEIGHT_ENTRY_POINTS[entry](_weights(bad))


@pytest.fixture(scope="module")
def grid_operator():
    g = generators.grid_2d(6, 6)
    return g, repro.factorize(g, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("width", [None, 3], ids=["vector", "block"])
def test_solve_rejects_non_finite_rhs(grid_operator, bad, width):
    g, op = grid_operator
    b = np.zeros(g.n) if width is None else np.zeros((g.n, width))
    b[5] = bad
    with pytest.raises(ValueError, match="finite"):
        op.solve(b)


def _submit_with_tol(g, tol):
    service = SolverService(ServiceConfig(window_seconds=0.01, max_batch=2))
    fp = service.register(g, seed=0, warm=False)

    async def run():
        async with service:
            await service.submit(fp, np.zeros(g.n), tol=tol)

    asyncio.run(run())


TOL_ENTRY_POINTS = {
    "SolverConfig": lambda g, op, tol: repro.SolverConfig(tol=tol),
    "LaplacianOperator.solve": lambda g, op, tol: op.solve(np.zeros(g.n), tol=tol),
    "SolverService.submit": lambda g, op, tol: _submit_with_tol(g, tol),
}


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_rejects_bad_tol(grid_operator, entry, bad):
    g, op = grid_operator
    with pytest.raises(ValueError, match="tol must be positive"):
        TOL_ENTRY_POINTS[entry](g, op, bad)


def test_service_rejects_non_finite_request_alone():
    """A NaN request fails by itself; its batch-mates are answered bit-identically."""
    repro.clear_chain_cache()
    g = generators.grid_2d(6, 6)
    rng = np.random.default_rng(3)
    good = [rng.standard_normal(g.n) for _ in range(3)]
    good = [b - b.mean() for b in good]
    bad_nan = good[0].copy()
    bad_nan[2] = np.nan
    bad_inf = good[1].copy()
    bad_inf[4] = np.inf
    op = repro.factorize(g, seed=0, cache=True)
    refs = [op.solve(b, tol=1e-8) for b in good]
    service = SolverService(ServiceConfig(window_seconds=0.2, max_batch=8))
    fp = service.register(g, seed=0)

    async def run():
        async with service:
            return await asyncio.gather(
                service.submit(fp, good[0], tol=1e-8),
                service.submit(fp, bad_nan, tol=1e-8),
                service.submit(fp, good[1], tol=1e-8),
                service.submit(fp, bad_inf, tol=1e-8),
                service.submit(fp, good[2], tol=1e-8),
                return_exceptions=True,
            )

    try:
        results = asyncio.run(run())
    finally:
        repro.clear_chain_cache()
    for bad in (results[1], results[3]):
        assert isinstance(bad, ValueError) and "finite" in str(bad)
    for report, ref in zip((results[0], results[2], results[4]), refs):
        assert np.array_equal(report.x, ref.x)
        assert report.iterations == ref.iterations
        assert report.stats["serving_batch_width"] == 3.0


COUNT_ENTRY_POINTS = {
    "ChainConfig.max_levels=2.5": lambda op: repro.ChainConfig(max_levels=2.5),
    "ChainConfig.max_levels=True": lambda op: repro.ChainConfig(max_levels=True),
    "ChainConfig.bottom_size=2.5": lambda op: repro.ChainConfig(bottom_size=2.5),
    "ChainConfig.kappa=inf": lambda op: repro.ChainConfig(kappa=np.inf),
    "ChainConfig.kappa=nan": lambda op: repro.ChainConfig(kappa=np.nan),
    "SolverConfig.max_iterations=2.5": lambda op: repro.SolverConfig(max_iterations=2.5),
    "solve.max_iterations=2.5": lambda op: op.solve(np.zeros(op.n), max_iterations=2.5),
    "solve.max_iterations=True": lambda op: op.solve(np.zeros(op.n), max_iterations=True),
    "ServiceConfig.max_batch=2.5": lambda op: ServiceConfig(max_batch=2.5),
    "ServiceConfig.max_batch=True": lambda op: ServiceConfig(max_batch=True),
    "ServiceConfig.executor_workers=2.5": lambda op: ServiceConfig(executor_workers=2.5),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_rejects_non_integer_counts(grid_operator, entry):
    _, op = grid_operator
    with pytest.raises(ValueError):
        COUNT_ENTRY_POINTS[entry](op)


BAD_IDS = {
    "fractional": ([0.5, 1.2], [1.7, 2.9]),
    "nan": ([np.nan], [1]),
    "inf": ([np.inf], [1]),
}

ID_ENTRY_POINTS = {
    "Graph": lambda u, v: Graph(3, u, v),
    "graph_from_edge_blocks": lambda u, v: graph_from_edge_blocks(
        3, [(np.asarray(u), np.asarray(v), np.ones(len(u)))]
    ),
    "EdgeEdits.inserts": lambda u, v: EdgeEdits.inserts(u, v, np.ones(len(u))),
}


@pytest.mark.parametrize("bad", sorted(BAD_IDS))
@pytest.mark.parametrize("entry", sorted(ID_ENTRY_POINTS))
def test_rejects_non_integer_vertex_ids(entry, bad):
    with pytest.raises(TypeError, match="integer array"):
        ID_ENTRY_POINTS[entry](*BAD_IDS[bad])


@pytest.mark.parametrize("entry", sorted(ID_ENTRY_POINTS))
def test_integral_float_vertex_ids_still_accepted(entry):
    ID_ENTRY_POINTS[entry]([0.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("n", [-1, 3.7, True], ids=["negative", "fractional", "bool"])
@pytest.mark.parametrize(
    "build",
    [lambda n: Graph(n, [], []), lambda n: graph_from_edge_blocks(n, [])],
    ids=["Graph", "graph_from_edge_blocks"],
)
def test_rejects_bad_vertex_count(build, n):
    with pytest.raises(ValueError, match="non-negative integer"):
        build(n)
