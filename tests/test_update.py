"""Incremental update tests: patched/rebuilt equivalence to fresh factorize.

The correctness contract of ``LaplacianOperator.update`` is
solve-equivalence: for any edit batch, solving on the updated operator must
agree with solving on a fresh ``factorize()`` of the mutated graph to
<= 1e-8 at tol=1e-10 — and when the damage threshold triggers the full
rebuild, the result must be **bit-identical** to the fresh factorization
(same seed, same chain, same arithmetic).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.core import chain_cache
from repro.core.config import SolverConfig
from repro.core.operator import factorize
from repro.core.update import REBUILD_DAMAGE, UpdateReport
from repro.graph import generators
from repro.graph.edits import EdgeEdits
from repro.graph.graph import Graph

#: The acceptance tolerance of the equivalence contract.
EQUIV_ATOL = 1e-8
SOLVE_TOL = 1e-10


@pytest.fixture(autouse=True)
def fresh_cache():
    repro.clear_chain_cache()
    yield
    repro.clear_chain_cache()


def _rhs(graph: Graph, seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(graph.n)


def _assert_solve_equivalent(updated, mutated_graph: Graph, *, seed) -> None:
    """Updated-operator solves agree with a fresh factorize of the graph."""
    fresh = factorize(mutated_graph, updated.chain_config, updated.solver_config, seed=seed)
    b = _rhs(mutated_graph)
    x_upd = updated.solve(b, tol=SOLVE_TOL).x
    x_ref = fresh.solve(b, tol=SOLVE_TOL).x
    assert np.max(np.abs(x_upd - x_ref)) <= EQUIV_ATOL


def _past_threshold(graph: Graph) -> EdgeEdits:
    """A batch that reweights every edge: its damage exceeds REBUILD_DAMAGE."""
    m = graph.num_edges
    return EdgeEdits.reweights(np.arange(m), 2.0 + np.arange(m) % 3)


def _random_edits(graph: Graph, rng: np.random.Generator, *, fraction: float = 0.1) -> EdgeEdits:
    """A mixed batch touching about ``fraction`` of the edges, plus inserts."""
    m = graph.num_edges
    k = max(1, int(round(fraction * m)))
    perm = rng.permutation(m)
    delete = np.sort(perm[:k])
    reweight = np.sort(perm[k : 2 * k])
    batches = []
    if delete.size:
        batches.append(EdgeEdits.deletes(delete))
    if reweight.size:
        batches.append(
            EdgeEdits.reweights(reweight, rng.uniform(0.5, 4.0, size=reweight.size))
        )
    if graph.n >= 2:
        u = rng.integers(0, graph.n, size=k)
        v = rng.integers(0, graph.n, size=k)
        keep = u != v
        if np.any(keep):
            batches.append(
                EdgeEdits.inserts(u[keep], v[keep], rng.uniform(0.5, 4.0, size=int(keep.sum())))
            )
    return EdgeEdits.merge(*batches) if batches else EdgeEdits.empty()


# --------------------------------------------------------------------------- #
# fuzzed equivalence over the corpus
# --------------------------------------------------------------------------- #
class TestFuzzedEquivalence:
    def test_update_sequence_matches_fresh_factorize(self, corpus_case):
        """Two successive random batches; solves agree with fresh factorize.

        Covers both strategies: merging inserts force rebuilds, the rest
        patch — equivalence must hold either way, and across *sequences*
        (the second batch exercises the chain-edge index translation).
        """
        g = corpus_case.graph
        if g.num_edges == 0:
            pytest.skip("no edges to edit")
        rng = np.random.default_rng(hash(corpus_case.name) % 2**32)
        op = factorize(g, seed=3)
        for _ in range(2):
            edits = _random_edits(g, rng)
            if edits.is_empty:
                continue
            g = g.apply_edits(edits)
            op, report = op.update(edits)
            assert report.strategy in ("patched", "rebuilt")
        assert op.graph.fingerprint() == g.fingerprint()
        _assert_solve_equivalent(op, g, seed=3)

    def test_reweight_only_batch_patches_and_matches(self, grid_graph):
        op = factorize(grid_graph, seed=0)
        m = grid_graph.num_edges
        idx = np.arange(0, m, 7)
        edits = EdgeEdits.reweights(idx, np.linspace(0.5, 5.0, idx.size))
        updated, report = op.update(edits)
        assert report.strategy == "patched"
        assert report.num_edits == idx.size
        _assert_solve_equivalent(updated, grid_graph.apply_edits(edits), seed=0)

    def test_chebyshev_method_recalibrates_after_patch(self, grid_graph):
        solver = SolverConfig(method="chebyshev")
        op = factorize(grid_graph, solver=solver, seed=0)
        edits = EdgeEdits.reweights([0, 5, 10], [3.0, 0.25, 2.0])
        updated, report = op.update(edits)
        assert report.strategy == "patched"
        mutated = grid_graph.apply_edits(edits)
        fresh = factorize(mutated, solver=solver, seed=0)
        b = _rhs(mutated)
        x_upd = updated.solve(b, tol=1e-8).x
        x_ref = fresh.solve(b, tol=1e-8).x
        r_upd = updated.solve(b, tol=1e-8).relative_residual
        assert r_upd <= 1e-8
        assert np.max(np.abs(x_upd - x_ref)) <= 1e-6  # both meet tol independently


# --------------------------------------------------------------------------- #
# strategy selection
# --------------------------------------------------------------------------- #
class TestStrategySelection:
    def test_empty_batch_is_noop_returning_same_operator(self, grid_graph):
        op = factorize(grid_graph, seed=0)
        same, report = op.update(EdgeEdits.empty())
        assert same is op
        assert report.strategy == "noop"
        assert report.num_edits == 0

    def test_small_batch_patches(self, grid_graph):
        op = factorize(grid_graph, seed=0)
        updated, report = op.update(EdgeEdits.reweights([0], [2.0]))
        assert report.strategy == "patched"
        assert updated is not op
        assert 0.0 <= report.batch_damage <= report.threshold

    def test_damage_accumulates_across_patches_until_rebuild(self, grid_graph):
        op = factorize(grid_graph, seed=0)
        # Each batch inserts ~6% of the edges, so the accumulated damage
        # crosses REBUILD_DAMAGE after a few patches.
        per_batch = math.ceil(0.3 * REBUILD_DAMAGE * grid_graph.num_edges)
        strategies = []
        for i in range(8):
            v = 1 + (np.arange(per_batch) + i) % (grid_graph.n - 1)
            op, report = op.update(EdgeEdits.inserts(np.zeros(per_batch), v, np.ones(per_batch)))
            strategies.append(report.strategy)
        assert "rebuilt" in strategies
        first_rebuild = strategies.index("rebuilt")
        # no single batch crosses the threshold: the patches before it add up
        assert first_rebuild >= 2
        assert all(s == "patched" for s in strategies[:first_rebuild])
        # after the rebuild the damage accumulator resets and patching resumes
        assert strategies[first_rebuild + 1] == "patched"

    def test_untouched_chain_edges_cost_no_damage(self, grid_graph):
        """Deleting only unsampled edges leaves the accumulated damage at 0."""
        op = factorize(grid_graph, seed=0)
        top = op.chain.levels[0]
        assert top.sparsifier is not None
        chain_edges = np.union1d(
            top.sparsifier.subgraph_edges, top.sparsifier.sampled_edges
        )
        unsampled = np.setdiff1d(np.arange(grid_graph.num_edges), chain_edges)
        if unsampled.size == 0:
            pytest.skip("chain consumed every edge")
        updated, report = op.update(EdgeEdits.deletes(unsampled[:3]))
        assert report.strategy == "patched"
        assert report.batch_damage == 0.0

    def test_disconnect_patches_then_reconnect_rebuilds(self):
        g = generators.grid_2d(6, 6)
        op = factorize(g, seed=1)
        incident = np.flatnonzero((g.u == 0) | (g.v == 0))
        disconnected, report = op.update(EdgeEdits.deletes(incident))
        # A split never forces a rebuild (the stale preconditioner stays SPD
        # on the shrunken range); equivalence must hold on the split graph.
        assert report.strategy == "patched"
        _assert_solve_equivalent(disconnected, g.delete_edges(incident), seed=1)
        # Reconnecting the components merges them: mandatory rebuild even
        # though one inserted edge is far below any damage threshold.
        reconnected, report2 = disconnected.update(EdgeEdits.inserts([0], [1], [1.0]))
        assert report2.strategy == "rebuilt"
        assert "merged" in report2.reason
        _assert_solve_equivalent(
            reconnected, g.delete_edges(incident).add_edges([0], [1], [1.0]), seed=1
        )


# --------------------------------------------------------------------------- #
# rebuild bit-identity
# --------------------------------------------------------------------------- #
class TestRebuildBitIdentity:
    def test_rebuilt_operator_solves_bit_identical_to_fresh(self, grid_graph):
        op = factorize(grid_graph, seed=7)
        edits = _past_threshold(grid_graph)
        rebuilt, report = op.update(edits)
        assert report.strategy == "rebuilt"
        mutated = grid_graph.apply_edits(edits)
        fresh = factorize(mutated, seed=7)
        b = _rhs(mutated)
        assert np.array_equal(rebuilt.solve(b, tol=SOLVE_TOL).x, fresh.solve(b, tol=SOLVE_TOL).x)

    def test_rebuild_uses_original_factorize_seed(self, grid_graph):
        op = factorize(grid_graph, seed=42)
        assert op.factorize_seed == 42
        rebuilt, report = op.update(_past_threshold(grid_graph))
        assert report.strategy == "rebuilt"
        assert rebuilt.factorize_seed == 42


# --------------------------------------------------------------------------- #
# cache interaction
# --------------------------------------------------------------------------- #
class TestCacheInteraction:
    def test_patched_operator_never_enters_the_chain_cache(self, grid_graph):
        op = factorize(grid_graph, seed=0, cache=True)
        edits = EdgeEdits.reweights([0], [2.0])
        updated, report = op.update(edits)
        assert report.strategy == "patched"
        mutated = grid_graph.apply_edits(edits)
        key = chain_cache.make_key(mutated, op.chain_config, op.solver_config, 0)
        assert chain_cache.lookup(key) is None

    def test_update_on_chain_cached_operator_leaves_cache_sound(self, grid_graph):
        """A cache hit after an update still returns the pristine operator."""
        op = factorize(grid_graph, seed=0, cache=True)
        op.update(EdgeEdits.reweights([0], [2.0]))
        key = chain_cache.make_key(grid_graph, op.chain_config, op.solver_config, 0)
        assert chain_cache.lookup(key) is op  # original entry untouched


# --------------------------------------------------------------------------- #
# validation and reporting
# --------------------------------------------------------------------------- #
class TestValidationAndReport:
    def test_gremban_backed_operator_raises(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.array([[3.0, 1.0], [1.0, 3.0]]))  # SDD, not Laplacian
        op = factorize(mat, seed=0)
        with pytest.raises(ValueError, match="Gremban"):
            op.update(EdgeEdits.empty())

    def test_out_of_range_edits_rejected(self, grid_graph):
        op = factorize(grid_graph, seed=0)
        with pytest.raises(ValueError):
            op.update(EdgeEdits.deletes([grid_graph.num_edges]))
        with pytest.raises(ValueError):
            op.update(EdgeEdits.inserts([0], [grid_graph.n], [1.0]))

    def test_report_fields(self, grid_graph):
        op = factorize(grid_graph, seed=0)
        _, report = op.update(EdgeEdits.reweights([0, 1], [2.0, 2.0]))
        assert isinstance(report, UpdateReport)
        assert report.num_edits == 2
        assert report.threshold == REBUILD_DAMAGE
        assert report.seconds >= 0.0
        assert report.accumulated_damage >= report.batch_damage >= 0.0

    def test_original_operator_still_solves_old_graph(self, grid_graph):
        """update() never mutates the original operator (in-flight safety)."""
        op = factorize(grid_graph, seed=0)
        b = _rhs(grid_graph)
        before = op.solve(b, tol=SOLVE_TOL).x
        op.update(EdgeEdits.reweights([0], [9.0]))
        after = op.solve(b, tol=SOLVE_TOL).x
        assert np.array_equal(before, after)
        assert op.graph is not None and op.graph.num_edges == grid_graph.num_edges
