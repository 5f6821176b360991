"""Tests for compiled solve transfers (repro.core.transfer).

The compiled partial-Cholesky factor ``H`` must agree with the historical
per-step op-list replay to rounding: its sparse products regroup the
replay's sums, so the oracle is a max relative error of 1e-12 (measured
~1e-16), not bit equality.  Batched blocks still equal their columns bit for
bit, and the structure of the factor (kept rows, symmetry of the level
operator, forward/backward adjointness) is checked exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.chain import build_chain
from repro.core.chain_cache import _iter_ndarrays
from repro.core.elimination import (
    NO_NEIGHBOR,
    EliminationSchedule,
    greedy_elimination,
)
from repro.core.transfer import compile_schedule, compile_transfers
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.laplacian import graph_to_laplacian
from repro.linalg.direct import solve_laplacian_direct


# Reference: the pre-refactor interpreted replay, shared with the benchmark
# harness so the test and bench baselines cannot drift apart.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.bench_elimination import (  # noqa: E402
    REPLAY_RTOL,
    replay_error,
)


def _random_tree(n: int, seed: int, weighted: bool = True) -> Graph:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    u = [int(perm[rng.integers(0, i)]) for i in range(1, n)]
    v = [int(perm[i]) for i in range(1, n)]
    w = rng.uniform(0.05, 20.0, n - 1) if weighted else None
    return Graph(n, u, v, w)


def _tree_plus_chords(n: int, chords: int, seed: int) -> Graph:
    g = _random_tree(n, seed)
    rng = np.random.default_rng(seed + 1000)
    eu, ev = [], []
    while len(eu) < chords:
        a, b = rng.integers(0, n, 2)
        if a != b:
            eu.append(int(a))
            ev.append(int(b))
    return g.add_edges(eu, ev, rng.uniform(0.05, 20.0, chords))


def _disconnected(seed: int) -> Graph:
    g1 = _random_tree(70, seed)
    g2 = _tree_plus_chords(50, 6, seed + 1)
    g3 = generators.cycle_graph(17)
    n = g1.n + g2.n + g3.n
    return Graph(
        n,
        np.concatenate([g1.u, g2.u + g1.n, g3.u + g1.n + g2.n]),
        np.concatenate([g1.v, g2.v + g1.n, g3.v + g1.n + g2.n]),
        np.concatenate([g1.w, g2.w, g3.w]),
    )


def _multigraph(seed: int) -> Graph:
    """Random sparse graph with duplicated (parallel) edges."""
    base = _tree_plus_chords(60, 8, seed)
    rng = np.random.default_rng(seed + 17)
    dup = rng.integers(0, base.num_edges, 25)
    return base.add_edges(base.u[dup], base.v[dup], rng.uniform(0.1, 5.0, 25))


GRAPH_CASES = [
    ("tree", lambda s: _random_tree(150, s)),
    ("tree_chords", lambda s: _tree_plus_chords(150, 12, s)),
    ("disconnected", lambda s: _disconnected(s)),
    ("multigraph", lambda s: _multigraph(s)),
    ("path", lambda s: generators.path_graph(128)),
    ("weighted_grid", lambda s: generators.weighted_grid_2d(7, 7, seed=s, spread=1e3)),
]


class TestBitForBitEquivalence:
    @pytest.mark.parametrize("name,make", GRAPH_CASES, ids=[c[0] for c in GRAPH_CASES])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oplist_replay(self, name, make, seed):
        g = make(seed)
        elim = greedy_elimination(g, seed=seed)
        rng = np.random.default_rng(seed + 99)
        b = rng.standard_normal(g.n)
        x_red = rng.standard_normal(elim.reduced_graph.n)
        assert replay_error(elim, elim.transfer, b, x_red) <= REPLAY_RTOL

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sequential_mode_matches_replay(self, seed):
        g = _tree_plus_chords(90, 10, seed)
        elim = greedy_elimination(g, seed=seed, parallel_degree2=False)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(g.n)
        x_red = rng.standard_normal(elim.reduced_graph.n)
        assert replay_error(elim, elim.transfer, b, x_red) <= REPLAY_RTOL

    def test_forward_carry_equals_backward_solution_path(self):
        """The carry-reusing pair equals the legacy two-pass signatures."""
        g = _tree_plus_chords(120, 9, seed=4)
        elim = greedy_elimination(g, seed=4)
        t = elim.transfer
        rng = np.random.default_rng(0)
        b = rng.standard_normal(g.n)
        x_red = rng.standard_normal(elim.reduced_graph.n)
        b_red, carry = t.forward(b)
        assert np.array_equal(b_red, t.forward_rhs(b))
        assert np.array_equal(t.backward(carry, x_red), t.backward_solution(b, x_red))


class TestBatched:
    @pytest.mark.parametrize("name,make", GRAPH_CASES, ids=[c[0] for c in GRAPH_CASES])
    def test_batched_matches_looped_columns(self, name, make):
        g = make(5)
        elim = greedy_elimination(g, seed=5)
        t = elim.transfer
        rng = np.random.default_rng(11)
        k = 5
        B = rng.standard_normal((g.n, k))
        XR = rng.standard_normal((elim.reduced_graph.n, k))
        b_red, carry = t.forward(B)
        x = t.backward(carry, XR)
        assert b_red.shape == (elim.reduced_graph.n, k)
        assert x.shape == (g.n, k)
        for j in range(k):
            b_red_j, carry_j = t.forward(B[:, j])
            assert np.array_equal(b_red[:, j], b_red_j)
            assert np.array_equal(x[:, j], t.backward(carry_j, XR[:, j]))

    def test_single_column_batch(self):
        g = _random_tree(80, 2)
        elim = greedy_elimination(g, seed=2)
        b = np.random.default_rng(0).standard_normal((g.n, 1))
        assert np.array_equal(
            elim.forward_rhs(b)[:, 0], elim.forward_rhs(b[:, 0])
        )


class TestOperationsRoundTrip:
    @pytest.mark.parametrize("name,make", GRAPH_CASES, ids=[c[0] for c in GRAPH_CASES])
    def test_schedule_operations_schedule(self, name, make):
        """Deprecated op-list view rebuilds into an equivalent schedule."""
        g = make(7)
        elim = greedy_elimination(g, seed=7)
        ops = elim.operations
        rebuilt = EliminationSchedule.from_operations(g.n, ops)
        assert rebuilt.to_operations() == ops
        t_rebuilt = compile_schedule(rebuilt, elim.kept_vertices)
        rng = np.random.default_rng(23)
        b = rng.standard_normal(g.n)
        x_red = rng.standard_normal(elim.reduced_graph.n)
        assert np.array_equal(elim.forward_rhs(b), t_rebuilt.forward_rhs(b))
        assert np.array_equal(
            elim.backward_solution(b, x_red), t_rebuilt.backward_solution(b, x_red)
        )

    def test_operations_format_and_cache(self):
        g = _tree_plus_chords(60, 5, seed=1)
        elim = greedy_elimination(g, seed=1)
        assert elim.operations is elim.operations  # lazily cached
        for op in elim.operations:
            assert op[0] in ("d1", "d2")
            assert isinstance(op[1], int) and isinstance(op[2], int)
            assert isinstance(op[3], float)
            if op[0] == "d2":
                assert isinstance(op[4], int) and isinstance(op[5], float)
        assert len(elim.operations) == elim.num_eliminated

    def test_empty_operations_roundtrip(self):
        sched = EliminationSchedule.from_operations(4, [])
        assert sched.num_steps == 0
        assert sched.num_subrounds == 0
        assert sched.to_operations() == []


class TestOperatorProperties:
    def test_forward_matrix_matches_sweeps(self):
        g = _tree_plus_chords(100, 8, seed=3)
        elim = greedy_elimination(g, seed=3)
        F = elim.transfer.forward_matrix()
        assert F.shape == (elim.reduced_graph.n, g.n)
        rng = np.random.default_rng(1)
        for _ in range(3):
            b = rng.standard_normal(g.n)
            assert np.array_equal(F @ b, elim.forward_rhs(b))

    def test_transfer_is_linear(self):
        g = _random_tree(90, 6)
        elim = greedy_elimination(g, seed=6)
        rng = np.random.default_rng(2)
        b1, b2 = rng.standard_normal((2, g.n))
        lhs = elim.forward_rhs(2.0 * b1 - 3.0 * b2)
        rhs = 2.0 * elim.forward_rhs(b1) - 3.0 * elim.forward_rhs(b2)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_no_elimination_graph(self):
        # K5: minimum degree 4, nothing rakes or compresses
        n = 5
        u, v = np.triu_indices(n, k=1)
        g = Graph(n, u, v, np.arange(1.0, u.shape[0] + 1.0))
        elim = greedy_elimination(g, seed=0)
        assert elim.num_eliminated == 0
        b = np.random.default_rng(0).standard_normal(n)
        assert np.array_equal(elim.forward_rhs(b), b)
        x_red = np.random.default_rng(1).standard_normal(n)
        assert np.array_equal(elim.backward_solution(b, x_red), x_red)

    def test_solve_through_compiled_transfers(self):
        """Compiled transfer + exact reduced solve reproduces the full solve."""
        g = _multigraph(9)
        lap = graph_to_laplacian(g)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        elim = greedy_elimination(g, seed=9)
        reduced_lap = graph_to_laplacian(elim.reduced_graph)
        b_red, carry = elim.transfer.forward(b)
        x_red = np.linalg.pinv(reduced_lap.toarray(), hermitian=True) @ b_red
        x = elim.transfer.backward(carry, x_red)
        x_exact = solve_laplacian_direct(lap, b)
        assert np.allclose(x - x.mean(), x_exact, atol=1e-8)

    def test_result_transfer_cached(self):
        g = _random_tree(40, 0)
        elim = greedy_elimination(g, seed=0)
        assert elim.transfer is elim.transfer


class TestChainIntegration:
    def test_chain_levels_precompiled(self):
        g = generators.grid_2d(16, 16)
        chain = build_chain(g, seed=0)
        assert chain.depth >= 2
        for lvl in chain.levels[:-1]:
            assert lvl.elimination is not None
            assert lvl.transfers is not None
            assert lvl.transfers.num_steps == lvl.elimination.num_eliminated
        assert chain.levels[-1].transfers is None

    def test_compile_transfers_function(self):
        g = _random_tree(60, 3)
        elim = greedy_elimination(g, seed=3)
        t = compile_transfers(elim)
        b = np.random.default_rng(0).standard_normal(g.n)
        assert np.array_equal(t.forward_rhs(b), elim.forward_rhs(b))


class TestFactorStructure:
    """``backward ∘ (P ⊕ D⁻¹) ∘ forward`` is ``Hᵀ blockdiag(P, D⁻¹) H``."""

    def test_factor_structure(self, corpus_case):
        g = corpus_case.graph
        elim = greedy_elimination(g, seed=13)
        t = compile_transfers(elim)
        n, n_kept = g.n, elim.reduced_graph.n
        rng = np.random.default_rng(31)

        # Kept rows of backward hand x_reduced back untouched.
        x_red = rng.standard_normal(n_kept)
        _, carry = t.forward(rng.standard_normal(n))
        assert np.array_equal(t.backward(carry, x_red)[elim.kept_vertices], x_red)

        # The x_reduced block of backward is forward_matrix()ᵀ.
        lift = t.backward(np.zeros((n, n_kept)), np.eye(n_kept))
        assert np.array_equal(lift, t.forward_matrix().T.toarray())

        # A level with an SPD reduced solve is a symmetric operator.
        a = rng.standard_normal((n_kept, n_kept))
        spd = a @ a.T + np.eye(n_kept)

        def level(r):
            r_red, carry = t.forward(r)
            return t.backward(carry, spd @ r_red)

        r, s = rng.standard_normal((2, n))
        sMr, rMs = s @ level(r), r @ level(s)
        assert abs(sMr - rMs) <= 1e-12 * max(abs(sMr), abs(rMs), 1e-300)

    def test_single_copy_of_factor(self):
        """H and its stored transpose share buffer objects, not views."""
        chain = build_chain(generators.grid_2d(16, 16), seed=0)
        for lvl in chain.levels[:-1]:
            arrays = list(_iter_ndarrays(lvl.transfers))
            assert arrays
            for i, a in enumerate(arrays):
                for b in arrays[i + 1 :]:
                    assert not np.shares_memory(a, b)


def _schedule(n, vertices, nbr1, nbr2, w1, w2, offsets):
    return EliminationSchedule(
        n=n,
        vertices=np.asarray(vertices, dtype=np.int64),
        nbr1=np.asarray(nbr1, dtype=np.int64),
        nbr2=np.asarray(nbr2, dtype=np.int64),
        w1=np.asarray(w1, dtype=np.float64),
        w2=np.asarray(w2, dtype=np.float64),
        offsets=np.asarray(offsets, dtype=np.int64),
    )


class TestMalformedSchedule:
    """A schedule whose scatter matrix is not nilpotent raises, never loops."""

    def test_reference_to_vertex_eliminated_earlier(self):
        # Sub-round 0 rakes 0 into 1; sub-round 1 compresses 1 between 3 and
        # the already-eliminated 0, which closes the cycle 0 -> 1 -> 0.
        sched = _schedule(
            4, [0, 1], [1, 3], [NO_NEIGHBOR, 0], [1.0, 2.0], [0.0, 3.0], [0, 1, 2]
        )
        with pytest.raises(ValueError, match="eliminated in sub-round 0, not later"):
            compile_schedule(sched, np.array([2, 3]))

    def test_reference_to_vertex_eliminated_in_same_subround(self):
        # One sub-round rakes 0 into 1 and 1 into 0.
        sched = _schedule(
            3, [0, 1], [1, 0], [NO_NEIGHBOR] * 2, [1.0, 1.0], [0.0, 0.0], [0, 2]
        )
        with pytest.raises(ValueError, match="eliminated in sub-round 0, not later"):
            compile_schedule(sched, np.array([2]))

    def test_vertex_eliminated_twice(self):
        sched = _schedule(
            3, [0, 0], [1, 2], [NO_NEIGHBOR] * 2, [1.0, 1.0], [0.0, 0.0], [0, 1, 2]
        )
        with pytest.raises(ValueError, match="partition"):
            compile_schedule(sched, np.array([1, 2]))

    def test_well_formed_schedule_compiles(self):
        sched = _schedule(
            4, [0, 1], [1, 3], [NO_NEIGHBOR, 2], [1.0, 2.0], [0.0, 3.0], [0, 1, 2]
        )
        t = compile_schedule(sched, np.array([2, 3]))
        b = np.array([1.0, 2.0, 3.0, 4.0])
        # b_1 += b_0 = 3; then b_3 += 2/5 * 3, b_2 += 3/5 * 3.
        assert np.allclose(t.forward_rhs(b), [3.0 + 1.8, 4.0 + 1.2], rtol=1e-15)
