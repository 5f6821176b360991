"""Tests for the AKPW low-stretch spanning tree (Algorithm 5.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.akpw import AKPWParameters, akpw_spanning_tree
from repro.core.stretch import average_stretch, tree_stretches
from repro.graph import generators
from repro.graph.components import connected_components
from repro.graph.mst import is_spanning_forest, minimum_spanning_tree_edges
from repro.pram.model import CostModel


class TestParameters:
    def test_practical_parameters_reasonable(self):
        p = AKPWParameters.practical(1000)
        assert p.y >= 2
        assert p.z >= 8
        assert p.rho >= 2

    def test_paper_parameters_larger(self):
        prac = AKPWParameters.practical(1000)
        paper = AKPWParameters.paper(1000)
        assert paper.y > prac.y
        assert paper.z > prac.z

    def test_practical_custom_y(self):
        p = AKPWParameters.practical(1000, y=5.0)
        assert p.y == 5.0


class TestSpanningProperty:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: generators.grid_2d(15, 15),
            lambda: generators.weighted_grid_2d(15, 15, seed=1, spread=1e4),
            lambda: generators.erdos_renyi_gnm(300, 900, seed=2),
            lambda: generators.random_regular_graph(200, 4, seed=3),
            lambda: generators.preferential_attachment(200, 3, seed=4),
        ],
    )
    def test_output_is_spanning_tree(self, graph_factory):
        g = graph_factory()
        res = akpw_spanning_tree(g, seed=0)
        assert is_spanning_forest(g, res.tree_edges)
        assert len(res.tree_edges) == g.n - 1

    def test_disconnected_graph_gives_forest(self):
        from repro.graph.graph import Graph

        g = Graph(6, [0, 1, 3, 4], [1, 2, 4, 5], [1.0, 2.0, 3.0, 4.0])
        res = akpw_spanning_tree(g, seed=0)
        count, _ = connected_components(g)
        assert len(res.tree_edges) == g.n - count
        assert is_spanning_forest(g, res.tree_edges)

    def test_tree_edges_are_valid_indices(self, weighted_grid_graph):
        res = akpw_spanning_tree(weighted_grid_graph, seed=1)
        assert res.tree_edges.min() >= 0
        assert res.tree_edges.max() < weighted_grid_graph.num_edges
        assert len(np.unique(res.tree_edges)) == len(res.tree_edges)

    def test_empty_graph(self):
        from repro.graph.graph import Graph

        g = Graph(3, [], [], [])
        res = akpw_spanning_tree(g, seed=0)
        assert res.tree_edges.size == 0

    def test_deterministic_given_seed(self, grid_graph):
        r1 = akpw_spanning_tree(grid_graph, seed=11)
        r2 = akpw_spanning_tree(grid_graph, seed=11)
        assert np.array_equal(r1.tree_edges, r2.tree_edges)

    def test_tree_method_returns_graph(self, grid_graph):
        res = akpw_spanning_tree(grid_graph, seed=0)
        t = res.tree(grid_graph)
        assert t.num_edges == grid_graph.n - 1

    def test_paper_parameters_also_produce_spanning_tree(self):
        g = generators.weighted_grid_2d(10, 10, seed=0, spread=100)
        res = akpw_spanning_tree(g, parameters=AKPWParameters.paper(g.n), seed=0)
        assert is_spanning_forest(g, res.tree_edges)
        assert len(res.tree_edges) == g.n - 1


class TestStretchQuality:
    def test_average_stretch_subpolynomial_on_grid(self):
        """Theorem 5.1's guarantee is sub-polynomial; check a generous
        polylog-style bound holds at practical sizes."""
        g = generators.grid_2d(24, 24)
        res = akpw_spanning_tree(g, seed=0)
        avg = average_stretch(g, res.tree_edges)
        bound = 8.0 * math.log2(g.n) ** 2
        assert avg <= bound

    def test_akpw_beats_or_matches_mst_on_unit_grid(self):
        g = generators.grid_2d(30, 30)
        akpw = akpw_spanning_tree(g, seed=0)
        mst = minimum_spanning_tree_edges(g)
        avg_akpw = average_stretch(g, akpw.tree_edges)
        avg_mst = average_stretch(g, mst)
        # On unweighted grids AKPW's decomposition avoids the long MST paths.
        assert avg_akpw <= avg_mst * 1.2

    def test_stretch_finite_everywhere(self, weighted_grid_graph):
        res = akpw_spanning_tree(weighted_grid_graph, seed=5)
        stretches = tree_stretches(weighted_grid_graph, res.tree_edges)
        assert np.all(np.isfinite(stretches))


class TestCost:
    def test_cost_charged(self, grid_graph):
        cost = CostModel()
        res = akpw_spanning_tree(grid_graph, seed=0, cost=cost)
        assert cost.work > 0
        assert cost.depth > 0
        assert res.num_iterations >= 1

    def test_work_roughly_linear(self):
        works = []
        for size in (16, 32):
            g = generators.grid_2d(size, size)
            cost = CostModel()
            akpw_spanning_tree(g, seed=0, cost=cost)
            works.append((g.num_edges, cost.work))
        (m1, w1), (m2, w2) = works
        assert (w2 / w1) <= (m2 / m1) * 8
