"""Tests for the PRAM work-depth cost model."""

from __future__ import annotations

from repro.pram.model import CostModel, log2ceil, null_cost
from repro.pram.primitives import (
    charge_bfs_round,
    charge_filter,
    charge_map,
    charge_reduce,
)


class TestCostModel:
    def test_charge_accumulates(self):
        c = CostModel()
        c.charge(work=10, depth=2)
        c.charge(work=5, depth=1)
        assert c.work == 15
        assert c.depth == 3

    def test_charge_round_counts_rounds(self):
        c = CostModel()
        c.charge_round(work=100)
        c.charge_round(work=50, depth=3)
        assert c.rounds == 2
        assert c.depth == 4

    def test_sequential_merge(self):
        a = CostModel()
        a.charge(work=5, depth=2)
        b = CostModel()
        b.charge_round(work=7, depth=3)
        a.sequential(b)
        assert a.work == 12
        assert a.depth == 5
        assert a.rounds == 1

    def test_null_cost_ignores_charges(self):
        c = null_cost()
        before = c.work
        c.charge(work=100, depth=100)
        assert c.work == before


class TestPrimitives:
    def test_map_linear_work_constant_depth(self):
        c = CostModel()
        charge_map(c, 100)
        assert c.work == 100
        assert c.depth == 1

    def test_map_zero_items(self):
        c = CostModel()
        charge_map(c, 0)
        assert c.work == 0

    def test_reduce_log_depth(self):
        c = CostModel()
        charge_reduce(c, 1024)
        assert c.work == 1024
        assert c.depth == 10

    def test_filter_includes_scan(self):
        c = CostModel()
        charge_filter(c, 64)
        assert c.work == 192

    def test_bfs_round(self):
        c = CostModel()
        charge_bfs_round(c, frontier_edges=50, n=1024)
        assert c.rounds == 1
        assert c.work == 50
        assert c.depth == 10

    def test_log2ceil(self):
        assert log2ceil(1) == 1
        assert log2ceil(2) == 1
        assert log2ceil(1024) == 10
