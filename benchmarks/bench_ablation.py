"""Experiment E11: ablations of the paper's design choices.

* Low-stretch *subgraph* vs low-stretch *tree* inside the sparsifier — the
  paper's key observation (Section 5.2 / 6.1) is that an ultra-sparse
  subgraph suffices and gives polylog stretch where trees cannot.
* Chain termination size — terminating at ~m^(1/3) (dense bottom solve)
  versus recursing further: depth drops sharply, work stays comparable.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.core.config import ChainConfig
from repro.core.operator import factorize
from repro.graph import generators
from repro.graph.laplacian import graph_to_laplacian
from repro.util.records import ExperimentRow


def _rhs(graph, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(graph.n)
    return b - b.mean()


class TestE11Ablations:
    def test_subgraph_vs_tree_preconditioner(self, benchmark, bench_grid):
        g = bench_grid
        b = _rhs(g)

        def run():
            rows = []
            for label, tree_only in [("subgraph (paper)", False), ("tree only", True)]:
                op = factorize(g, ChainConfig(use_tree_only=tree_only), seed=0)
                report = op.solve(b, tol=1e-8)
                rows.append(
                    ExperimentRow(
                        "E11",
                        label,
                        params={"m": g.num_edges},
                        measured={
                            "outer_iterations": report.iterations,
                            "levels": op.chain.depth,
                            "converged": report.converged,
                        },
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E11: subgraph-based vs tree-based preconditioner chain", rows)
        sub_iters = rows[0].measured["outer_iterations"]
        tree_iters = rows[1].measured["outer_iterations"]
        assert rows[0].measured["converged"]
        # the subgraph chain should never need meaningfully more iterations
        assert sub_iters <= tree_iters * 1.25 + 5

    def test_chain_termination_size(self, benchmark):
        g = generators.grid_2d(32, 32)
        b = _rhs(g)

        def run():
            rows = []
            for label, bottom in [("m^(1/3) bottom", max(40, int(round(g.num_edges ** (1 / 3))))),
                                  ("large bottom (n/3)", g.n // 3)]:
                op = factorize(g, ChainConfig(bottom_size=bottom, kappa=49.0), seed=0)
                report = op.solve(b, tol=1e-8)
                rows.append(
                    ExperimentRow(
                        "E11",
                        label,
                        params={"bottom_size": bottom},
                        measured={
                            "levels": op.chain.depth,
                            "outer_iterations": report.iterations,
                            "work": op.setup_work + report.work,
                            "depth": op.setup_depth + report.depth,
                        },
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E11: chain termination size ablation", rows)
        assert all(r.measured["outer_iterations"] > 0 for r in rows)
