"""Experiment E8: the parallel SDD solver (Theorem 1.1).

Regenerates the paper's headline claims:

* accuracy — ``||x - A^+ b||_A <= eps ||A^+ b||_A`` for the requested eps;
* work — charged work grows far slower than the dense O(n^3) cost and the
  work exponent stays well below 2 across a size sweep;
* depth — charged depth is polynomially smaller than work (the m^(1/3+θ)
  claim: depth/work shrinks as the instance grows);
* comparison against CG and Jacobi-PCG baselines (iteration counts);
* amortization — setup (factorize) versus per-solve cost, and batched
  multi-RHS solves versus a loop of independent solves.

Machine-readable output
-----------------------
Run this module as a script to emit ``BENCH_solver.json``::

    PYTHONPATH=src python benchmarks/bench_solver.py --json
    PYTHONPATH=src python benchmarks/bench_solver.py --json --out path.json

The JSON payload records, per workload, the setup work/depth/wall-time, the
per-solve work/depth/wall-time, and the batched-vs-looped multi-RHS
comparison — giving future PRs a perf trajectory to diff against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from typing import Dict, List, Optional

import numpy as np

try:
    from benchmarks.conftest import print_table
except ImportError:  # executed as a script: benchmarks/ itself is on sys.path
    from conftest import print_table

from repro.core.chain_cache import clear_chain_cache
from repro.core.config import ChainConfig, SolverConfig
from repro.core.operator import factorize
from repro.graph import generators
from repro.graph.laplacian import graph_to_laplacian
from repro.linalg.cg import conjugate_gradient
from repro.linalg.direct import solve_laplacian_direct
from repro.linalg.jacobi import jacobi_preconditioner
from repro.linalg.norms import relative_a_norm_error
from repro.util.records import ExperimentRow


def _rhs(graph, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(graph.n)
    return b - b.mean()


def _rhs_batch(graph, k, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((graph.n, k))
    return b - b.mean(axis=0)


class TestE8Accuracy:
    def test_a_norm_accuracy(self, benchmark, bench_grid, bench_weighted_grid, bench_random_graph):
        workloads = [
            ("grid48", bench_grid),
            ("wgrid40", bench_weighted_grid),
            ("er2000", bench_random_graph),
        ]

        def run():
            rows = []
            for name, g in workloads:
                lap = graph_to_laplacian(g)
                b = _rhs(g)
                op = factorize(g, seed=0)
                report = op.solve(b, tol=1e-8)
                x_exact = solve_laplacian_direct(lap, b)
                err = relative_a_norm_error(lap, report.x - report.x.mean(), x_exact)
                rows.append(
                    ExperimentRow(
                        "E8",
                        name,
                        params={"n": g.n, "m": g.num_edges},
                        measured={
                            "levels": op.chain.depth,
                            "outer_iterations": report.iterations,
                            "a_norm_error": err,
                            "eps_target": 1e-8,
                        },
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E8: solver accuracy (Theorem 1.1 error guarantee)", rows)
        for r in rows:
            assert r.measured["a_norm_error"] <= 1e-5


class TestE8Baselines:
    def test_iteration_counts_vs_cg(self, benchmark, bench_weighted_grid):
        g = bench_weighted_grid
        lap = graph_to_laplacian(g)
        b = _rhs(g)

        def run():
            op = factorize(g, seed=0)
            chain_report = op.solve(b, tol=1e-8)
            plain = conjugate_gradient(lap, b, tol=1e-8, max_iterations=8000, project_nullspace=True)
            jacobi = conjugate_gradient(
                lap, b, tol=1e-8, max_iterations=8000,
                preconditioner=jacobi_preconditioner(lap), project_nullspace=True,
            )
            return [
                ExperimentRow(
                    "E8", "wgrid40", params={"m": g.num_edges},
                    measured={
                        "chain_pcg_iters": chain_report.iterations,
                        "jacobi_pcg_iters": jacobi.iterations,
                        "plain_cg_iters": plain.iterations,
                    },
                )
            ]

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E8: outer iteration counts vs baselines", rows)
        r = rows[0].measured
        assert r["chain_pcg_iters"] < r["plain_cg_iters"]
        assert r["chain_pcg_iters"] < r["jacobi_pcg_iters"]


class TestE8WorkDepthScaling:
    def test_work_and_depth_scaling(self, benchmark):
        sizes = [16, 24, 32, 48]

        def run():
            rows = []
            for size in sizes:
                g = generators.grid_2d(size, size)
                # Faithful chain termination at ~m^(1/3) for the depth claim.
                config = ChainConfig(
                    bottom_size=max(40, int(round(g.num_edges ** (1 / 3)))),
                    kappa=49.0,
                )
                op = factorize(g, config, seed=0)
                report = op.solve(_rhs(g), tol=1e-6)
                work = op.setup_work + report.work
                depth = op.setup_depth + report.depth
                rows.append(
                    ExperimentRow(
                        "E8",
                        f"grid{size}",
                        params={"m": g.num_edges},
                        measured={
                            "work": work,
                            "depth": depth,
                            "work_over_n3": work / float(g.n) ** 3,
                            "depth_over_work": depth / work,
                            "m_1_3": round(g.num_edges ** (1 / 3), 1),
                            "outer": report.iterations,
                        },
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E8: work/depth scaling (near-linear work, m^(1/3)-like depth)", rows)
        # work exponent well below the dense-solver regime
        w = [r.measured["work"] for r in rows]
        m = [r.params["m"] for r in rows]
        exponent = math.log(w[-1] / w[0]) / math.log(m[-1] / m[0])
        print(f"\nmeasured work exponent: {exponent:.2f} (dense solve would be ~3, CG ~1.5-2)")
        assert exponent < 2.4
        # work / n^3 strictly decreasing: the gap to dense solving widens
        ratios = [r.measured["work_over_n3"] for r in rows]
        assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
        # depth is a vanishing fraction of work as the instance grows
        dw = [r.measured["depth_over_work"] for r in rows]
        assert dw[-1] < dw[0]


class TestE8MultiRHS:
    def test_batched_beats_looped(self, benchmark):
        g = generators.grid_2d(24, 24)
        batch = _rhs_batch(g, 8)

        def run():
            row, _op, _t = _multi_rhs_row("grid24", g, batch)
            return [row]

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E8: batched multi-RHS vs factorize-per-solve loop", rows)
        r = rows[0].measured
        # Factorize-once + one batched call must charge strictly less work
        # than the historical loop that rebuilds the chain per solve.
        assert r["batched_total_work"] < r["looped_total_work"]
        assert r["batched_residual"] <= 1e-6


def _multi_rhs_row(name: str, g, batch: np.ndarray, solver: Optional[SolverConfig] = None):
    """Compare one batched multi-RHS solve against a factorize-per-solve loop.

    Returns ``(row, operator, setup_seconds)`` so callers can reuse the
    factorization instead of paying for it again.
    """
    k = batch.shape[1]

    t0 = time.time()
    op = factorize(g, solver=solver, seed=0)
    t_setup = time.time() - t0
    t0 = time.time()
    batched = op.solve(batch, tol=1e-8)
    t_batched = time.time() - t0

    looped_work = 0.0
    t0 = time.time()
    for j in range(k):
        loop_op = factorize(g, solver=solver, seed=0)
        looped_work += loop_op.setup_work + loop_op.solve(batch[:, j], tol=1e-8).work
    t_looped = time.time() - t0

    row = ExperimentRow(
        "E8",
        name,
        params={"n": g.n, "m": g.num_edges, "k": k},
        measured={
            "setup_work": op.setup_work,
            "setup_depth": op.setup_depth,
            "setup_seconds": t_setup,
            "batched_solve_work": batched.work,
            "batched_solve_depth": batched.depth,
            "batched_seconds": t_batched,
            "batched_total_work": op.setup_work + batched.work,
            "looped_total_work": looped_work,
            "looped_seconds": t_looped,
            "batched_residual": batched.relative_residual,
            "work_ratio": (op.setup_work + batched.work) / looped_work,
            "wall_speedup": t_looped / max(t_batched + t_setup, 1e-9),
        },
    )
    return row, op, t_setup


# --------------------------------------------------------------------------- #
# library baselines: scipy.sparse CG and (optional) pyamg
# --------------------------------------------------------------------------- #
def scipy_cg_baseline(lap, b: np.ndarray, tol: float = 1e-8, maxiter: int = 8000):
    """Unpreconditioned ``scipy.sparse.linalg.cg`` on the same system.

    Returns the measurement dict, or ``None`` when scipy is unavailable
    (the JSON column records ``null`` so downstream diffs stay aligned).
    """
    try:
        from scipy.sparse.linalg import cg as scipy_cg
    except ImportError:  # pragma: no cover - scipy is a hard dep of repro
        return None
    iters = [0]

    def count(_xk):
        iters[0] += 1

    t0 = time.time()
    try:
        x, info = scipy_cg(lap, b, rtol=tol, atol=0.0, maxiter=maxiter, callback=count)
    except TypeError:  # scipy < 1.12 spelled the relative tolerance "tol"
        x, info = scipy_cg(lap, b, tol=tol, atol=0.0, maxiter=maxiter, callback=count)
    seconds = time.time() - t0
    resid = float(np.linalg.norm(lap @ x - b) / max(np.linalg.norm(b), 1e-300))
    return {
        "iterations": int(iters[0]),
        "seconds": seconds,
        "converged": bool(info == 0),
        "relative_residual": resid,
    }


def pyamg_baseline(lap, b: np.ndarray, tol: float = 1e-8, maxiter: int = 400):
    """Smoothed-aggregation AMG (pyamg) on the same system, when installed.

    Returns ``None`` when pyamg is absent — the benchmark container does not
    ship it, so the committed JSON records ``null`` for this column.
    """
    try:
        import pyamg
    except ImportError:
        return None
    t0 = time.time()
    ml = pyamg.smoothed_aggregation_solver(lap.tocsr())
    setup_seconds = time.time() - t0
    residuals: List[float] = []
    t0 = time.time()
    x = ml.solve(b, tol=tol, maxiter=maxiter, residuals=residuals)
    seconds = time.time() - t0
    resid = float(np.linalg.norm(lap @ x - b) / max(np.linalg.norm(b), 1e-300))
    return {
        "iterations": max(len(residuals) - 1, 0),
        "setup_seconds": setup_seconds,
        "seconds": seconds,
        "converged": bool(resid <= tol * 10),
        "relative_residual": resid,
    }


# --------------------------------------------------------------------------- #
# standalone --json harness
# --------------------------------------------------------------------------- #
#: sha256 of the pcg_grid24 solution (the same pin tests/test_bit_identity.py
#: carries): grid_2d(24,24), seed=0 factorize,
#: default_rng(7) mean-centered RHS, default-config solve.
_PINNED_PCG_GRID24_DIGEST = (
    "1e3101a1e41a6bf496f1eb9b3e741e1604a810691603a834cb3359abc95ca232"
)


def assert_pinned_bit_identity() -> None:
    """Fail fast if the default-config solve drifted from the pinned digest.

    Runs the exact pinned recipe; raises ``AssertionError`` on any drift so a
    regenerated ``BENCH_solver.json`` can never silently ship numbers from a
    solver whose arithmetic changed without a deliberate re-pin.
    """
    g = generators.grid_2d(24, 24)
    op = factorize(g, seed=0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(g.n)
    b -= b.mean()
    r = op.solve(b)
    digest = hashlib.sha256(
        np.ascontiguousarray(r.x, dtype=np.float64).tobytes()
    ).hexdigest()
    assert digest == _PINNED_PCG_GRID24_DIGEST, (
        "default-config solve drifted from the pinned "
        f"digest ({digest} != {_PINNED_PCG_GRID24_DIGEST})"
    )


def collect_payload(sizes=(16, 24, 32, 64, 100), batch_width: int = 8) -> Dict:
    """Measure setup vs per-solve cost and multi-RHS behaviour per workload."""
    clear_chain_cache()
    # In-bench bit-identity gate: committed JSON always comes from a solver
    # whose default path matches the pinned digests.
    assert_pinned_bit_identity()
    workloads: List[Dict] = []
    for size in sizes:
        g = generators.grid_2d(size, size)
        batch = _rhs_batch(g, batch_width)
        b = _rhs(g)

        row, op, setup_seconds = _multi_rhs_row(f"grid{size}", g, batch)
        lap = graph_to_laplacian(g)

        t0 = time.time()
        single = op.solve(b, tol=1e-8)
        single_seconds = time.time() - t0
        workloads.append(
            {
                "workload": f"grid{size}",
                "n": g.n,
                "m": g.num_edges,
                "chain_levels": op.chain.depth,
                "setup": {
                    "work": op.setup_work,
                    "depth": op.setup_depth,
                    "seconds": setup_seconds,
                },
                "per_solve": {
                    "work": single.work,
                    "depth": single.depth,
                    "seconds": single_seconds,
                    "iterations": single.iterations,
                    "relative_residual": single.relative_residual,
                },
                "multi_rhs": dict(row.measured, k=batch_width),
                # Library baselines on the identical (lap, b, tol) system;
                # null = library not installed in this environment.
                "baselines": {
                    "scipy_cg": scipy_cg_baseline(lap, b, tol=1e-8),
                    "pyamg": pyamg_baseline(lap, b, tol=1e-8),
                },
            }
        )
    try:
        import pyamg  # noqa: F401

        pyamg_available = True
    except ImportError:
        pyamg_available = False
    return {
        "experiment": "E8",
        "schema_version": 4,
        "batch_width": batch_width,
        "baseline_availability": {"scipy_cg": True, "pyamg": pyamg_available},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--json",
        action="store_true",
        help="write the machine-readable benchmark payload",
    )
    parser.add_argument(
        "--out",
        default="BENCH_solver.json",
        help="output path for --json (default: BENCH_solver.json)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[16, 24, 32, 64, 100],
        help="grid side lengths to sweep (the vectorized chain construction"
        " makes 10k-vertex setups routine)",
    )
    parser.add_argument("--batch", type=int, default=8, help="multi-RHS batch width")
    args = parser.parse_args(argv)

    payload = collect_payload(sizes=tuple(args.sizes), batch_width=args.batch)
    for w in payload["workloads"]:
        ratio = w["multi_rhs"]["work_ratio"]
        cg = w["baselines"]["scipy_cg"]
        amg = w["baselines"]["pyamg"]
        cg_col = f"{cg['iterations']}" if cg else "n/a"
        amg_col = f"{amg['iterations']}" if amg else "n/a"
        print(
            f"{w['workload']}: setup work {w['setup']['work']:.3g}, "
            f"per-solve work {w['per_solve']['work']:.3g}, "
            f"batched/looped work ratio {ratio:.3f}, "
            f"iters chain {w['per_solve']['iterations']} / "
            f"scipy-cg {cg_col} / pyamg {amg_col}"
        )
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
