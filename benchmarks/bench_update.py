"""Experiment E13: incremental re-factorization (``LaplacianOperator.update``).

The update path exists to beat one number: the cost of throwing the chain
away and calling ``factorize()`` again after a batch of edge edits.  This
benchmark measures both sides of that trade on the ISSUE-9 acceptance
workload — a ~100k-vertex grid — across edit-batch sizes from 0.1% to 5%
of the edge set, and (with ``--rmat``) on a power-law R-MAT multigraph
factorized through the deeper ``max_levels=16`` chain such cores need.

Each trial starts from the same pristine factorized operator (``update``
never mutates its receiver, so one baseline serves every fraction), applies
a mixed batch — reweights, deletes, and inserts in an 8:1:1 split of the
edit budget — and times

* ``update_seconds``  — ``op.update(edits)`` (the patch: top level rebuilt
  exactly, the stale sparsifier/elimination/bottom-LU kept as
  preconditioner), and
* ``rebuild_seconds`` — ``factorize(mutated_graph)`` from scratch.

Verification solves run with a raised ``max_iterations`` budget (2000 vs
the default 200): the stale-preconditioner contract is that staleness
costs *iterations*, never accuracy, and at the 5% edit fraction the
patched chain legitimately needs ~2-3x the iterations of a fresh one to
reach tol=1e-10 — the benchmark asserts the patched solve **converges**
and records both iteration counts, so the per-solve cost of staleness is
part of the payload, not hidden by the setup-time speedup.

Every trial also *verifies* the equivalence contract inline: the updated
operator's solve must agree with the fresh factorization's solve to a
**relative** ``--equiv-tol`` (default 1e-8, measured as
``max|dx| / max(1, max|x_ref|)``) at tol=1e-10, and the benchmark raises
on violation — a speedup from a wrong answer is not a speedup.  The
relative form is the scale-appropriate reading of the corpus-level
absolute ≤1e-8 bar pinned in ``tests/test_update.py``: on a 100k-vertex
grid both solves independently meet the 1e-10 residual tolerance, but the
grid Laplacian's conditioning amplifies the *absolute* solution gap by
orders of magnitude (both payload fields are recorded).

Machine-readable output
-----------------------
Run this module as a script to emit ``BENCH_update.json``::

    PYTHONPATH=src python benchmarks/bench_update.py --json
    PYTHONPATH=src python benchmarks/bench_update.py --json --side 40 \\
        --fractions 0.01 0.05 --out bench_update_ci.json
    PYTHONPATH=src python benchmarks/bench_update.py --json --rmat \\
        --assert-min-speedup 5.0

``--assert-min-speedup X`` turns the payload into a regression gate: every
trial whose edit fraction is <= ``--gate-max-fraction`` (default 0.01, the
ISSUE-9 acceptance bar) must patch at least ``X`` times faster than the
full rebuild.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.chain_cache import clear_chain_cache
from repro.core.config import ChainConfig
from repro.core.operator import factorize
from repro.core.update import REBUILD_DAMAGE
from repro.graph import generators
from repro.graph.edits import EdgeEdits

DEFAULT_FRACTIONS = (0.001, 0.01, 0.05)

#: Power-law cores need more sparsify/eliminate rounds before the bottom
#: LU is tractable (see bench_chain_build.py); four levels hang splu.
RMAT_CHAIN = ChainConfig(max_levels=16)


def _mixed_batch(graph, fraction: float, rng: np.random.Generator) -> EdgeEdits:
    """Reweights, deletes, and inserts in an 8:1:1 split of the edit budget."""
    m = graph.num_edges
    budget = max(1, int(round(fraction * m)))
    n_rew = max(1, (8 * budget) // 10)
    n_del = budget // 10
    n_ins = budget - n_rew - n_del
    perm = rng.permutation(m)
    batches = [
        EdgeEdits.reweights(
            np.sort(perm[:n_rew]), rng.uniform(0.5, 4.0, size=n_rew)
        )
    ]
    if n_del:
        batches.append(EdgeEdits.deletes(np.sort(perm[n_rew : n_rew + n_del])))
    if n_ins:
        u = rng.integers(0, graph.n, size=4 * n_ins)
        v = rng.integers(0, graph.n, size=4 * n_ins)
        keep = np.flatnonzero(u != v)[:n_ins]
        if keep.size:
            batches.append(
                EdgeEdits.inserts(u[keep], v[keep], rng.uniform(0.5, 4.0, size=keep.size))
            )
    return EdgeEdits.merge(*batches)


def measure_workload(
    name: str,
    graph,
    *,
    fractions,
    chain_config: Optional[ChainConfig] = None,
    seed: int = 0,
    equiv_tol: float = 1e-8,
    solve_tol: float = 1e-10,
) -> Dict:
    """Time update-vs-rebuild for every edit fraction on one workload."""
    clear_chain_cache()
    gc.collect()
    t0 = time.perf_counter()
    baseline = factorize(graph, chain_config, seed=seed)
    baseline_seconds = time.perf_counter() - t0
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(graph.n)

    trials: List[Dict] = []
    for fraction in fractions:
        edits = _mixed_batch(graph, fraction, rng)
        mutated = graph.apply_edits(edits)

        gc.collect()
        t0 = time.perf_counter()
        updated, report = baseline.update(edits)
        update_seconds = time.perf_counter() - t0

        gc.collect()
        t0 = time.perf_counter()
        fresh = factorize(mutated, chain_config, seed=seed)
        rebuild_seconds = time.perf_counter() - t0

        upd = updated.solve(b, tol=solve_tol, max_iterations=2000)
        ref = fresh.solve(b, tol=solve_tol, max_iterations=2000)
        if not upd.converged:
            raise AssertionError(
                f"{name} fraction={fraction}: patched operator failed to reach "
                f"tol={solve_tol} in {upd.iterations} iterations "
                f"(residual {upd.relative_residual:.3e}) — staleness may cost "
                "iterations, never accuracy"
            )
        max_abs_diff = float(np.max(np.abs(upd.x - ref.x))) if graph.n else 0.0
        scale = float(max(1.0, np.max(np.abs(ref.x)))) if graph.n else 1.0
        rel_diff = max_abs_diff / scale
        if rel_diff > equiv_tol:
            raise AssertionError(
                f"{name} fraction={fraction}: updated operator diverged from "
                f"fresh factorize (relative {rel_diff:.3e} > {equiv_tol:.1e}, "
                f"absolute {max_abs_diff:.3e})"
            )

        trials.append(
            {
                "edit_fraction": float(fraction),
                "num_edits": report.num_edits,
                "strategy": report.strategy,
                "batch_damage": report.batch_damage,
                "update_seconds": update_seconds,
                "rebuild_seconds": rebuild_seconds,
                "speedup": rebuild_seconds / update_seconds if update_seconds else 0.0,
                "update_solve_iterations": upd.iterations,
                "update_solve_converged": bool(upd.converged),
                "rebuild_solve_iterations": ref.iterations,
                "max_abs_diff": max_abs_diff,
                "max_rel_diff": rel_diff,
                "equivalence_ok": True,
            }
        )
        del updated, fresh, mutated
    return {
        "workload": name,
        "n": graph.n,
        "m": graph.num_edges,
        "chain_levels": baseline.chain.depth,
        "max_levels": (chain_config or ChainConfig()).max_levels,
        "update_rebuild_fraction": REBUILD_DAMAGE,
        "baseline_factorize_seconds": baseline_seconds,
        "trials": trials,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", action="store_true", help="emit a JSON payload")
    parser.add_argument(
        "--out", default="BENCH_update.json", help="output path for --json"
    )
    parser.add_argument(
        "--side",
        type=int,
        default=317,
        help="grid side length (default 317 => ~100k vertices, the ISSUE-9 "
        "acceptance workload)",
    )
    parser.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=list(DEFAULT_FRACTIONS),
        help="edit-batch sizes as fractions of the edge count",
    )
    parser.add_argument(
        "--rmat",
        action="store_true",
        help="also run a scale-14 R-MAT multigraph (max_levels=16 chain)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--equiv-tol",
        type=float,
        default=1e-8,
        help="max allowed relative |x_update - x_rebuild| / max(1, |x_rebuild|) "
        "at tol=1e-10 (raises beyond)",
    )
    parser.add_argument(
        "--assert-min-speedup",
        type=float,
        default=None,
        help="fail unless every trial at <= --gate-max-fraction patches at "
        "least this many times faster than the full rebuild",
    )
    parser.add_argument(
        "--gate-max-fraction",
        type=float,
        default=0.01,
        help="edit fractions covered by --assert-min-speedup (default 0.01)",
    )
    args = parser.parse_args(argv)

    workloads = [
        (
            f"grid{args.side}",
            generators.grid_2d(args.side, args.side),
            None,
        )
    ]
    if args.rmat:
        workloads.append(
            ("rmat14", generators.rmat_graph(14, edge_factor=8, seed=5), RMAT_CHAIN)
        )

    results = []
    for name, graph, cfg in workloads:
        print(f"[bench_update] {name}: n={graph.n} m={graph.num_edges}", flush=True)
        result = measure_workload(
            name,
            graph,
            fractions=args.fractions,
            chain_config=cfg,
            seed=args.seed,
            equiv_tol=args.equiv_tol,
        )
        for t in result["trials"]:
            print(
                "  fraction={edit_fraction:<6g} {strategy:<8s} "
                "update={update_seconds:.4f}s rebuild={rebuild_seconds:.4f}s "
                "speedup={speedup:.1f}x rel_diff={max_rel_diff:.2e}".format(**t),
                flush=True,
            )
        results.append(result)
        del graph
        gc.collect()

    payload = {
        "benchmark": "update",
        "schema_version": 1,
        "seed": args.seed,
        "equiv_tol": args.equiv_tol,
        "solve_tol": 1e-10,
        "workloads": results,
    }

    if args.assert_min_speedup is not None:
        slow = [
            (r["workload"], t["edit_fraction"], t["speedup"])
            for r in results
            for t in r["trials"]
            if t["edit_fraction"] <= args.gate_max_fraction
            and t["speedup"] < args.assert_min_speedup
        ]
        if slow:
            print(
                f"FAIL: trials under the {args.assert_min_speedup}x gate: {slow}",
                file=sys.stderr,
            )
            return 1
        print(
            f"gate ok: all trials at fraction <= {args.gate_max_fraction} beat "
            f"{args.assert_min_speedup}x",
            flush=True,
        )

    if args.json:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
