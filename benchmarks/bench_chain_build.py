"""Experiment E12: the vectorized chain-construction (``factorize``) pipeline.

PR 2 compiled the solve-side hot path; this benchmark tracks the *setup*
side — AKPW clustering, ball growing, low-diameter decomposition, forest
rooting / stretch measurement, incremental sparsification, elimination, and
the bottom-level factorization — after the chain-construction pipeline was
rewritten as bulk array passes (Euler-tour forest rooting, bulk union-find,
Borůvka spanning forests, frontier ball growing, forest-basis stretch
sampling, grounded sparse-LU bottom factor).

Schema v2 adds a **memory audit** per workload: the peak resident set of
the ``factorize()`` call (``VmHWM`` with a high-water reset, so it is a
true per-call peak), the always-on per-stage RSS deltas from
``chain.stats``, and — with ``--memory-profile`` (the default) — a second
instrumented build that records per-stage tracemalloc and RSS-high-water
peaks.  Timings always come from the *unprofiled* run; tracemalloc slows
allocation-heavy code 2-4x, so the profiled pass is reported separately,
and workloads above ``--profile-max-edges`` (default 2M edges) skip it —
the multi-million-edge profiled passes run tens of minutes on the dev
container while adding no information the 1M-vertex profile lacks.  Per
workload, ``memory.profiled`` records whether the instrumented pass ran.

``--large`` extends the sweep to million-vertex workloads (1M and 4M-vertex
grids plus a 1M-vertex R-MAT multigraph built through the streaming
ingestion path and factorized with a deeper ``max_levels=16`` chain —
power-law cores need more sparsify/eliminate rounds than the default four
before the bottom LU is tractable); ``--large-1m`` adds only the 1M grid
(the CI smoke lane).
``--assert-max-bytes-per-edge`` turns the payload into a regression gate on
peak factorize memory per edge.

Machine-readable output
-----------------------
Run this module as a script to emit ``BENCH_chain_build.json``::

    PYTHONPATH=src python benchmarks/bench_chain_build.py --json
    PYTHONPATH=src python benchmarks/bench_chain_build.py --json --large
    PYTHONPATH=src python benchmarks/bench_chain_build.py --json --large-1m \\
        --solve-workloads grid1000 --assert-max-bytes-per-edge 520

The payload carries two pinned reference points: the pre-vectorization
setup time on the 20k-vertex grid (PR 3) and the pre-dtype-lean memory
profile of the 1M-vertex grid (this PR's baseline), giving future PRs both
a time and a bytes-per-edge trajectory to diff against.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.chain_cache import clear_chain_cache
from repro.core.config import ChainConfig
from repro.core.operator import factorize
from repro.graph import generators
from repro.util.memprof import read_rss_bytes, read_peak_rss_bytes, reset_peak_rss

#: Pre-refactor end-to-end ``factorize()`` wall time on the 20k-vertex
#: benchmark grid (grid_2d(141, 141), seed 0) measured on the development
#: container at the PR-3 baseline commit (2ac5fb4): chunked multi-source
#: Dijkstra stretch sampling dominated (46.4 s) plus the dense bottom
#: pseudo-inverse (8.0 s).
PRE_PR_BASELINE_20K_SECONDS = 56.4
BASELINE_20K_SIDE = 141

#: Pre-dtype-lean memory/time profile of ``factorize(grid_2d(1000, 1000))``
#: (n=1e6, m=1,998,000), measured on the 1-CPU development container at the
#: PR-6 HEAD (3f1d69c): int64 index arrays throughout, per-round scratch
#: reallocation, and the operator rebuilding the top-level Laplacian the
#: chain already held.  627.3 bytes of peak RSS per edge.
PRE_PR_1M_BASELINE = {
    "workload": "grid1000",
    "n": 1_000_000,
    "m": 1_998_000,
    "pre_pr_peak_rss_bytes": 1_253_345_400,
    "pre_pr_bytes_per_edge": 627.3,
    "pre_pr_setup_seconds": 28.26,
    "note": (
        "factorize() peak resident set before the dtype-lean pipeline "
        "(int64 indices everywhere, no buffer reuse, duplicate top-level "
        "Laplacian), measured on the 1-CPU dev container"
    ),
}

STAGE_KEYS = (
    "seconds_subgraph",
    "seconds_sparsify",
    "seconds_elimination",
    "seconds_transfer",
    "seconds_bottom",
)


def _stage_map(stats: Dict, prefix: str) -> Dict[str, float]:
    cut = len(prefix)
    return {k[cut:]: float(v) for k, v in stats.items() if k.startswith(prefix)}


def measure_workload(
    name: str,
    make_graph: Callable[[], object],
    seed: int = 0,
    chain_config: Optional[ChainConfig] = None,
    memory_profile: bool = False,
    profile_max_edges: Optional[int] = None,
    solve_tol: Optional[float] = None,
) -> Dict:
    """Factorize one workload and report wall/stage/work/depth/memory metrics.

    The graph is built inside this call (streaming generators never hold a
    second copy) and released before the next workload runs, so sequential
    sweeps do not inherit each other's resident pages.
    """
    graph = make_graph()
    clear_chain_cache()
    gc.collect()
    rss_before = read_rss_bytes()
    peak_reset = reset_peak_rss()
    t0 = time.perf_counter()
    op = factorize(graph, chain_config, seed=seed)
    wall = time.perf_counter() - t0
    peak_rss = read_peak_rss_bytes()
    stats = op.chain.stats
    stages = {k: float(stats.get(k, 0.0)) for k in STAGE_KEYS}
    m = graph.num_edges
    memory = {
        "peak_rss_bytes": int(peak_rss),
        "bytes_per_edge": peak_rss / max(m, 1),
        "rss_before_bytes": int(rss_before),
        "peak_is_per_call": bool(peak_reset),
        "stage_rss_delta_bytes": _stage_map(stats, "mem_rss_delta_"),
        "profiled": False,
    }
    result = {
        "workload": name,
        "n": graph.n,
        "m": m,
        "chain_levels": op.chain.depth,
        "bottom_size": int(stats.get("bottom_size", 0)),
        "bottom_factor_nnz": int(op.chain.bottom_solver.factor_nnz),
        "setup_seconds": wall,
        "stage_seconds": stages,
        "stage_seconds_accounted": float(sum(stages.values())),
        "setup_work": op.setup_work,
        "setup_depth": op.setup_depth,
        "index_dtype": str(stats.get("index_dtype", "")),
        "max_levels": (chain_config or ChainConfig()).max_levels,
        "memory": memory,
    }

    if solve_tol is not None:
        rng = np.random.default_rng(7)
        b = rng.standard_normal(graph.n)
        b -= b.mean()
        t0 = time.perf_counter()
        report = op.solve(b, tol=solve_tol)
        result["solve"] = {
            "tol": solve_tol,
            "seconds": time.perf_counter() - t0,
            "iterations": report.iterations,
            "converged": bool(report.converged),
            "relative_residual": float(report.relative_residual),
        }

    if memory_profile and (profile_max_edges is None or m <= profile_max_edges):
        # Second, instrumented build: per-stage tracemalloc and RSS
        # high-water peaks.  Timings from this pass are reported under
        # their own key — tracemalloc overhead makes them incomparable.
        del op
        clear_chain_cache()
        gc.collect()
        t0 = time.perf_counter()
        op = factorize(graph, chain_config, seed=seed, memory_profile=True)
        profiled_wall = time.perf_counter() - t0
        pstats = op.chain.stats
        memory["profiled"] = True
        memory["profiled_seconds"] = profiled_wall
        memory["stage_rss_peak_bytes"] = _stage_map(pstats, "mem_rss_peak_")
        memory["stage_traced_peak_bytes"] = _stage_map(pstats, "mem_traced_peak_")
        del op

    return result


#: Workload entry: ``(name, make_graph, chain_config-or-None)``.
Workload = Tuple[str, Callable[[], object], Optional[ChainConfig]]

#: Power-law graphs shed whole components as the chain descends: the live
#: edges concentrate in a dense cyclic core that four levels cannot thin
#: enough for the bottom sparse LU (fill-in explodes).  Extra level slots
#: cost nothing on workloads that bottom out early — the build breaks as
#: soon as the surviving graph is a forest over its occupied vertices.
RMAT_CHAIN_CONFIG = ChainConfig(max_levels=16)


def default_workloads(sizes: Tuple[int, ...], weighted_side: int) -> List[Workload]:
    out: List[Workload] = []
    for side in sizes:
        out.append((f"grid{side}", lambda s=side: generators.grid_2d(s, s), None))
    if weighted_side:
        out.append(
            (
                f"wgrid{weighted_side}",
                lambda s=weighted_side: generators.weighted_grid_2d(
                    s, s, seed=7, spread=1e4
                ),
                None,
            )
        )
    return out


def large_workloads(only_1m: bool = False) -> List[Workload]:
    out: List[Workload] = [
        ("grid1000", lambda: generators.grid_2d(1000, 1000), None),
    ]
    if not only_1m:
        out.append(("grid2000", lambda: generators.grid_2d(2000, 2000), None))
        # 1M-vertex R-MAT multigraph (~4.2M edge draws), built through the
        # streaming ingestion path so generation never doubles the edges.
        out.append(
            ("rmat20", lambda: generators.rmat_graph(20, 4, seed=1), RMAT_CHAIN_CONFIG)
        )
    return out


def collect_payload(
    workloads: List[Workload],
    memory_profile: bool = True,
    profile_max_edges: Optional[int] = None,
    solve_workloads: Tuple[str, ...] = (),
    solve_tol: float = 1e-5,
) -> Dict:
    """Sweep ``workloads`` through ``factorize`` and assemble the v2 payload."""
    measured: List[Dict] = []
    for name, make_graph, chain_config in workloads:
        tol = solve_tol if name in solve_workloads else None
        measured.append(
            measure_workload(
                name,
                make_graph,
                chain_config=chain_config,
                memory_profile=memory_profile,
                profile_max_edges=profile_max_edges,
                solve_tol=tol,
            )
        )

    baseline = {
        "workload": f"grid{BASELINE_20K_SIDE}",
        "pre_pr_seconds": PRE_PR_BASELINE_20K_SECONDS,
        "note": (
            "end-to-end factorize() wall time before the vectorized chain "
            "construction (per-vertex DFS rooting, Python union-find, "
            "Dijkstra stretch sampling, dense bottom pinv)"
        ),
    }
    current_20k = next(
        (w for w in measured if w["workload"] == f"grid{BASELINE_20K_SIDE}"), None
    )
    if current_20k is not None:
        baseline["post_pr_seconds"] = current_20k["setup_seconds"]
        baseline["speedup"] = PRE_PR_BASELINE_20K_SECONDS / max(
            current_20k["setup_seconds"], 1e-9
        )

    memory_baseline = dict(PRE_PR_1M_BASELINE)
    current_1m = next(
        (w for w in measured if w["workload"] == PRE_PR_1M_BASELINE["workload"]), None
    )
    if current_1m is not None:
        memory_baseline["post_pr_peak_rss_bytes"] = current_1m["memory"]["peak_rss_bytes"]
        memory_baseline["post_pr_bytes_per_edge"] = current_1m["memory"]["bytes_per_edge"]
        memory_baseline["post_pr_setup_seconds"] = current_1m["setup_seconds"]
        memory_baseline["peak_memory_reduction"] = PRE_PR_1M_BASELINE[
            "pre_pr_bytes_per_edge"
        ] / max(current_1m["memory"]["bytes_per_edge"], 1e-9)

    return {
        "experiment": "E12",
        "schema_version": 2,
        "workloads": measured,
        "baseline_20k": baseline,
        "memory_baseline_1m": memory_baseline,
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
        default="BENCH_chain_build.json",
        help="output path for --json (default: BENCH_chain_build.json)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[71, 141, 224, 317],
        help="grid side lengths to sweep (317 -> ~100k vertices)",
    )
    parser.add_argument(
        "--weighted-side",
        type=int,
        default=141,
        help="side of the additional weighted-grid workload (0 disables)",
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help="add million-vertex workloads: 1M/4M-vertex grids + 1M-vertex R-MAT",
    )
    parser.add_argument(
        "--large-1m",
        action="store_true",
        help="add only the 1M-vertex grid workload (CI smoke lane)",
    )
    parser.add_argument(
        "--memory-profile",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run a second instrumented build per workload for per-stage "
        "tracemalloc/RSS peaks (timings always come from the unprofiled run)",
    )
    parser.add_argument(
        "--profile-max-edges",
        type=int,
        default=2_000_000,
        help="skip the instrumented second build for workloads above this "
        "edge count (tracemalloc makes multi-million-edge passes run tens "
        "of minutes); 0 disables the cap",
    )
    parser.add_argument(
        "--solve-workloads",
        nargs="*",
        default=[],
        help="workload names that also run one PCG solve (recorded per workload)",
    )
    parser.add_argument(
        "--solve-tol",
        type=float,
        default=1e-5,
        help="relative-residual tolerance for --solve-workloads solves",
    )
    parser.add_argument(
        "--assert-max-bytes-per-edge",
        type=float,
        default=None,
        help="fail (exit 1) if the gate workload's peak factorize RSS per "
        "edge exceeds this bound",
    )
    parser.add_argument(
        "--assert-workload",
        default="grid1000",
        help="workload name the bytes-per-edge gate applies to",
    )
    args = parser.parse_args(argv)

    workloads = default_workloads(tuple(args.sizes), args.weighted_side)
    if args.large:
        workloads += large_workloads()
    elif args.large_1m:
        workloads += large_workloads(only_1m=True)

    payload = collect_payload(
        workloads,
        memory_profile=args.memory_profile,
        profile_max_edges=args.profile_max_edges or None,
        solve_workloads=tuple(args.solve_workloads),
        solve_tol=args.solve_tol,
    )
    for w in payload["workloads"]:
        stages = ", ".join(
            f"{k.split('_', 1)[1]} {v:.3f}s" for k, v in w["stage_seconds"].items()
        )
        mem = w["memory"]
        print(
            f"{w['workload']}: n={w['n']} m={w['m']} setup {w['setup_seconds']:.3f}s "
            f"peak {mem['peak_rss_bytes'] / 2**20:.1f}MiB "
            f"({mem['bytes_per_edge']:.1f} B/edge, {w['index_dtype']}) "
            f"(levels={w['chain_levels']}, bottom={w['bottom_size']}) [{stages}]"
        )
        if "solve" in w:
            s = w["solve"]
            print(
                f"  solve tol={s['tol']:g}: {s['seconds']:.3f}s, "
                f"{s['iterations']} iters, converged={s['converged']}"
            )
    base = payload["baseline_20k"]
    if "speedup" in base:
        print(
            f"20k-vertex baseline: {base['pre_pr_seconds']:.1f}s pre-PR -> "
            f"{base['post_pr_seconds']:.3f}s ({base['speedup']:.1f}x)"
        )
    mbase = payload["memory_baseline_1m"]
    if "peak_memory_reduction" in mbase:
        print(
            f"1M-vertex memory baseline: {mbase['pre_pr_bytes_per_edge']:.1f} -> "
            f"{mbase['post_pr_bytes_per_edge']:.1f} bytes/edge "
            f"({mbase['peak_memory_reduction']:.2f}x reduction)"
        )
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")

    if args.assert_max_bytes_per_edge is not None:
        gate = next(
            (w for w in payload["workloads"] if w["workload"] == args.assert_workload),
            None,
        )
        if gate is None:
            print(
                f"gate FAILED: workload {args.assert_workload!r} was not measured",
                file=sys.stderr,
            )
            return 1
        got = gate["memory"]["bytes_per_edge"]
        if got > args.assert_max_bytes_per_edge:
            print(
                f"gate FAILED: {args.assert_workload} peak memory "
                f"{got:.1f} B/edge > bound {args.assert_max_bytes_per_edge:.1f}",
                file=sys.stderr,
            )
            return 1
        print(
            f"gate ok: {args.assert_workload} peak memory {got:.1f} B/edge "
            f"<= bound {args.assert_max_bytes_per_edge:.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
