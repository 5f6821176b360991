"""Concurrent serving throughput of one shared factorized operator.

The factorize-once / solve-many lifecycle only pays off for a service if a
single :class:`~repro.core.operator.LaplacianOperator` can absorb solve
traffic from many threads at once.  This benchmark factorizes one grid
Laplacian, then drives a fixed pool of right-hand sides through the *same*
operator at 1/2/4/8 threads, measuring aggregate solves/second — and, at
every thread count, asserts that each :class:`SolveReport` is **bit
identical** (``x``, ``work``, ``depth``) to its serial reference, which is
the re-entrancy guarantee the solve-context refactor introduced.

Machine-readable output
-----------------------
Run this module as a script to emit ``BENCH_concurrency.json``::

    PYTHONPATH=src python benchmarks/bench_concurrency.py --json
    PYTHONPATH=src python benchmarks/bench_concurrency.py --json --out path.json

The JSON payload records, per thread count, the wall time, aggregate
throughput, and speedup over the single-thread run — plus the machine's
``cpu_count``.  Python threads share the GIL, so the speedup reflects only
the time spent inside GIL-releasing NumPy/SciPy calls.  An untimed warmup
solve runs before anything is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Dict, List

import numpy as np

from repro.core.chain_cache import clear_chain_cache
from repro.core.config import SolverConfig
from repro.core.operator import factorize
from repro.graph import generators


def _rhs_pool(graph, num_rhs: int, seed: int = 3) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(num_rhs):
        b = rng.standard_normal(graph.n)
        pool.append(b - b.mean())
    return pool


def _assert_matches(report, reference, threads: int, index: int) -> None:
    if not (
        np.array_equal(report.x, reference.x)
        and report.work == reference.work
        and report.depth == reference.depth
    ):
        raise AssertionError(
            f"solve {index} at {threads} threads diverged from serial: "
            f"work {report.work} vs {reference.work}, "
            f"depth {report.depth} vs {reference.depth}"
        )


def _timed_run(op, pool, threads: int, references) -> float:
    """Solve every RHS in ``pool`` once, striped over ``threads`` threads."""
    barrier = threading.Barrier(threads + 1)
    errors: List[BaseException] = []

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            for i in range(offset, len(pool), threads):
                report = op.solve(pool[i])
                _assert_matches(report, references[i], threads, i)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for w in workers:
        w.start()
    barrier.wait()
    t0 = time.time()
    for w in workers:
        w.join()
    seconds = time.time() - t0
    if errors:
        raise errors[0]
    return seconds


def collect_payload(
    side: int = 32,
    thread_counts=(1, 2, 4, 8),
    num_rhs: int = 24,
    method: str = "pcg",
    repeats: int = 1,
) -> Dict:
    """Throughput of one shared operator at each thread count (best of repeats)."""
    clear_chain_cache()
    g = generators.grid_2d(side, side)
    t0 = time.time()
    op = factorize(g, solver=SolverConfig(method=method), seed=0)
    setup_seconds = time.time() - t0
    pool = _rhs_pool(g, num_rhs)

    # Untimed warmup: steadies allocators/caches so no timed run (nor the
    # serial references) pays first-touch costs.
    op.solve(pool[0])

    # Serial references: the bit-identity baseline for every thread count
    # (also warms the lazy initializers so the timed runs are steady-state).
    references = [op.solve(b) for b in pool]
    per_solve_work = references[0].work

    runs = []
    for threads in thread_counts:
        seconds = min(_timed_run(op, pool, threads, references) for _ in range(repeats))
        runs.append(
            {
                "threads": threads,
                "total_solves": num_rhs,
                "seconds": seconds,
                "solves_per_second": num_rhs / seconds if seconds > 0 else float("inf"),
                "bit_identical_to_serial": True,  # _timed_run raised otherwise
            }
        )
    base = runs[0]["seconds"]
    for run in runs:
        run["speedup_vs_baseline"] = base / run["seconds"] if run["seconds"] > 0 else float("inf")

    return {
        "experiment": "concurrency",
        "schema_version": 4,
        "workload": f"grid{side}",
        "n": g.n,
        "m": g.num_edges,
        "method": method,
        "cpu_count": os.cpu_count(),
        "chain_levels": op.chain.depth,
        "baseline_threads": thread_counts[0],
        "setup_seconds": setup_seconds,
        "per_solve_work": per_solve_work,
        "per_solve_depth": references[0].depth,
        "runs": runs,
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
        default="BENCH_concurrency.json",
        help="output path for --json (default: BENCH_concurrency.json)",
    )
    parser.add_argument("--side", type=int, default=32, help="grid side length")
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="thread counts to sweep (the first is the reported speedup baseline)",
    )
    parser.add_argument("--solves", type=int, default=24, help="total solves per run")
    parser.add_argument("--method", default="pcg", help="solve method to drive")
    parser.add_argument("--repeats", type=int, default=1, help="timed repeats (best kept)")
    args = parser.parse_args(argv)

    payload = collect_payload(
        side=args.side,
        thread_counts=tuple(args.threads),
        num_rhs=args.solves,
        method=args.method,
        repeats=args.repeats,
    )
    print(
        f"{payload['workload']} (n={payload['n']}, method={payload['method']}, "
        f"cpus={payload['cpu_count']}): "
        f"per-solve work {payload['per_solve_work']:.4g}"
    )
    for run in payload["runs"]:
        print(
            f"  {run['threads']} thread(s): {run['solves_per_second']:.1f} solves/s "
            f"({run['seconds']:.3f}s for {run['total_solves']} solves, "
            f"speedup x{run['speedup_vs_baseline']:.2f} vs baseline, bit-identical)"
        )
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
