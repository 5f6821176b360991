"""Load test of the micro-batching solver service (coalesced vs solo).

Drives many concurrent closed-loop asyncio clients through
:class:`repro.serving.SolverService` — mixed graphs, tolerances, and
methods — and measures what coalescing buys: solves/sec, p50/p99 end-to-end
latency, achieved batch widths, and chain-cache hit rates, against a
*no-coalescing baseline* (the same service with ``max_batch=1``,
``window_seconds=0``, i.e. every request solved solo through the same
executor).  Every served result is asserted **bit-identical** to a solo
``operator.solve`` of the same right-hand side at the same tolerance
bucket and method — coalescing is free accuracy-wise, so the throughput
gain is the whole story.

Two scenarios:

* ``uniform`` — every client hits one chain-cached graph at one
  (tol, method): the best case for coalescing (full-width batches), and
  the acceptance scenario for the >= 3x throughput target at 16 clients.
* ``mixed`` — clients scatter across two graphs x two tolerance decades x
  two methods, so groups fragment and batches are narrow: the honest
  picture of coalescing under heterogeneous traffic.

Machine-readable output
-----------------------
Run this module as a script to emit ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_serving.py --json
    PYTHONPATH=src python benchmarks/bench_serving.py --json --out path.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import chain_cache
from repro.core.operator import factorize
from repro.graph import generators
from repro.serving import ServiceConfig, SolverService, bucket_tol


def _rhs_pool(graph, num_rhs: int, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(num_rhs):
        b = rng.standard_normal(graph.n)
        pool.append(b - b.mean())
    return pool


def _percentiles(latencies: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(latencies, dtype=float)
    return {
        "p50_seconds": float(np.percentile(arr, 50)),
        "p99_seconds": float(np.percentile(arr, 99)),
        "mean_seconds": float(arr.mean()),
        "max_seconds": float(arr.max()),
    }


async def _drive(
    service: SolverService,
    jobs_by_client: List[List[Tuple[int, int]]],
    combos: List[Dict],
    pools: Dict[int, List[np.ndarray]],
    references: Dict[Tuple[int, int], np.ndarray],
) -> Tuple[float, List[float]]:
    """Run every client's job list concurrently; returns (wall, latencies).

    Raises ``AssertionError`` if any served solution differs bit-for-bit
    from its precomputed solo reference.
    """
    latencies: List[float] = []

    async def client(jobs: List[Tuple[int, int]]) -> None:
        for combo_index, rhs_index in jobs:
            combo = combos[combo_index]
            b = pools[combo["graph"]][rhs_index]
            t0 = time.perf_counter()
            report = await service.submit(
                combo["fingerprint"], b, tol=combo["tol"], method=combo["method"]
            )
            latencies.append(time.perf_counter() - t0)
            if not np.array_equal(report.x, references[(combo_index, rhs_index)]):
                raise AssertionError(
                    f"served result diverged from solo solve (combo {combo_index}, "
                    f"rhs {rhs_index})"
                )

    async with service:
        t0 = time.perf_counter()
        await asyncio.gather(*(client(jobs) for jobs in jobs_by_client))
        wall = time.perf_counter() - t0
    return wall, latencies


def _run_side(
    *,
    coalesce: bool,
    window_seconds: float,
    max_batch: int,
    graphs: Dict[int, object],
    combos: List[Dict],
    pools: Dict[int, List[np.ndarray]],
    references: Dict[Tuple[int, int], np.ndarray],
    jobs_by_client: List[List[Tuple[int, int]]],
    seed: int,
) -> Dict:
    """One measured pass (coalesced or baseline) over the same job stream."""
    config = ServiceConfig(
        window_seconds=window_seconds if coalesce else 0.0,
        max_batch=max_batch if coalesce else 1,
    )
    service = SolverService(config, seed=seed)
    fingerprints = {}
    for graph_id, graph in graphs.items():
        fingerprints[graph_id] = service.register(graph, seed=seed)
    for combo in combos:
        combo["fingerprint"] = fingerprints[combo["graph"]]

    cache_before = chain_cache.chain_cache_stats()
    wall, latencies = asyncio.run(
        _drive(service, jobs_by_client, combos, pools, references)
    )
    cache_after = chain_cache.chain_cache_stats()
    stats = service.stats()
    total = sum(len(jobs) for jobs in jobs_by_client)
    assert stats.served == total and stats.failed == 0
    return {
        "coalescing": coalesce,
        "window_seconds": config.window_seconds,
        "max_batch": config.max_batch,
        "wall_seconds": wall,
        "solves_per_second": total / wall if wall > 0 else float("inf"),
        "latency": _percentiles(latencies),
        "batches": stats.batches,
        "mean_batch_width": stats.mean_batch_width,
        "max_batch_width": stats.max_batch_width,
        "batch_width_histogram": {str(k): v for k, v in stats.batch_width_histogram.items()},
        "operator_cache_hit_rate": stats.cache_hit_rate,
        "chain_cache_hits_delta": cache_after.hits - cache_before.hits,
        "chain_cache_misses_delta": cache_after.misses - cache_before.misses,
        "bit_identical_to_solo": True,  # _drive raised otherwise
    }


def _scenario(
    name: str,
    *,
    graphs: Dict[int, object],
    combo_specs: List[Tuple[int, float, str]],
    clients: int,
    requests_per_client: int,
    pool_size: int,
    window_seconds: float,
    max_batch: int,
    seed: int,
) -> Dict:
    """Measure one scenario coalesced and baseline over an identical stream."""
    combos = [
        {"graph": g, "tol": tol, "method": method}
        for g, tol, method in combo_specs
    ]
    pools = {g: _rhs_pool(graph, pool_size, seed=100 + g) for g, graph in graphs.items()}

    # Solo references (and lazy-initializer warmup) on the cached operators —
    # the service resolves the same chain-cache entries, so "bit-identical to
    # a solo solve" is exactly `op.solve(b, tol=bucket, method=m)` on these.
    references: Dict[Tuple[int, int], np.ndarray] = {}
    for combo_index, combo in enumerate(combos):
        op = factorize(graphs[combo["graph"]], seed=seed, cache=True)
        for rhs_index, b in enumerate(pools[combo["graph"]]):
            report = op.solve(
                b, tol=bucket_tol(combo["tol"]), method=combo["method"]
            )
            references[(combo_index, rhs_index)] = report.x

    rng = np.random.default_rng(seed)
    jobs_by_client = [
        [
            (int(rng.integers(len(combos))), int(rng.integers(pool_size)))
            for _ in range(requests_per_client)
        ]
        for _ in range(clients)
    ]

    common = dict(
        graphs=graphs,
        combos=combos,
        pools=pools,
        references=references,
        jobs_by_client=jobs_by_client,
        seed=seed,
        window_seconds=window_seconds,
        max_batch=max_batch,
    )
    coalesced = _run_side(coalesce=True, **common)
    baseline = _run_side(coalesce=False, **common)
    gain = (
        coalesced["solves_per_second"] / baseline["solves_per_second"]
        if baseline["solves_per_second"] > 0
        else float("inf")
    )
    return {
        "name": name,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total_requests": clients * requests_per_client,
        "graphs": {
            str(g): {"n": graph.n, "m": graph.num_edges}
            for g, graph in graphs.items()
        },
        "combos": [
            {"graph": c["graph"], "tol": c["tol"], "method": c["method"]}
            for c in combos
        ],
        "coalesced": coalesced,
        "baseline": baseline,
        "throughput_gain": gain,
        "latency_p99_ratio": (
            baseline["latency"]["p99_seconds"] / coalesced["latency"]["p99_seconds"]
            if coalesced["latency"]["p99_seconds"] > 0
            else float("inf")
        ),
    }


def collect_payload(
    side: int = 16,
    clients: int = 16,
    requests_per_client: int = 4,
    pool_size: int = 4,
    window_seconds: float = 0.004,
    max_batch: int = 16,
    seed: int = 0,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict:
    """Uniform + mixed serving scenarios, coalesced vs no-coalescing."""
    chain_cache.clear_chain_cache()
    grid = generators.grid_2d(side, side)
    sparse = generators.erdos_renyi_gnm(side * side, 2 * side * side, seed=5)
    wanted = set(scenarios) if scenarios else {"uniform", "mixed"}
    results = []
    if "uniform" in wanted:
        results.append(
            _scenario(
                "uniform",
                graphs={0: grid},
                combo_specs=[(0, 1e-6, "pcg")],
                clients=clients,
                requests_per_client=requests_per_client,
                pool_size=pool_size,
                window_seconds=window_seconds,
                max_batch=max_batch,
                seed=seed,
            )
        )
    if "mixed" in wanted:
        results.append(
            _scenario(
                "mixed",
                graphs={0: grid, 1: sparse},
                combo_specs=[
                    (0, 1e-6, "pcg"),
                    (0, 1e-8, "pcg"),
                    (0, 1e-6, "chebyshev"),
                    (1, 1e-6, "pcg"),
                    (1, 1e-8, "pcg"),
                    (1, 1e-6, "chebyshev"),
                ],
                clients=clients,
                requests_per_client=requests_per_client,
                pool_size=pool_size,
                window_seconds=window_seconds,
                max_batch=max_batch,
                seed=seed,
            )
        )
    return {
        "experiment": "serving",
        "schema_version": 3,
        "side": side,
        "clients": clients,
        "window_seconds": window_seconds,
        "max_batch": max_batch,
        "cpu_count": os.cpu_count(),
        "scenarios": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", action="store_true", help="write the JSON payload")
    parser.add_argument(
        "--out", default="BENCH_serving.json", help="output path for --json"
    )
    parser.add_argument("--side", type=int, default=16, help="grid side length")
    parser.add_argument("--clients", type=int, default=16, help="concurrent clients")
    parser.add_argument(
        "--requests", type=int, default=4, help="requests per client (closed loop)"
    )
    parser.add_argument("--pool", type=int, default=4, help="distinct RHS per graph")
    parser.add_argument(
        "--window", type=float, default=0.004, help="coalescing window (seconds)"
    )
    parser.add_argument("--max-batch", type=int, default=16, help="max coalesced width")
    parser.add_argument(
        "--scenarios",
        nargs="+",
        choices=["uniform", "mixed"],
        default=None,
        help="subset of scenarios to run (default: both)",
    )
    args = parser.parse_args(argv)

    payload = collect_payload(
        side=args.side,
        clients=args.clients,
        requests_per_client=args.requests,
        pool_size=args.pool,
        window_seconds=args.window,
        max_batch=args.max_batch,
        scenarios=args.scenarios,
    )
    for scenario in payload["scenarios"]:
        co, base = scenario["coalesced"], scenario["baseline"]
        print(
            f"{scenario['name']}: {scenario['clients']} clients x "
            f"{scenario['requests_per_client']} requests"
        )
        print(
            f"  coalesced : {co['solves_per_second']:8.1f} solves/s  "
            f"p50 {co['latency']['p50_seconds'] * 1e3:7.1f}ms  "
            f"p99 {co['latency']['p99_seconds'] * 1e3:7.1f}ms  "
            f"mean width {co['mean_batch_width']:.1f}  "
            f"cache hit {co['operator_cache_hit_rate']:.0%}"
        )
        print(
            f"  baseline  : {base['solves_per_second']:8.1f} solves/s  "
            f"p50 {base['latency']['p50_seconds'] * 1e3:7.1f}ms  "
            f"p99 {base['latency']['p99_seconds'] * 1e3:7.1f}ms"
        )
        print(
            f"  gain      : x{scenario['throughput_gain']:.2f} throughput, "
            f"x{scenario['latency_p99_ratio']:.2f} p99 latency, bit-identical"
        )
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
