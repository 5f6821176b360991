"""Experiment E6: parallel greedy elimination (Lemma 6.5).

Measures (a) the vertex-count bound — the reduced graph has O(extra edges)
vertices — and (b) the number of rake/compress rounds, which the lemma bounds
by O(log n), and (c) the throughput of the *compiled* solve transfers
(:mod:`repro.core.transfer`) against the historical per-step op-list replay.

Machine-readable output
-----------------------
Run this module as a script to emit ``BENCH_elimination.json``::

    PYTHONPATH=src python benchmarks/bench_elimination.py --json
    PYTHONPATH=src python benchmarks/bench_elimination.py --json --n 2000 --extra 40

The JSON payload records the elimination build time, the compile time, the
per-transfer-pair cost of the compiled operators vs the op-list replay
(µs/op and speedup), and the batched-vs-looped multi-RHS comparison —
tracking the solve-hot-path perf trajectory like ``BENCH_solver.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

try:
    from benchmarks.conftest import print_table
except ImportError:  # executed as a script: benchmarks/ itself is on sys.path
    from conftest import print_table

from repro.core.elimination import EliminationResult, greedy_elimination
from repro.core.transfer import compile_transfers
from repro.graph import generators
from repro.graph.graph import Graph
from repro.util.records import ExperimentRow


def _tree_plus_extras(n: int, extra: int, seed: int, weighted: bool = False) -> Graph:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    u = [int(perm[rng.integers(0, i)]) for i in range(1, n)]
    v = [int(perm[i]) for i in range(1, n)]
    eu, ev = [], []
    while len(eu) < extra:
        a, b = rng.integers(0, n, 2)
        if a != b:
            eu.append(int(a))
            ev.append(int(b))
    w = rng.uniform(0.1, 10.0, n - 1 + extra) if weighted else None
    return Graph(n, u + eu, v + ev, w)


# --------------------------------------------------------------------------- #
# op-list replay baseline (the pre-compiled interpreted transfer)
# --------------------------------------------------------------------------- #
def legacy_forward_rhs(elim: EliminationResult, b: np.ndarray) -> np.ndarray:
    """Replay the elimination op list one step at a time (historical path)."""
    b_full = np.asarray(b, dtype=float).copy()
    for op in elim.operations:
        if op[0] == "d1":
            _, v, u, _w = op
            b_full[u] += b_full[v]
        else:
            _, v, u1, w1, u2, w2 = op
            total = w1 + w2
            b_full[u1] += (w1 / total) * b_full[v]
            b_full[u2] += (w2 / total) * b_full[v]
    return b_full[elim.kept_vertices]


def legacy_backward_solution(
    elim: EliminationResult, b: np.ndarray, x_reduced: np.ndarray
) -> np.ndarray:
    """Replay forward + reversed back substitution (historical path)."""
    b_full = np.asarray(b, dtype=float).copy()
    for op in elim.operations:
        if op[0] == "d1":
            _, v, u, _w = op
            b_full[u] += b_full[v]
        else:
            _, v, u1, w1, u2, w2 = op
            total = w1 + w2
            b_full[u1] += (w1 / total) * b_full[v]
            b_full[u2] += (w2 / total) * b_full[v]
    x = np.zeros_like(b_full)
    x[elim.kept_vertices] = np.asarray(x_reduced, dtype=float)
    for op in reversed(elim.operations):
        if op[0] == "d1":
            _, v, u, w = op
            x[v] = x[u] + b_full[v] / w
        else:
            _, v, u1, w1, u2, w2 = op
            total = w1 + w2
            x[v] = (w1 * x[u1] + w2 * x[u2] + b_full[v]) / total
    return x


def max_relative_error(reference: np.ndarray, value: np.ndarray) -> float:
    """``max|value - reference| / max|reference|`` (the absolute error if ``reference == 0``)."""
    reference = np.asarray(reference, dtype=float)
    err = float(np.max(np.abs(np.asarray(value, dtype=float) - reference), initial=0.0))
    scale = float(np.max(np.abs(reference), initial=0.0))
    return err / scale if scale > 0.0 else err


#: Agreement the compiled transfers must hold against the per-step replay.
REPLAY_RTOL = 1e-12


def replay_error(elim: EliminationResult, transfers, b: np.ndarray, x_red: np.ndarray) -> float:
    """Max relative error of the compiled transfer pair against the replay."""
    return max(
        max_relative_error(legacy_forward_rhs(elim, b), transfers.forward_rhs(b)),
        max_relative_error(
            legacy_backward_solution(elim, b, x_red),
            transfers.backward_solution(b, x_red),
        ),
    )


def _time(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestE6GreedyElimination:
    def test_vertex_bound(self, benchmark):
        def run():
            rows = []
            for n, extra in [(1000, 20), (1000, 80), (4000, 100)]:
                g = _tree_plus_extras(n, extra, seed=extra)
                elim = greedy_elimination(g, seed=0)
                rows.append(
                    ExperimentRow(
                        "E6",
                        f"tree n={n} +{extra} edges",
                        params={"n": n, "extra_edges": extra},
                        measured={
                            "kept_vertices": elim.reduced_graph.n,
                            "paper_bound_2m": 2 * extra,
                            "rounds": elim.rounds,
                            "log_n": math.ceil(math.log2(n)),
                        },
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E6: GreedyElimination vertex bound (Lemma 6.5)", rows)
        for r in rows:
            assert r.measured["kept_vertices"] <= max(r.measured["paper_bound_2m"], 4)
            assert r.measured["rounds"] <= 8 * r.measured["log_n"]

    def test_rounds_scaling(self, benchmark):
        """Rounds grow like log n on long paths (worst case for rake/compress)."""

        def run():
            rows = []
            for n in (256, 1024, 4096):
                g = generators.path_graph(n)
                elim = greedy_elimination(g, seed=1)
                rows.append(
                    ExperimentRow(
                        "E6",
                        f"path{n}",
                        params={"n": n},
                        measured={"rounds": elim.rounds, "log_n": math.ceil(math.log2(n))},
                    )
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E6: elimination rounds vs n", rows)
        for r in rows:
            assert r.measured["rounds"] <= 10 * r.measured["log_n"]

    def test_compiled_transfer_throughput(self, benchmark):
        """Compiled transfers beat the op-list replay and agree with it to 1e-12."""

        def run():
            g = _tree_plus_extras(4000, 60, seed=1, weighted=True)
            elim = greedy_elimination(g, seed=0)
            transfers = compile_transfers(elim)
            rng = np.random.default_rng(7)
            b = rng.standard_normal(g.n)
            x_red = rng.standard_normal(elim.reduced_graph.n)

            def legacy_pair():
                legacy_forward_rhs(elim, b)
                legacy_backward_solution(elim, b, x_red)

            def compiled_pair():
                b_red, carry = transfers.forward(b)
                transfers.backward(carry, x_red)

            t_legacy = _time(legacy_pair, 3)
            t_compiled = _time(compiled_pair, 10)
            assert replay_error(elim, transfers, b, x_red) <= REPLAY_RTOL
            return [
                ExperimentRow(
                    "E6",
                    "tree4000+60",
                    params={"n": g.n, "eliminated": elim.num_eliminated},
                    measured={
                        "legacy_ms": t_legacy * 1e3,
                        "compiled_ms": t_compiled * 1e3,
                        "speedup": t_legacy / t_compiled,
                    },
                )
            ]

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table("E6: compiled transfer vs op-list replay", rows)
        assert rows[0].measured["speedup"] > 2.0


# --------------------------------------------------------------------------- #
# standalone --json harness
# --------------------------------------------------------------------------- #
def collect_payload(
    n: int = 20000,
    extra: int = 200,
    batch_width: int = 8,
    seed: int = 0,
    repeats: int = 5,
) -> Dict:
    """Benchmark build / compile / transfer throughput on a tree-like graph."""
    g = _tree_plus_extras(n, extra, seed=seed, weighted=True)

    t0 = time.perf_counter()
    elim = greedy_elimination(g, seed=seed)
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    transfers = compile_transfers(elim)
    compile_seconds = time.perf_counter() - t0

    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(g.n)
    x_red = rng.standard_normal(elim.reduced_graph.n)
    batch = rng.standard_normal((g.n, batch_width))
    x_red_batch = rng.standard_normal((elim.reduced_graph.n, batch_width))

    # Correctness first: the compiled operators must agree with the replay
    # to rounding, else the timings below compare different algorithms.
    replay_rel_error = replay_error(elim, transfers, b, x_red)
    assert replay_rel_error <= REPLAY_RTOL, replay_rel_error

    t_legacy = _time(
        lambda: (legacy_forward_rhs(elim, b), legacy_backward_solution(elim, b, x_red)),
        max(2, repeats // 2),
    )

    def compiled_pair():
        _, carry = transfers.forward(b)
        transfers.backward(carry, x_red)

    t_compiled = _time(compiled_pair, repeats * 4)

    def compiled_batched():
        _, carry = transfers.forward(batch)
        transfers.backward(carry, x_red_batch)

    t_batched = _time(compiled_batched, repeats * 4)

    def compiled_looped():
        for j in range(batch_width):
            _, carry = transfers.forward(batch[:, j])
            transfers.backward(carry, x_red_batch[:, j])

    t_looped = _time(compiled_looped, max(2, repeats // 2))

    e = max(elim.num_eliminated, 1)
    return {
        "experiment": "E6",
        "schema_version": 2,
        "workload": {
            "kind": "tree_plus_extras",
            "n": n,
            "extra_edges": extra,
            "m": g.num_edges,
            "seed": seed,
        },
        "elimination": {
            "eliminated": elim.num_eliminated,
            "kept": int(elim.kept_vertices.shape[0]),
            "rounds": elim.rounds,
            "subrounds": elim.schedule.num_subrounds,
            "build_seconds": build_seconds,
            "compile_seconds": compile_seconds,
        },
        "transfer": {
            "legacy_pair_seconds": t_legacy,
            "compiled_pair_seconds": t_compiled,
            "speedup": t_legacy / t_compiled,
            "replay_max_rel_error": replay_rel_error,
            "legacy_us_per_op": t_legacy / e * 1e6,
            "compiled_us_per_op": t_compiled / e * 1e6,
        },
        "multi_rhs": {
            "k": batch_width,
            "batched_pair_seconds": t_batched,
            "looped_pair_seconds": t_looped,
            "batched_speedup": t_looped / t_batched,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--json", action="store_true", help="write the machine-readable payload"
    )
    parser.add_argument(
        "--out",
        default="BENCH_elimination.json",
        help="output path for --json (default: BENCH_elimination.json)",
    )
    parser.add_argument("--n", type=int, default=20000, help="vertex count")
    parser.add_argument("--extra", type=int, default=200, help="off-tree edges")
    parser.add_argument("--batch", type=int, default=8, help="multi-RHS batch width")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats")
    args = parser.parse_args(argv)

    payload = collect_payload(
        n=args.n,
        extra=args.extra,
        batch_width=args.batch,
        seed=args.seed,
        repeats=args.repeats,
    )
    t = payload["transfer"]
    e = payload["elimination"]
    print(
        f"n={args.n} +{args.extra}: build {e['build_seconds']*1e3:.1f} ms, "
        f"compile {e['compile_seconds']*1e3:.1f} ms, "
        f"transfer pair {t['legacy_pair_seconds']*1e3:.2f} ms (replay) -> "
        f"{t['compiled_pair_seconds']*1e3:.3f} ms (compiled), "
        f"{t['speedup']:.1f}x; batched k={payload['multi_rhs']['k']} "
        f"{payload['multi_rhs']['batched_speedup']:.1f}x vs looped"
    )
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
