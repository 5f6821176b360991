"""One benchmark run: cold set-up, then rounds of stream, batch, update and served phases.

Every workload runs every phase, so every run reports every end-to-end
metric; the workloads differ in their graphs, tolerance and how much of each
round a phase gets.  A run is split into rounds, each running every phase
once, so that a slow spell of a shared machine lands on all metrics alike
instead of on whichever phase happened to run during it.

All right-hand sides and edit batches come from ``--seed``; the graphs, the
factorization seed and which graph each client sends to are fixed per
workload.

With ``trace`` on, each round's stream solves run twice on the same
right-hand sides, first untraced and then under :class:`tracing.Tracer`, and
the served phase runs traced; the run then reports the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core.chain_cache import estimate_operator_bytes

from inputs import EdgeList, System, grid, mixed_edits, rmat
from tracing import END, NAME, PARENT, START, VALUE, Tracer, summarize

#: Seed of every ``factorize()``: the chain is part of the workload, not an input.
FACTORIZE_SEED = 0
#: Cold factorizations per run: at least this many, and until this many seconds.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5
#: The untimed warm-up solve runs every code path at a loose tolerance.
WARM_TOL = 1e-2
#: Rounds per run, the size of one edit batch as a share of the edges, and
#: the number of closed-loop clients of the served phase.
ROUNDS = 3
EDIT_FRACTION = 0.01
CLIENTS = 8
# Tags of the per-phase random streams (``default_rng([seed, tag, ...])``).
WARM, STREAM, BATCH, UPDATE, SERVED = range(5)


@dataclass(frozen=True)
class Workload:
    """Graphs and phase sizes of one workload.

    ``graph(tiny)`` is the graph of the set-up, stream, batch and update
    phases; client ``c`` of the served phase sends to graph ``c % len`` of
    ``served_graphs(tiny)`` (the same graph when ``None``).  Each of the
    ``ROUNDS`` rounds gets an equal share of ``--seconds``: ``stream``,
    ``batch`` and ``served`` are the fractions of a round's share those closed
    loops run for (at least one solve, one ``(n, batch_width)`` batch or one
    request from each of the ``CLIENTS`` clients).  Every
    round also applies a sequence of ``updates`` edit batches of
    ``EDIT_FRACTION * m`` edits, split between reweights, deletes and inserts
    as ``edit_split``, to the freshly factorized operator, each batch followed
    by a solve.  Their number is fixed because later batches solve slower, so
    a time box would change the mix; each round starts a new sequence so that
    one unlucky sequence does not decide the run.
    """

    graph: Callable[[bool], EdgeList]
    tol: float
    stream: float
    batch: float
    served: float
    batch_width: int
    updates: int
    chain: Dict[str, int] = field(default_factory=dict)
    served_graphs: Optional[Callable[[bool], List[EdgeList]]] = None
    edit_split: Tuple[int, int, int] = (8, 1, 1)


WORKLOADS: Dict[str, Workload] = {
    "grid-stream": Workload(
        graph=lambda tiny: grid(12 if tiny else 64),
        tol=1e-8,
        served_graphs=lambda tiny: [grid(8 if tiny else 32), grid(8 if tiny else 32, weight_seed=1)],
        stream=0.5,
        batch=0.1,
        served=0.35,
        batch_width=4,
        updates=2,
    ),
    "rmat-batch": Workload(
        graph=lambda tiny: rmat(7 if tiny else 10, 8, seed=5),
        tol=1e-6,
        chain={"max_levels": 16},
        stream=0.25,
        batch=0.3,
        served=0.25,
        batch_width=16,
        updates=3,
        edit_split=(1, 0, 0),
    ),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _chain_stat(stats, key: str) -> Optional[float]:
    value = stats.get(key) if isinstance(stats, dict) else getattr(stats, key, None)
    return None if value is None else float(value)


class Session:
    """State of one run; :meth:`run` returns ``(metrics, detail)``."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tol = workload.tol
        self.edges = workload.graph(tiny)
        self.graph = self.edges.to_graph()
        self.system = System(self.edges)
        if workload.served_graphs is None:
            self.served_graphs, self.served_systems = [self.graph], [self.system]
        else:
            served = workload.served_graphs(tiny)
            self.served_graphs = [edges.to_graph() for edges in served]
            self.served_systems = [System(edges) for edges in served]
        self.chain = repro.ChainConfig(**workload.chain)
        self.rngs: Dict[Tuple[int, ...], np.random.Generator] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        # Samples, accumulated over the rounds.
        self.stream_times: List[float] = []
        self.untraced_times: List[float] = []
        self.stream_reports: List = []
        self.batch_cols = 0
        self.batch_seconds = 0.0
        self.update_samples: List[float] = []
        self.update_times: List[float] = []
        self.update_strategies: List[str] = []
        self.update_iterations: List[int] = []
        self.requests: List[Tuple[float, float]] = []
        self.served_wall = 0.0
        # Traced aggregates.
        self.stream_rows: Dict[str, Dict[str, float]] = {}
        self.outer_iterations: List[int] = []
        self.served_solves: List[list] = []

    # ------------------------------------------------------------------ #
    # checked calls
    # ------------------------------------------------------------------ #
    def rng(self, *tags: int) -> np.random.Generator:
        """The persistent random stream of one phase (and client)."""
        if tags not in self.rngs:
            self.rngs[tags] = np.random.default_rng([self.seed, *tags])
        return self.rngs[tags]

    def check(self, system: System, x, b: np.ndarray) -> None:
        res = system.residuals(x, b)
        self.attempted += res.size
        self.failed += int(np.count_nonzero(~(res <= self.tol)))

    def fail(self, count: int, exc: Exception) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def solve(self, op, system: System, b: np.ndarray):
        """Timed ``op.solve(b)`` with the answer checked; ``(report, seconds)``."""
        t0 = time.perf_counter()
        try:
            report = op.solve(b, tol=self.tol)
        except Exception as exc:  # a raising solve is a counted failure
            self.fail(1 if b.ndim == 1 else b.shape[1], exc)
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        self.check(system, report.x, b)
        return report, seconds

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def setup(self) -> Tuple[List[float], List]:
        """Cold factorizations with the chain cache cleared and ``cache=False``."""
        times, stats = [], []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            repro.clear_chain_cache()
            gc.collect()
            t0 = time.perf_counter()
            op = repro.factorize(self.graph, self.chain, seed=FACTORIZE_SEED, cache=False)
            times.append(time.perf_counter() - t0)
            stats.append(op.chain.stats)
        self.op = op
        return times, stats

    def references(self) -> Dict[str, float]:
        """SciPy CG and grounded ``splu`` on one stream-like right-hand side."""
        b = self.system.rhs(self.rng(WARM))
        cg_runs = [self.system.scipy_cg(b, self.tol) for _ in range(3)]
        splu_seconds, splu_residual = self.system.splu(b)
        return {
            "scipy_cg_s": _median([s for s, _ in cg_runs]),
            "scipy_cg_residual": cg_runs[0][1],
            "splu_s": splu_seconds,
            "splu_residual": splu_residual,
        }

    def stream(self, budget: float, rhs: Optional[List[np.ndarray]] = None):
        """Closed loop of one caller sending single right-hand sides.

        Draws new right-hand sides for ``budget`` seconds (at least one), or
        replays ``rhs``; returns the right-hand sides, times and reports.
        """
        replay = rhs is not None
        rhs = list(rhs) if replay else []
        times, reports = [], []
        deadline = time.perf_counter() + budget
        while len(times) < len(rhs) if replay else not times or time.perf_counter() < deadline:
            if not replay:
                rhs.append(self.system.rhs(self.rng(STREAM)))
            report, seconds = self.solve(self.op, self.system, rhs[len(times)])
            times.append(seconds)
            reports.append(report)
        return rhs, times, reports

    def batch(self, budget: float) -> None:
        """Batched ``(n, k)`` solves for ``budget`` seconds (at least one)."""
        deadline = time.perf_counter() + budget
        while True:
            b = self.system.rhs(self.rng(BATCH), self.workload.batch_width)
            _, seconds = self.solve(self.op, self.system, b)
            self.batch_cols += b.shape[1]
            self.batch_seconds += seconds
            if time.perf_counter() >= deadline:
                break

    def update(self) -> None:
        """Apply the next edit batch with ``update()`` and solve once after it."""
        w = self.workload
        edits = mixed_edits(self.update_edges, EDIT_FRACTION, self.rng(UPDATE), w.edit_split)
        t0 = time.perf_counter()
        try:
            op, report = self.update_op.update(edits.to_edge_edits())
        except Exception as exc:  # counted like a failed solve
            self.fail(1, exc)
            return
        update_seconds = time.perf_counter() - t0
        self.update_op, self.update_edges = op, self.update_edges.apply(edits)
        system = System(self.update_edges)
        solved, solve_seconds = self.solve(op, system, system.rhs(self.rng(UPDATE)))
        self.update_samples.append(update_seconds + solve_seconds)
        self.update_times.append(update_seconds)
        self.update_strategies.append(report.strategy)
        if solved is not None:
            self.update_iterations.append(solved.iterations)

    def start_serving(self) -> None:
        """A :class:`repro.SolverService` with the served graphs registered (warm)."""
        repro.clear_chain_cache()
        self.cache_before = repro.chain_cache_stats()
        self.service = repro.SolverService(chain=self.chain, seed=FACTORIZE_SEED)
        self.fingerprints = [self.service.register(g) for g in self.served_graphs]

    def serve(self, budget: float) -> None:
        """Closed-loop asyncio clients for ``budget`` seconds (one request each at least)."""
        service, fingerprints = self.service, self.fingerprints
        done_at: List[float] = []
        start = time.perf_counter()
        deadline = start + budget

        async def client(cid: int) -> None:
            rng = self.rng(SERVED, cid)
            gi = cid % len(fingerprints)
            sent = 0
            while sent == 0 or time.perf_counter() < deadline:
                sent += 1
                b = self.served_systems[gi].rhs(rng)
                t0 = time.perf_counter()
                try:
                    report = await service.submit(fingerprints[gi], b, tol=self.tol)
                except Exception as exc:
                    self.fail(1, exc)
                    continue
                done_at.append(time.perf_counter())
                self.requests.append((t0, done_at[-1]))
                self.check(self.served_systems[gi], report.x, b)

        async def main() -> None:
            async with service:
                await asyncio.gather(*(client(c) for c in range(CLIENTS)))

        asyncio.run(main())
        self.served_wall += max(done_at, default=time.perf_counter()) - start

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #
    def run(self) -> Tuple[Dict[str, float], Dict]:
        w = self.workload
        setup_times, chain_stats = self.setup()
        self.op.solve(self.system.rhs(self.rng(WARM)), tol=max(self.tol, WARM_TOL))
        reference = self.references()
        self.start_serving()
        tracer = Tracer() if self.trace else None
        share = self.seconds / ROUNDS
        for _ in range(ROUNDS):
            rhs, times, reports = self.stream(w.stream * share)
            if tracer is None:
                self.stream_times += times
                self.stream_reports += reports
            else:
                self.untraced_times += times
                with tracer:
                    _, times, reports = self.stream(0.0, rhs)
                self.stream_times += times
                self.stream_reports += reports
                self._collect_stream(tracer)
            self.batch(w.batch * share)
            self.update_op, self.update_edges = self.op, self.edges
            for _ in range(w.updates):
                self.update()
            if tracer is None:
                self.serve(w.served * share)
            else:
                with tracer:
                    self.serve(w.served * share)
                self.served_solves += [
                    s for s in tracer.spans if s[NAME] == "solve" and s[PARENT] is None
                ]
                tracer.spans.clear()

        latencies = [done - t0 for t0, done in self.requests]
        solve_s = _median(self.stream_times)
        end_to_end = {
            "setup_s": _median(setup_times),
            "solve_s": solve_s,
            "cols_per_s": self.batch_cols / self.batch_seconds,
            "update_solve_s": _median(self.update_samples),
            "req_p50_s": float(np.percentile(latencies, 50)) if latencies else float("nan"),
            "req_p90_s": float(np.percentile(latencies, 90)) if latencies else float("nan"),
            "req_per_s": len(latencies) / self.served_wall,
            "operator_mb": estimate_operator_bytes(self.op) / 1e6,
        }
        detail = {
            "graph": {"n": self.system.n, "m": int(self.edges.u.size), "components": int(self.system.components)},
            "samples": {
                "setup": len(setup_times),
                "stream": len(self.stream_times),
                "batch_columns": self.batch_cols,
                "update_batches": len(self.update_samples),
                "requests": len(latencies),
            },
            "reference": dict(reference, chain_over_cg=solve_s / reference["scipy_cg_s"]),
            "end_to_end": end_to_end,
            "update_strategies": self.update_strategies,
            "errors": self.errors,
        }
        if tracer is None:
            return end_to_end, detail
        per_layer = self._chain_metrics(chain_stats)
        per_layer.update(self._solve_metrics())
        per_layer.update(self._update_metrics())
        per_layer.update(self._served_metrics())
        per_layer.update(
            {
                "trace.overhead_s": solve_s - _median(self.untraced_times),
                "fail_frac": self.failed / max(self.attempted, 1),
                "ref.scipy_cg_s": reference["scipy_cg_s"],
                "ref.splu_s": reference["splu_s"],
                "ref.chain_over_cg": detail["reference"]["chain_over_cg"],
            }
        )
        detail["absent"] = tracer.absent
        return per_layer, detail

    # ------------------------------------------------------------------ #
    # per-layer metrics
    # ------------------------------------------------------------------ #
    def _collect_stream(self, tracer: Tracer) -> None:
        """Fold one round's traced stream spans into the running totals."""
        for name, row in summarize(tracer.spans).items():
            total = self.stream_rows.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                total[key] += value
        self.outer_iterations += [
            s[VALUE]
            for s in tracer.spans
            if s[NAME] == "cg" and (s[PARENT] is None or s[PARENT][NAME] == "solve")
        ]
        tracer.spans.clear()

    @staticmethod
    def _chain_metrics(chain_stats: List) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for metric, key in (
            ("chain.subgraph_s", "seconds_subgraph"),
            ("chain.sparsify_s", "seconds_sparsify"),
            ("chain.elimination_s", "seconds_elimination"),
            ("chain.transfer_compile_s", "seconds_transfer"),
            ("chain.bottom_factor_s", "seconds_bottom"),
        ):
            values = [_chain_stat(stats, key) for stats in chain_stats]
            if None not in values:
                out[metric] = _median(values)
        for metric, key in (
            ("chain.levels", "levels"),
            ("chain.bottom_n", "bottom_size"),
            ("chain.edges_total", "total_edges"),
        ):
            value = _chain_stat(chain_stats[-1], key)
            if value is not None:
                out[metric] = value
        return out

    def _solve_metrics(self) -> Dict[str, float]:
        """Per single-RHS solve of the traced stream phase."""
        rows, solves = self.stream_rows, len(self.stream_times)
        out: Dict[str, float] = {}
        fwd, bwd = rows.get("transfer.forward"), rows.get("transfer.backward")
        if fwd and bwd:
            out["transfer.calls"] = (fwd["calls"] + bwd["calls"]) / solves
            out["transfer.forward_s"] = fwd["seconds"] / solves
            out["transfer.backward_s"] = bwd["seconds"] / solves
        if "bottom" in rows:
            out["bottom.calls"] = rows["bottom"]["calls"] / solves
            out["bottom.solve_s"] = rows["bottom"]["seconds"] / solves
        if "cg" in rows:
            out["cg.runs"] = rows["cg"]["calls"] / solves
            out["cg.self_s"] = rows["cg"]["self_seconds"] / solves
            out["cg.outer_iterations"] = float(np.mean(self.outer_iterations))
        if "solve" in rows:
            out["solve.self_s"] = rows["solve"]["self_seconds"] / solves
        done = [r for r in self.stream_reports if r is not None]
        if done:
            out["solve.work"] = float(np.mean([r.work for r in done]))
            out["solve.depth"] = float(np.mean([r.depth for r in done]))
        return out

    def _update_metrics(self) -> Dict[str, float]:
        fresh = [r.iterations for r in self.stream_reports if r is not None]
        out = {
            "update.s": _median(self.update_times),
            "update.rebuilt": float(self.update_strategies.count("rebuilt")),
        }
        if self.update_iterations and fresh:
            out["update.iter_inflation"] = float(np.mean(self.update_iterations)) / _median(fresh)
        return out

    def _served_metrics(self) -> Dict[str, float]:
        stats = self.service.stats()
        cache = repro.chain_cache_stats()
        out = {
            "cache.hits": float(cache.hits - self.cache_before.hits),
            "cache.misses": float(cache.misses - self.cache_before.misses),
            "serving.batches": float(stats.batches),
            "serving.width_mean": float(stats.mean_batch_width),
        }
        solves = sorted(self.served_solves, key=lambda s: s[END])
        if solves:
            out["serving.busy_frac"] = sum(s[END] - s[START] for s in solves) / self.served_wall
            # The solve that served a request is the last one to end before
            # the request completed; it must have started after the submit.
            ends = [s[END] for s in solves]
            waits = []
            for t0, done in self.requests:
                i = bisect.bisect_right(ends, done) - 1
                if i >= 0 and solves[i][START] >= t0:
                    waits.append((done - t0) - (solves[i][END] - solves[i][START]))
            if waits:
                out["serving.queue_s"] = _median(waits)
        return out
