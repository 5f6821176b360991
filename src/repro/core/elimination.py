"""Parallel greedy elimination (partial Cholesky on degree <= 2 vertices).

``GreedyElimination`` (Lemma 6.5) removes degree-1 vertices ("rake") and an
independent set of degree-2 vertices ("compress") round by round until no
low-degree vertices remain, mirroring parallel tree contraction.  Eliminating
those vertices corresponds to a partial Cholesky factorization whose Schur
complement is again a graph Laplacian:

* degree-1 vertex ``v`` with neighbor ``u`` (weight ``w``):
  the vertex is simply removed; solving transfers as
  ``b'_u = b_u + b_v`` (forward) and ``x_v = x_u + b_v / w`` (backward);
* degree-2 vertex ``v`` with neighbors ``u1, u2`` (weights ``w1, w2``):
  it is spliced out, adding an edge ``(u1, u2)`` of weight
  ``w1 w2 / (w1 + w2)``; forward
  ``b'_{u_i} = b_{u_i} + w_i / (w1 + w2) * b_v`` and backward
  ``x_v = (w1 x_{u1} + w2 x_{u2} + b_v) / (w1 + w2)``.

The independent set of degree-2 vertices is chosen by the random marking of
Lemma 6.5 (heads with probability 1/3, keep heads with no heads neighbor),
which removes a constant fraction of the "extra" vertices per round with
high probability, giving O(log n) rounds.

Execution model
---------------
The default (``parallel_degree2=True``) implementation is fully array-form,
in the GBBS style: each rake/compress round is a handful of bulk NumPy
passes over the current edge arrays (bulk degree counts via ``bincount``,
bulk coin flips, bulk Schur-weight accumulation via ``np.add.at``), never a
per-vertex Python loop.  The elimination *schedule* is likewise stored as
per-round index/weight arrays (:class:`EliminationSchedule`), which
:mod:`repro.core.transfer` compiles into the partial-Cholesky factor applied
at solve time.  The per-step ``List[Tuple]`` view is the
:attr:`EliminationResult.operations` property: the sequential reference
mode builds its schedule from such a list
(:meth:`EliminationSchedule.from_operations`), and replaying it step by step
is the oracle the compiled transfers must agree with (to a max relative
error of 1e-12).

The sequential reference mode (``parallel_degree2=False``) keeps the
original dict-of-dicts loop; it exists as the behavioural baseline for the
randomized independent-set variant and is not on any hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.pram.model import CostModel, null_cost
from repro.pram.primitives import charge_filter, charge_map
from repro.util.rng import RngLike, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transfer import TransferOperators

#: Sentinel second neighbor for degree-1 steps in the schedule arrays.
NO_NEIGHBOR = np.int64(-1)


@dataclass
class EliminationSchedule:
    """Array-form elimination schedule: per-round index/weight arrays.

    The schedule is a flat sequence of elimination *steps* in execution
    order, split into *sub-rounds* by ``offsets`` (each rake or compress
    phase of a round is one sub-round; the sequential reference mode emits
    singleton sub-rounds).  Step ``i`` eliminates ``vertices[i]``:

    * degree-1 step: neighbor ``nbr1[i]`` with weight ``w1[i]``;
      ``nbr2[i] == NO_NEIGHBOR`` and ``w2[i] == 0``.
    * degree-2 step: neighbors ``nbr1[i], nbr2[i]`` with weights
      ``w1[i], w2[i]``.

    Within a sub-round every step's *kind* is uniform, and every step's
    neighbors are kept or eliminated in a *later* sub-round, so a sub-round
    is a legal unit of parallel application.  The latter makes the one-step
    scatter matrix nilpotent, which :func:`repro.core.transfer.compile_transfers`
    checks (raising ``ValueError``) before it inverts ``I − S``.
    """

    n: int
    vertices: np.ndarray
    nbr1: np.ndarray
    nbr2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    offsets: np.ndarray

    @property
    def num_steps(self) -> int:
        """Total number of eliminated vertices."""
        return int(self.vertices.shape[0])

    @property
    def num_subrounds(self) -> int:
        """Number of bulk-applicable sub-rounds."""
        return int(self.offsets.shape[0]) - 1

    def subround(self, i: int) -> slice:
        """Index slice of sub-round ``i`` into the step arrays."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def to_operations(self) -> List[Tuple]:
        """Materialize the legacy per-step tuple list (see ``operations``)."""
        ops: List[Tuple] = []
        for i in range(self.num_steps):
            v = int(self.vertices[i])
            if self.nbr2[i] < 0:
                ops.append(("d1", v, int(self.nbr1[i]), float(self.w1[i])))
            else:
                ops.append(
                    (
                        "d2",
                        v,
                        int(self.nbr1[i]),
                        float(self.w1[i]),
                        int(self.nbr2[i]),
                        float(self.w2[i]),
                    )
                )
        return ops

    @staticmethod
    def from_operations(n: int, operations: Sequence[Tuple]) -> "EliminationSchedule":
        """Build a schedule from a legacy op list, grouping into sub-rounds.

        Consecutive same-kind steps are greedily batched into one sub-round
        as long as no step eliminates a vertex that an earlier step of the
        batch already referenced as a neighbor (which would break the bulk
        gather-before-scatter application).  This keeps the round-trip
        ``schedule -> operations -> schedule`` semantically exact while
        still producing usefully wide sub-rounds.
        """
        e = len(operations)
        vertices = np.empty(e, dtype=np.int64)
        nbr1 = np.empty(e, dtype=np.int64)
        nbr2 = np.full(e, NO_NEIGHBOR, dtype=np.int64)
        w1 = np.empty(e, dtype=np.float64)
        w2 = np.zeros(e, dtype=np.float64)
        offsets: List[int] = [0]
        run_kind: Optional[str] = None
        run_neighbors: set = set()
        for i, op in enumerate(operations):
            kind = op[0]
            if kind == "d1":
                _, v, u, w = op
                vertices[i], nbr1[i], w1[i] = v, u, w
                nbrs = (u,)
            elif kind == "d2":
                _, v, u1, wa, u2, wb = op
                vertices[i], nbr1[i], w1[i] = v, u1, wa
                nbr2[i], w2[i] = u2, wb
                nbrs = (u1, u2)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown elimination op kind: {kind!r}")
            if run_kind != kind or int(vertices[i]) in run_neighbors:
                if i > 0:
                    offsets.append(i)
                run_kind = kind
                run_neighbors = set()
            run_neighbors.update(nbrs)
        if e == 0:
            offsets = [0]
        else:
            offsets.append(e)
        return EliminationSchedule(
            n=n, vertices=vertices, nbr1=nbr1, nbr2=nbr2, w1=w1, w2=w2,
            offsets=np.asarray(offsets, dtype=np.int64),
        )


@dataclass
class EliminationResult:
    """A partial Cholesky elimination of low-degree vertices.

    Attributes
    ----------
    reduced_graph:
        The Schur-complement graph on the kept vertices (relabeled
        ``0..len(kept)-1``).
    kept_vertices:
        Original vertex ids of the kept vertices (sorted).
    schedule:
        The elimination steps as per-round index/weight arrays
        (:class:`EliminationSchedule`).
    rounds:
        Number of rake/compress rounds executed (the parallel depth in units
        of rounds).
    """

    reduced_graph: Graph
    kept_vertices: np.ndarray
    schedule: EliminationSchedule
    rounds: int
    stats: Dict[str, float] = field(default_factory=dict)
    _operations: Optional[List[Tuple]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _transfer: Optional["TransferOperators"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def operations(self) -> List[Tuple]:
        """Elimination steps as ``("d1", v, u, w)`` / ``("d2", v, u1, w1, u2, w2)``.

        The per-step tuple list serves inspection, round-trip tests and the
        per-step replay oracle; it is materialized lazily from
        :attr:`schedule` and must not be replayed on hot paths — use the
        compiled :attr:`transfer` operators instead.

        Within a ``d2`` tuple the two ``(neighbor, weight)`` pairs may
        appear in either order (the vectorized rounds emit edge-array
        order, not the historical dict-insertion order); the pairs are
        mathematically symmetric and every transfer quantity is unaffected.
        """
        if self._operations is None:
            self._operations = self.schedule.to_operations()
        return self._operations

    @property
    def num_eliminated(self) -> int:
        """Number of vertices eliminated."""
        return self.schedule.num_steps

    @property
    def transfer(self) -> "TransferOperators":
        """Compiled solve-transfer operators for this elimination (cached).

        The fill is a benign race under concurrent access: compilation is
        deterministic, so two threads that both see ``None`` produce
        interchangeable immutable objects and the second assignment wins
        harmlessly.  Chain levels built by ``build_chain`` precompile their
        transfers at factorize time and never hit this path from a solve.
        """
        if self._transfer is None:
            from repro.core.transfer import compile_transfers

            self._transfer = compile_transfers(self)
        return self._transfer

    # ------------------------------------------------------------------ #
    # solve transfer
    # ------------------------------------------------------------------ #
    def forward_rhs(self, b: np.ndarray) -> np.ndarray:
        """Transfer right-hand side(s) to the reduced system.

        Accepts a vector ``(n,)`` or a batch ``(n, k)``.  Returns the
        reduced right-hand side(s) indexed by the reduced graph's vertex
        numbering (i.e. position ``i`` corresponds to
        ``kept_vertices[i]``).  Delegates to the compiled transfer
        operators; see :meth:`TransferOperators.forward` for the
        carry-reusing variant used on the solver hot path.
        """
        return self.transfer.forward_rhs(b)

    def backward_solution(self, b: np.ndarray, x_reduced: np.ndarray) -> np.ndarray:
        """Extend reduced solution(s) back to all original vertices.

        Shapes mirror :meth:`forward_rhs`: ``b`` may be ``(n,)`` or
        ``(n, k)`` with ``x_reduced`` shaped to match.
        """
        return self.transfer.backward_solution(b, x_reduced)


# --------------------------------------------------------------------------- #
# vectorized (parallel) implementation
# --------------------------------------------------------------------------- #
def _coalesce(
    n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray, ets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge parallel edges: weights summed in array order, timestamps min'd.

    Summation order matters for bit-for-bit reproducibility of the Schur
    weights (the sequential reference accumulates onto the existing edge
    weight in elimination order, which array order mirrors here).
    """
    if eu.size == 0:
        return eu, ev, ew, ets
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    # Pair keys must be int64 regardless of the endpoint dtype: lo * n + hi
    # overflows int32 for n beyond ~46k (int32 array * int64 scalar promotes
    # to int64 under NEP 50, so the multiply below is always safe).
    keys = lo * np.int64(n) + hi
    uniq, inverse = np.unique(keys, return_inverse=True)
    w = np.zeros(uniq.shape[0], dtype=ew.dtype)
    np.add.at(w, inverse, ew)
    ts = np.full(uniq.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(ts, inverse, ets)
    return (uniq // n).astype(eu.dtype), (uniq % n).astype(eu.dtype), w, ts


class _ScheduleBuilder:
    """Accumulates per-sub-round step arrays into one flat schedule."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._v: List[np.ndarray] = []
        self._u1: List[np.ndarray] = []
        self._u2: List[np.ndarray] = []
        self._w1: List[np.ndarray] = []
        self._w2: List[np.ndarray] = []
        self._offsets: List[int] = [0]
        self.num_steps = 0

    def add_subround(
        self,
        v: np.ndarray,
        u1: np.ndarray,
        w1: np.ndarray,
        u2: Optional[np.ndarray] = None,
        w2: Optional[np.ndarray] = None,
    ) -> None:
        size = int(v.shape[0])
        if size == 0:
            return
        self._v.append(v.astype(np.int64, copy=False))
        self._u1.append(u1.astype(np.int64, copy=False))
        self._w1.append(w1.astype(np.float64, copy=False))
        if u2 is None:
            self._u2.append(np.full(size, NO_NEIGHBOR, dtype=np.int64))
            self._w2.append(np.zeros(size, dtype=np.float64))
        else:
            self._u2.append(u2.astype(np.int64, copy=False))
            self._w2.append(np.asarray(w2, dtype=np.float64))
        self.num_steps += size
        self._offsets.append(self.num_steps)

    def build(self) -> EliminationSchedule:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        return EliminationSchedule(
            n=self.n,
            vertices=np.concatenate(self._v) if self._v else empty_i,
            nbr1=np.concatenate(self._u1) if self._u1 else empty_i,
            nbr2=np.concatenate(self._u2) if self._u2 else empty_i,
            w1=np.concatenate(self._w1) if self._w1 else empty_f,
            w2=np.concatenate(self._w2) if self._w2 else empty_f,
            offsets=np.asarray(self._offsets, dtype=np.int64),
        )


def _eliminate_parallel(
    graph: Graph,
    rng: np.random.Generator,
    cost: CostModel,
    max_rounds: int,
    min_vertices: int,
) -> Tuple[EliminationSchedule, np.ndarray, Graph, int, float]:
    """Array-form rake/compress rounds over shrinking edge arrays.

    Each round is a constant number of bulk passes over the *currently
    alive* edges — no per-vertex Python loops and no O(n) rescan of dead
    vertices beyond C-level ``bincount`` counters.  Returns the schedule,
    kept vertices, reduced graph, round count, and the number of edge scans
    performed (a diagnostic for the O(m) total-work claim).
    """
    n = graph.n
    m0 = graph.num_edges
    charge_map(cost, m0)
    # Edge state: coalesced undirected edges plus a creation timestamp used
    # to emit the reduced graph in the same (insertion-ordered) edge order
    # as the sequential dict-of-dicts reference implementation.
    eu, ev, ew, ets = _coalesce(
        n, graph.u, graph.v, graph.w, np.arange(m0, dtype=np.int64)
    )
    alive_count = n
    dead = np.zeros(n, dtype=bool)
    builder = _ScheduleBuilder(n)
    rounds = 0
    edge_scans = 0.0

    for _ in range(max_rounds):
        if alive_count <= min_vertices:
            break
        rounds += 1
        edge_scans += float(eu.size)

        # --- rake: eliminate degree-1 vertices (resolve adjacent pairs). ---
        deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        deg1_mask = deg == 1
        num_deg1 = int(np.count_nonzero(deg1_mask))
        if num_deg1:
            sel_u = deg1_mask[eu]
            sel_v = deg1_mask[ev]
            cand_v = np.concatenate([eu[sel_u], ev[sel_v]])
            cand_u = np.concatenate([ev[sel_u], eu[sel_v]])
            cand_w = np.concatenate([ew[sel_u], ew[sel_v]])
            # An isolated edge has two degree-1 endpoints; the smaller id is
            # eliminated into the larger, which survives the round.
            ok = ~(deg1_mask[cand_u] & (cand_u < cand_v))
            cand_v, cand_u, cand_w = cand_v[ok], cand_u[ok], cand_w[ok]
            order = np.argsort(cand_v)
            cand_v, cand_u, cand_w = cand_v[order], cand_u[order], cand_w[order]
            allowance = alive_count - min_vertices
            if cand_v.shape[0] > allowance:
                cand_v = cand_v[:allowance]
                cand_u = cand_u[:allowance]
                cand_w = cand_w[:allowance]
            if cand_v.size:
                builder.add_subround(cand_v, cand_u, cand_w)
                dead[cand_v] = True
                alive_count -= int(cand_v.shape[0])
                keep = ~(dead[eu] | dead[ev])
                eu, ev, ew, ets = eu[keep], ev[keep], ew[keep], ets[keep]
        charge_map(cost, alive_count)

        # --- compress: eliminate an independent set of degree-2 vertices. ---
        deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        deg2_mask = deg == 2
        deg2 = np.flatnonzero(deg2_mask)
        charge_map(cost, alive_count)
        if deg2.size:
            coins = rng.random(deg2.shape[0]) < (1.0 / 3.0)
            heads = np.zeros(n, dtype=bool)
            heads[deg2[coins]] = True
            # Gather both incident edges of every degree-2 vertex: its two
            # entries in the (src, dst) direction-doubled view.  Filtering
            # each direction *before* concatenating keeps the doubled
            # scratch proportional to the degree-2 incidences rather than
            # 2m; the concatenation order matches the unfiltered
            # ``concat(eu, ev)[deg2_mask[...]]`` exactly.
            sel_u = deg2_mask[eu]
            sel_v = deg2_mask[ev]
            s2 = np.concatenate([eu[sel_u], ev[sel_v]])
            d2 = np.concatenate([ev[sel_u], eu[sel_v]])
            w2 = np.concatenate([ew[sel_u], ew[sel_v]])
            order = np.argsort(s2, kind="stable")
            s2 = s2[order]
            d2 = d2[order]
            w2 = w2[order]
            vs = s2[0::2]  # == deg2 (ascending), each exactly twice
            u1, u2 = d2[0::2], d2[1::2]
            wa, wb = w2[0::2], w2[1::2]
            chosen = coins & ~(heads[u1] | heads[u2])
            vs_c, u1_c, u2_c = vs[chosen], u1[chosen], u2[chosen]
            wa_c, wb_c = wa[chosen], wb[chosen]
            allowance = alive_count - min_vertices
            if vs_c.shape[0] > allowance:
                vs_c, u1_c, u2_c = vs_c[:allowance], u1_c[:allowance], u2_c[:allowance]
                wa_c, wb_c = wa_c[:allowance], wb_c[:allowance]
            if vs_c.size:
                # Schur edges stamped by global step index so that reduced
                # edge order matches dict insertion chronology.
                new_ts = m0 + builder.num_steps + np.arange(
                    vs_c.shape[0], dtype=np.int64
                )
                builder.add_subround(vs_c, u1_c, wa_c, u2_c, wb_c)
                dead[vs_c] = True
                alive_count -= int(vs_c.shape[0])
                keep = ~(dead[eu] | dead[ev])
                new_w = wa_c * wb_c / (wa_c + wb_c)
                eu, ev, ew, ets = _coalesce(
                    n,
                    np.concatenate([eu[keep], u1_c]),
                    np.concatenate([ev[keep], u2_c]),
                    np.concatenate([ew[keep], new_w]),
                    np.concatenate([ets[keep], new_ts]),
                )
        charge_filter(cost, alive_count)
        # Stop only when nothing is eliminable at all: an unlucky coin-flip
        # round (no marked independent vertices) should simply retry.
        if num_deg1 == 0 and deg2.size == 0:
            break

    kept = np.flatnonzero(~dead)
    idt = graph.u.dtype
    remap = np.full(n, -1, dtype=idt)
    remap[kept] = np.arange(kept.shape[0], dtype=idt)
    if eu.size:
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        # Primary key: smaller endpoint ascending; secondary: creation time.
        # This reproduces the "for v in kept: for u in adj[v]" emission order
        # of the dict-based reference exactly.
        order = np.lexsort((ets, lo))
        ru, rv, rw = remap[lo[order]], remap[hi[order]], ew[order]
    else:
        ru = np.zeros(0, dtype=idt)
        rv = np.zeros(0, dtype=idt)
        rw = np.zeros(0, dtype=graph.w.dtype)
    reduced = Graph(kept.shape[0], ru, rv, rw, validate=False)
    return builder.build(), kept, reduced, rounds, edge_scans


# --------------------------------------------------------------------------- #
# sequential reference implementation (parallel_degree2=False)
# --------------------------------------------------------------------------- #
def _adjacency_dicts(graph: Graph) -> List[Dict[int, float]]:
    """Dict-of-dicts adjacency with parallel edges coalesced."""
    adj: List[Dict[int, float]] = [dict() for _ in range(graph.n)]
    for u, v, w in zip(graph.u, graph.v, graph.w):
        u = int(u)
        v = int(v)
        w = float(w)
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w
    return adj


def _eliminate_sequential(
    graph: Graph,
    cost: CostModel,
    max_rounds: int,
    min_vertices: int,
) -> Tuple[EliminationSchedule, np.ndarray, Graph, int]:
    """The historical one-vertex-at-a-time reference (greedy degree-2)."""
    n = graph.n
    adj = _adjacency_dicts(graph)
    charge_map(cost, graph.num_edges)
    alive = np.ones(n, dtype=bool)
    operations: List[Tuple] = []
    alive_count = n
    rounds = 0

    def degree(v: int) -> int:
        return len(adj[v])

    def eliminate_degree1(v: int) -> None:
        nonlocal alive_count
        (u, w), = adj[v].items()
        operations.append(("d1", v, u, w))
        del adj[u][v]
        adj[v].clear()
        alive[v] = False
        alive_count -= 1

    def eliminate_degree2(v: int) -> None:
        nonlocal alive_count
        (u1, w1), (u2, w2) = adj[v].items()
        operations.append(("d2", v, u1, w1, u2, w2))
        del adj[u1][v]
        del adj[u2][v]
        adj[v].clear()
        new_w = w1 * w2 / (w1 + w2)
        adj[u1][u2] = adj[u1].get(u2, 0.0) + new_w
        adj[u2][u1] = adj[u2].get(u1, 0.0) + new_w
        alive[v] = False
        alive_count -= 1

    for _ in range(max_rounds):
        if alive_count <= min_vertices:
            break
        rounds += 1
        deg1 = [v for v in range(n) if alive[v] and degree(v) == 1]
        charge_map(cost, alive_count)
        deg1_set = set(deg1)
        for v in deg1:
            if alive_count <= min_vertices:
                break
            if not alive[v] or degree(v) != 1:
                continue
            u = next(iter(adj[v]))
            if u in deg1_set and u < v and degree(u) == 1:
                continue
            eliminate_degree1(v)
        deg2 = [v for v in range(n) if alive[v] and degree(v) == 2]
        charge_map(cost, alive_count)
        for v in deg2:
            if alive_count <= min_vertices:
                break
            if not alive[v] or degree(v) != 2:
                continue
            neighbors = list(adj[v].keys())
            if len(neighbors) == 1:
                # Parallel edges merged into a single neighbor: degree-1.
                eliminate_degree1(v)
                continue
            eliminate_degree2(v)
        charge_filter(cost, alive_count)
        if not deg1 and not deg2:
            break

    kept = np.flatnonzero(alive)
    remap = np.full(n, -1, dtype=np.int64)
    remap[kept] = np.arange(kept.shape[0])
    ru, rv, rw = [], [], []
    for v in kept:
        for u, w in adj[int(v)].items():
            if u > v:
                ru.append(remap[v])
                rv.append(remap[u])
                rw.append(w)
    reduced = Graph(
        kept.shape[0],
        np.array(ru, dtype=np.int64),
        np.array(rv, dtype=np.int64),
        np.array(rw, dtype=float),
    )
    return EliminationSchedule.from_operations(n, operations), kept, reduced, rounds


def greedy_elimination(
    graph: Graph,
    seed: RngLike = None,
    *,
    cost: Optional[CostModel] = None,
    max_rounds: int = 200,
    min_vertices: int = 1,
    parallel_degree2: bool = True,
) -> EliminationResult:
    """Lemma 6.5: eliminate degree-1 and (an independent set of) degree-2 vertices.

    Parameters
    ----------
    graph:
        The Laplacian graph to reduce (conductance weights).
    min_vertices:
        Never eliminate below this many vertices (at least one vertex per
        component must remain for the Laplacian solve transfer to be
        well-posed; the chain keeps the bottom graphs non-trivial anyway).
    parallel_degree2:
        Use the randomized independent-set marking of the parallel algorithm
        (True, vectorized over CSR-style edge arrays) or eliminate degree-2
        vertices greedily one at a time (False, the sequential reference
        behaviour).

    Returns
    -------
    EliminationResult
    """
    cost = cost or null_cost()
    rng = as_rng(seed)

    if parallel_degree2:
        schedule, kept, reduced, rounds, edge_scans = _eliminate_parallel(
            graph, rng, cost, max_rounds, min_vertices
        )
    else:
        schedule, kept, reduced, rounds = _eliminate_sequential(
            graph, cost, max_rounds, min_vertices
        )
        edge_scans = float(graph.num_edges) * rounds

    stats = {
        "rounds": float(rounds),
        "eliminated": float(schedule.num_steps),
        "kept": float(kept.shape[0]),
        "subrounds": float(schedule.num_subrounds),
        "edge_scans": edge_scans,
    }
    return EliminationResult(
        reduced_graph=reduced,
        kept_vertices=kept,
        schedule=schedule,
        rounds=rounds,
        stats=stats,
    )
