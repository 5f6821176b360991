"""Parallel low-diameter decomposition (Section 4, Theorem 4.1).

Two entry points:

* :func:`split_graph` — Algorithm 4.1 (``splitGraph``): partition a simple
  unweighted graph into components of strong hop-radius at most ``rho`` by
  growing jittered balls from progressively larger random center sets.
* :func:`partition` — Algorithm 4.2 (``Partition``): the multi-edge-class
  wrapper that re-runs ``splitGraph`` until every edge class has at most a
  ``c1 * k * log^3 n / rho`` fraction of its edges cut (Theorem 4.1(3)).

Both are written against the delayed-ball-growing primitive in
:mod:`repro.core.ball_growing` and charge PRAM cost: ``O(rho log^2 n)`` depth
and near-linear work, matching the bounds stated in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.ball_growing import grow_balls
from repro.graph._gather import gather_ranges
from repro.graph.graph import Graph
from repro.pram.model import CostModel, null_cost
from repro.pram.primitives import charge_filter, charge_map, charge_reduce
from repro.util.rng import RngLike, as_rng

#: The absolute constant of Theorem 4.1(3); the paper's proof gives 272.
PAPER_C1 = 272.0


@dataclass
class Decomposition:
    """A partition of the vertex set into low-diameter components.

    Attributes
    ----------
    labels:
        Per-vertex component index in ``0 .. num_components - 1``.
    centers:
        Per-component center vertex (Theorem 4.1(1): the center belongs to
        its own component).
    iteration:
        Per-component ``splitGraph`` iteration (1-based) in which the
        component was carved out.
    parent, parent_edge:
        Per-vertex BFS parent / parent edge *within its component*; the
        parent chains form a BFS tree of each component rooted at its center
        (these trees are exactly what the AKPW algorithm adds to its output).
    rho:
        The radius parameter the decomposition was built with.
    """

    labels: np.ndarray
    centers: np.ndarray
    iteration: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    rho: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def num_components(self) -> int:
        """Number of components in the partition."""
        return int(self.centers.shape[0])

    def component_vertices(self, index: int) -> np.ndarray:
        """Vertices of component ``index``."""
        return np.flatnonzero(self.labels == index)

    def component_sizes(self) -> np.ndarray:
        """Array of component sizes."""
        return np.bincount(self.labels, minlength=self.num_components)

    def tree_edges(self) -> np.ndarray:
        """Edge indices of the per-component BFS trees (the parent edges)."""
        return np.unique(self.parent_edge[self.parent_edge >= 0])


def _default_iterations(n: int) -> int:
    return max(1, int(math.ceil(2.0 * math.log2(max(n, 2)))))


def split_graph(
    graph: Graph,
    rho: int,
    seed: RngLike = None,
    *,
    cost: Optional[CostModel] = None,
    num_iterations: Optional[int] = None,
    sample_coefficient: float = 12.0,
    jitter_range: Optional[int] = None,
) -> Decomposition:
    """Algorithm 4.1: split a graph into components of strong radius ≤ ``rho``.

    Parameters
    ----------
    graph:
        Input graph; edge weights are ignored (hop-count distances).
    rho:
        Radius parameter; every output component has a center within hop
        distance ``rho`` of all its vertices *inside the component*.
    seed:
        RNG seed / generator.
    cost:
        Optional PRAM cost model.
    num_iterations:
        Number of iterations ``T``; defaults to ``ceil(2 log2 n)`` as in the
        paper.
    sample_coefficient:
        The constant in the center sample size
        ``sigma_t = coeff * n^(t/T - 1) * |V^(t)| * log2 n`` (the paper
        uses 12).
    jitter_range:
        The jitter range ``R``; defaults to the paper's ``rho / (2 log2 n)``.
        On practically sized graphs that default is a very small integer and
        the cut-probability bound ``O(log^2 n / R)`` of Lemma 4.7 is vacuous;
        passing e.g. ``rho // 2`` makes the measured cut fraction decay
        visibly like ``1 / rho`` (this is the setting used by experiment E2).

    Returns
    -------
    Decomposition

    Notes
    -----
    Guarantees (P1) and (P2) of the paper hold deterministically by
    construction: a vertex's BFS parent chain stays inside its component and
    has length at most the ball radius, so the *strong* radius never exceeds
    ``rho``.  (P3) — few edges cut — holds in expectation; use
    :func:`partition` for the validated multi-class version.
    """
    cost = cost or null_cost()
    rng = as_rng(seed)
    n = graph.n
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if n == 0:
        return Decomposition(
            labels=np.empty(0, dtype=np.int64),
            centers=np.empty(0, dtype=np.int64),
            iteration=np.empty(0, dtype=np.int64),
            parent=np.empty(0, dtype=np.int64),
            parent_edge=np.empty(0, dtype=np.int64),
            rho=rho,
        )

    T = num_iterations if num_iterations is not None else _default_iterations(n)
    log_n = math.log2(max(n, 2))
    # Jitter range R = rho / (2 log n), at least 1; per-iteration radius
    # r^(t) = (T - t + 1) * R truncated to rho so (P2) holds exactly.
    if jitter_range is not None:
        if not 1 <= jitter_range <= rho:
            raise ValueError("jitter_range must be in [1, rho]")
        R = int(jitter_range)
    else:
        R = max(1, int(round(rho / (2.0 * log_n))))

    # Per-vertex outputs inherit the graph's lean index dtype (component
    # indices and vertex/edge ids all fit it by construction).
    idt = graph.u.dtype if graph.u.dtype in (np.dtype(np.int32), np.dtype(np.int64)) else np.dtype(np.int64)
    labels = np.full(n, -1, dtype=idt)
    parent = np.full(n, -1, dtype=idt)
    parent_edge = np.full(n, -1, dtype=idt)
    centers_out = []
    iteration_out = []
    alive = np.ones(n, dtype=bool)

    for t in range(1, T + 1):
        alive_vertices = np.flatnonzero(alive)
        num_alive = int(alive_vertices.size)
        if num_alive == 0:
            break
        # Center sample size sigma_t (Algorithm 4.1, step 1).
        sigma = sample_coefficient * (n ** (t / T - 1.0)) * num_alive * log_n
        if t == T or sigma >= num_alive:
            centers = alive_vertices
        else:
            k = max(1, int(math.ceil(sigma)))
            charge_map(cost, num_alive)
            centers = rng.choice(alive_vertices, size=min(k, num_alive), replace=False)
        # Jitters delta_s ~ Uniform{0, ..., R} (step 2).
        delays = rng.integers(0, R + 1, size=centers.size)
        radius_t = min(rho, (T - t + 1) * R)

        growth = grow_balls(graph, centers, delays, radius_t, alive=alive, cost=cost)
        claimed = np.flatnonzero(growth.owner >= 0)
        if claimed.size == 0:
            continue
        # Components are the non-empty owner classes; record centers.
        owners = growth.owner[claimed]
        uniq_owners, comp_index = np.unique(owners, return_inverse=True)
        base = len(centers_out)
        labels[claimed] = base + comp_index
        parent[claimed] = growth.parent[claimed]
        parent_edge[claimed] = growth.parent_edge[claimed]
        centers_out.extend(uniq_owners.tolist())
        iteration_out.extend([t] * uniq_owners.size)
        alive[claimed] = False
        charge_filter(cost, num_alive)

    # Safety net: any vertex not covered (cannot happen when the loop ran to
    # T, since then every alive vertex is its own center) becomes a
    # singleton — assigned in one bulk scatter pass.
    leftover = np.flatnonzero(labels < 0)
    if leftover.size:
        base = len(centers_out)
        labels[leftover] = base + np.arange(leftover.size, dtype=np.int64)
        centers_out.extend(leftover.tolist())
        iteration_out.extend([T + 1] * leftover.size)
        charge_map(cost, int(leftover.size))

    return Decomposition(
        labels=labels,
        centers=np.asarray(centers_out, dtype=idt),
        iteration=np.asarray(iteration_out, dtype=np.int64),
        parent=parent,
        parent_edge=parent_edge,
        rho=rho,
        stats={"iterations": float(T), "jitter_range": float(R)},
    )


# --------------------------------------------------------------------------- #
# measurement helpers
# --------------------------------------------------------------------------- #
def cut_edge_mask(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Boolean mask of edges whose endpoints lie in different components."""
    labels = np.asarray(labels)
    return labels[graph.u] != labels[graph.v]


def cut_fraction_per_class(
    graph: Graph, labels: np.ndarray, edge_classes: np.ndarray
) -> Dict[int, float]:
    """Fraction of edges cut in each edge class.

    ``edge_classes`` assigns an integer class to every edge; the result maps
    class id to (cut edges in class) / (edges in class).
    """
    edge_classes = np.asarray(edge_classes)
    cut = cut_edge_mask(graph, labels)
    out: Dict[int, float] = {}
    for cls in np.unique(edge_classes):
        members = edge_classes == cls
        total = int(members.sum())
        out[int(cls)] = float(np.count_nonzero(cut & members)) / max(total, 1)
    return out


def decomposition_radii(graph: Graph, decomposition: Decomposition) -> np.ndarray:
    """Exact strong radius of every component (measured, for validation).

    One level-synchronous BFS from *all* centers simultaneously, restricted
    to same-component edges, replaces the per-component subgraph/dict
    relabeling loop: every round is a bulk gather over the combined
    frontier, and the radii fall out of a single scatter-max over the final
    distance array.
    """
    num_components = decomposition.num_components
    radii = np.zeros(num_components, dtype=np.int64)
    if num_components == 0:
        return radii
    labels = decomposition.labels
    n = graph.n
    indptr, neighbors, _ = graph.adjacency
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.asarray(decomposition.centers, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        positions, owner_idx = gather_ranges(indptr, frontier)
        if positions.size == 0:
            break
        nbrs = neighbors[positions]
        ok = (dist[nbrs] < 0) & (labels[nbrs] == labels[frontier[owner_idx]])
        new = np.unique(nbrs[ok])
        if new.size == 0:
            break
        level += 1
        dist[new] = level
        frontier = new
    if np.any(dist < 0):
        raise AssertionError("component is not internally connected")
    np.maximum.at(radii, labels, dist)
    return radii


# --------------------------------------------------------------------------- #
# Algorithm 4.2: the validated multi-class partition
# --------------------------------------------------------------------------- #
def partition(
    graph: Graph,
    rho: int,
    edge_classes: Optional[np.ndarray] = None,
    seed: RngLike = None,
    *,
    cost: Optional[CostModel] = None,
    c1: float = PAPER_C1,
    max_retries: int = 25,
    validate: bool = True,
    num_iterations: Optional[int] = None,
    sample_coefficient: float = 12.0,
    jitter_range: Optional[int] = None,
) -> Decomposition:
    """Algorithm 4.2 (``Partition``): decomposition with per-class cut bounds.

    Runs :func:`split_graph` treating all edge classes as one, then checks
    that every class ``j`` has at most ``|E_j| * c1 * k * log^3 n / rho``
    edges cut; if some class exceeds the bound, the decomposition is redrawn
    (Corollary 4.8 shows a constant success probability per attempt, so the
    expected number of retries is O(1)).

    Parameters
    ----------
    edge_classes:
        Integer class per edge; ``None`` means a single class.
    c1:
        Constant of Theorem 4.1(3); defaults to the paper's 272.  Smaller
        values make the validation step meaningful on practically sized
        graphs (the benchmarks use ``c1 = 1``).
    validate:
        When False, return the first decomposition without checking the
        bound.

    Returns
    -------
    Decomposition
        The accepted decomposition; ``stats["retries"]`` records how many
        redraws were needed and ``stats["cut_bound"]`` the per-class bound.
    """
    cost = cost or null_cost()
    rng = as_rng(seed)
    n = graph.n
    if edge_classes is None:
        edge_classes = np.zeros(graph.num_edges, dtype=np.int64)
    edge_classes = np.asarray(edge_classes)
    if edge_classes.shape[0] != graph.num_edges:
        raise ValueError("edge_classes must have one entry per edge")
    class_ids = np.unique(edge_classes)
    k = max(1, int(class_ids.size))
    log_n = math.log2(max(n, 2))
    bound = c1 * k * (log_n**3) / float(rho)

    last: Optional[Decomposition] = None
    for attempt in range(max_retries):
        decomp = split_graph(
            graph,
            rho,
            seed=rng,
            cost=cost,
            num_iterations=num_iterations,
            sample_coefficient=sample_coefficient,
            jitter_range=jitter_range,
        )
        last = decomp
        if not validate or graph.num_edges == 0:
            decomp.stats["retries"] = float(attempt)
            decomp.stats["cut_bound"] = bound
            return decomp
        fractions = cut_fraction_per_class(graph, decomp.labels, edge_classes)
        charge_reduce(cost, graph.num_edges)
        if all(frac <= bound for frac in fractions.values()):
            decomp.stats["retries"] = float(attempt)
            decomp.stats["cut_bound"] = bound
            decomp.stats["max_cut_fraction"] = max(fractions.values()) if fractions else 0.0
            return decomp
    assert last is not None
    last.stats["retries"] = float(max_retries)
    last.stats["cut_bound"] = bound
    last.stats["validation_failed"] = 1.0
    return last
