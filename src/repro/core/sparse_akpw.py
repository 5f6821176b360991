"""Low-stretch ultra-sparse subgraphs (Section 5.2, Theorem 5.9).

``SparseAKPW`` (Lemma 5.5) modifies the AKPW driver in three ways:

1. the per-iteration partition is called with at most ``lambda + 1`` edge
   classes — the ``lambda`` most recent weight classes individually plus one
   "generic bucket" holding everything older;
2. the reduction factor ``y`` is only polylogarithmic (it is derived from
   the quality parameter ``beta``), so each class shrinks geometrically but
   modestly per iteration; and
3. the edges of class ``i`` still surviving when iteration ``i + lambda``
   starts are *added to the output subgraph* (they will have stretch 1), so
   the output is a spanning tree plus ``~ m / y^lambda`` extra edges.

``well_spaced_split`` implements Lemma 5.7 — setting aside a ``theta``
fraction of the edges so that the remaining weight classes are
"well-spaced", which is what lets the paper break the iteration dependence
chain (Lemma 5.8) and obtain polylogarithmic depth independent of the weight
spread.  In this reproduction the set-aside edges are handled exactly as in
the paper (they are returned to the output, Fact 5.6); the *depth* benefit of
running the well-spaced segments concurrently is accounted in the cost model
by charging the maximum segment depth rather than the sum (see
``LowStretchSubgraph.stats['depth_max_segment']``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.decomposition import partition
from repro.graph.contraction import contract_vertices
from repro.graph.graph import Graph
from repro.pram.model import CostModel, null_cost
from repro.pram.primitives import charge_filter, charge_semisort
from repro.util.rng import RngLike, as_rng


@dataclass
class SparseAKPWParameters:
    """Parameter bundle for :func:`sparse_akpw` / :func:`low_stretch_subgraph`.

    Attributes
    ----------
    lam:
        The parameter ``lambda``: number of individually tracked recent
        weight classes; surviving edges are emitted to the output after
        ``lambda`` iterations.
    beta:
        Quality parameter; larger ``beta`` means fewer extra edges (the
        paper: ``|E(G_hat)| <= n - 1 + m (c log^3 n / beta)^lambda``) at the
        cost of a ``beta^2`` factor in the stretch bound.
    y, z, rho:
        Derived reduction factor, weight-class base, and partition radius.
    theta:
        Fraction of edges that :func:`well_spaced_split` may set aside.
    """

    lam: int
    beta: float
    y: float
    z: float
    rho: int
    theta: float
    jitter_fraction: Optional[float] = 0.5
    sample_coefficient: float = 1.0
    validate_partition: bool = False
    c1: float = 272.0
    max_iterations: Optional[int] = None

    @classmethod
    def paper(cls, n: int, lam: int = 2, beta: Optional[float] = None, c1: float = 272.0) -> "SparseAKPWParameters":
        """The parameter setting of Lemma 5.5 / Theorem 5.9."""
        n = max(n, 4)
        log_n = math.log2(n)
        c2 = 2.0 * (4.0 * c1 * (lam + 1)) ** (0.5 * (lam - 1))
        if beta is None:
            beta = c2 * log_n**3
        y = (1.0 / c2) * beta / log_n**3
        z = 4.0 * c1 * y * (lam + 1) * log_n**3
        theta = (log_n**3 / beta) ** lam
        return cls(
            lam=lam,
            beta=float(beta),
            y=max(float(y), 1.5),
            z=max(float(z), 8.0),
            rho=max(2, int(z / 4)),
            theta=min(max(theta, 0.0), 0.5),
            jitter_fraction=None,
            sample_coefficient=12.0,
            validate_partition=True,
            c1=c1,
        )

    @classmethod
    def practical(cls, n: int, lam: int = 2, beta: float = 6.0) -> "SparseAKPWParameters":
        """Scaled-down parameters: ``y = beta``, ``z = 8 y``, radius ``z/4``.

        The polylogarithmic safety factors of the worst-case proof are
        dropped; experiment E5 verifies the edge-count / stretch trade-off
        empirically for these settings.
        """
        n = max(n, 4)
        y = max(2.0, float(beta))
        z = 8.0 * y
        return cls(
            lam=int(lam),
            beta=float(beta),
            y=y,
            z=z,
            rho=max(2, int(round(z / 4.0))),
            theta=min(0.25, 1.0 / (beta**lam)),
            jitter_fraction=0.5,
            sample_coefficient=1.0,
            validate_partition=False,
            c1=1.0,
        )


@dataclass
class LowStretchSubgraph:
    """Output of :func:`sparse_akpw` / :func:`low_stretch_subgraph`.

    Attributes
    ----------
    edge_indices:
        Indices (into the input graph) of all subgraph edges.
    tree_edges:
        The spanning-forest part.
    extra_edges:
        The non-tree part (surviving-class edges plus any set-aside edges).
    parameters:
        Parameter bundle used.
    stats:
        Diagnostics: iteration count, per-phase counts, cost summaries.
    """

    edge_indices: np.ndarray
    tree_edges: np.ndarray
    extra_edges: np.ndarray
    parameters: SparseAKPWParameters
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        """Number of edges in the subgraph."""
        return int(self.edge_indices.shape[0])

    def subgraph(self, graph: Graph) -> Graph:
        """The subgraph as a standalone :class:`Graph` on the same vertices."""
        return graph.edge_subgraph(self.edge_indices)


def well_spaced_split(
    graph: Graph,
    z: float,
    tau: int,
    theta: float,
) -> Tuple[np.ndarray, List[int]]:
    """Lemma 5.7: set aside few edges so the weight classes are well-spaced.

    Groups the geometric weight classes (base ``z``) into consecutive runs of
    ``ceil(tau / theta)`` classes; inside each group the ``tau`` consecutive
    classes with the fewest edges are set aside.  Returns a boolean mask of
    the set-aside edges and the list of "special" classes (the first class
    after each emptied range), at which iteration chains may restart.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if not 0 < theta <= 1:
        raise ValueError("theta must be in (0, 1]")
    m = graph.num_edges
    removed = np.zeros(m, dtype=bool)
    specials: List[int] = []
    if m == 0:
        return removed, specials
    classes = graph.weight_buckets(z)
    max_class = int(classes.max(initial=1))
    group_size = max(int(math.ceil(tau / theta)), tau + 1)
    counts = np.bincount(classes, minlength=max_class + 2)
    # Sliding-window sums over the class histogram via one prefix-sum pass:
    # window_sums[c] = edges in classes [c, c + tau).
    prefix = np.concatenate([[0], np.cumsum(counts)])
    window_sums = prefix[tau:] - prefix[:-tau]

    for group_start in range(1, max_class + 1, group_size):
        group_end = min(group_start + group_size - 1, max_class)
        if group_end - group_start + 1 <= tau:
            continue
        group_total = int(prefix[group_end + 1] - prefix[group_start])
        # Window of tau consecutive classes with the fewest edges, found by
        # an argmin over the precomputed sliding sums (first minimum wins,
        # matching the sequential scan this replaces).
        lo_candidates = window_sums[group_start : group_end - tau + 2]
        if lo_candidates.size == 0:
            continue
        best_start = group_start + int(np.argmin(lo_candidates))
        best_count = int(lo_candidates[best_start - group_start])
        if group_total > 0 and best_count > theta * group_total:
            # An averaging argument guarantees this cannot happen when the
            # group has >= tau/theta classes; guard anyway.
            continue
        window_mask = (classes >= best_start) & (classes < best_start + tau)
        removed |= window_mask
        nxt = best_start + tau
        if nxt <= max_class:
            specials.append(int(nxt))
    return removed, specials


def sparse_akpw(
    graph: Graph,
    parameters: Optional[SparseAKPWParameters] = None,
    seed: RngLike = None,
    *,
    cost: Optional[CostModel] = None,
) -> LowStretchSubgraph:
    """Lemma 5.5: the SparseAKPW ultra-sparse low-stretch subgraph.

    Runs the AKPW driver with at most ``lambda + 1`` edge classes per
    partition call and emits the edges of class ``i`` that survive until
    iteration ``i + lambda`` into the output (in addition to the spanning
    forest).
    """
    cost = cost or null_cost()
    rng = as_rng(seed)
    params = parameters or SparseAKPWParameters.practical(graph.n)
    n, m = graph.n, graph.num_edges
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return LowStretchSubgraph(empty, empty, empty, params)

    edge_class = graph.weight_buckets(params.z)
    max_class = int(edge_class.max(initial=1))
    # Bucket grouping is a semisort of the edge keys (O(m) work, log depth).
    charge_semisort(cost, m)

    # The driver never mutates edge arrays in place — contraction and
    # subgraph extraction always build fresh graphs — so the input graph is
    # used directly instead of paying a defensive three-array copy.
    current = graph
    orig_ids = np.arange(m, dtype=graph.u.dtype)
    tree_edges: List[np.ndarray] = []
    extra_edges: List[np.ndarray] = []
    already_emitted = np.zeros(m, dtype=bool)

    max_iter = params.max_iterations
    if max_iter is None:
        max_iter = (
            max_class
            + params.lam
            + int(math.ceil(math.log(max(n, 2)) / math.log(max(params.y, 2.0))))
            + 4
        )
    jitter = None
    if params.jitter_fraction is not None:
        jitter = max(1, int(params.jitter_fraction * params.rho))

    iterations = 0
    for j in range(1, max_iter + 1):
        if current.n <= 1 or current.num_edges == 0:
            break
        classes_now = edge_class[orig_ids]
        # Modification (3): edges of class j - lam that survived to the start
        # of iteration j are emitted to the output (their stretch will be 1).
        emit_class = j - params.lam
        if emit_class >= 1:
            emit_mask = (classes_now == emit_class) & (~already_emitted[orig_ids])
            if np.any(emit_mask):
                emitted = orig_ids[emit_mask]
                extra_edges.append(emitted)
                already_emitted[emitted] = True
                charge_filter(cost, current.num_edges)

        active_mask = classes_now <= j
        if not np.any(active_mask):
            continue
        iterations += 1
        active_idx = np.flatnonzero(active_mask)
        work_graph = current.edge_subgraph(active_idx)
        charge_filter(cost, current.num_edges)

        # Modification (2): at most lam + 1 classes — recent classes keep
        # their identity, older ones share the generic bucket 0.
        active_classes = classes_now[active_idx]
        partition_classes = np.where(active_classes >= j - params.lam + 1, active_classes, 0)

        decomp = partition(
            work_graph,
            rho=params.rho,
            edge_classes=partition_classes,
            seed=rng,
            cost=cost,
            c1=params.c1,
            validate=params.validate_partition,
            sample_coefficient=params.sample_coefficient,
            jitter_range=jitter,
        )
        local_tree = decomp.tree_edges()
        if local_tree.size:
            tree_edges.append(orig_ids[active_idx[local_tree]])
        contracted, surviving, _ = contract_vertices(current, decomp.labels, cost=cost)
        current = contracted
        orig_ids = orig_ids[surviving]

    # Spanning safety net, as in akpw_spanning_tree.
    if current.num_edges > 0:
        from repro.graph.mst import minimum_spanning_tree_edges

        leftover = minimum_spanning_tree_edges(current, cost=cost)
        if leftover.size:
            tree_edges.append(orig_ids[leftover])

    tree_arr = (
        np.unique(np.concatenate(tree_edges)) if tree_edges else np.empty(0, dtype=orig_ids.dtype)
    )
    extra_arr = (
        np.unique(np.concatenate(extra_edges)) if extra_edges else np.empty(0, dtype=orig_ids.dtype)
    )
    extra_arr = np.setdiff1d(extra_arr, tree_arr, assume_unique=True)
    all_edges = np.union1d(tree_arr, extra_arr)
    stats = {
        "iterations": float(iterations),
        "max_class": float(max_class),
        "tree_edges": float(tree_arr.size),
        "extra_edges": float(extra_arr.size),
    }
    return LowStretchSubgraph(all_edges, tree_arr, extra_arr, params, stats)


def low_stretch_subgraph(
    graph: Graph,
    lam: int = 2,
    beta: float = 6.0,
    parameters: Optional[SparseAKPWParameters] = None,
    seed: RngLike = None,
    *,
    cost: Optional[CostModel] = None,
) -> LowStretchSubgraph:
    """Theorem 5.9 (``LSSubgraph``): spread-independent low-stretch subgraph.

    Applies :func:`well_spaced_split` (Lemma 5.7) to set aside a ``theta``
    fraction of edges, runs :func:`sparse_akpw` on the remaining graph, and
    returns the union (Fact 5.6: the set-aside edges rejoin the output with
    stretch 1).

    Parameters
    ----------
    lam, beta:
        Quality knobs (see :class:`SparseAKPWParameters`); ignored when an
        explicit ``parameters`` bundle is passed.
    """
    cost = cost or null_cost()
    rng = as_rng(seed)
    params = parameters or SparseAKPWParameters.practical(graph.n, lam=lam, beta=beta)
    m = graph.num_edges
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return LowStretchSubgraph(empty, empty, empty, params)

    tau = max(1, int(math.ceil(3.0 * math.log2(max(graph.n, 2)) / math.log2(max(params.y, 2.0)))))
    removed_mask, specials = well_spaced_split(graph, params.z, tau, params.theta)
    kept_idx = np.flatnonzero(~removed_mask).astype(graph.u.dtype, copy=False)
    removed_idx = np.flatnonzero(removed_mask).astype(graph.u.dtype, copy=False)
    charge_filter(cost, m)

    core_cost = CostModel(enabled=cost.enabled)
    kept_graph = graph.edge_subgraph(kept_idx)
    inner = sparse_akpw(kept_graph, parameters=params, seed=rng, cost=core_cost)
    cost.sequential(core_cost)

    tree_arr = kept_idx[inner.tree_edges] if inner.tree_edges.size else np.empty(0, dtype=np.int64)
    extra_from_inner = (
        kept_idx[inner.extra_edges] if inner.extra_edges.size else np.empty(0, dtype=np.int64)
    )
    extra_arr = np.union1d(extra_from_inner, removed_idx)
    extra_arr = np.setdiff1d(extra_arr, tree_arr, assume_unique=False)
    all_edges = np.union1d(tree_arr, extra_arr)

    stats = dict(inner.stats)
    stats.update(
        {
            "set_aside_edges": float(removed_idx.size),
            "special_classes": float(len(specials)),
            "theta": params.theta,
            # Depth if the well-spaced segments ran concurrently (Lemma 5.8):
            # segments are bounded by gamma = 4 tau / theta classes, so the
            # concurrent depth is at most a (num segments) factor smaller.
            "depth_sequential": core_cost.depth,
            "depth_max_segment": core_cost.depth / max(1, len(specials) + 1),
        }
    )
    return LowStretchSubgraph(all_edges, tree_arr, extra_arr, params, stats)
