"""Parallel AKPW low-stretch spanning trees (Algorithm 5.1, Theorem 5.1).

The algorithm buckets edges into geometric weight classes, and repeatedly

1. partitions the graph spanned by the first ``j`` classes into low-diameter
   components using :func:`repro.core.decomposition.partition`,
2. adds a BFS tree of each component to the output tree, and
3. contracts every component to a super-vertex,

so that across iterations each weight class loses a constant (``1/y``)
fraction of its surviving edges, which is what bounds the total stretch.

Parameters: the paper's choices (``y = 2^sqrt(6 log n log log n)``,
``z = 4 c1 y tau log^3 n``) give the asymptotic guarantee but are enormous at
practical sizes — with them the first partition swallows the entire graph and
the output degenerates to a BFS tree.  :meth:`AKPWParameters.practical`
therefore scales the same structure down (documented constants, same
formulas without the polylog terms); :meth:`AKPWParameters.paper` is also
available and is exercised by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.decomposition import partition
from repro.graph.contraction import contract_vertices
from repro.graph.graph import Graph
from repro.pram.model import CostModel, null_cost
from repro.pram.primitives import charge_filter, charge_semisort
from repro.util.rng import RngLike, as_rng


@dataclass
class AKPWParameters:
    """Parameter bundle for :func:`akpw_spanning_tree`.

    Attributes
    ----------
    y:
        Target factor by which each weight class shrinks per iteration.
    z:
        Weight-class base; class ``i`` holds edges with normalized weight in
        ``[z^(i-1), z^i)``.
    rho:
        Hop-radius passed to the partition step (the paper uses ``z / 4``).
    jitter_fraction:
        Jitter range for the partition as a fraction of ``rho`` (``None``
        uses the paper's ``rho / (2 log n)``).
    sample_coefficient:
        Center-sample constant forwarded to the partition.
    validate_partition:
        Whether to run the Partition validation loop (Algorithm 4.2) with
        constant ``c1``.
    c1:
        Constant used in the partition validation bound.
    """

    y: float
    z: float
    rho: int
    jitter_fraction: Optional[float] = 0.5
    sample_coefficient: float = 1.0
    validate_partition: bool = False
    c1: float = 272.0
    max_iterations: Optional[int] = None

    @classmethod
    def paper(cls, n: int, c1: float = 272.0) -> "AKPWParameters":
        """The parameter setting of Algorithm 5.1 (Theorem 5.1)."""
        n = max(n, 4)
        log_n = math.log2(n)
        loglog_n = math.log2(max(log_n, 2.0))
        y = 2.0 ** math.sqrt(6.0 * log_n * loglog_n)
        tau = math.ceil(3.0 * log_n / math.log2(y))
        z = 4.0 * c1 * y * tau * log_n**3
        return cls(
            y=y,
            z=z,
            rho=max(2, int(z / 4)),
            jitter_fraction=None,
            sample_coefficient=12.0,
            validate_partition=True,
            c1=c1,
        )

    @classmethod
    def practical(cls, n: int, y: Optional[float] = None) -> "AKPWParameters":
        """Scaled-down parameters for practically sized graphs.

        Keeps the paper's structure (``z = Theta(y)``, partition radius
        ``z / 4``) but drops the polylogarithmic safety factors, which is
        what every practical implementation of AKPW-style constructions
        does.  The stretch guarantee is then verified empirically
        (experiment E4) instead of being implied by the worst-case proof.
        """
        n = max(n, 4)
        if y is None:
            y = max(3.0, 2.0 ** math.sqrt(math.log2(n)))
        z = max(8.0, 8.0 * y)
        return cls(
            y=float(y),
            z=float(z),
            rho=max(2, int(round(z / 4.0))),
            jitter_fraction=0.5,
            sample_coefficient=1.0,
            validate_partition=False,
            c1=1.0,
        )


@dataclass
class AKPWResult:
    """Output of :func:`akpw_spanning_tree`.

    Attributes
    ----------
    tree_edges:
        Indices (into the input graph) of the spanning forest edges.
    num_iterations:
        Number of partition/contract rounds performed.
    parameters:
        The parameter bundle actually used.
    stats:
        Per-run diagnostics (edges per weight class, surviving counts, ...).
    """

    tree_edges: np.ndarray
    num_iterations: int
    parameters: AKPWParameters
    stats: Dict[str, float] = field(default_factory=dict)

    def tree(self, graph: Graph) -> Graph:
        """The spanning forest as a standalone graph on the same vertex set."""
        return graph.edge_subgraph(self.tree_edges)


def akpw_spanning_tree(
    graph: Graph,
    parameters: Optional[AKPWParameters] = None,
    seed: RngLike = None,
    *,
    cost: Optional[CostModel] = None,
) -> AKPWResult:
    """Algorithm 5.1: a low-stretch spanning forest of ``graph``.

    Parameters
    ----------
    graph:
        Weighted input graph.  Works on disconnected graphs (produces a
        spanning forest).
    parameters:
        :class:`AKPWParameters`; defaults to
        ``AKPWParameters.practical(graph.n)``.
    seed, cost:
        RNG seed and optional PRAM cost model.

    Returns
    -------
    AKPWResult
        ``tree_edges`` always form a spanning forest: the per-component BFS
        trees added in each iteration connect exactly the vertex sets that
        are contracted, so connectivity of the contracted graph mirrors
        connectivity of the original graph throughout.
    """
    cost = cost or null_cost()
    rng = as_rng(seed)
    params = parameters or AKPWParameters.practical(graph.n)
    n = graph.n
    m = graph.num_edges
    if m == 0:
        return AKPWResult(np.empty(0, dtype=np.int64), 0, params)

    # Step i + iii: normalize weights and bucket edges into classes >= 1
    # (a semisort of the edge keys: O(m) work, O(log m) depth).
    edge_class = graph.weight_buckets(params.z)
    max_class = int(edge_class.max(initial=1))
    charge_semisort(cost, m)

    # State carried across iterations: the contracted multigraph, the map
    # from its edges back to original edge ids, and their classes.
    current = Graph(n, graph.u.copy(), graph.v.copy(), graph.w.copy())
    orig_ids = np.arange(m, dtype=np.int64)
    tree_edges: List[np.ndarray] = []

    max_iter = params.max_iterations
    if max_iter is None:
        max_iter = max_class + int(math.ceil(math.log(max(n, 2)) / math.log(max(params.y, 2.0)))) + 4

    jitter = None
    iterations = 0
    for j in range(1, max_iter + 1):
        if current.n <= 1 or current.num_edges == 0:
            break
        active_mask = edge_class[orig_ids] <= j
        if not np.any(active_mask):
            continue
        iterations += 1
        active_idx = np.flatnonzero(active_mask)
        work_graph = current.edge_subgraph(active_idx)
        charge_filter(cost, current.num_edges)

        if params.jitter_fraction is not None:
            jitter = max(1, int(params.jitter_fraction * params.rho))
        decomp = partition(
            work_graph,
            rho=params.rho,
            edge_classes=edge_class[orig_ids[active_idx]],
            seed=rng,
            cost=cost,
            c1=params.c1,
            validate=params.validate_partition,
            sample_coefficient=params.sample_coefficient,
            jitter_range=jitter,
        )
        # Step iv.2: the BFS trees of the components are exactly the parent
        # edges recorded by the decomposition (indices into work_graph).
        local_tree = decomp.tree_edges()
        if local_tree.size:
            tree_edges.append(orig_ids[active_idx[local_tree]])
        # Step iv.3: contract the components; non-active edges keep their
        # endpoints remapped as well.
        contracted, surviving, _ = contract_vertices(current, decomp.labels, cost=cost)
        current = contracted
        orig_ids = orig_ids[surviving]
        if j >= max_class and current.num_edges == 0:
            break

    # Safety net: if the iteration budget ran out before the graph was fully
    # contracted (pathological randomness), finish with a spanning forest of
    # the remaining contracted multigraph so the output always spans.
    if current.num_edges > 0:
        from repro.graph.mst import minimum_spanning_tree_edges

        leftover = minimum_spanning_tree_edges(current, cost=cost)
        if leftover.size:
            tree_edges.append(orig_ids[leftover])

    result_edges = (
        np.unique(np.concatenate(tree_edges)) if tree_edges else np.empty(0, dtype=np.int64)
    )
    stats = {
        "max_class": float(max_class),
        "supervertices_left": float(current.n),
        "edges_left": float(current.num_edges),
    }
    return AKPWResult(result_edges, iterations, params, stats)
