"""Preconditioner chain construction (Definition 6.3, Lemma 6.2, Section 6.3).

A chain ``<A_1 = A, B_1, A_2, ..., A_d>`` is built by alternating

* ``B_i = IncrementalSparsify(A_i)`` — keep a low-stretch subgraph of
  ``A_i`` plus a stretch-proportional sample of the remaining edges
  (:func:`repro.core.sparsify.incremental_sparsify` on top of
  :func:`repro.core.sparse_akpw.low_stretch_subgraph`), and
* ``A_{i+1} = GreedyElimination(B_i)`` — partial Cholesky on the degree-1 /
  degree-2 vertices that the sparsification exposes
  (:func:`repro.core.elimination.greedy_elimination`).

The chain is terminated once the current graph has at most ``bottom_size``
vertices — the paper's key observation for parallel depth is to stop at
roughly ``m^(1/3)`` and solve the bottom level exactly (Fact 6.4) rather
than recursing all the way down.  Fact 6.4 states that exact solve as a
dense factorization; here it is one grounded sparse LU
(:class:`~repro.linalg.direct.FactorizedLaplacian`), the same engine the
``direct`` solve method runs on the whole top-level Laplacian.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.config import ChainConfig
from repro.core.elimination import EliminationResult, greedy_elimination
from repro.core.sparse_akpw import SparseAKPWParameters, low_stretch_subgraph
from repro.core.transfer import TransferOperators, compile_transfers
from repro.core.sparsify import SparsifyResult, incremental_sparsify
from repro.graph.graph import Graph
from repro.graph.laplacian import graph_to_laplacian
from repro.graph.union_find import connected_components_arrays
from repro.linalg.direct import ComponentProjector, FactorizedLaplacian
from repro.pram.model import CostModel, log2ceil, null_cost
from repro.util.memprof import StageMemoryTracker
from repro.util.rng import RngLike, as_rng, derive_seed


@dataclass
class ChainLevel:
    """One level of the preconditioner chain.

    Attributes
    ----------
    graph:
        The level's Laplacian graph ``A_i``.
    laplacian:
        Cached CSR Laplacian of ``graph``.
    sparsifier:
        ``B_i`` (``None`` at the bottom level).
    elimination:
        The partial Cholesky taking ``B_i`` to ``A_{i+1}`` (``None`` at the
        bottom level).
    transfers:
        Compiled forward/backward solve-transfer operators for
        ``elimination``, precompiled at chain-construction (``factorize``)
        time so no solve ever pays the compilation or replays the op list
        (``None`` at the bottom level).
    kappa:
        Condition parameter used for this level (``1`` at the bottom).
    """

    graph: Graph
    laplacian: sp.csr_matrix
    sparsifier: Optional[SparsifyResult] = None
    elimination: Optional[EliminationResult] = None
    transfers: Optional[TransferOperators] = None
    kappa: float = 1.0

    @property
    def num_vertices(self) -> int:
        return self.graph.n

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


@dataclass
class PreconditionerChain:
    """The full chain ``<A_1, B_1, A_2, ..., A_d>`` plus bottom-level factorization.

    The bottom level is held as a :class:`~repro.linalg.direct.FactorizedLaplacian`
    (grounded sparse LU, factored once at construction); its
    :meth:`~repro.linalg.direct.FactorizedLaplacian.solve` applies the
    bottom Laplacian's pseudo-inverse, and its ``projector`` is the bottom
    level's null-space projector.
    """

    levels: List[ChainLevel]
    bottom_solver: FactorizedLaplacian
    #: Mostly-float diagnostics; ``index_dtype`` is the top graph's index
    #: dtype name and the ``mem_*`` keys are byte counts.
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """Number of levels ``d``."""
        return len(self.levels)

    def level_sizes(self) -> List[Dict[str, float]]:
        """Per-level summary (n_i, m_i, kappa_i, preconditioner size)."""
        out = []
        for i, lvl in enumerate(self.levels):
            row = {
                "level": i + 1,
                "n": lvl.num_vertices,
                "m": lvl.num_edges,
                "kappa": lvl.kappa,
            }
            if lvl.sparsifier is not None:
                row["precond_edges"] = lvl.sparsifier.num_edges
            out.append(row)
        return out


def default_bottom_size(num_edges: int, num_vertices: int = 0, minimum: int = 40) -> int:
    """Default chain-termination size.

    The paper terminates at ``~ m^(1/3)`` vertices, which is the right choice
    for the *depth* analysis (the bottom dense solve then costs
    ``O(m^(2/3))`` work per visit).  At the moderate problem sizes this
    reproduction runs in pure Python, a slightly larger bottom level (here
    additionally ``n / 6``, capped at 1500) keeps the chain short, which is
    what keeps the recursive W-cycle's multiplicative constant small in wall
    clock; the faithful ``m^(1/3)`` setting remains available by passing
    ``bottom_size`` explicitly and is exercised by the depth-scaling
    benchmark (experiment E8).
    """
    return max(
        minimum,
        int(round(num_edges ** (1.0 / 3.0))),
        min(1500, num_vertices // 6),
    )


def build_chain(
    graph: Graph,
    config: Optional[ChainConfig] = None,
    *,
    seed: RngLike = None,
    cost: Optional[CostModel] = None,
    memory_profile: bool = False,
) -> PreconditionerChain:
    """Build a preconditioner chain for the Laplacian of ``graph``.

    Parameters
    ----------
    graph:
        The Laplacian graph ``A_1`` (conductance weights).  It becomes the
        chain's top level as is — ``levels[0].graph is graph`` — so the
        caller and the chain share one top-level graph and Laplacian.
    config:
        A frozen :class:`~repro.core.config.ChainConfig` (``None`` selects
        the defaults): the per-level condition parameter ``kappa`` (uniform,
        as in the first-attempt analysis of Lemma 6.9), the termination
        size ``bottom_size``, the level cap ``max_levels`` and the tree-only
        ablation switch (experiment E11).  The low-stretch subgraph uses
        :meth:`SparseAKPWParameters.practical`'s defaults and the sampling
        uses :func:`incremental_sparsify`'s, without its ``log n`` factor.
    seed:
        RNG seed controlling every randomized stage.
    cost:
        Optional PRAM cost model charged with the construction work/depth.
    memory_profile:
        Record per-stage tracemalloc peaks and reset the kernel RSS
        high-water mark between stages (adds overhead; the always-on cheap
        RSS deltas are recorded regardless).  Deliberately a keyword, not a
        :class:`ChainConfig` field: profiling changes only ``chain.stats``,
        never the chain, so it must not split the chain-cache key.

    Returns
    -------
    PreconditionerChain
    """
    config = config if config is not None else ChainConfig()
    cost = cost or null_cost()
    rng = as_rng(seed)
    if graph.n == 0:
        raise ValueError("cannot build a chain for an empty graph")
    bottom_size = config.bottom_size
    if bottom_size is None:
        bottom_size = default_bottom_size(graph.num_edges, graph.n)
    mem = StageMemoryTracker(profile=memory_profile)

    levels: List[ChainLevel] = []
    timings = {
        "seconds_subgraph": 0.0,
        "seconds_sparsify": 0.0,
        "seconds_elimination": 0.0,
        "seconds_transfer": 0.0,
        "seconds_bottom": 0.0,
    }
    current = graph
    level_kappa = float(config.kappa)
    for _level_index in range(config.max_levels):
        with mem.stage("laplacian"):
            lap = graph_to_laplacian(current)
        is_last_slot = _level_index == config.max_levels - 1
        # The forest test compares edges against *non-isolated* vertices:
        # rake/compress never removes degree-0 vertices, so on graphs that
        # shed whole components (power-law inputs especially) ``n`` stays
        # inflated while the surviving edges concentrate in a dense cyclic
        # core whose LU fill-in explodes.  Counting only occupied vertices
        # keeps sparsifying that core; with no isolated vertices the test
        # is identical to the historical ``m <= max(n, 8)``.
        occupied = np.zeros(current.n, dtype=bool)
        occupied[current.u] = True
        occupied[current.v] = True
        num_live = int(np.count_nonzero(occupied))
        del occupied
        if is_last_slot or current.n <= bottom_size or current.num_edges <= max(num_live, 8):
            levels.append(ChainLevel(graph=current, laplacian=lap))
            break

        # Low-stretch subgraph is computed in the length metric (resistances
        # are reciprocals of conductances).
        t0 = time.perf_counter()
        with mem.stage("subgraph"):
            length_graph = current.reweighted(1.0 / current.w)
            params = SparseAKPWParameters.practical(current.n)
            subgraph = low_stretch_subgraph(
                length_graph, parameters=params, seed=derive_seed(rng), cost=cost
            )
        timings["seconds_subgraph"] += time.perf_counter() - t0
        kept_edges = subgraph.tree_edges if config.use_tree_only else subgraph.edge_indices
        # Sampling stretches are measured against the spanning-forest part
        # of the low-stretch subgraph: forest stretches upper-bound subgraph
        # stretches (oversampling only) and keep the measurement on the
        # vectorized rooted-forest LCA path instead of all-sources Dijkstra.
        t0 = time.perf_counter()
        with mem.stage("sparsify"):
            sparsifier = incremental_sparsify(
                current,
                kept_edges,
                level_kappa,
                seed=derive_seed(rng),
                cost=cost,
                use_log_factor=False,
                stretch_edges=subgraph.tree_edges,
            )
        timings["seconds_sparsify"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        with mem.stage("elimination"):
            elimination = greedy_elimination(sparsifier.graph, seed=derive_seed(rng), cost=cost)
        timings["seconds_elimination"] += time.perf_counter() - t0
        nxt = elimination.reduced_graph
        t0 = time.perf_counter()
        with mem.stage("transfer"):
            transfers = compile_transfers(elimination)
        timings["seconds_transfer"] += time.perf_counter() - t0
        levels.append(
            ChainLevel(
                graph=current,
                laplacian=lap,
                sparsifier=sparsifier,
                elimination=elimination,
                transfers=transfers,
                kappa=level_kappa,
            )
        )
        # Progress guard: if a level barely shrinks, sample more aggressively
        # on the next one (equivalent to increasing kappa, Lemma 6.2's knob).
        if nxt.num_edges > 0.85 * current.num_edges and nxt.n > bottom_size:
            level_kappa *= 2.0
        current = nxt

    bottom = levels[-1]
    t0 = time.perf_counter()
    with mem.stage("bottom"):
        _, bottom_labels = connected_components_arrays(bottom.graph.n, bottom.graph.u, bottom.graph.v)
        bottom_solver = FactorizedLaplacian(bottom.laplacian, ComponentProjector(bottom_labels))
    timings["seconds_bottom"] += time.perf_counter() - t0
    # Sparse factorization of the grounded SPD bottom system: work is
    # charged as the factor fill, depth as the elimination-tree height bound
    # O(log^2 n) (the sparse factor replaces Fact 6.4's dense n^3).
    cost.charge(
        work=float(max(bottom_solver.factor_nnz, bottom.num_vertices)),
        depth=log2ceil(bottom.num_vertices) ** 2,
    )

    stats = {
        "levels": float(len(levels)),
        "bottom_size": float(bottom.num_vertices),
        "bottom_target": float(bottom_size),
        "total_edges": float(sum(l.num_edges for l in levels)),
        "index_dtype": str(graph.u.dtype),
    }
    stats.update(timings)
    stats.update(mem.finish())
    return PreconditionerChain(levels=levels, bottom_solver=bottom_solver, stats=stats)
