"""The paper's primary contribution.

* :mod:`~repro.core.ball_growing` — delayed multi-source parallel BFS
  ("parallel ball growing" of Section 2, with the jitter mechanism of
  Section 4).
* :mod:`~repro.core.decomposition` — the parallel low-diameter decomposition
  (Algorithm 4.1 ``splitGraph`` and Algorithm 4.2 ``Partition``,
  Theorem 4.1).
* :mod:`~repro.core.akpw` — parallel AKPW low-stretch spanning trees
  (Algorithm 5.1, Theorem 5.1).
* :mod:`~repro.core.sparse_akpw` — low-stretch ultra-sparse subgraphs
  (SparseAKPW, Lemmas 5.5–5.8, Theorem 5.9).
* :mod:`~repro.core.stretch` — exact stretch measurement utilities.
* :mod:`~repro.core.sparsify` — incremental sparsification (Lemma 6.1/6.2).
* :mod:`~repro.core.elimination` — parallel greedy elimination
  (partial Cholesky on degree ≤ 2 vertices, Lemma 6.5), vectorized over
  CSR-style edge arrays with an array-form per-round schedule.
* :mod:`~repro.core.transfer` — compiles elimination schedules into sparse
  forward/backward solve-transfer operators (the solve hot path).
* :mod:`~repro.core.chain` — preconditioner chain construction
  (Definition 6.3, Section 6.3); precompiles per-level transfers.
* :mod:`~repro.core.chebyshev` — preconditioned Chebyshev iteration
  (Lemma 6.7).
* :mod:`~repro.core.config` — frozen ``ChainConfig`` / ``SolverConfig`` and
  the four solve methods (``pcg`` / ``chebyshev`` / ``jacobi`` / ``direct``).
* :mod:`~repro.core.operator` — the public ``factorize`` →
  ``LaplacianOperator.solve`` lifecycle (Theorem 1.1), with batched
  multi-RHS support.
* :mod:`~repro.core.chain_cache` — process-level cache of factorized
  operators keyed by graph fingerprint + config.
"""

from repro.core.ball_growing import grow_balls, BallGrowth
from repro.core.decomposition import (
    Decomposition,
    split_graph,
    partition,
    decomposition_radii,
    cut_edge_mask,
    cut_fraction_per_class,
)
from repro.core.akpw import akpw_spanning_tree, AKPWResult, AKPWParameters
from repro.core.sparse_akpw import (
    low_stretch_subgraph,
    sparse_akpw,
    LowStretchSubgraph,
    SparseAKPWParameters,
    well_spaced_split,
)
from repro.core.stretch import edge_stretches, total_stretch, average_stretch, tree_stretches
from repro.core.sparsify import incremental_sparsify, SparsifyResult
from repro.core.elimination import (
    greedy_elimination,
    EliminationResult,
    EliminationSchedule,
)
from repro.core.transfer import compile_transfers, TransferOperators
from repro.core.chain import build_chain, PreconditionerChain, ChainLevel
from repro.core.chebyshev import chebyshev_apply, estimate_extreme_eigenvalues
from repro.core.config import ChainConfig, SolverConfig
from repro.core.operator import factorize, LaplacianOperator, SolveReport
from repro.core.update import UpdateReport, update_operator
from repro.core.chain_cache import (
    chain_cache_stats,
    clear_chain_cache,
    invalidate_fingerprint,
    set_chain_cache_capacity,
    ChainCacheStats,
)

__all__ = [
    "grow_balls",
    "BallGrowth",
    "Decomposition",
    "split_graph",
    "partition",
    "decomposition_radii",
    "cut_edge_mask",
    "cut_fraction_per_class",
    "akpw_spanning_tree",
    "AKPWResult",
    "AKPWParameters",
    "low_stretch_subgraph",
    "sparse_akpw",
    "LowStretchSubgraph",
    "SparseAKPWParameters",
    "well_spaced_split",
    "edge_stretches",
    "total_stretch",
    "average_stretch",
    "tree_stretches",
    "incremental_sparsify",
    "SparsifyResult",
    "greedy_elimination",
    "EliminationResult",
    "EliminationSchedule",
    "compile_transfers",
    "TransferOperators",
    "build_chain",
    "PreconditionerChain",
    "ChainLevel",
    "chebyshev_apply",
    "estimate_extreme_eigenvalues",
    "ChainConfig",
    "SolverConfig",
    "factorize",
    "LaplacianOperator",
    "UpdateReport",
    "update_operator",
    "chain_cache_stats",
    "clear_chain_cache",
    "invalidate_fingerprint",
    "set_chain_cache_capacity",
    "ChainCacheStats",
    "SolveReport",
]
