"""Reproduction of Blelloch, Gupta, Koutis, Miller, Peng, Tangwongsan:
"Near Linear-Work Parallel SDD Solvers, Low-Diameter Decomposition, and
Low-Stretch Subgraphs" (SPAA 2011).

Public API highlights
---------------------
* :func:`repro.factorize` / :class:`repro.LaplacianOperator` — the
  factorize-once / solve-many solver lifecycle (Theorem 1.1): build the
  preconditioner chain once, then ``solve(b)`` any number of ``(n,)``
  vectors or batched ``(n, k)`` right-hand-side blocks against it.
* :func:`repro.solve` — one-call facade with a process-level chain cache.
* :class:`repro.SolverService` — the micro-batching serving layer
  (:mod:`repro.serving`): an asyncio front-end that coalesces concurrent
  single-RHS requests on the same fingerprinted graph into one batched
  solve under a bounded latency window; each registration owns its
  factorized operator.
* :class:`repro.ChainConfig` / :class:`repro.SolverConfig` — frozen
  configuration objects (chain construction vs. iteration strategy:
  ``pcg``, ``chebyshev``, and the ``jacobi`` / ``direct`` baselines).
* :class:`repro.graph.Graph` and :mod:`repro.graph.generators` — graph
  substrate.
* :func:`repro.core.partition` / :func:`repro.core.split_graph` — parallel
  low-diameter decomposition (Theorem 4.1).
* :func:`repro.core.akpw_spanning_tree` — low-stretch spanning trees
  (Theorem 5.1).
* :func:`repro.core.low_stretch_subgraph` — low-stretch ultra-sparse
  subgraphs (Theorem 5.9).
* :mod:`repro.apps` — the workload suite built on the solver: spectral
  sparsification, a batched effective-resistance oracle
  (:class:`repro.ResistanceOracle`), harmonic interpolation /
  semi-supervised labeling (:func:`repro.harmonic_interpolation`),
  spectral embeddings (:func:`repro.spectral_embedding`), approximate
  max-flow, and decomposition spanners (all batched multi-RHS consumers).
* :mod:`repro.testing` — the dense reference oracles and the seeded
  random-graph fuzz corpus every workload is validated against.
* :class:`repro.pram.CostModel` — PRAM work/depth accounting used by the
  benchmarks.

Quickstart
----------
>>> import numpy as np, repro
>>> from repro.graph import generators
>>> g = generators.grid_2d(20, 20)
>>> op = repro.factorize(g, seed=0)
>>> B = np.random.default_rng(0).standard_normal((g.n, 4))
>>> B -= B.mean(axis=0)
>>> report = op.solve(B, tol=1e-8)     # one batched call, four solves
>>> bool(report.converged)
True
"""

from repro.graph.graph import Graph
from repro.graph.edits import EdgeEdits
from repro.core.decomposition import split_graph, partition, Decomposition
from repro.core.akpw import akpw_spanning_tree, AKPWParameters
from repro.core.sparse_akpw import low_stretch_subgraph, sparse_akpw, SparseAKPWParameters
from repro.core.config import ChainConfig, SolverConfig
from repro.core.operator import factorize, LaplacianOperator, SolveReport
from repro.core.update import UpdateReport
from repro.core.chain_cache import (
    chain_cache_stats,
    clear_chain_cache,
    set_chain_cache_capacity,
)
from repro.api import solve
from repro.serving import ServiceConfig, ServiceStats, SolverService
from repro.apps.harmonic import harmonic_interpolation, harmonic_labels
from repro.apps.resistance import ResistanceOracle, effective_resistance_pairs
from repro.apps.spectral import fiedler_vector, spectral_embedding
from repro.pram.model import CostModel

__version__ = "2.0.0"

__all__ = [
    "Graph",
    "EdgeEdits",
    "split_graph",
    "partition",
    "Decomposition",
    "akpw_spanning_tree",
    "AKPWParameters",
    "low_stretch_subgraph",
    "sparse_akpw",
    "SparseAKPWParameters",
    "factorize",
    "solve",
    "LaplacianOperator",
    "ChainConfig",
    "SolverConfig",
    "SolveReport",
    "UpdateReport",
    "chain_cache_stats",
    "clear_chain_cache",
    "set_chain_cache_capacity",
    "SolverService",
    "ServiceConfig",
    "ServiceStats",
    "ResistanceOracle",
    "effective_resistance_pairs",
    "harmonic_interpolation",
    "harmonic_labels",
    "spectral_embedding",
    "fiedler_vector",
    "CostModel",
    "__version__",
]
