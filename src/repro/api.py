"""Top-level convenience facade: ``repro.solve`` and friends.

``repro.solve(matrix, b)`` is the one-call entry point for applications that
do not want to manage the factorize-once / solve-many lifecycle themselves.
It resolves configuration defaults, consults the process-level chain cache
(so repeated calls against the same matrix pay the expensive setup phase
once per process), and returns the usual
:class:`~repro.core.operator.SolveReport`.

Libraries and hot loops should prefer the explicit lifecycle::

    op = repro.factorize(graph, ChainConfig(kappa=36.0), seed=0)
    report = op.solve(B)          # B may be (n,) or a batched (n, k)

which keeps the operator in hand and makes the amortization visible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.harmonic import harmonic_interpolation, harmonic_labels
from repro.apps.resistance import ResistanceOracle, effective_resistance_pairs
from repro.apps.spectral import fiedler_vector, spectral_embedding
from repro.core.chain_cache import (
    chain_cache_stats,
    clear_chain_cache,
    set_chain_cache_capacity,
)
from repro.core.config import ChainConfig, SolverConfig
from repro.core.operator import (
    LaplacianOperator,
    MatrixInput,
    SolveReport,
    factorize,
)
from repro.core.update import UpdateReport
from repro.graph.edits import EdgeEdits
from repro.serving import ServiceConfig, ServiceStats, SolverService
from repro.util.rng import RngLike

__all__ = [
    "solve",
    "factorize",
    "LaplacianOperator",
    "SolveReport",
    "EdgeEdits",
    "UpdateReport",
    "ChainConfig",
    "SolverConfig",
    "SolverService",
    "ServiceConfig",
    "ServiceStats",
    "chain_cache_stats",
    "clear_chain_cache",
    "set_chain_cache_capacity",
    "ResistanceOracle",
    "effective_resistance_pairs",
    "harmonic_interpolation",
    "harmonic_labels",
    "spectral_embedding",
    "fiedler_vector",
]


def solve(
    matrix: MatrixInput,
    b: np.ndarray,
    *,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    method: Optional[str] = None,
    chain: Optional[ChainConfig] = None,
    solver: Optional[SolverConfig] = None,
    seed: RngLike = None,
    use_cache: bool = True,
) -> SolveReport:
    """Solve ``matrix @ x = b`` with the paper's solver (Theorem 1.1).

    The report's ``work``/``depth`` price this solve alone, the same on a
    cache hit as on a miss.  The setup price lives on the operator: call
    :func:`~repro.core.operator.factorize` and read its ``setup_work`` /
    ``setup_depth``.

    Parameters
    ----------
    matrix:
        A :class:`~repro.graph.graph.Graph` (its Laplacian is solved), a
        graph Laplacian, or a general SDD matrix.
    b:
        Right-hand side(s): a vector ``(n,)`` or a batch ``(n, k)`` solved
        simultaneously against the shared factorization.
    tol, max_iterations, method:
        Per-call overrides of the :class:`SolverConfig` defaults.
    chain, solver:
        Frozen configuration objects (defaults when omitted).
    seed:
        RNG seed for the randomized setup phase.  Integer seeds make the
        factorization cacheable.
    use_cache:
        Consult the process-level chain cache (default on; integer seeds
        only — see :mod:`repro.core.chain_cache`).
    """
    # The chain cache keys only on the factorization-relevant SolverConfig
    # fields, so a hit may carry different tol/max_iterations defaults than
    # the requested config — resolve them here before solving.
    if solver is not None:
        tol = solver.tol if tol is None else tol
        max_iterations = solver.max_iterations if max_iterations is None else max_iterations
    operator = factorize(matrix, chain, solver, seed=seed, cache=use_cache)
    return operator.solve(b, tol=tol, max_iterations=max_iterations, method=method)
