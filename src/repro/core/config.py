"""Frozen configuration objects for the factorize-once / solve-many API.

The solver lifecycle (:func:`repro.core.operator.factorize` followed by
:meth:`repro.core.operator.LaplacianOperator.solve`) is parameterized by two
immutable dataclasses instead of the historical 13-keyword constructor:

* :class:`ChainConfig` — everything that shapes the preconditioner chain
  (Definition 6.3): condition parameter, low-stretch subgraph knobs,
  termination size, sampling ablations.  Two factorizations with equal
  ``ChainConfig`` (and equal graph + seed) produce identical chains, which is
  what makes the process-level chain cache sound.
* :class:`SolverConfig` — everything that shapes an individual solve: the
  iteration method (one of :data:`SOLVE_METHODS`), per-level inner
  iteration budget, and default tolerance/iteration caps.

Both classes are hashable and validated eagerly, so configuration errors
surface at construction time rather than deep inside a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.util.dtypes import INDEX_DTYPE_NAMES, VALUE_DTYPE_NAMES

#: The solve methods: ``"pcg"`` and ``"chebyshev"`` run outer CG
#: preconditioned by the chain (inner CG or inner Chebyshev, Lemma 6.7);
#: ``"jacobi"`` (diagonal-preconditioned CG) and ``"direct"`` (one exact
#: solve with a grounded sparse LU of the whole top-level Laplacian, the
#: :class:`~repro.linalg.direct.FactorizedLaplacian` the chain uses at its
#: bottom) are the :mod:`repro.linalg` baselines.
SOLVE_METHODS = ("pcg", "chebyshev", "jacobi", "direct")


def check_method(method: str) -> str:
    """Return ``method`` if it names one of :data:`SOLVE_METHODS`, else raise."""
    if method not in SOLVE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {', '.join(SOLVE_METHODS)}"
        )
    return method


def check_tol(tol: float) -> float:
    """Return ``tol`` if it is a finite positive residual target, else raise.

    ``0`` would stall in the stagnation break, and ``inf`` would stop at
    the first residual check with ``x = 0``, reported as converged.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite (got {tol})")
    return tol


@dataclass(frozen=True)
class ChainConfig:
    """Immutable parameters of preconditioner-chain construction.

    Attributes
    ----------
    kappa:
        Per-level condition parameter ``kappa_i`` (Lemma 6.9's uniform
        first-attempt setting).  Roughly ``sqrt(kappa)`` inner iterations are
        spent per level at solve time; larger values shrink the next level
        more aggressively.
    lam, beta:
        Low-stretch subgraph parameters (Theorem 5.9) used inside the
        incremental sparsification step.
    bottom_size:
        Chain termination size; ``None`` selects the practical default of
        :func:`repro.core.chain.default_bottom_size` (the faithful
        ``m^(1/3)`` remains available by passing it explicitly).
    max_levels:
        Hard cap on the number of chain levels.
    oversample, use_log_factor, reweight:
        Sampling knobs forwarded to
        :func:`repro.core.sparsify.incremental_sparsify`.
    use_tree_only:
        Ablation switch (experiment E11): keep only the spanning-tree part of
        the low-stretch construction.
    index_dtype:
        Index dtype of every edge/vertex array the chain build materializes:
        ``"int32"`` (default — halves index memory; factorize raises
        :class:`~repro.util.dtypes.IndexOverflowError` if the graph exceeds
        int32 capacity, i.e. ``max(n, 2m + 2) > 2**31 - 1``), ``"int64"``,
        or ``"auto"`` (smallest dtype that fits, upcasting as needed).
        Index dtypes never change float arithmetic: solves are bit-identical
        across ``int32``/``int64``/``auto``.
    value_dtype:
        Dtype of the chain's edge weights: ``"float64"`` (default,
        bit-identical to historical behaviour) or ``"float32"`` (halves
        weight memory; per-level Laplacians and the solve itself still
        accumulate in float64, but chain weights are rounded — solutions
        differ at single-precision level, so only use it when ~1e-7 relative
        perturbation of the preconditioner is acceptable).
    update_rebuild_fraction:
        Damage threshold of :meth:`~repro.core.operator.LaplacianOperator.update`:
        the incremental path patches the factorization as long as the
        *accumulated* fraction of chain-consumed edges touched by edit
        batches (plus inserted edges) stays at or below this value, and
        falls back to a full, bit-identical ``factorize()`` beyond it.
        ``0.0`` disables patching (every non-empty edit batch rebuilds);
        values above ``1.0`` effectively never trigger the damage rebuild
        (component merges still force one — see :mod:`repro.core.update`).
    """

    kappa: float = 25.0
    lam: int = 2
    beta: float = 6.0
    bottom_size: Optional[int] = None
    max_levels: int = 4
    oversample: float = 1.0
    use_log_factor: bool = False
    reweight: bool = False
    use_tree_only: bool = False
    index_dtype: str = "int32"
    value_dtype: str = "float64"
    update_rebuild_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not self.kappa > 1.0:
            raise ValueError(f"kappa must be > 1 (got {self.kappa})")
        if self.index_dtype not in INDEX_DTYPE_NAMES:
            raise ValueError(
                f"unknown index_dtype {self.index_dtype!r}; "
                f"expected one of {INDEX_DTYPE_NAMES}"
            )
        if self.value_dtype not in VALUE_DTYPE_NAMES:
            raise ValueError(
                f"unknown value_dtype {self.value_dtype!r}; "
                f"expected one of {VALUE_DTYPE_NAMES}"
            )
        if int(self.lam) < 1:
            raise ValueError(f"lam must be a positive integer (got {self.lam})")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive (got {self.beta})")
        if self.bottom_size is not None and int(self.bottom_size) < 1:
            raise ValueError(f"bottom_size must be >= 1 or None (got {self.bottom_size})")
        if int(self.max_levels) < 1:
            raise ValueError(f"max_levels must be >= 1 (got {self.max_levels})")
        if not self.oversample > 0:
            raise ValueError(f"oversample must be positive (got {self.oversample})")
        if not self.update_rebuild_fraction >= 0.0:
            raise ValueError(
                "update_rebuild_fraction must be >= 0 "
                f"(got {self.update_rebuild_fraction})"
            )

    def cache_key(self) -> Tuple:
        """Hashable identity of this configuration (for the chain cache)."""
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class SolverConfig:
    """Immutable parameters of the iterative solve phase.

    Attributes
    ----------
    method:
        One of :data:`SOLVE_METHODS`: ``"pcg"`` (default) and
        ``"chebyshev"`` use the preconditioner chain; ``"jacobi"`` and
        ``"direct"`` (sparse LU of the top-level Laplacian) are the
        :mod:`repro.linalg` baselines.
    inner_iterations:
        Iterations per chain level; ``None`` selects the paper's
        ``ceil(sqrt(kappa))``.
    tol:
        Default relative-residual target of :meth:`LaplacianOperator.solve`
        (overridable per call).
    max_iterations:
        Default cap on outer iterations (overridable per call).
    """

    method: str = "pcg"
    inner_iterations: Optional[int] = None
    tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self) -> None:
        check_method(self.method)
        if self.inner_iterations is not None and int(self.inner_iterations) < 1:
            raise ValueError(
                f"inner_iterations must be >= 1 or None (got {self.inner_iterations})"
            )
        check_tol(self.tol)
        if int(self.max_iterations) < 1:
            raise ValueError(f"max_iterations must be >= 1 (got {self.max_iterations})")

    def resolve_inner_iterations(self, kappa: float) -> int:
        """The per-level iteration budget for a chain built with ``kappa``."""
        if self.inner_iterations is not None:
            return int(self.inner_iterations)
        return max(2, int(math.ceil(math.sqrt(float(kappa)))))

    def cache_key(self) -> Tuple:
        """Hashable identity of this configuration (for the chain cache).

        Only the fields that shape the factorized operator's state
        (``method`` drives Chebyshev calibration, ``inner_iterations`` the
        per-level budget) participate; ``tol`` and ``max_iterations`` are
        per-call defaults that any solve can override, so differing values
        share one cached factorization.
        """
        return (self.method, self.inner_iterations)
