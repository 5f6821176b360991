"""Frozen configuration objects for the factorize-once / solve-many API.

The solver lifecycle (:func:`repro.core.operator.factorize` followed by
:meth:`repro.core.operator.LaplacianOperator.solve`) is parameterized by two
immutable dataclasses, each holding only the settings some caller sets:

* :class:`ChainConfig` — what shapes the preconditioner chain
  (Definition 6.3): the condition parameter, the termination size, the
  level cap and the tree-only ablation.  Two factorizations with equal
  ``ChainConfig`` (and equal graph + seed) produce identical chains, which
  is what makes the process-level chain cache sound.  The low-stretch and
  sampling parameters are the defaults of
  :meth:`~repro.core.sparse_akpw.SparseAKPWParameters.practical` and
  :func:`~repro.core.sparsify.incremental_sparsify`; experiments that vary
  them call those functions directly.
* :class:`SolverConfig` — what shapes an individual solve: the iteration
  method (one of :data:`SOLVE_METHODS`) and the default tolerance and
  iteration cap.  The per-level inner budget is the paper's
  ``max(2, ceil(sqrt(kappa)))``, derived from the chain's ``kappa``.

Both classes are hashable and validated eagerly (:func:`check_count`,
:func:`check_tol`), so configuration errors surface at construction time
rather than deep inside a solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Tuple

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


def check_count(name: str, value, minimum: int = 1) -> int:
    """Return ``value`` if it is an integer ``>= minimum``, else raise.

    Accepts any :class:`numbers.Integral` except ``bool``: a float such as
    ``2.5`` would be truncated or fail deep inside ``range()``, and
    ``True`` would silently count as one.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum} (got {value!r})")
    return value


@dataclass(frozen=True)
class ChainConfig:
    """Immutable parameters of preconditioner-chain construction.

    Attributes
    ----------
    kappa:
        Per-level condition parameter ``kappa_i`` (Lemma 6.9's uniform
        first-attempt setting); finite and ``> 1``.  Roughly
        ``sqrt(kappa)`` inner iterations are spent per level at solve time;
        larger values shrink the next level more aggressively.
    bottom_size:
        Chain termination size; ``None`` selects the practical default of
        :func:`repro.core.chain.default_bottom_size` (the faithful
        ``m^(1/3)`` remains available by passing it explicitly).
    max_levels:
        Hard cap on the number of chain levels.
    use_tree_only:
        Ablation switch (experiment E11): keep only the spanning-tree part of
        the low-stretch construction.
    """

    kappa: float = 25.0
    bottom_size: Optional[int] = None
    max_levels: int = 4
    use_tree_only: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 1.0):
            raise ValueError(f"kappa must be finite and > 1 (got {self.kappa})")
        if self.bottom_size is not None:
            check_count("bottom_size", self.bottom_size)
        check_count("max_levels", self.max_levels)

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
    tol:
        Default relative-residual target of :meth:`LaplacianOperator.solve`
        (overridable per call).
    max_iterations:
        Default cap on outer iterations (overridable per call).
    """

    method: str = "pcg"
    tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self) -> None:
        check_method(self.method)
        check_tol(self.tol)
        check_count("max_iterations", self.max_iterations)

    def cache_key(self) -> Tuple:
        """Hashable identity of this configuration (for the chain cache).

        Only ``method`` shapes the factorized operator's state (it drives
        Chebyshev calibration); ``tol`` and ``max_iterations`` are per-call
        defaults that any solve can override, so differing values share one
        cached factorization.
        """
        return (self.method,)
