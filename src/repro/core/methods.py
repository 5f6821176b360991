"""Pluggable solve-method registry for :class:`LaplacianOperator`.

The historical solver hard-coded its iteration strategy behind
``if method == "pcg"`` branches.  This module replaces those branches with a
small registry: a *solve method* is a named strategy that, given a factorized
:class:`~repro.core.operator.LaplacianOperator` and a block of right-hand
sides, produces solutions for every column.  Registered out of the box:

* ``"pcg"`` — outer preconditioned CG, chain preconditioner with inner CG
  smoothing (the practical default, see DESIGN.md substitutions);
* ``"chebyshev"`` — outer preconditioned CG, chain preconditioner with inner
  preconditioned Chebyshev (the paper's Lemma 6.7 choice; needs the
  eigenvalue bounds the operator calibrates on demand);
* ``"jacobi"`` — diagonal-preconditioned CG from :mod:`repro.linalg.jacobi`
  (the classical cheap baseline; ignores the chain);
* ``"direct"`` — dense pseudo-inverse application from
  :mod:`repro.linalg.direct` (ground truth for small systems).

New strategies register with :func:`register_method`; configuration
validation (:class:`repro.core.config.SolverConfig`) checks names against
this registry, so registration makes a method immediately usable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.linalg.cg import BatchedCGResult, batched_conjugate_gradient

#: Signature of a solve strategy:
#: ``(operator, ctx, rhs, tol, max_iterations)`` ->
#: :class:`~repro.linalg.cg.BatchedCGResult`.  ``rhs`` is always ``(n, k)``;
#: ``ctx`` is the per-call :class:`~repro.core.operator.SolveContext` — a
#: strategy must charge all per-solve work/depth through it (and request
#: preconditioners bound to it) rather than mutating operator state, which is
#: what keeps one operator safe to solve from many threads.
MethodRunner = Callable[..., BatchedCGResult]


@dataclass(frozen=True)
class SolveMethod:
    """A registered solve strategy.

    Attributes
    ----------
    name:
        Registry key (the value of ``SolverConfig.method``).
    uses_chain:
        Whether the strategy applies the preconditioner chain (methods that
        do not can solve on operators whose chain was built but is unused,
        and never trigger Chebyshev calibration).
    run:
        The strategy implementation.
    """

    name: str
    uses_chain: bool
    run: MethodRunner


_REGISTRY: Dict[str, SolveMethod] = {}


def register_method(name: str, *, uses_chain: bool = True) -> Callable[[MethodRunner], MethodRunner]:
    """Class decorator registering ``fn`` as the solve method ``name``."""

    def decorator(fn: MethodRunner) -> MethodRunner:
        if name in _REGISTRY:
            raise ValueError(f"solve method {name!r} is already registered")
        _REGISTRY[name] = SolveMethod(name=name, uses_chain=uses_chain, run=fn)
        return fn

    return decorator


def get_method(name: str) -> SolveMethod:
    """Look up a registered solve method by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; registered methods: {', '.join(available_methods())}"
        ) from None


def available_methods() -> Tuple[str, ...]:
    """Names of all registered solve methods (sorted)."""
    return tuple(sorted(_REGISTRY))


# --------------------------------------------------------------------------- #
# built-in strategies
# --------------------------------------------------------------------------- #
@register_method("pcg")
def _run_pcg(operator, ctx, rhs: np.ndarray, tol: float, max_iterations: int) -> BatchedCGResult:
    """Outer CG preconditioned by the chain (inner CG smoothing)."""
    return batched_conjugate_gradient(
        operator.top_matvec(),
        rhs,
        tol=tol,
        max_iterations=max_iterations,
        preconditioner=operator.chain_preconditioner("pcg", ctx),
        on_iteration=lambda cols: operator.charge_outer_iteration(ctx, cols),
    )


@register_method("chebyshev")
def _run_chebyshev(operator, ctx, rhs: np.ndarray, tol: float, max_iterations: int) -> BatchedCGResult:
    """Outer CG preconditioned by the chain (inner Chebyshev, Lemma 6.7)."""
    operator.ensure_chebyshev_bounds()
    return batched_conjugate_gradient(
        operator.top_matvec(),
        rhs,
        tol=tol,
        max_iterations=max_iterations,
        preconditioner=operator.chain_preconditioner("chebyshev", ctx),
        on_iteration=lambda cols: operator.charge_outer_iteration(ctx, cols),
    )


@register_method("jacobi", uses_chain=False)
def _run_jacobi(operator, ctx, rhs: np.ndarray, tol: float, max_iterations: int) -> BatchedCGResult:
    """Diagonal-preconditioned CG baseline (no chain)."""
    return batched_conjugate_gradient(
        operator.top_matvec(),
        rhs,
        tol=tol,
        max_iterations=max_iterations,
        preconditioner=operator.jacobi_preconditioner(),
        on_iteration=lambda cols: operator.charge_outer_iteration(ctx, cols),
    )


@register_method("direct", uses_chain=False)
def _run_direct(operator, ctx, rhs: np.ndarray, tol: float, max_iterations: int) -> BatchedCGResult:
    """Dense pseudo-inverse solve (Fact 6.4 machinery as a baseline).

    The one-time dense factorization is charged to the operator's *setup*
    accounting inside :meth:`dense_pseudoinverse`; only the per-application
    cost lands on this solve's context.
    """
    pinv = operator.dense_pseudoinverse()
    x = pinv @ rhs
    k = rhs.shape[1]
    ctx.cost.charge(work=float(pinv.shape[0]) ** 2 * k, depth=np.log2(max(pinv.shape[0], 2)))
    b_norm = np.linalg.norm(rhs, axis=0)
    residual = np.linalg.norm(operator.laplacian @ x - rhs, axis=0)
    res = np.where(b_norm > 0, residual / np.where(b_norm > 0, b_norm, 1.0), 0.0)
    return BatchedCGResult(
        x=x,
        iterations=np.ones(k, dtype=np.int64),
        converged=res <= tol,
        residuals=res,
        active_counts=[k],
    )
