"""(Preconditioned) conjugate gradient, scalar and batched.

Used both as the baseline solver in the benchmarks and as the outer/inner
iteration of the recursive preconditioned solver (the paper analyzes
preconditioned Chebyshev for its depth bounds; CG has the same
``sqrt(kappa)`` convergence and needs no eigenvalue estimates, which is the
standard practical choice — the paper's inner Chebyshev iteration remains
available as the ``chebyshev`` solve method).

:func:`batched_conjugate_gradient` runs ``k`` *independent* CG recurrences in
lockstep on an ``(n, k)`` block of right-hand sides.  Because the recurrences
never couple across columns, each column converges exactly as it would alone,
while matvecs and preconditioner applications are shared level-3 operations —
this is what makes the factorize-once / solve-many API's multi-RHS path a
hot-path win.  Converged columns are compacted out of the working set, so the
arithmetic (and the PRAM work charged through ``on_iteration``) is
proportional to the number of still-active columns.

Singular systems (graph Laplacians of connected graphs) are handled by
projecting iterates onto the complement of the all-ones null space.

Both entry points are **re-entrant**: all iterate state lives in local
arrays, and the only side channel is the caller-supplied ``on_iteration``
hook — the solver layer passes a closure bound to its per-call
:class:`~repro.pram.model.CostModel`, which is how concurrent solves on one
operator charge PRAM work without sharing mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.linalg.norms import column_dot, column_norms
from repro.linalg.operators import MatrixLike, as_operator


@dataclass
class CGResult:
    """Result of a conjugate gradient run.

    Attributes
    ----------
    x:
        The (approximate) solution.
    iterations:
        Number of CG iterations performed.
    converged:
        Whether the residual tolerance was reached.
    residual_norms:
        Relative residual 2-norm after each iteration (including iteration 0).
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float] = field(default_factory=list)


def conjugate_gradient(
    matrix: MatrixLike,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x0: Optional[np.ndarray] = None,
    project_nullspace: bool = False,
    fixed_iterations: Optional[int] = None,
) -> CGResult:
    """Solve ``A x = b`` with (preconditioned) CG.

    Parameters
    ----------
    matrix:
        Symmetric positive (semi-)definite matrix or matvec callable.
    preconditioner:
        Callable approximating ``A^+``; must be symmetric positive definite
        on the relevant subspace.
    project_nullspace:
        For connected-graph Laplacians: keep iterates orthogonal to the
        all-ones vector.
    fixed_iterations:
        When given, run exactly this many iterations (no tolerance test) —
        this is how the recursive solver uses CG as a smoother at inner
        levels.
    """
    apply_a = as_operator(matrix)
    b = np.asarray(b, dtype=float).copy()
    n = b.shape[0]

    def project(v: np.ndarray) -> np.ndarray:
        if project_nullspace:
            return v - v.mean()
        return v

    b = project(b)
    x = np.zeros(n) if x0 is None else project(np.asarray(x0, dtype=float).copy())
    r = b - apply_a(x)
    r = project(r)
    apply_m = preconditioner if preconditioner is not None else (lambda v: v)
    z = project(apply_m(r))
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGResult(x=np.zeros(n), iterations=0, converged=True, residual_norms=[0.0])

    residuals = [float(np.linalg.norm(r)) / b_norm]
    max_iters = fixed_iterations if fixed_iterations is not None else max_iterations
    converged = residuals[-1] <= tol and fixed_iterations is None
    iterations = 0
    for _ in range(max_iters):
        if converged and fixed_iterations is None:
            break
        ap = apply_a(p)
        pap = float(p @ ap)
        if pap <= 0:
            # Numerical breakdown (can happen on the null space component).
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        r = project(r)
        iterations += 1
        residuals.append(float(np.linalg.norm(r)) / b_norm)
        if fixed_iterations is None and residuals[-1] <= tol:
            converged = True
            break
        z = project(apply_m(r))
        rz_new = float(r @ z)
        beta = rz_new / rz if rz != 0 else 0.0
        rz = rz_new
        p = z + beta * p
    if fixed_iterations is not None:
        converged = residuals[-1] <= tol
    return CGResult(x=project(x), iterations=iterations, converged=converged, residual_norms=residuals)


@dataclass
class BatchedCGResult:
    """Result of a batched (multi right-hand-side) conjugate gradient run.

    Attributes
    ----------
    x:
        ``(n, k)`` block of approximate solutions.
    iterations:
        Per-column iteration counts (iteration at which the column converged,
        or the total number of iterations run).
    converged:
        Per-column convergence flags.
    residuals:
        Final relative residual 2-norm of each column.
    active_counts:
        Number of active (not yet converged) columns at each iteration —
        ``sum(active_counts)`` is the total column-iteration count, which is
        what honest work accounting should be proportional to.
    """

    x: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    active_counts: List[int] = field(default_factory=list)


def batched_conjugate_gradient(
    matrix: MatrixLike,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    fixed_iterations: Optional[int] = None,
    on_iteration: Optional[Callable[[int], None]] = None,
) -> BatchedCGResult:
    """Solve ``A x_j = b_j`` for every column of ``b`` with lockstep PCG.

    Parameters
    ----------
    matrix:
        Symmetric positive (semi-)definite matrix or matvec callable; the
        matvec must accept ``(n, k)`` blocks (sparse matrices do).
    b:
        ``(n, k)`` block of right-hand sides (``(n,)`` is treated as ``k=1``).
    preconditioner:
        Callable approximating ``A^+`` column-wise on ``(n, j)`` blocks for
        any ``j <= k`` (converged columns are compacted out of the block).
    fixed_iterations:
        When given, run exactly this many iterations for every column with no
        tolerance test — the inner-level smoother mode of the recursive
        solver.
    on_iteration:
        Called once per iteration with the current number of active columns;
        used by the operator layer to charge PRAM work proportional to the
        arithmetic actually performed.
    """
    apply_a = as_operator(matrix)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n, k = b.shape
    apply_m = preconditioner if preconditioner is not None else (lambda v: v)

    x_out = np.zeros((n, k))
    iters_out = np.zeros(k, dtype=np.int64)
    converged_out = np.zeros(k, dtype=bool)
    residuals_out = np.zeros(k)
    active_counts: List[int] = []

    # Width-invariant column reductions keep a batched solve bit-for-bit
    # identical to a loop of single solves (see repro.linalg.norms).
    b_norm = column_norms(b)
    zero_rhs = b_norm == 0.0
    converged_out[zero_rhs] = True

    check_tol = fixed_iterations is None
    cols = np.flatnonzero(~zero_rhs)
    if cols.size == 0:
        return BatchedCGResult(x_out, iters_out, converged_out, residuals_out, active_counts)

    # Compacted working set over the active columns.
    bn = b_norm[cols]
    r = b[:, cols].copy()
    x = np.zeros((n, cols.size))
    z = apply_m(r)
    p = z.copy()
    rz = column_dot(r, z)
    res = column_norms(r) / bn
    residuals_out[cols] = res

    def retire(mask: np.ndarray, iteration: int, did_converge: bool) -> None:
        """Move columns selected by ``mask`` out of the working set."""
        nonlocal cols, bn, r, x, z, p, rz, res
        sel = np.flatnonzero(mask)
        orig = cols[sel]
        x_out[:, orig] = x[:, sel]
        iters_out[orig] = iteration
        converged_out[orig] = did_converge
        residuals_out[orig] = res[sel]
        keep = ~mask
        cols, bn, res, rz = cols[keep], bn[keep], res[keep], rz[keep]
        r, x, z, p = r[:, keep], x[:, keep], z[:, keep], p[:, keep]

    if check_tol:
        retire(res <= tol, 0, True)

    max_iters = fixed_iterations if fixed_iterations is not None else max_iterations
    for it in range(1, max_iters + 1):
        if cols.size == 0:
            break
        active_counts.append(int(cols.size))
        ap = apply_a(p)
        pap = column_dot(p, ap)
        broken = pap <= 0  # numerical breakdown (null-space component)
        if np.any(broken):
            retire(broken, it - 1, False)
            if cols.size == 0:
                break
            ap, pap = ap[:, ~broken], pap[~broken]
        alpha = rz / pap
        # In-place recurrence updates (x += alpha p; r -= alpha ap) change
        # no bits relative to the historical out-of-place expressions; the
        # working arrays are compaction copies, never caller-owned.
        x += alpha * p
        r -= alpha * ap
        res = column_norms(r) / bn
        if on_iteration is not None:
            on_iteration(int(cols.size))
        if check_tol:
            retire(res <= tol, it, True)
            if cols.size == 0:
                break
        z = apply_m(r)
        rz_new = column_dot(r, z)
        beta = np.where(rz != 0, rz_new / np.where(rz != 0, rz, 1.0), 0.0)
        rz = rz_new
        # p = z + beta p, evaluated in place as (beta p) + z — bitwise equal
        # because IEEE-754 addition is commutative.
        p *= beta
        p += z

    if cols.size:
        # Ran out of iterations (or fixed-iteration mode): flush the rest.
        retire(np.ones(cols.size, dtype=bool), max_iters, False)
        if fixed_iterations is not None:
            converged_out[:] = residuals_out <= tol
            converged_out[zero_rhs] = True
    return BatchedCGResult(x_out, iters_out, converged_out, residuals_out, active_counts)
