"""Shared linear algebra: norms, iterative methods, and baseline solvers.

These are the comparators the benchmarks measure the paper's solver against
(plain CG, Jacobi-preconditioned CG, sparse direct solves; the dense
pseudo-inverse is a test oracle) plus the building blocks the solver itself
uses (A-norms, operator wrappers with matvec counting).
"""

from repro.linalg.norms import a_norm, a_norm_error, relative_a_norm_error, residual_norm
from repro.linalg.operators import MatvecCounter, as_operator
from repro.linalg.cg import (
    conjugate_gradient,
    CGResult,
    batched_conjugate_gradient,
    BatchedCGResult,
)
from repro.linalg.jacobi import jacobi_preconditioner, gauss_seidel_sweep
from repro.linalg.direct import (
    solve_laplacian_direct,
    solve_sdd_direct,
    laplacian_pseudoinverse,
)
from repro.linalg.inverse_iteration import (
    InverseIterationResult,
    deflated_inverse_iteration,
)

__all__ = [
    "a_norm",
    "a_norm_error",
    "relative_a_norm_error",
    "residual_norm",
    "MatvecCounter",
    "as_operator",
    "conjugate_gradient",
    "CGResult",
    "batched_conjugate_gradient",
    "BatchedCGResult",
    "jacobi_preconditioner",
    "gauss_seidel_sweep",
    "solve_laplacian_direct",
    "solve_sdd_direct",
    "laplacian_pseudoinverse",
    "InverseIterationResult",
    "deflated_inverse_iteration",
]
