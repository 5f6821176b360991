"""Diagonal (Jacobi) preconditioning and Gauss-Seidel sweeps.

Baselines for the solver benchmarks: Jacobi-PCG is the standard "cheap"
preconditioner a practitioner would reach for before a combinatorial
preconditioner, and Gauss-Seidel sweeps serve as a classical smoother
comparator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp


def jacobi_preconditioner(
    matrix: sp.spmatrix,
    *,
    floor: float = 1e-300,
) -> Callable[[np.ndarray], np.ndarray]:
    """Return ``r -> D^{-1} r`` for the diagonal ``D`` of ``matrix``.

    Zero diagonal entries (isolated vertices of a Laplacian) are left
    untouched by using an inverse of 0 for them.
    """
    diag = np.asarray(sp.csr_matrix(matrix).diagonal(), dtype=float)
    inv = np.zeros_like(diag)
    mask = np.abs(diag) > floor
    inv[mask] = 1.0 / diag[mask]

    def apply(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return inv[:, None] * r if r.ndim == 2 else inv * r

    return apply


def gauss_seidel_sweep(matrix: sp.spmatrix, b: np.ndarray, x: np.ndarray, sweeps: int = 1) -> np.ndarray:
    """Forward Gauss-Seidel sweeps ``x <- x + L^{-1}(b - A x)`` (L = lower part).

    Intended for small/medium systems (uses a sparse triangular solve per
    sweep).
    """
    a = sp.csr_matrix(matrix)
    lower = sp.tril(a, k=0).tocsr()
    x = np.asarray(x, dtype=float).copy()
    for _ in range(max(sweeps, 0)):
        r = np.asarray(b, dtype=float) - a @ x
        x = x + sp.linalg.spsolve_triangular(lower, r, lower=True)
    return x
