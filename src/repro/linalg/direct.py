"""Direct solvers used as ground truth and as the bottom level of the chain.

* :func:`solve_laplacian_direct` — exact solve of a (singular) connected
  Laplacian via grounding one vertex and a sparse LU factorization.
* :class:`FactorizedLaplacian` — factorize-once pseudo-inverse *action* of a
  (possibly disconnected) Laplacian: one vertex per component is grounded,
  the reduced SPD system is LU-factorized once, and every later
  :meth:`~FactorizedLaplacian.solve` is a pair of triangular sweeps plus a
  per-component mean projection.  This is the chain's bottom-level solver
  (Fact 6.4); the sparse factorization replaces the dense ``pinv`` so that
  ``factorize()`` scales to bottom graphs far beyond the dense regime.
* :func:`laplacian_pseudoinverse` — dense pseudo-inverse, kept as ground
  truth and for callers that need the explicit matrix.
* :func:`solve_sdd_direct` — exact solve of a non-singular SDD system.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.linalg.norms import column_means


def solve_laplacian_direct(laplacian: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Exact minimum-norm-style solution of ``L x = b`` for a connected Laplacian.

    The right-hand side is projected onto the range (mean removed), vertex 0
    is grounded, and the reduced non-singular system is solved with sparse
    LU.  The returned solution has zero mean.
    """
    laplacian = sp.csr_matrix(laplacian)
    n = laplacian.shape[0]
    b = np.asarray(b, dtype=float)
    if n == 1:
        return np.zeros(1)
    b = b - b.mean()
    reduced = laplacian[1:, :][:, 1:].tocsc()
    x = np.zeros(n)
    x[1:] = spla.spsolve(reduced, b[1:])
    return x - x.mean()


class FactorizedLaplacian:
    """Reusable pseudo-inverse action of a graph Laplacian.

    Parameters
    ----------
    laplacian:
        The (singular, possibly disconnected) Laplacian matrix.
    labels:
        Per-vertex connected-component labels in ``0..k-1``.  ``None`` means
        the graph is connected (all zeros).

    Notes
    -----
    For right-hand sides in the range of ``L`` (zero sum per component),
    :meth:`solve` returns exactly ``L^+ b``: grounding one vertex per
    component makes the reduced system symmetric positive definite, the
    grounded solution solves ``L y = b`` exactly, and removing the
    per-component mean selects the minimum-norm representative.
    """

    __slots__ = ("n", "_labels", "_counts", "_keep", "_lu", "_csr", "_pinv", "factor_nnz")

    def __init__(self, laplacian: sp.spmatrix, labels: Optional[np.ndarray] = None) -> None:
        csr = sp.csr_matrix(laplacian)
        n = csr.shape[0]
        self.n = n
        self._csr = csr
        if labels is None:
            labels = np.zeros(n, dtype=np.int64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self._counts = np.bincount(self._labels).astype(float)
        # Ground the first vertex of every component.
        grounds = np.unique(self._labels, return_index=True)[1]
        keep = np.ones(n, dtype=bool)
        keep[grounds] = False
        self._keep = keep
        keep_idx = np.flatnonzero(keep)
        if keep_idx.size:
            reduced = csr[keep_idx][:, keep_idx].tocsc()
            self._lu = spla.splu(reduced)
            self.factor_nnz = int(self._lu.L.nnz + self._lu.U.nnz)
        else:
            self._lu = None
            self.factor_nnz = 0
        self._pinv: Optional[np.ndarray] = None

    def _project(self, x: np.ndarray) -> np.ndarray:
        labels = self._labels
        if self.n == 0:
            return x
        if self._counts.shape[0] <= 1:
            if x.ndim == 1:
                return x - x.mean()
            # Width-invariant mean: keeps batched bottom solves bit-for-bit
            # equal to single-column ones (see repro.linalg.norms).
            return x - column_means(x)
        sums = np.zeros((self._counts.shape[0],) + x.shape[1:], dtype=float)
        np.add.at(sums, labels, x)
        if x.ndim == 1:
            return x - (sums / self._counts)[labels]
        return x - (sums / self._counts[:, None])[labels]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply ``L^+`` to ``b`` (a vector ``(n,)`` or a block ``(n, k)``)."""
        b = np.asarray(b, dtype=float)
        x = np.zeros_like(b)
        if self._lu is not None:
            rhs = self._project(b)
            x[self._keep] = self._lu.solve(rhs[self._keep])
        return self._project(x)

    def pseudoinverse(self) -> np.ndarray:
        """The explicit dense pseudo-inverse (computed lazily and cached)."""
        if self._pinv is None:
            self._pinv = laplacian_pseudoinverse(self._csr)
        return self._pinv


def laplacian_pseudoinverse(laplacian) -> np.ndarray:
    """Dense Moore-Penrose pseudo-inverse of a Laplacian (bottom-level solver)."""
    dense = laplacian.toarray() if sp.issparse(laplacian) else np.asarray(laplacian, dtype=float)
    return np.linalg.pinv(dense, hermitian=True)


def solve_sdd_direct(matrix: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Exact solve of a non-singular SDD system via sparse LU."""
    matrix = sp.csc_matrix(matrix)
    return spla.spsolve(matrix, np.asarray(b, dtype=float))
