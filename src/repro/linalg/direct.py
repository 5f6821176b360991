"""Direct solvers used as ground truth, as the chain's bottom level and as ``direct``.

* :func:`solve_laplacian_direct` — exact solve of a (singular) connected
  Laplacian via grounding one vertex and a sparse LU factorization.
* :class:`ComponentProjector` — removal of the per-connected-component mean
  (the Laplacian null space), the one projector every solve path uses.
* :class:`FactorizedLaplacian` — factorize-once pseudo-inverse *action* of a
  (possibly disconnected) Laplacian: one vertex per component is grounded,
  the reduced SPD system is LU-factorized once, and every later
  :meth:`~FactorizedLaplacian.solve` is a pair of triangular sweeps plus a
  per-component mean projection.  This is the chain's bottom-level solver
  (Fact 6.4) and the engine of the ``direct`` solve method; the sparse
  factorization replaces a dense ``pinv`` so that both scale to graphs far
  beyond the dense regime.
* :func:`laplacian_pseudoinverse` — dense pseudo-inverse, kept as a test
  oracle; no solve path uses it.
* :func:`solve_sdd_direct` — exact solve of a non-singular SDD system.
"""

from __future__ import annotations

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


class ComponentProjector:
    """Removal of the per-connected-component mean (Laplacian null space).

    Built once per graph at factorization time; applies to ``(n,)`` vectors
    and ``(n, k)`` blocks alike.  This sits on the solver's hottest path
    (twice per outer iteration, once per chain level per preconditioner
    application, and twice per bottom solve), so the common connected case
    reduces to a plain mean, and the multi-component case sums components
    with ``np.bincount`` (vectors) or a precomputed sparse accumulator
    (blocks) instead of an unbuffered scatter-add.  All three sum each
    component in vertex order, so the result is bit-for-bit the
    ``np.add.at`` definition and a block's columns match vector calls.
    """

    __slots__ = ("labels", "counts", "_single", "_accumulator")

    def __init__(self, labels: np.ndarray) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        self.counts = np.bincount(self.labels).astype(float)
        self._single = self.counts.shape[0] <= 1
        if self._single:
            self._accumulator = None
        else:
            n = self.labels.shape[0]
            self._accumulator = sp.csr_matrix(
                (np.ones(n), (self.labels, np.arange(n))),
                shape=(self.counts.shape[0], n),
            )

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self._single:
            # column_means (not v.mean) so the projection rounds identically
            # for every batch width — part of the batched == looped
            # bit-for-bit contract (see repro.linalg.norms).
            if v.ndim == 1:
                return v - v.mean()
            return v - column_means(v)
        if v.ndim == 1:
            sums = np.bincount(self.labels, weights=v, minlength=self.counts.shape[0])
            return v - (sums / self.counts)[self.labels]
        sums = self._accumulator @ v
        return v - (sums / self.counts[:, None])[self.labels]


class FactorizedLaplacian:
    """Reusable pseudo-inverse action of a graph Laplacian.

    Parameters
    ----------
    laplacian:
        The (singular, possibly disconnected) Laplacian matrix.
    projector:
        The :class:`ComponentProjector` of the Laplacian's graph; its labels
        choose the grounded vertex of every component.

    Notes
    -----
    For right-hand sides in the range of ``L`` (zero sum per component),
    :meth:`solve` returns exactly ``L^+ b``: grounding one vertex per
    component makes the reduced system symmetric positive definite, the
    grounded solution solves ``L y = b`` exactly, and removing the
    per-component mean selects the minimum-norm representative.
    """

    __slots__ = ("n", "projector", "_keep", "_lu", "factor_nnz")

    def __init__(self, laplacian: sp.spmatrix, projector: ComponentProjector) -> None:
        csr = sp.csr_matrix(laplacian)
        n = csr.shape[0]
        if projector.labels.shape != (n,):
            raise ValueError(
                f"projector covers {projector.labels.shape[0]} vertices, the Laplacian {n}"
            )
        self.n = n
        self.projector = projector
        # Ground the first vertex of every component.
        grounds = np.unique(projector.labels, return_index=True)[1]
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

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply ``L^+`` to ``b`` (a vector ``(n,)`` or a block ``(n, k)``)."""
        b = np.asarray(b, dtype=float)
        x = np.zeros_like(b)
        if self._lu is not None:
            rhs = self.projector(b)
            x[self._keep] = self._lu.solve(rhs[self._keep])
        return self.projector(x)


def laplacian_pseudoinverse(laplacian) -> np.ndarray:
    """Dense Moore-Penrose pseudo-inverse of a Laplacian (test oracle)."""
    dense = laplacian.toarray() if sp.issparse(laplacian) else np.asarray(laplacian, dtype=float)
    return np.linalg.pinv(dense, hermitian=True)


def solve_sdd_direct(matrix: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Exact solve of a non-singular SDD system via sparse LU."""
    matrix = sp.csc_matrix(matrix)
    return spla.spsolve(matrix, np.asarray(b, dtype=float))
