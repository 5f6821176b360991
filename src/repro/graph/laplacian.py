"""Graph Laplacians and the reduction from general SDD systems.

Implements:

* ``graph_to_laplacian`` / ``laplacian_to_graph`` — the one-to-one
  correspondence between weighted graphs and graph Laplacians the paper uses
  throughout Section 6.
* ``is_sdd`` / ``is_laplacian`` — structural checks.
* ``sdd_to_laplacian`` — the Gremban-style reduction quoted in Section 2 of
  the paper ("Solving an SDD system reduces in O(m) work and polylog depth to
  solving a graph Laplacian"): a general SDD matrix is embedded into a
  Laplacian on a double cover of the vertex set plus one grounded vertex, and
  solutions are recovered by averaging the two copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph


def graph_to_laplacian(graph: Graph) -> sp.csr_matrix:
    """Laplacian ``L = D - A`` of a weighted graph as a CSR matrix.

    The COO scratch rows/cols inherit the graph's (usually int32) index
    dtype, which halves the dominant temporary; the matrix data is the
    graph's float64 weights.
    """
    n, m = graph.n, graph.num_edges
    if m == 0:
        return sp.csr_matrix((n, n))
    # concatenate preserves the common endpoint dtype (int32 stays int32).
    rows = np.concatenate([graph.u, graph.v, graph.u, graph.v])
    cols = np.concatenate([graph.v, graph.u, graph.u, graph.v])
    data = np.concatenate([-graph.w, -graph.w, graph.w, graph.w])
    lap = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    lap.sum_duplicates()
    return lap


def laplacian_to_graph(lap: sp.spmatrix, tol: float = 1e-12) -> Graph:
    """Recover the weighted graph of a Laplacian matrix.

    Off-diagonal entries must be non-positive; entries with magnitude below
    ``tol`` (relative to the largest entry) are dropped.
    """
    lap = sp.csr_matrix(lap)
    upper = sp.triu(lap, k=1).tocoo()
    if upper.nnz == 0:
        return Graph(lap.shape[0], [], [], [])
    scale = max(abs(upper.data).max(), 1.0)
    keep = np.abs(upper.data) > tol * scale
    data = upper.data[keep]
    if np.any(data > 0):
        raise ValueError("matrix has positive off-diagonal entries; not a Laplacian")
    return Graph(lap.shape[0], upper.row[keep], upper.col[keep], -data)


def is_sdd(matrix: sp.spmatrix, tol: float = 1e-9) -> bool:
    """True when ``matrix`` is symmetric and diagonally dominant."""
    matrix = sp.csr_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        return False
    asym = matrix - matrix.T
    if asym.nnz and np.max(np.abs(asym.data)) > tol * max(np.abs(matrix.data).max(), 1.0):
        return False
    diag = matrix.diagonal()
    off = matrix - sp.diags(diag)
    row_abs = np.abs(off).sum(axis=1).A.ravel() if hasattr(np.abs(off).sum(axis=1), "A") else np.asarray(np.abs(off).sum(axis=1)).ravel()
    return bool(np.all(diag + tol * (1.0 + np.abs(diag)) >= row_abs))


def is_laplacian(matrix: sp.spmatrix, tol: float = 1e-9) -> bool:
    """True when ``matrix`` is a graph Laplacian (SDD, non-positive
    off-diagonals, zero row sums)."""
    matrix = sp.csr_matrix(matrix)
    if not is_sdd(matrix, tol):
        return False
    off = matrix - sp.diags(matrix.diagonal())
    if off.nnz and off.data.max(initial=0.0) > tol:
        return False
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = max(np.abs(matrix.diagonal()).max(initial=1.0), 1.0)
    return bool(np.all(np.abs(row_sums) <= tol * scale * matrix.shape[0]))


@dataclass
class GrembanReduction:
    """Result of reducing an SDD system to a Laplacian system.

    Attributes
    ----------
    laplacian:
        The (2n+1) x (2n+1) graph Laplacian (the last vertex is the ground).
        When the input had no positive off-diagonals and no diagonal excess
        the reduction is trivial and ``laplacian`` is the input itself
        (``trivial=True``).
    n:
        Dimension of the original system.
    trivial:
        Whether the input was already a Laplacian.
    """

    laplacian: sp.csr_matrix
    n: int
    trivial: bool

    def expand_rhs(self, b: np.ndarray) -> np.ndarray:
        """Lift right-hand side(s) of the original system to the reduced one.

        Accepts a vector ``(n,)`` or a batch ``(n, k)``; the ground-vertex
        row is zero either way.
        """
        b = np.asarray(b, dtype=float)
        if self.trivial:
            return b
        if b.ndim == 1:
            return np.concatenate([b, -b, [0.0]])
        return np.concatenate([b, -b, np.zeros((1, b.shape[1]))], axis=0)

    def restrict_solution(self, x: np.ndarray) -> np.ndarray:
        """Project solution(s) of the reduced system back to the original.

        Accepts a vector ``(2n+1,)`` or a batch ``(2n+1, k)``.
        """
        x = np.asarray(x, dtype=float)
        if self.trivial:
            return x
        return 0.5 * (x[: self.n] - x[self.n : 2 * self.n])


def sdd_to_laplacian(matrix: sp.spmatrix, tol: float = 1e-12) -> GrembanReduction:
    """Reduce a general SDD matrix to a graph Laplacian (Gremban reduction).

    Writing ``A = D + N + P`` with ``D`` diagonal, ``N`` the negative
    off-diagonal part and ``P`` the positive off-diagonal part, the reduced
    matrix is the Laplacian of a graph on ``2n + 1`` vertices:

    * vertex ``i`` and its copy ``i + n`` are connected to neighbors as in
      ``N`` (within the same copy) and as in ``P`` (across copies),
    * the diagonal excess ``d_i = A_ii - sum_j |A_ij|`` connects both copies
      of ``i`` to a shared ground vertex ``2n``.

    Solving ``L [x1; x2; xg] = [b; -b; 0]`` and returning ``(x1 - x2) / 2``
    solves ``A x = b`` exactly.
    """
    matrix = sp.csr_matrix(matrix).astype(float)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not is_sdd(matrix):
        raise ValueError("matrix is not symmetric diagonally dominant")
    diag = matrix.diagonal()
    off = (matrix - sp.diags(diag)).tocoo()
    abs_rowsum = np.zeros(n)
    if off.nnz:
        np.add.at(abs_rowsum, off.row, np.abs(off.data))
    excess = diag - abs_rowsum
    excess[np.abs(excess) < tol * (1.0 + np.abs(diag))] = 0.0

    has_positive = off.nnz > 0 and np.any(off.data > tol)
    has_excess = np.any(excess > 0)
    if not has_positive and not has_excess:
        # Already a Laplacian.
        return GrembanReduction(laplacian=matrix, n=n, trivial=True)

    # Undirected edge list of the 2n+1 vertex cover graph.  Using only the
    # upper-triangular entries of the off-diagonal part avoids double
    # counting the symmetric matrix entries.
    off_ut = sp.triu(off, k=1).tocoo()
    rows = []
    cols = []
    vals = []
    if off_ut.nnz:
        neg = off_ut.data < 0
        pos = off_ut.data > 0
        # Negative off-diagonal A_ij (i < j): same-copy edges (i, j) and
        # (i + n, j + n), each of weight |A_ij|.
        r, c, d = off_ut.row[neg], off_ut.col[neg], -off_ut.data[neg]
        rows.extend([r, r + n])
        cols.extend([c, c + n])
        vals.extend([d, d])
        # Positive off-diagonal A_ij (i < j): cross-copy edges (i, j + n) and
        # (j, i + n), each of weight A_ij.
        r, c, d = off_ut.row[pos], off_ut.col[pos], off_ut.data[pos]
        rows.extend([r, r + n])
        cols.extend([c + n, c])
        vals.extend([d, d])
    # Diagonal excess: edges to the ground vertex 2n.
    gi = np.flatnonzero(excess > 0)
    if gi.size:
        ground = np.full(gi.size, 2 * n, dtype=np.int64)
        rows.extend([gi, gi + n])
        cols.extend([ground, ground])
        vals.extend([excess[gi], excess[gi]])

    rows_arr = np.concatenate(rows)
    cols_arr = np.concatenate(cols)
    vals_arr = np.concatenate(vals)
    # Each undirected edge appears once above; add both directions.
    size = 2 * n + 1
    adj = sp.coo_matrix(
        (
            np.concatenate([vals_arr, vals_arr]),
            (np.concatenate([rows_arr, cols_arr]), np.concatenate([cols_arr, rows_arr])),
        ),
        shape=(size, size),
    ).tocsr()
    adj.sum_duplicates()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg) - adj
    return GrembanReduction(laplacian=sp.csr_matrix(lap), n=n, trivial=False)


def project_out_nullspace(x: np.ndarray) -> np.ndarray:
    """Subtract the mean (projection onto the range of a connected Laplacian)."""
    x = np.asarray(x, dtype=float)
    return x - x.mean()
