"""Seeded inputs, the independent answer check, and the SciPy baselines.

Everything here uses NumPy/SciPy only, apart from handing finished arrays to
``repro.Graph`` / ``repro.EdgeEdits``: the benchmark keeps its own copy of
every edge list, so the Laplacian it checks answers against never comes from
the code under test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg as scipy_cg
from scipy.sparse.linalg import splu


@dataclass(frozen=True)
class EdgeList:
    """An undirected multigraph ``(n, u, v, w)`` owned by the benchmark."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def to_graph(self):
        import repro

        return repro.Graph(self.n, self.u, self.v, self.w)

    def apply(self, edits: "EditBatch") -> "EdgeList":
        """Survivors in order (reweights in place), then inserts in order."""
        w = self.w.copy()
        w[edits.reweight] = edits.reweight_w
        keep = np.ones(self.u.size, dtype=bool)
        keep[edits.delete] = False
        return EdgeList(
            self.n,
            np.concatenate([self.u[keep], edits.insert_u]),
            np.concatenate([self.v[keep], edits.insert_v]),
            np.concatenate([w[keep], edits.insert_w]),
        )


def grid(side: int, weight_seed: Optional[int] = None) -> EdgeList:
    """``side x side`` 4-neighbour grid; log-uniform weights in [1, 1e3] if seeded."""
    idx = np.arange(side * side).reshape(side, side)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    if weight_seed is None:
        w = np.ones(u.size)
    else:
        w = np.exp(np.random.default_rng(weight_seed).uniform(0.0, np.log(1e3), u.size))
    return EdgeList(side * side, u, v, w)


def rmat(scale: int, edge_factor: int, seed: int) -> EdgeList:
    """Graph500-style R-MAT multigraph (a, b, c = 0.57, 0.19, 0.19), self-loops dropped.

    Parallel edges are kept and vertices that no edge touches stay isolated,
    so the graph has many components.
    """
    rng = np.random.default_rng(seed)
    draws = edge_factor << scale
    u = np.zeros(draws, dtype=np.int64)
    v = np.zeros(draws, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(draws)
        u = (u << 1) | (r >= 0.76)
        v = (v << 1) | (((r >= 0.57) & (r < 0.76)) | (r >= 0.95))
    keep = u != v
    return EdgeList(1 << scale, u[keep], v[keep], np.ones(int(keep.sum())))


@dataclass(frozen=True)
class EditBatch:
    reweight: np.ndarray
    reweight_w: np.ndarray
    delete: np.ndarray
    insert_u: np.ndarray
    insert_v: np.ndarray
    insert_w: np.ndarray

    def to_edge_edits(self):
        import repro

        return repro.EdgeEdits(
            insert_u=self.insert_u,
            insert_v=self.insert_v,
            insert_w=self.insert_w,
            delete=self.delete,
            reweight=self.reweight,
            reweight_w=self.reweight_w,
        )


def mixed_edits(
    edges: EdgeList, fraction: float, rng: np.random.Generator, split=(8, 1, 1)
) -> EditBatch:
    """``fraction * m`` edits split between reweights, deletes and inserts."""
    m = edges.u.size
    budget = max(10, int(round(fraction * m)))
    n_rew = budget * split[0] // sum(split)
    n_del = budget * split[1] // sum(split)
    n_ins = budget - n_rew - n_del
    perm = rng.permutation(m)
    u = rng.integers(0, edges.n, size=4 * n_ins)
    v = rng.integers(0, edges.n, size=4 * n_ins)
    keep = np.flatnonzero(u != v)[:n_ins]
    return EditBatch(
        reweight=np.sort(perm[:n_rew]),
        reweight_w=rng.uniform(0.5, 4.0, size=n_rew),
        delete=np.sort(perm[n_rew : n_rew + n_del]),
        insert_u=u[keep],
        insert_v=v[keep],
        insert_w=rng.uniform(0.5, 4.0, size=keep.size),
    )


class System:
    """The Laplacian of an edge list, its components, and the answer check."""

    def __init__(self, edges: EdgeList) -> None:
        n = edges.n
        adj = sp.coo_matrix((edges.w, (edges.u, edges.v)), shape=(n, n)).tocsr()
        adj = adj + adj.T
        self.laplacian = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
        self.components, self.labels = connected_components(adj, directed=False)
        self.sizes = np.bincount(self.labels, minlength=self.components)
        self.n = n

    def project(self, b: np.ndarray) -> np.ndarray:
        """Remove each component's mean, so ``L x = b`` is consistent."""
        block = b.reshape(self.n, -1)
        sums = np.zeros((self.components, block.shape[1]))
        np.add.at(sums, self.labels, block)
        return (block - (sums / self.sizes[:, None])[self.labels]).reshape(b.shape)

    def rhs(self, rng: np.random.Generator, k: Optional[int] = None) -> np.ndarray:
        shape = (self.n,) if k is None else (self.n, k)
        return self.project(rng.standard_normal(shape))

    def residuals(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``||L x - b|| / ||b||`` per column; non-finite answers give ``inf``."""
        x = np.asarray(x, dtype=float).reshape(self.n, -1)
        b = b.reshape(self.n, -1)
        if x.shape != b.shape:
            return np.full(b.shape[1], np.inf)
        res = np.linalg.norm(self.laplacian @ x - b, axis=0) / np.linalg.norm(b, axis=0)
        return np.where(np.isfinite(res), res, np.inf)

    def scipy_cg(self, b: np.ndarray, tol: float) -> Tuple[float, float]:
        """Unpreconditioned SciPy CG on the same system: (seconds, residual)."""
        t0 = time.perf_counter()
        x, _ = scipy_cg(self.laplacian, b, rtol=tol, maxiter=20 * self.n)
        return time.perf_counter() - t0, float(self.residuals(x, b)[0])

    def splu(self, b: np.ndarray) -> Tuple[float, float]:
        """Ground one vertex per component, factor with ``splu`` and solve."""
        t0 = time.perf_counter()
        _, grounded = np.unique(self.labels, return_index=True)
        keep = np.ones(self.n, dtype=bool)
        keep[grounded] = False
        lu = splu(self.laplacian[keep][:, keep].tocsc())
        x = np.zeros(self.n)
        x[keep] = lu.solve(b[keep])
        seconds = time.perf_counter() - t0
        return seconds, float(self.residuals(x, b)[0])
