"""Core weighted undirected multigraph container.

The :class:`Graph` stores edges as three parallel NumPy arrays ``(u, v, w)``
with each undirected edge stored exactly once, plus a lazily-built CSR
adjacency structure over *both* directions for traversal.  This mirrors the
compressed-sparse-row representation the paper assumes for its parallel
ball-growing primitive and keeps all per-edge algorithms (decomposition,
stretch computation, sparsification) vectorizable.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.util.dtypes import as_index_array, min_index_dtype


def check_edge_weights(w: np.ndarray, name: str = "edge weights") -> None:
    """Raise ``ValueError`` unless every weight is finite and positive.

    One O(m) pass shared by every entry point that accepts weights (graph
    construction and reweighting, edge-list ingestion, edit batches): a
    plain ``w <= 0`` test lets NaN through, and a NaN or inf weight turns
    every later solve into ``max_iterations`` of NaN arithmetic.
    """
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"{name} must be finite and positive")


def check_vertex_ids(ids: np.ndarray, name: str = "vertex ids", n: Optional[int] = None) -> None:
    """Raise ``TypeError`` unless ``ids`` holds integers, ``ValueError``
    unless they lie in ``[0, n)`` (bounds skipped when ``n`` is ``None``).

    Shared by every entry point that accepts vertex or edge ids (graph
    construction, edge-list ingestion, edit batches).  Integral floats such
    as ``[0.0, 2.0]`` pass; ``0.5``, NaN and inf would otherwise be
    truncated (or wrapped) into a valid-looking id by the integer cast, so
    the check runs before any cast.
    """
    if not np.issubdtype(ids.dtype, np.integer) and not (
        np.issubdtype(ids.dtype, np.floating)
        and np.all(np.isfinite(ids))
        and np.all(ids == np.floor(ids))
    ):
        raise TypeError(f"{name} must be an integer array")
    if n is not None and ids.size:
        if ids.min() < 0:
            raise ValueError("vertex indices must be non-negative")
        if ids.max() >= n:
            raise ValueError("vertex index out of range")


def check_vertex_count(n) -> int:
    """Return ``n`` as an ``int`` if it is a non-negative integer, else raise."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a non-negative integer (got {n!r})")
    return int(n)


class Graph:
    """An undirected weighted multigraph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices (a non-negative integer).
    u, v:
        Integer arrays of endpoints; edge ``i`` connects ``u[i]`` and ``v[i]``.
        Self-loops are rejected (they carry no information for Laplacians).
    w:
        Positive edge weights.  Defaults to all ones.
    validate:
        Skip the O(m) invariant scan (integer ids, index bounds, self-loops,
        finite positive weights) when ``False``.  Internal call sites that
        construct graphs from already-validated arrays use this to avoid
        redundant passes over million-edge arrays.

    Notes
    -----
    * Edges are **directionless**: ``(u, v)`` and ``(v, u)`` denote the same
      edge.  Internally endpoints are kept as given.
    * Parallel edges are allowed (they arise naturally from the contractions
      in the AKPW algorithm); :meth:`coalesce` merges them by summing
      weights.
    * Storage is decided here and nowhere else: endpoints always use
      :func:`~repro.util.dtypes.min_index_dtype` of ``(n, m)`` (input that
      already has it is not copied) and weights are always float64.
    """

    __slots__ = ("n", "u", "v", "w", "_adj", "_fingerprint")

    def __init__(
        self,
        n: int,
        u: Iterable[int],
        v: Iterable[int],
        w: Optional[Iterable[float]] = None,
        *,
        validate: bool = True,
    ) -> None:
        self.n = check_vertex_count(n)
        u_arr = np.asarray(u)
        v_arr = np.asarray(v)
        if u_arr.shape != v_arr.shape:
            raise ValueError("u and v must have the same length")
        m = int(u_arr.size)
        if validate:
            check_vertex_ids(u_arr, "u", self.n)
            check_vertex_ids(v_arr, "v", self.n)
        idt = min_index_dtype(self.n, m)
        self.u = u_arr.astype(idt, copy=False).ravel()
        self.v = v_arr.astype(idt, copy=False).ravel()
        self.w = np.ones(m) if w is None else np.asarray(w, dtype=np.float64).ravel()
        if self.w.shape != self.u.shape:
            raise ValueError("w must have the same length as u and v")
        if validate:
            if np.any(self.u == self.v):
                raise ValueError("self-loops are not allowed")
            check_edge_weights(self.w)
        self._adj: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return int(self.u.shape[0])

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.w.sum())

    def degrees(self, weighted: bool = False) -> np.ndarray:
        """Per-vertex degree (edge count) or weighted degree."""
        if not weighted:
            return np.bincount(self.u, minlength=self.n) + np.bincount(
                self.v, minlength=self.n
            )
        deg = np.zeros(self.n, dtype=np.float64)
        np.add.at(deg, self.u, self.w)
        np.add.at(deg, self.v, self.w)
        return deg

    def copy(self) -> "Graph":
        """Deep copy of the graph (adjacency cache is not copied)."""
        return Graph(self.n, self.u.copy(), self.v.copy(), self.w.copy(), validate=False)

    def fingerprint(self) -> str:
        """Content hash of ``(n, u, v, w)`` (cached after the first call).

        Used as the graph part of the process-level chain-cache key: two
        graphs with equal fingerprints produce identical Laplacians and
        hence identical factorizations for a fixed seed and configuration.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            h.update(np.int64(self.n).tobytes())
            # Endpoints hash through a canonical int64 view, so the digest
            # does not depend on the index dtype the graph is stored in.
            h.update(np.ascontiguousarray(self.u, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.v, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.w).tobytes())
            self._fingerprint = "g:" + h.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.w, other.w)
        )

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #
    def _build_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build CSR adjacency arrays ``(indptr, neighbors, edge_ids)``.

        Both directions of every edge are present, so ``neighbors[indptr[x] :
        indptr[x + 1]]`` lists every neighbor of ``x`` (with multiplicity for
        parallel edges) and ``edge_ids`` gives the owning edge index.
        """
        m = self.num_edges
        idt = self.u.dtype
        src = np.concatenate([self.u, self.v])
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=self.n)
        del src  # free the 2m source copy before gathering neighbors
        dst = np.concatenate([self.v, self.u])
        neighbors = dst[order]
        del dst
        ar = np.arange(m, dtype=idt)
        eid = np.concatenate([ar, ar])
        edge_ids = eid[order]
        indptr = np.zeros(self.n + 1, dtype=idt)
        indptr[1:] = np.cumsum(counts)
        return indptr, neighbors, edge_ids

    @property
    def adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, neighbors, edge_ids)`` (built lazily)."""
        if self._adj is None:
            self._adj = self._build_adjacency()
        return self._adj

    def neighbors(self, x: int) -> np.ndarray:
        """Neighbors of vertex ``x`` (with multiplicity)."""
        indptr, nbrs, _ = self.adjacency
        return nbrs[indptr[x] : indptr[x + 1]]

    def incident_edges(self, x: int) -> np.ndarray:
        """Edge indices incident to vertex ``x``."""
        indptr, _, eids = self.adjacency
        return eids[indptr[x] : indptr[x + 1]]

    def adjacency_matrix(self, weighted: bool = True) -> sp.csr_matrix:
        """Symmetric (weighted) adjacency matrix as ``scipy.sparse.csr_matrix``."""
        vals = self.w if weighted else np.ones_like(self.w)
        data = np.concatenate([vals, vals])
        rows = np.concatenate([self.u, self.v])
        cols = np.concatenate([self.v, self.u])
        mat = sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return mat.tocsr()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_edge_list(n: int, edges: Iterable[Tuple[int, int, float]]) -> "Graph":
        """Build a graph from ``(u, v, w)`` triples."""
        edges = list(edges)
        if not edges:
            return Graph(n, [], [], [])
        arr = np.asarray(edges, dtype=np.float64)
        return Graph(n, arr[:, 0], arr[:, 1], arr[:, 2])

    @staticmethod
    def from_scipy_adjacency(adj: sp.spmatrix) -> "Graph":
        """Build a graph from a symmetric sparse adjacency matrix."""
        adj = sp.csr_matrix(adj)
        coo = sp.triu(adj, k=1).tocoo()
        return Graph(adj.shape[0], coo.row, coo.col, coo.data)

    def edge_subgraph(self, edge_indices: np.ndarray) -> "Graph":
        """Graph on the same vertex set containing only the given edges."""
        edge_indices = np.asarray(edge_indices)
        if edge_indices.dtype == bool:
            edge_indices = np.flatnonzero(edge_indices)
        return Graph(
            self.n,
            self.u[edge_indices],
            self.v[edge_indices],
            self.w[edge_indices],
            validate=False,
        )

    def induced_subgraph(self, vertices: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices relabeled ``0..len(vertices)-1``)
        and the array of original edge indices that survive.
        """
        idt = self.u.dtype
        vertices = np.asarray(vertices, dtype=idt)
        keep = np.full(self.n, -1, dtype=idt)
        keep[vertices] = np.arange(vertices.shape[0], dtype=idt)
        mask = (keep[self.u] >= 0) & (keep[self.v] >= 0)
        eidx = np.flatnonzero(mask)
        sub = Graph(
            vertices.shape[0],
            keep[self.u[eidx]],
            keep[self.v[eidx]],
            self.w[eidx],
            validate=False,
        )
        return sub, eidx

    def coalesce(self) -> Tuple["Graph", np.ndarray]:
        """Merge parallel edges by summing weights.

        Returns the simple graph and an array mapping each original edge to
        its representative edge index in the coalesced graph.
        """
        if self.num_edges == 0:
            return self.copy(), np.zeros(0, dtype=np.int64)
        lo = np.minimum(self.u, self.v)
        hi = np.maximum(self.u, self.v)
        # Keys are always computed in int64: lo * n + hi overflows int32 for
        # n beyond ~46k even when the indices themselves fit comfortably.
        keys = lo * np.int64(self.n) + hi
        uniq, inverse = np.unique(keys, return_inverse=True)
        w_new = np.zeros(uniq.shape[0])
        np.add.at(w_new, inverse, self.w)
        return Graph(self.n, uniq // self.n, uniq % self.n, w_new, validate=False), inverse

    def reweighted(self, w: np.ndarray) -> "Graph":
        """Copy of the graph with new edge weights ``w`` (endpoints shared)."""
        w = np.asarray(w)
        check_edge_weights(w)
        return Graph(self.n, self.u, self.v, w, validate=False)

    def add_edges(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> "Graph":
        """New graph with extra edges appended."""
        uu = np.concatenate([self.u, np.asarray(u)])
        vv = np.concatenate([self.v, np.asarray(v)])
        ww = np.concatenate([self.w, np.asarray(w)])
        return Graph(self.n, uu, vv, ww)

    def delete_edges(self, edge_indices: np.ndarray) -> "Graph":
        """New graph with the named edges removed (order of survivors kept).

        ``edge_indices`` may be an integer index array (duplicates allowed)
        or a boolean mask of length ``m``.
        """
        edge_indices = np.asarray(edge_indices)
        if edge_indices.dtype == bool:
            if edge_indices.shape != self.u.shape:
                raise ValueError("boolean delete mask must have length m")
            drop = edge_indices
        else:
            edge_indices = as_index_array(edge_indices)
            if edge_indices.size and (
                edge_indices.min() < 0 or edge_indices.max() >= self.num_edges
            ):
                raise ValueError("edge index out of range")
            drop = np.zeros(self.num_edges, dtype=bool)
            drop[edge_indices] = True
        keep = ~drop
        return Graph(
            self.n, self.u[keep], self.v[keep], self.w[keep], validate=False
        )

    def reweight_edges(self, edge_indices: np.ndarray, new_w: np.ndarray) -> "Graph":
        """New graph with ``w[edge_indices[i]] = new_w[i]`` (endpoints shared)."""
        edge_indices = as_index_array(edge_indices)
        new_w = np.asarray(new_w, dtype=np.float64)
        if edge_indices.size and (
            edge_indices.min() < 0 or edge_indices.max() >= self.num_edges
        ):
            raise ValueError("edge index out of range")
        check_edge_weights(new_w)
        w = self.w.copy()
        w[edge_indices] = new_w
        return Graph(self.n, self.u, self.v, w, validate=False)

    def apply_edits(
        self, edits, *, return_index_map: bool = False
    ) -> Union["Graph", Tuple["Graph", np.ndarray]]:
        """Apply one :class:`~repro.graph.edits.EdgeEdits` batch.

        Deterministic edge order: surviving original edges first (original
        relative order, reweights applied in place), then the inserted
        edges in batch order — so two identical mutation histories produce
        byte-identical edge arrays and hence equal fingerprints.

        With ``return_index_map=True`` additionally returns an int64 array
        of length ``m`` mapping each original edge index to its index in
        the new graph (``-1`` for deleted edges); inserted edges occupy
        indices ``m_surviving ..`` in batch order.
        """
        edits.validate_for(self)
        m = self.num_edges
        keep = np.ones(m, dtype=bool)
        keep[edits.delete] = False
        w = self.w
        if edits.num_reweights:
            w = w.copy()
            w[edits.reweight] = edits.reweight_w
        uu = np.concatenate([self.u[keep], edits.insert_u])
        vv = np.concatenate([self.v[keep], edits.insert_v])
        ww = np.concatenate([w[keep], edits.insert_w])
        mutated = Graph(self.n, uu, vv, ww, validate=False)
        if not return_index_map:
            return mutated
        index_map = np.cumsum(keep, dtype=np.int64) - 1
        index_map[~keep] = -1
        return mutated, index_map

    # ------------------------------------------------------------------ #
    # edge utilities
    # ------------------------------------------------------------------ #
    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(u, v)`` endpoint arrays."""
        return self.u, self.v

    def incidence_matrix(self) -> sp.csr_matrix:
        """Signed edge-vertex incidence matrix ``B`` (m x n).

        Row ``e`` has ``+sqrt(w_e)`` at ``u[e]`` and ``-sqrt(w_e)`` at
        ``v[e]`` so that ``B.T @ B`` equals the graph Laplacian.
        """
        m = self.num_edges
        sq = np.sqrt(self.w)
        rows = np.repeat(np.arange(m), 2)
        cols = np.empty(2 * m, dtype=np.int64)
        cols[0::2] = self.u
        cols[1::2] = self.v
        data = np.empty(2 * m, dtype=np.float64)
        data[0::2] = sq
        data[1::2] = -sq
        return sp.csr_matrix((data, (rows, cols)), shape=(m, self.n))

    def weight_buckets(self, base: float, w_min: Optional[float] = None) -> np.ndarray:
        """Assign each edge to a geometric weight class.

        Edge ``e`` goes to class ``i >= 1`` when ``w_e / w_min`` lies in
        ``[base^(i-1), base^i)``.  This is the bucketing used by the AKPW
        algorithm (Algorithm 5.1 step iii).
        """
        if base <= 1:
            raise ValueError("base must be > 1")
        if self.num_edges == 0:
            return np.zeros(0, dtype=np.int64)
        wm = float(self.w.min()) if w_min is None else float(w_min)
        ratio = self.w / wm
        # Guard against floating point issues at bucket boundaries.
        cls = np.floor(np.log(ratio) / np.log(base) + 1e-12).astype(np.int64) + 1
        return np.maximum(cls, 1)
