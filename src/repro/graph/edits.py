"""Batched edge-edit descriptions for mutating graphs.

Real traffic mutates graphs: edges are inserted, deleted, and reweighted
between solves.  :class:`EdgeEdits` is the value object that describes one
such batch — the input of :meth:`repro.graph.graph.Graph.apply_edits` (which
produces the mutated graph) and of
:meth:`repro.core.operator.LaplacianOperator.update` (which patches the
factorization instead of rebuilding it).

An edit batch is expressed against a *specific* graph's edge numbering:

* **inserts** are new ``(u, v, w)`` edges on the existing vertex set;
* **deletes** name edge indices of the current graph;
* **reweights** name edge indices of the current graph plus their new
  finite positive weights.

Deletes and reweights must be disjoint and duplicate-free (an edge cannot
be deleted twice, or deleted and reweighted in one batch) — the batch is a
*set* of edits with no ordering ambiguity, which is what lets the update
machinery reason about damage without replaying a log.  The vertex set is
fixed: edits never change ``n`` (grow the graph by building it with spare
vertices, or rebuild through the constructor).

Batches are immutable; combine them with :meth:`EdgeEdits.merge`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.graph.graph import check_edge_weights, check_vertex_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph

__all__ = ["EdgeEdits"]

_EMPTY_INT = np.zeros(0, dtype=np.int64)
_EMPTY_FLOAT = np.zeros(0, dtype=np.float64)


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values if values is not None else _EMPTY_INT)
    if arr.size == 0:
        return _EMPTY_INT
    check_vertex_ids(arr, name)
    return arr.astype(np.int64, copy=False).ravel()


def _as_weight_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values if values is not None else _EMPTY_FLOAT, dtype=np.float64).ravel()
    check_edge_weights(arr, name)
    return arr


class EdgeEdits:
    """One immutable batch of edge inserts, deletes, and reweights.

    Build with the classmethod constructors (:meth:`inserts`,
    :meth:`deletes`, :meth:`reweights`) and combine with :meth:`merge`, or
    pass the arrays directly.  All arrays are normalized to int64 / float64
    and validated for internal consistency at construction; bounds against
    a concrete graph are checked by :meth:`validate_for`.
    """

    __slots__ = ("insert_u", "insert_v", "insert_w", "delete", "reweight", "reweight_w")

    def __init__(
        self,
        *,
        insert_u: Optional[Iterable[int]] = None,
        insert_v: Optional[Iterable[int]] = None,
        insert_w: Optional[Iterable[float]] = None,
        delete: Optional[Iterable[int]] = None,
        reweight: Optional[Iterable[int]] = None,
        reweight_w: Optional[Iterable[float]] = None,
    ) -> None:
        self.insert_u = _as_int_array(insert_u, "insert_u")
        self.insert_v = _as_int_array(insert_v, "insert_v")
        self.insert_w = _as_weight_array(insert_w, "insert_w")
        self.delete = _as_int_array(delete, "delete")
        self.reweight = _as_int_array(reweight, "reweight")
        self.reweight_w = _as_weight_array(reweight_w, "reweight_w")
        if not (self.insert_u.shape == self.insert_v.shape == self.insert_w.shape):
            raise ValueError("insert_u, insert_v, insert_w must have equal lengths")
        if self.reweight.shape != self.reweight_w.shape:
            raise ValueError("reweight and reweight_w must have equal lengths")
        if np.any(self.insert_u == self.insert_v):
            raise ValueError("inserted edges must not be self-loops")
        if self.delete.size and np.unique(self.delete).size != self.delete.size:
            raise ValueError("delete indices must be unique")
        if self.reweight.size and np.unique(self.reweight).size != self.reweight.size:
            raise ValueError("reweight indices must be unique")
        if self.delete.size and self.reweight.size:
            if np.intersect1d(self.delete, self.reweight).size:
                raise ValueError("an edge cannot be both deleted and reweighted")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def inserts(cls, u, v, w) -> "EdgeEdits":
        """A batch of pure edge insertions ``(u[i], v[i], w[i])``."""
        return cls(insert_u=u, insert_v=v, insert_w=w)

    @classmethod
    def deletes(cls, edge_indices) -> "EdgeEdits":
        """A batch of pure deletions of the named edge indices."""
        return cls(delete=edge_indices)

    @classmethod
    def reweights(cls, edge_indices, new_w) -> "EdgeEdits":
        """A batch of pure reweights: edge ``edge_indices[i]`` gets ``new_w[i]``."""
        return cls(reweight=edge_indices, reweight_w=new_w)

    @classmethod
    def empty(cls) -> "EdgeEdits":
        """The no-op batch."""
        return cls()

    @staticmethod
    def merge(*batches: "EdgeEdits") -> "EdgeEdits":
        """Union of several batches (re-validated: overlaps are rejected)."""
        return EdgeEdits(
            insert_u=np.concatenate([b.insert_u for b in batches]) if batches else None,
            insert_v=np.concatenate([b.insert_v for b in batches]) if batches else None,
            insert_w=np.concatenate([b.insert_w for b in batches]) if batches else None,
            delete=np.concatenate([b.delete for b in batches]) if batches else None,
            reweight=np.concatenate([b.reweight for b in batches]) if batches else None,
            reweight_w=np.concatenate([b.reweight_w for b in batches]) if batches else None,
        )

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_inserts(self) -> int:
        return int(self.insert_u.size)

    @property
    def num_deletes(self) -> int:
        return int(self.delete.size)

    @property
    def num_reweights(self) -> int:
        return int(self.reweight.size)

    @property
    def num_edits(self) -> int:
        """Total edit count across all three kinds."""
        return self.num_inserts + self.num_deletes + self.num_reweights

    @property
    def is_empty(self) -> bool:
        return self.num_edits == 0

    def touched_edge_indices(self) -> np.ndarray:
        """Sorted unique indices of existing edges this batch touches."""
        return np.union1d(self.delete, self.reweight)

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of the *inserted* edges.

        Deleted/reweighted endpoints need the owning graph to resolve; use
        :meth:`Graph.apply_edits` / the update machinery for those.
        """
        return np.union1d(self.insert_u, self.insert_v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeEdits(inserts={self.num_inserts}, deletes={self.num_deletes}, "
            f"reweights={self.num_reweights})"
        )

    # ------------------------------------------------------------------ #
    # validation against a graph
    # ------------------------------------------------------------------ #
    def validate_for(self, graph: "Graph") -> None:
        """Check every index in this batch against ``graph``'s bounds."""
        n, m = graph.n, graph.num_edges
        for name, arr in (("insert_u", self.insert_u), ("insert_v", self.insert_v)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"{name} contains vertex indices outside [0, {n})")
        for name, arr in (("delete", self.delete), ("reweight", self.reweight)):
            if arr.size and (arr.min() < 0 or arr.max() >= m):
                raise ValueError(f"{name} contains edge indices outside [0, {m})")
