"""Vectorized forest rooting (Euler tours + pointer jumping).

Rooting every tree of a forest — computing parents, hop/weighted depths and
component labels — is the per-level workhorse behind tree-stretch
measurement (binary-lifting LCA needs rooted depths) and the low-stretch
pipeline.  The classic sequential answer is a per-vertex DFS; this module
replaces it with the textbook parallel construction so the whole pass is a
handful of O(n + m) array sweeps:

1. **components** — bulk union-find hooking with pointer-jumping sweeps
   (:func:`repro.graph.union_find.connected_components_arrays`);
2. **orientation** — build the Euler tour of every tree (two arcs per edge,
   ``succ(a) = next arc out of head(a) after twin(a)``), cut each tour at
   its component's root, and list-rank the arcs by pointer doubling;
   an arc is *downward* (parent → child) exactly when it precedes its twin
   in the tour;
3. **depths** — pointer-double over the resulting parent pointers,
   accumulating hop and weighted depths in O(log depth) sweeps.

Every sweep is charged to the PRAM cost model as one O(items)-work,
O(1)-depth round (:func:`repro.pram.primitives.charge_rooting_sweep` /
``charge_pointer_jump``), matching the O(m log n) work / O(log n) depth
rooting bound the paper's Section 2 toolbox assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.union_find import connected_components_arrays
from repro.pram.model import CostModel, null_cost
from repro.pram.primitives import charge_map, charge_pointer_jump, charge_rooting_sweep
from repro.util.dtypes import as_index_array, min_index_dtype


@dataclass
class RootedForest:
    """A forest with every tree rooted at its smallest vertex.

    Attributes
    ----------
    parent:
        Per-vertex parent vertex (``-1`` at roots).
    parent_edge:
        Index (into the forest's edge arrays as passed to
        :func:`root_forest`) of the edge joining the vertex to its parent
        (``-1`` at roots).
    parent_weight:
        Weight of the parent edge (``0`` at roots).
    hop_depth, weighted_depth:
        Unweighted / weighted distance to the root of the vertex's tree.
    component:
        Per-vertex tree index, numbered ``0..num_trees-1`` by increasing
        root vertex.
    roots:
        Root vertex of each tree (sorted ascending).
    """

    parent: np.ndarray
    parent_edge: np.ndarray
    parent_weight: np.ndarray
    hop_depth: np.ndarray
    weighted_depth: np.ndarray
    component: np.ndarray
    roots: np.ndarray

    @property
    def num_trees(self) -> int:
        """Number of trees in the forest."""
        return int(self.roots.shape[0])


def forest_components(
    n: int, u: np.ndarray, v: np.ndarray, cost: Optional[CostModel] = None
) -> Tuple[int, np.ndarray]:
    """Component count and labels of the graph spanned by ``(u, v)``.

    Thin alias of :func:`connected_components_arrays`, exported here so the
    rooting / stretch / MST call sites share one connectivity primitive.
    """
    return connected_components_arrays(n, u, v, cost=cost)


def is_forest_edges(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edge multiset ``(u, v)`` on ``n`` vertices is acyclic.

    An edge set is a forest iff ``m == n - (number of components)``; parallel
    edges (two copies of the same edge) therefore count as a cycle.
    """
    u = as_index_array(u)
    if u.shape[0] >= max(n, 1):
        return False
    count, _ = forest_components(n, u, v)
    return int(u.shape[0]) == n - count


def root_forest(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    w: Optional[np.ndarray] = None,
    *,
    cost: Optional[CostModel] = None,
) -> RootedForest:
    """Root every tree of the forest ``(n, u, v, w)`` at its smallest vertex.

    Parameters
    ----------
    n:
        Number of vertices (isolated vertices become single-vertex trees).
    u, v:
        Endpoint arrays of the forest edges.  Raises :class:`ValueError`
        when the edges contain a cycle — including a parallel copy of an
        existing edge, since a multigraph with a repeated edge is not a
        forest.
    w:
        Optional positive edge weights (defaults to ones) used for
        ``weighted_depth``.
    cost:
        Optional PRAM cost model; charged one O(arcs)-work O(1)-depth round
        per pointer-jumping / list-ranking sweep.

    Returns
    -------
    RootedForest
        Identical parents/depths/components to a sequential DFS from each
        tree's smallest vertex (the tree structure determines them uniquely
        given the root), computed in O(log n) bulk sweeps.
    """
    cost = cost or null_cost()
    u = as_index_array(u)
    v = as_index_array(v)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")
    m = int(u.shape[0])
    # Everything that indexes vertices or arcs lives in the lean index dtype
    # (arc ids go up to 2m + 1 including the tour sentinel, which
    # min_index_dtype accounts for).
    idt = min_index_dtype(n, m)
    u = u.astype(idt, copy=False)
    v = v.astype(idt, copy=False)
    w = np.ones(m) if w is None else np.asarray(w, dtype=np.float64).ravel()
    if w.shape[0] != m:
        raise ValueError("w must have one entry per edge")
    if m and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("vertex index out of range")

    num_comp, component = forest_components(n, u, v, cost=cost)
    if m != n - num_comp:
        raise ValueError("edges contain a cycle (not a forest)")

    parent = np.full(n, -1, dtype=idt)
    parent_edge = np.full(n, -1, dtype=idt)
    parent_weight = np.zeros(n, dtype=w.dtype)
    hop_depth = np.zeros(n, dtype=idt)
    weighted_depth = np.zeros(n, dtype=w.dtype)
    # Roots are the per-component minima; with min-root hooking the smallest
    # vertex of a component is exactly the first vertex carrying each label.
    roots = np.full(num_comp, n, dtype=idt)
    if n:
        np.minimum.at(roots, component, np.arange(n, dtype=idt))
    if m == 0:
        return RootedForest(
            parent, parent_edge, parent_weight, hop_depth, weighted_depth, component, roots
        )

    # ------------------------------------------------------------------ #
    # Euler tour arcs: arc i is u[i] -> v[i], arc i + m is v[i] -> u[i].
    # ------------------------------------------------------------------ #
    num_arcs = 2 * m
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    arc_ar = np.arange(m, dtype=idt)
    arc_edge = np.concatenate([arc_ar, arc_ar])
    twin = np.concatenate([np.arange(m, num_arcs, dtype=idt), arc_ar])
    charge_map(cost, num_arcs)

    # arcs grouped by source vertex (argsort returns intp; cast once so
    # every derived arc array below stays lean)
    order = np.argsort(src, kind="stable").astype(idt, copy=False)
    deg = np.bincount(src, minlength=n).astype(idt, copy=False)
    indptr = np.zeros(n + 1, dtype=idt)
    indptr[1:] = np.cumsum(deg)
    # Position of each arc inside its source's adjacency block, and the
    # cyclic-next arc out of the same source.
    arc_pos = np.empty(num_arcs, dtype=idt)
    arc_pos[order] = np.arange(num_arcs, dtype=idt) - np.repeat(indptr[:-1], deg)
    cyc_next = order[indptr[src] + (arc_pos + 1) % deg[src]]
    # succ(a) = next arc out of head(a) after twin(a): one Euler cycle/tree.
    succ = cyc_next[twin]
    charge_rooting_sweep(cost, num_arcs)

    # Cut every tree's cycle at its root's first outgoing arc.
    term = num_arcs  # sentinel "end of tour"
    active_roots = roots[deg[roots] > 0]
    first_arc = order[indptr[active_roots]]
    pred = np.empty(num_arcs, dtype=idt)
    pred[succ] = np.arange(num_arcs, dtype=idt)
    succ[pred[first_arc]] = term
    charge_rooting_sweep(cost, num_arcs)

    # List-rank by pointer doubling: dist[a] = #arcs from a to the cut.
    nxt = np.empty(num_arcs + 1, dtype=idt)
    nxt[:num_arcs] = succ
    nxt[num_arcs] = term
    dist = np.ones(num_arcs + 1, dtype=idt)
    dist[num_arcs] = 0
    while True:
        charge_rooting_sweep(cost, num_arcs)
        if np.all(nxt[:num_arcs] == term):
            break
        dist[:num_arcs] += dist[nxt[:num_arcs]]
        nxt[:num_arcs] = nxt[nxt[:num_arcs]]
    dist = dist[:num_arcs]

    # An arc is downward (parent -> child) iff it precedes its twin in the
    # tour, i.e. it is farther from the cut.
    down = dist > dist[twin]
    child = dst[down]
    parent[child] = src[down]
    parent_edge[child] = arc_edge[down]
    parent_weight[child] = w[arc_edge[down]]
    charge_map(cost, num_arcs)

    # Depths by pointer doubling over parent pointers.
    anc = np.where(parent >= 0, parent, np.arange(n, dtype=idt))
    hop = (parent >= 0).astype(idt)
    wsum = parent_weight.copy()
    while True:
        charge_pointer_jump(cost, n)
        if np.array_equal(anc, anc[anc]):
            # All chains terminate at roots; one more accumulation closes
            # nothing because roots contribute zero.
            break
        hop = hop + hop[anc]
        wsum = wsum + wsum[anc]
        anc = anc[anc]
    hop_depth[:] = hop
    weighted_depth[:] = wsum

    return RootedForest(
        parent, parent_edge, parent_weight, hop_depth, weighted_depth, component, roots
    )
