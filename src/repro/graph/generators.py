"""Workload generators for the experiments.

The paper's solver and decomposition routines are evaluated here on the
standard Laplacian-solver workloads: 2-D/3-D grid graphs (discretized Poisson
problems), tori, random regular graphs, Erdős–Rényi graphs, preferential
attachment graphs, random geometric graphs, and weighted variants with
log-uniform weights (to exercise many AKPW weight classes).  All generators
return :class:`~repro.graph.graph.Graph` objects and are deterministic given
a seed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.util.dtypes import min_index_dtype
from repro.util.rng import RngLike, as_rng


# --------------------------------------------------------------------------- #
# structured meshes
# --------------------------------------------------------------------------- #
def path_graph(n: int, weights: Optional[np.ndarray] = None) -> Graph:
    """Path on ``n`` vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.arange(n - 1, dtype=min_index_dtype(n, n))
    v = u + 1
    return Graph(n, u, v, weights)


def cycle_graph(n: int, weights: Optional[np.ndarray] = None) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError("n must be >= 3")
    u = np.arange(n, dtype=min_index_dtype(n, n))
    v = (u + 1) % n
    return Graph(n, u, v, weights)


def star_graph(n: int) -> Graph:
    """Star with center 0 and ``n - 1`` leaves."""
    if n < 2:
        raise ValueError("n must be >= 2")
    idt = min_index_dtype(n, n)
    u = np.zeros(n - 1, dtype=idt)
    v = np.arange(1, n, dtype=idt)
    return Graph(n, u, v)


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    iu = np.triu_indices(n, k=1)
    return Graph(n, iu[0], iu[1])


def grid_2d(rows: int, cols: int, *, wrap: bool = False) -> Graph:
    """2-D grid (or torus when ``wrap=True``) with unit weights.

    Vertex ``(r, c)`` has index ``r * cols + c``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    # A grid/torus has m <= 2n edges, so sizing the index dtype for (n, 2n)
    # keeps every edge array lean without counting edges up front.
    idx = np.arange(rows * cols, dtype=min_index_dtype(rows * cols, 2 * rows * cols)).reshape(
        rows, cols
    )
    us = []
    vs = []
    # horizontal edges
    us.append(idx[:, :-1].ravel())
    vs.append(idx[:, 1:].ravel())
    # vertical edges
    us.append(idx[:-1, :].ravel())
    vs.append(idx[1:, :].ravel())
    if wrap:
        if cols > 2:
            us.append(idx[:, -1].ravel())
            vs.append(idx[:, 0].ravel())
        if rows > 2:
            us.append(idx[-1, :].ravel())
            vs.append(idx[0, :].ravel())
    u = np.concatenate(us)
    v = np.concatenate(vs)
    return Graph(rows * cols, u, v)


def torus_2d(rows: int, cols: int) -> Graph:
    """2-D torus (grid with wrap-around)."""
    return grid_2d(rows, cols, wrap=True)


def grid_3d(nx: int, ny: int, nz: int) -> Graph:
    """3-D grid with unit weights."""
    if min(nx, ny, nz) < 1:
        raise ValueError("dimensions must be >= 1")
    nverts = nx * ny * nz
    idx = np.arange(nverts, dtype=min_index_dtype(nverts, 3 * nverts)).reshape(nx, ny, nz)
    us = []
    vs = []
    us.append(idx[:-1, :, :].ravel())
    vs.append(idx[1:, :, :].ravel())
    us.append(idx[:, :-1, :].ravel())
    vs.append(idx[:, 1:, :].ravel())
    us.append(idx[:, :, :-1].ravel())
    vs.append(idx[:, :, 1:].ravel())
    return Graph(nx * ny * nz, np.concatenate(us), np.concatenate(vs))


# --------------------------------------------------------------------------- #
# random graphs
# --------------------------------------------------------------------------- #
def erdos_renyi_gnm(n: int, m: int, seed: RngLike = None, *, connected: bool = True) -> Graph:
    """G(n, m) random graph (simple).

    With ``connected=True`` a random spanning tree is inserted first so that
    the result is always connected (the solver assumes connectivity); the
    remaining ``m - (n - 1)`` edges are sampled uniformly without duplicates.
    """
    rng = as_rng(seed)
    if n < 1:
        raise ValueError("n must be >= 1")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"too many edges requested ({m} > {max_edges})")
    edges = set()
    us = []
    vs = []
    if connected and n > 1:
        perm = rng.permutation(n)
        for i in range(1, n):
            a = int(perm[rng.integers(0, i)])
            b = int(perm[i])
            lo, hi = (a, b) if a < b else (b, a)
            edges.add((lo, hi))
            us.append(lo)
            vs.append(hi)
        if m < n - 1:
            raise ValueError("connected G(n, m) needs m >= n - 1")
    target = m
    while len(edges) < target:
        need = target - len(edges)
        cand_u = rng.integers(0, n, size=2 * need + 8)
        cand_v = rng.integers(0, n, size=2 * need + 8)
        for a, b in zip(cand_u, cand_v):
            if a == b:
                continue
            lo, hi = (int(a), int(b)) if a < b else (int(b), int(a))
            if (lo, hi) in edges:
                continue
            edges.add((lo, hi))
            us.append(lo)
            vs.append(hi)
            if len(edges) >= target:
                break
    return Graph(n, us, vs)


def random_regular_graph(n: int, d: int, seed: RngLike = None, max_rounds: int = 500) -> Graph:
    """Random ``d``-regular simple graph via the configuration model.

    A random stub pairing is drawn and then repaired: every self-loop or
    duplicate edge is broken by a random double edge swap (which preserves
    all degrees).  Repair converges quickly for the moderate degrees used in
    the benchmarks; if it stalls the pairing is redrawn.
    """
    rng = as_rng(seed)
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n:
        raise ValueError("d must be < n")

    def edge_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return lo * np.int64(n) + hi

    for _attempt in range(20):
        stubs = np.repeat(np.arange(n, dtype=min_index_dtype(n, n * d // 2)), d)
        rng.shuffle(stubs)
        u = stubs[0::2].copy()
        v = stubs[1::2].copy()
        m = u.shape[0]
        for _round in range(max_rounds):
            keys = edge_key(u, v)
            order = np.argsort(keys, kind="stable")
            dup = np.zeros(m, dtype=bool)
            dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
            bad = np.flatnonzero((u == v) | dup)
            if bad.size == 0:
                return Graph(n, u, v)
            # Swap each bad edge with a random partner edge: (u1,v1),(u2,v2)
            # -> (u1,v2),(u2,v1).  Degrees are preserved; repeat until clean.
            partners = rng.integers(0, m, size=bad.size)
            for e, f in zip(bad, partners):
                if e == f:
                    continue
                u[e], v[f] = v[f], u[e]
        # repair stalled; redraw the pairing
    raise RuntimeError("failed to generate a simple random regular graph; try a different seed")


def preferential_attachment(n: int, k: int, seed: RngLike = None) -> Graph:
    """Barabási–Albert style preferential attachment graph.

    Starts from a clique on ``k + 1`` vertices; each new vertex attaches to
    ``k`` distinct existing vertices chosen with probability proportional to
    degree.
    """
    rng = as_rng(seed)
    if k < 1 or n <= k + 1:
        raise ValueError("need n > k + 1 >= 2")
    us = []
    vs = []
    targets = []  # repeated-by-degree pool
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            us.append(i)
            vs.append(j)
            targets.extend([i, j])
    for new in range(k + 1, n):
        chosen = set()
        pool = np.asarray(targets, dtype=np.int64)
        while len(chosen) < k:
            pick = int(pool[rng.integers(0, pool.shape[0])])
            chosen.add(pick)
        for t in chosen:
            us.append(new)
            vs.append(t)
            targets.extend([new, t])
    return Graph(n, us, vs)


def random_geometric_graph(
    n: int, radius: float, seed: RngLike = None, *, connect: bool = True
) -> Graph:
    """Random geometric graph on the unit square.

    Vertices are uniform points; edges join pairs within ``radius``.  With
    ``connect=True`` a nearest-neighbor chain over a random ordering is added
    to guarantee connectivity.
    """
    rng = as_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu = np.triu_indices(n, k=1)
    mask = dist[iu] <= radius
    us = iu[0][mask]
    vs = iu[1][mask]
    if connect and n > 1:
        order = np.argsort(pts[:, 0], kind="stable")
        us = np.concatenate([us, order[:-1]])
        vs = np.concatenate([vs, order[1:]])
        g = Graph(n, us, vs)
        g, _ = g.coalesce()
        return g
    return Graph(n, us, vs)


def rmat_edge_blocks(
    scale: int,
    edge_factor: int = 8,
    seed: RngLike = None,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    block_edges: int = 1 << 20,
):
    """Yield ``(u, v, w)`` blocks of a recursive-matrix (R-MAT) multigraph.

    The Graph500-style generator on ``n = 2**scale`` vertices with
    ``edge_factor * n`` directed edge draws: each edge picks one quadrant of
    the adjacency matrix per bit level with probabilities ``(a, b, c, d)``
    (``d = 1 - a - b - c``).  Self-loops are dropped; parallel edges are
    kept (the chain build coalesces multigraphs anyway).  Blocks are emitted
    with lean index dtypes and unit weights, sized so generation never
    materializes the full edge list — feed them to
    :func:`repro.graph.io.graph_from_edge_blocks`.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if edge_factor < 1:
        raise ValueError("edge_factor must be >= 1")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be non-negative")
    rng = as_rng(seed)
    n = 1 << scale
    remaining = edge_factor * n
    idt = min_index_dtype(n, remaining)
    while remaining > 0:
        size = min(int(block_edges), remaining)
        remaining -= size
        u = np.zeros(size, dtype=idt)
        v = np.zeros(size, dtype=idt)
        for _bit in range(scale):
            r = rng.random(size)
            # quadrants: [0, a) -> (0, 0); [a, a+b) -> (0, 1);
            #            [a+b, a+b+c) -> (1, 0); rest -> (1, 1)
            ubit = r >= a + b
            vbit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
            u = (u << 1) | ubit.astype(idt)
            v = (v << 1) | vbit.astype(idt)
        keep = u != v
        if not keep.all():
            u = u[keep]
            v = v[keep]
        yield u, v, np.ones(u.shape[0], dtype=np.float64)


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    seed: RngLike = None,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    block_edges: int = 1 << 20,
) -> Graph:
    """R-MAT multigraph on ``2**scale`` vertices (see :func:`rmat_edge_blocks`).

    Built through the streaming ingestion path, so peak memory during
    generation is one block plus the final arrays.
    """
    from repro.graph.io import graph_from_edge_blocks

    blocks = rmat_edge_blocks(
        scale, edge_factor, seed, a=a, b=b, c=c, block_edges=block_edges
    )
    n = 1 << scale
    return graph_from_edge_blocks(n, blocks, validate=False)


# --------------------------------------------------------------------------- #
# weighted variants
# --------------------------------------------------------------------------- #
def with_random_weights(
    graph: Graph,
    seed: RngLike = None,
    *,
    spread: float = 1e3,
    distribution: str = "loguniform",
) -> Graph:
    """Assign random positive weights to an existing graph.

    ``spread`` is the ratio between the largest and smallest possible weight
    (the paper's Delta); "loguniform" exercises many AKPW weight classes.
    """
    rng = as_rng(seed)
    m = graph.num_edges
    if distribution == "loguniform":
        w = np.exp(rng.uniform(0.0, math.log(max(spread, 1.0)), size=m))
    elif distribution == "uniform":
        w = 1.0 + rng.random(m) * (spread - 1.0)
    elif distribution == "exponential":
        w = 1.0 + rng.exponential(scale=spread / 4.0, size=m)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return graph.reweighted(w)


def weighted_grid_2d(rows: int, cols: int, seed: RngLike = None, spread: float = 1e3) -> Graph:
    """2-D grid with log-uniform random weights (anisotropic Poisson-like)."""
    return with_random_weights(grid_2d(rows, cols), seed=seed, spread=spread)


def weighted_sdd_system(
    n: int,
    m: int,
    seed: RngLike = None,
    *,
    excess_fraction: float = 0.1,
    positive_offdiag_fraction: float = 0.1,
):
    """A random general SDD matrix (not a Laplacian) plus a compatible rhs.

    Used to exercise the Gremban reduction path of the solver: a connected
    random graph Laplacian is perturbed with positive off-diagonal entries
    and diagonal excess.

    Returns ``(matrix, b)`` where ``matrix`` is ``scipy.sparse.csr_matrix``.
    """
    import scipy.sparse as sp

    from repro.graph.laplacian import graph_to_laplacian

    rng = as_rng(seed)
    g = erdos_renyi_gnm(n, m, seed=rng)
    lap = graph_to_laplacian(g).tolil()
    # positive off-diagonal entries: flip the sign of a few edges' entries
    # while keeping diagonal dominance by increasing the diagonal.
    num_flip = max(1, int(positive_offdiag_fraction * g.num_edges))
    flip = rng.choice(g.num_edges, size=num_flip, replace=False)
    for e in flip:
        i, j = int(g.u[e]), int(g.v[e])
        wij = g.w[e]
        lap[i, j] += 2 * wij
        lap[j, i] += 2 * wij
        lap[i, i] += 2 * wij
        lap[j, j] += 2 * wij
    # diagonal excess on a few vertices
    num_excess = max(1, int(excess_fraction * n))
    bump = rng.choice(n, size=num_excess, replace=False)
    for i in bump:
        lap[i, i] += 1.0 + rng.random()
    matrix = sp.csr_matrix(lap)
    b = rng.standard_normal(n)
    return matrix, b


# --------------------------------------------------------------------------- #
# registry used by benchmarks
# --------------------------------------------------------------------------- #
def standard_workloads(scale: str = "small", seed: int = 0):
    """Named workload suite used across the benchmark harness.

    Returns a list of ``(name, Graph)`` pairs.  ``scale`` in {"tiny",
    "small", "medium"} controls the sizes.
    """
    sizes = {
        "tiny": dict(grid=12, grid3=5, nrand=200, mrand=600, dreg=6),
        "small": dict(grid=32, grid3=8, nrand=1000, mrand=4000, dreg=6),
        "medium": dict(grid=64, grid3=12, nrand=4000, mrand=16000, dreg=8),
    }
    if scale not in sizes:
        raise ValueError(f"unknown scale {scale!r}")
    s = sizes[scale]
    out = [
        (f"grid_{s['grid']}x{s['grid']}", grid_2d(s["grid"], s["grid"])),
        (f"grid3d_{s['grid3']}^3", grid_3d(s["grid3"], s["grid3"], s["grid3"])),
        (f"er_n{s['nrand']}_m{s['mrand']}", erdos_renyi_gnm(s["nrand"], s["mrand"], seed=seed)),
        (f"reg_n{s['nrand']}_d{s['dreg']}", random_regular_graph(s["nrand"], s["dreg"], seed=seed + 1)),
        (
            f"wgrid_{s['grid']}x{s['grid']}",
            weighted_grid_2d(s["grid"], s["grid"], seed=seed + 2, spread=1e3),
        ),
    ]
    return out
