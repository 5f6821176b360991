"""Cost accounting for the standard parallel primitives.

The paper's algorithms are built from a handful of classic work-efficient
PRAM primitives (map, reduce, filter, semisort, pointer jumping).
These helpers charge the textbook work/depth of each primitive to a
:class:`~repro.pram.model.CostModel`.  The actual data movement is done with
NumPy: the parallel machine is simulated with vectorized sequential code,
and its work/depth is what these helpers charge.
"""

from __future__ import annotations

from repro.pram.model import CostModel, log2ceil


def charge_map(cost: CostModel, n: int, per_item_work: float = 1.0) -> None:
    """A parallel map over ``n`` items: O(n) work, O(1) depth."""
    if n <= 0:
        return
    cost.charge(work=n * per_item_work, depth=1.0)


def charge_reduce(cost: CostModel, n: int) -> None:
    """A parallel reduction over ``n`` items: O(n) work, O(log n) depth."""
    if n <= 0:
        return
    cost.charge(work=float(n), depth=log2ceil(n))


def charge_filter(cost: CostModel, n: int) -> None:
    """A parallel filter (map + scan + scatter): O(n) work, O(log n) depth."""
    if n <= 0:
        return
    cost.charge(work=3.0 * n, depth=2.0 * log2ceil(n) + 1.0)


def charge_elimination_transfer(
    cost: CostModel, num_eliminated: int, rounds: int, width: int = 1
) -> None:
    """One direction of an elimination solve transfer (forward or backward).

    Work is linear in the eliminated vertices (times the batch ``width``);
    depth is one unit per rake/compress *round* — the paper's O(log n)
    parallel tree-contraction depth (Lemma 6.5) — because the steps of a
    round are independent but consecutive rounds are sequentially dependent.

    ``cost`` is whatever model owns the calling computation — on the solve
    hot path that is the solve's private model (see the threading contract
    in :mod:`repro.pram.model`).
    """
    cost.charge(
        work=float(num_eliminated + 1) * max(width, 1),
        depth=float(max(rounds, 1)),
    )


def charge_bfs_round(cost: CostModel, frontier_edges: int, n: int) -> None:
    """One level-synchronous BFS round touching ``frontier_edges`` edges.

    Matches the parallel ball-growing cost quoted in Section 2 of the paper:
    O(log n) depth per level and work proportional to the edges scanned.
    """
    cost.charge_round(work=float(max(frontier_edges, 1)), depth=log2ceil(n))


def charge_ball_growing_round(
    cost: CostModel, scanned_edges: int, candidates: int, n: int
) -> None:
    """One synchronous round of delayed multi-source ball growing.

    The round scans the frontier's adjacency (``scanned_edges`` entries) and
    resolves ownership conflicts among ``candidates`` claimed vertices by a
    semisort — O(scanned + candidates) work and O(log n) depth, the
    parallel-ball-growing cost of Section 2 used by Theorem 4.1's depth
    bound of O(rho log^2 n).
    """
    cost.charge_round(
        work=float(max(scanned_edges, 1)) + float(max(candidates, 0)),
        depth=log2ceil(n),
    )


def charge_pointer_jump(cost: CostModel, n: int) -> None:
    """One pointer-jumping sweep ``p <- p[p]`` over ``n`` pointers.

    O(n) work and O(1) depth per sweep; O(log n) sweeps flatten any forest,
    which is the bulk connectivity / hooking primitive of the
    Andoni et al. log-diameter connectivity style used by the array
    union-find and the forest-rooting pipeline.
    """
    if n <= 0:
        return
    cost.charge_round(work=float(n), depth=1.0)


def charge_rooting_sweep(cost: CostModel, arcs: int) -> None:
    """One list-ranking / Euler-tour sweep over ``arcs`` tour arcs.

    Rooting a forest takes O(log n) such sweeps (pointer doubling over the
    Euler tour successors), for O(m log n) total work and O(log n) depth —
    the parallel tree-rooting bound the low-stretch pipeline charges per
    rooting pass.
    """
    if arcs <= 0:
        return
    cost.charge_round(work=float(arcs), depth=1.0)


def charge_semisort(cost: CostModel, n: int) -> None:
    """Semisort / bucket-group ``n`` integer keys bounded by ``poly(n)``.

    Randomized semisorting is O(n) work and O(log n) depth; this is the
    primitive behind the AKPW weight-class bucket grouping and the
    owner-resolution steps of ball growing.
    """
    if n <= 0:
        return
    cost.charge(work=float(n), depth=log2ceil(n))
