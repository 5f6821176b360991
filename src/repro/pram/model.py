"""PRAM work-depth accounting.

The :class:`CostModel` is a pair of counters (work, depth) plus a round
count.  Sub-computations that run one after another compose with
:meth:`CostModel.sequential`: work and depth both add up.

The numbers reported are operation counts in the same units the paper uses:
one unit per edge/vertex touched per round, ``log n`` units of depth per
global synchronization round (the standard CRCW-to-EREW style accounting the
paper references for parallel ball growing).

Threading contract: a :class:`CostModel` is **single-owner** mutable state —
charges are plain read-modify-write float updates with no internal locking.
Code that runs concurrently charges a fresh model of its own.  This is how
the solver keeps ``SolveReport.work``/``depth`` exact under concurrent
solves: each solve charges a private model and hands its totals to its
report, and nothing merges them back into shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class CostModel:
    """Accumulates work and depth for one (sub-)computation.

    Attributes
    ----------
    work:
        Total operation count charged so far.
    depth:
        Length of the longest dependency chain charged so far.
    rounds:
        Number of global synchronization rounds charged (useful for
        sanity-checking e.g. that BFS depth equals the radius).
    enabled:
        ``False`` makes every charge a no-op (see :func:`null_cost`).
    """

    work: float = 0.0
    depth: float = 0.0
    rounds: int = 0
    enabled: bool = True

    def charge(self, work: float = 0.0, depth: float = 0.0) -> None:
        """Charge ``work`` units of work and ``depth`` units of depth."""
        if not self.enabled:
            return
        self.work += work
        self.depth += depth

    def charge_round(self, work: float, depth: float = 1.0) -> None:
        """Charge one synchronization round doing ``work`` total operations."""
        if not self.enabled:
            return
        self.work += work
        self.depth += depth
        self.rounds += 1

    def sequential(self, other: "CostModel") -> None:
        """Merge ``other`` as if it ran *after* everything charged so far."""
        if not self.enabled:
            return
        self.work += other.work
        self.depth += other.depth
        self.rounds += other.rounds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostModel(work={self.work:.3g}, depth={self.depth:.3g}, rounds={self.rounds})"


class _NullCost(CostModel):
    """A cost model that ignores all charges (used as the default argument)."""

    def __init__(self) -> None:
        super().__init__(enabled=False)


#: Shared sink for algorithms called without an explicit cost model.
NULL_COST = _NullCost()


def null_cost() -> CostModel:
    """Return the shared no-op cost model."""
    return NULL_COST


def log2ceil(n: int) -> float:
    """``max(1, ceil(log2 n))`` — the depth charged for one global sync."""
    return max(1.0, math.ceil(math.log2(max(n, 2))))
