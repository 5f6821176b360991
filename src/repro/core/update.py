"""Incremental re-factorization for mutating graphs (dynamic updates).

The ROADMAP's "dynamic graphs" item: real traffic inserts, deletes, and
reweights edges between solves, and a full :func:`~repro.core.operator.factorize`
per mutation throws away almost all of the expensive chain construction.
:func:`update_operator` (surfaced as
:meth:`LaplacianOperator.update <repro.core.operator.LaplacianOperator.update>`)
patches the existing factorization instead:

* the **top chain level is rebuilt exactly** — mutated graph, fresh CSR
  Laplacian and fresh null-space projectors — so the outer
  iteration's matvec and residuals always see the true mutated system;
* everything **below the top level is reused wholesale** (low-stretch
  subgraph, sampled edges, elimination, compiled transfers, bottom LU) as a
  *stale preconditioner*.

Why that is correct: the reused levels only ever act as the preconditioner
``B_1`` of the (new) top system, and PCG converges to the true solution for
*any* preconditioner that is SPD on the range of the system matrix — the
tolerance is checked against the true residual of the mutated Laplacian, so
staleness costs iterations, never accuracy.  The stale preconditioner's null
space is spanned by the *old* component indicators, which keeps it SPD on
the new range exactly when the edit batch does not **merge** components
(deletes/splits/reweights/intra-component inserts shrink or preserve the
range; a merge would put a direction the preconditioner annihilates into the
new range).  Component merges therefore force a full rebuild regardless of
any threshold.

Damage accounting: only edits that touch the *chain-consumed* edges of the
top level (the low-stretch subgraph plus the sampled off-subgraph edges)
degrade the preconditioner — an edit to an unsampled edge changes only the
exact top matvec.  Each batch's damage, ``(touched chain edges + inserts) /
edges at last factorize``, accumulates across successive patches (staleness
compounds; without accumulation a long drip of 0.1% batches would never
rebuild), and once it exceeds :data:`REBUILD_DAMAGE` the operator is
rebuilt with a fresh ``factorize()`` — **bit-identical** to factorizing the
mutated graph from scratch, because the operator remembers its original
integer seed.  Neither path touches the process-level chain cache: a
patched chain is not what ``factorize()`` would build for the mutated graph,
so it must never sit under that graph's content-addressed key, and the
rebuild is an uncached ``factorize()``.  Entries of the pre-update graph
stay valid, because their key is the old graph's content fingerprint (see
:mod:`repro.core.chain_cache`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.chain import ChainLevel, PreconditionerChain
from repro.graph.laplacian import graph_to_laplacian
from repro.pram.model import log2ceil

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operator import LaplacianOperator
    from repro.graph.edits import EdgeEdits

__all__ = ["REBUILD_DAMAGE", "UpdateReport", "update_operator"]

#: Damage threshold of :func:`update_operator`: patching continues while the
#: accumulated fraction of chain-consumed edges touched by edit batches (plus
#: inserted edges) stays at or below this value; beyond it the operator is
#: rebuilt with a fresh ``factorize()``.
REBUILD_DAMAGE = 0.2


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`LaplacianOperator.update` call did and why.

    Attributes
    ----------
    strategy:
        ``"noop"`` (empty batch — the original operator is returned
        unchanged), ``"patched"`` (top level rebuilt exactly, deeper levels
        reused as a stale preconditioner), or ``"rebuilt"`` (full
        ``factorize()`` of the mutated graph, bit-identical to fresh).
    reason:
        Human-readable trigger (``"empty edit batch"``, ``"damage below
        threshold"``, ``"components merged"``, ``"damage ... exceeds
        threshold ..."``).
    num_edits:
        Total inserts + deletes + reweights in the batch.
    batch_damage:
        This batch's damage fraction: chain-consumed edges touched plus
        inserted edges, over the edge count at the last full factorize.
    accumulated_damage:
        Damage accumulated across every patch since the last full
        factorize, including this batch (``0.0`` after a rebuild).
    threshold:
        The :data:`REBUILD_DAMAGE` in force.
    seconds:
        Wall-clock time of the update (patch or rebuild).
    """

    strategy: str
    reason: str
    num_edits: int
    batch_damage: float
    accumulated_damage: float
    threshold: float
    seconds: float


@dataclass
class _ChainEdgeState:
    """Damage bookkeeping carried on patched operators.

    ``chain_edges`` holds the indices — in the *current* graph's edge
    numbering — of the top-level edges the chain consumed (low-stretch
    subgraph plus sampled edges; every edge for a depth-1 chain).  Each
    patch translates them through the edit's index map, so successive
    batches keep measuring damage against what the stale chain actually
    uses.  ``baseline_edges`` (the edge count at the last full factorize)
    fixes the damage denominator; ``damage`` is the accumulated fraction.
    """

    chain_edges: np.ndarray
    baseline_edges: int
    damage: float


def _initial_state(op: "LaplacianOperator") -> _ChainEdgeState:
    """Chain-consumed edge set of a freshly factorized operator."""
    top = op.chain.levels[0]
    if top.sparsifier is None:
        # Depth-1 chain: the bottom LU consumed every edge.
        chain_edges = np.arange(op.graph.num_edges, dtype=np.int64)
    else:
        chain_edges = np.union1d(
            top.sparsifier.subgraph_edges, top.sparsifier.sampled_edges
        ).astype(np.int64, copy=False)
    return _ChainEdgeState(
        chain_edges=chain_edges, baseline_edges=op.graph.num_edges, damage=0.0
    )


def _merges_components(op: "LaplacianOperator", edits: "EdgeEdits") -> bool:
    """Whether any inserted edge joins two distinct current components."""
    if edits.num_inserts == 0:
        return False
    labels = op._projector.labels
    return bool(np.any(labels[edits.insert_u] != labels[edits.insert_v]))


def _batch_damage(state: _ChainEdgeState, edits: "EdgeEdits") -> float:
    """Damage fraction of one batch against the chain-consumed edge set."""
    touched = edits.touched_edge_indices()
    hit = np.intersect1d(touched, state.chain_edges, assume_unique=True).size
    return (hit + edits.num_inserts) / max(state.baseline_edges, 1)


def update_operator(
    op: "LaplacianOperator", edits: "EdgeEdits"
) -> Tuple["LaplacianOperator", UpdateReport]:
    """Apply one edit batch to a factorized operator (patch or rebuild).

    Parameters
    ----------
    op:
        A Graph-backed :class:`~repro.core.operator.LaplacianOperator`
        (operators factorized from SDD matrices via the Gremban reduction
        carry a matrix the edit batch cannot address and raise).
    edits:
        The :class:`~repro.graph.edits.EdgeEdits` batch, expressed against
        ``op.graph``'s current edge numbering.

    Returns
    -------
    (operator, report):
        The operator to use from now on — ``op`` itself for an empty batch,
        otherwise a new operator (the original stays valid for in-flight
        solves against the old graph) — and the :class:`UpdateReport`.
    """
    from repro.core.operator import LaplacianOperator, factorize

    if op.reduction is not None:
        raise ValueError(
            "update() requires a Graph-backed operator; this operator was "
            "factorized from an SDD matrix through the Gremban reduction, "
            "whose matrix the edge-edit batch cannot address — re-factorize "
            "the mutated matrix instead"
        )
    edits.validate_for(op.graph)

    t0 = time.perf_counter()
    if edits.is_empty:
        return op, UpdateReport(
            strategy="noop",
            reason="empty edit batch",
            num_edits=0,
            batch_damage=0.0,
            accumulated_damage=getattr(op, "_update_state", None).damage
            if getattr(op, "_update_state", None) is not None
            else 0.0,
            threshold=REBUILD_DAMAGE,
            seconds=time.perf_counter() - t0,
        )

    state: Optional[_ChainEdgeState] = getattr(op, "_update_state", None)
    if state is None:
        state = _initial_state(op)

    batch_damage = _batch_damage(state, edits)
    accumulated = state.damage + batch_damage

    rebuild_reason: Optional[str] = None
    if _merges_components(op, edits):
        rebuild_reason = "components merged (stale preconditioner would be singular on the new range)"
    elif accumulated > REBUILD_DAMAGE:
        rebuild_reason = (
            f"accumulated damage {accumulated:.4f} exceeds threshold {REBUILD_DAMAGE:.4f}"
        )

    if rebuild_reason is not None:
        new_graph = op.graph.apply_edits(edits)
        new_op = factorize(
            new_graph,
            op.chain_config,
            op.solver_config,
            seed=op.factorize_seed,
        )
        return new_op, UpdateReport(
            strategy="rebuilt",
            reason=rebuild_reason,
            num_edits=edits.num_edits,
            batch_damage=batch_damage,
            accumulated_damage=0.0,
            threshold=REBUILD_DAMAGE,
            seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------ #
    # patch path: exact new top level, stale levels below
    # ------------------------------------------------------------------ #
    new_graph, index_map = op.graph.apply_edits(edits, return_index_map=True)
    old_top = op.chain.levels[0]
    new_top = ChainLevel(
        graph=new_graph,
        laplacian=graph_to_laplacian(new_graph),
        sparsifier=old_top.sparsifier,
        elimination=old_top.elimination,
        transfers=old_top.transfers,
        kappa=old_top.kappa,
    )
    new_chain = PreconditionerChain(
        levels=[new_top] + list(op.chain.levels[1:]),
        bottom_solver=op.chain.bottom_solver,
        stats=dict(op.chain.stats),
    )
    new_chain.stats["patched_updates"] = (
        float(op.chain.stats.get("patched_updates", 0.0)) + 1.0
    )

    # Translate the chain-consumed edge set into the new numbering (deleted
    # chain edges drop out; their damage is already folded into the
    # accumulator) so the *next* batch measures against what the stale
    # levels still reference.
    translated = index_map[state.chain_edges]
    new_state = _ChainEdgeState(
        chain_edges=translated[translated >= 0],
        baseline_edges=state.baseline_edges,
        damage=accumulated,
    )

    # The constructor re-derives the top and inner-level null-space
    # projectors (the bottom's comes with its reused factor) and the
    # Chebyshev bound slots (re-calibrated lazily — or eagerly for the
    # chebyshev method).  The patch's own charge is its setup cost.
    new_op = LaplacianOperator(
        graph=new_graph,
        chain=new_chain,
        chain_config=op.chain_config,
        solver_config=op.solver_config,
        reduction=None,
        original=None,
        original_n=new_graph.n,
        rng=op._rng,
        setup_work=float(max(new_graph.num_edges, 1)),
        setup_depth=log2ceil(max(new_graph.n, 2)),
        factorize_seed=op.factorize_seed,
    )
    new_op._update_state = new_state
    return new_op, UpdateReport(
        strategy="patched",
        reason="damage below threshold",
        num_edits=edits.num_edits,
        batch_damage=batch_damage,
        accumulated_damage=accumulated,
        threshold=REBUILD_DAMAGE,
        seconds=time.perf_counter() - t0,
    )
