"""Compiled solve transfers for greedy elimination (the chain hot path).

At solve time every application of the chain preconditioner must move a
right-hand side down to the Schur-complement system (*forward*) and extend
the reduced solution back up (*backward*).  Interpreting the elimination
schedule one step at a time costs a Python-level loop per CG iteration per
chain level; this module *compiles* the schedule
(:class:`~repro.core.elimination.EliminationSchedule`) once, into array-form
operators applied as one bulk scatter/gather sweep per elimination
sub-round:

* **forward** — for each sub-round in order, ``b[targets] += coeff *
  b[sources]`` as a single fused scatter-add (the sources are the vertices
  eliminated in that sub-round; their entries are final from then on).  The
  fully-propagated vector doubles as the back-substitution *carry*: entry
  ``v`` of it is exactly the forwarded value ``b_v`` at ``v``'s elimination
  time.
* **backward** — sub-rounds in reverse; each is one vectorized
  back-substitution assignment ``x[v] = (w1 x[u1] + w2 x[u2] + carry[v]) /
  (w1 + w2)`` (degree-2) or ``x[v] = x[u] + carry[v] / w`` (degree-1).

Both directions serve ``(n,)`` vectors and batched ``(n, k)`` blocks alike,
and are **bit-for-bit identical** to the sequential per-step replay: within
a sub-round the scatter-adds run in step order (``np.add.at`` accumulates
sequentially) and every arithmetic expression matches the replay's
evaluation order.  That guarantee is what lets the compiled chain reproduce
historical iteration counts and residuals exactly.

:func:`TransferOperators.forward_matrix` additionally exposes the composed
forward map as one explicit ``scipy.sparse`` CSR matrix (``n_kept x n``) for
diagnostics and linear-operator consumers; the hot path prefers the
per-sub-round sweeps for the bit-compatibility above.

A compiled :class:`TransferOperators` is immutable: :meth:`forward` and
:meth:`backward` allocate their carry/result arrays per call and only read
the precomputed index/coefficient arrays, so one compiled instance serves
any number of concurrent solves (each passing per-call data and charging
its own :class:`~repro.core.operator.SolveContext`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.elimination import EliminationResult, EliminationSchedule


@dataclass(frozen=True)
class _Rake:
    """One degree-1 sub-round: ``b[u] += b[v]`` forward, ``x[v] = x[u] + carry[v]/w``.

    ``layers`` splits ``(u, v)`` into duplicate-free-target slices (see
    :func:`_occurrence_layers`) so batched forwards can scatter with plain
    fancy-index adds while reproducing ``np.add.at``'s per-slot order.
    """

    v: np.ndarray
    u: np.ndarray
    w: np.ndarray
    layers: Tuple[Tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class _Compress:
    """One degree-2 sub-round.

    Forward uses the interleaved ``(targets, sources, coeffs)`` arrays —
    ``[u1_0, u2_0, u1_1, u2_1, ...]`` — so the scatter-add order matches the
    per-step replay exactly; backward uses the per-step neighbor arrays.
    ``layers`` carries the duplicate-free-target decomposition of the
    interleaved arrays for the batched forward path.
    """

    v: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    total: np.ndarray
    fwd_targets: np.ndarray
    fwd_sources: np.ndarray
    fwd_coeffs: np.ndarray
    layers: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _occurrence_layers(targets: np.ndarray) -> List[np.ndarray]:
    """Partition scatter steps into layers with unique targets, in order.

    Step ``i`` goes to layer ``L`` when ``targets[i]`` has appeared ``L``
    times before.  Within a layer every target is distinct, so a vectorized
    ``arr[targets_L] += ...`` performs exactly one add per slot; replaying
    layers in order applies the adds aimed at any single slot in the
    original step order — which, with sources never written inside a
    sub-round (a validated schedule invariant), makes the layered scatter
    bit-for-bit identical to a sequential ``np.add.at``.
    """
    order = np.argsort(targets, kind="stable")
    sorted_t = targets[order]
    new_group = np.r_[True, sorted_t[1:] != sorted_t[:-1]]
    group_start = np.flatnonzero(new_group)
    group_sizes = np.diff(np.r_[group_start, sorted_t.shape[0]])
    occ_sorted = np.arange(sorted_t.shape[0]) - np.repeat(group_start, group_sizes)
    occurrence = np.empty(targets.shape[0], dtype=np.int64)
    occurrence[order] = occ_sorted
    depth = int(occurrence.max(initial=-1)) + 1
    return [np.flatnonzero(occurrence == level) for level in range(depth)]


_SubRound = Union[_Rake, _Compress]


class TransferOperators:
    """Array-form forward/backward solve transfers for one elimination.

    Built once per chain level (at ``factorize`` time) by
    :func:`compile_transfers`; applied many times per solve.  The
    :meth:`forward` / :meth:`backward` pair shares the forward-propagated
    *carry* vector so a preconditioner application runs the forward sweep
    exactly once (the legacy ``forward_rhs`` + ``backward_solution``
    signatures re-ran it twice).
    """

    __slots__ = ("n", "kept_vertices", "num_steps", "num_subrounds", "_subrounds")

    def __init__(
        self,
        n: int,
        kept_vertices: np.ndarray,
        subrounds: List[_SubRound],
        num_steps: int,
    ) -> None:
        self.n = int(n)
        self.kept_vertices = np.asarray(kept_vertices, dtype=np.int64)
        self._subrounds = subrounds
        self.num_steps = int(num_steps)
        self.num_subrounds = len(subrounds)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def forward(self, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Propagate right-hand side(s) down; return ``(b_reduced, carry)``.

        ``carry`` is the fully-forwarded full-length array: at every
        eliminated vertex it holds the forwarded value at elimination time,
        which is precisely what :meth:`backward` substitutes with.  Accepts
        ``(n,)`` or ``(n, k)``.

        Vectors scatter with ``np.add.at``; batched blocks replay the same
        per-slot add order through the duplicate-free layer decomposition,
        so the result is bit-identical across batch widths and to the
        historical per-step replay.
        """
        batched = np.ndim(b) == 2
        # Batched blocks stay column-contiguous (Fortran order): each layer
        # is one fancy-index add over every column at once.
        carry = np.array(b, dtype=float, copy=True, order="F" if batched else "C")
        for sub in self._subrounds:
            if isinstance(sub, _Rake):
                if batched:
                    for u_layer, v_layer in sub.layers:
                        carry[u_layer] += carry[v_layer]
                else:
                    np.add.at(carry, sub.u, carry[sub.v])
            elif batched:
                for t_layer, s_layer, c_layer in sub.layers:
                    carry[t_layer] += c_layer[:, None] * carry[s_layer]
            else:
                np.add.at(carry, sub.fwd_targets, sub.fwd_coeffs * carry[sub.fwd_sources])
        return carry[self.kept_vertices], carry

    def backward(self, carry: np.ndarray, x_reduced: np.ndarray) -> np.ndarray:
        """Back-substitute eliminated vertices from a :meth:`forward` carry.

        Back-substitution targets (the eliminated vertices of a sub-round)
        are unique, so batched blocks vectorize straight across columns:
        every element sees the identical scalar expression a per-vector
        sweep evaluates, keeping the result bit-identical column by column.
        """
        x = np.zeros_like(carry)
        x[self.kept_vertices] = np.asarray(x_reduced, dtype=float)
        batched = x.ndim == 2
        for sub in reversed(self._subrounds):
            v = sub.v
            if isinstance(sub, _Rake):
                w = sub.w[:, None] if batched else sub.w
                x[v] = x[sub.u] + carry[v] / w
            elif batched:
                x[v] = (
                    sub.w1[:, None] * x[sub.u1] + sub.w2[:, None] * x[sub.u2] + carry[v]
                ) / sub.total[:, None]
            else:
                x[v] = (sub.w1 * x[sub.u1] + sub.w2 * x[sub.u2] + carry[v]) / sub.total
        # Hand back a C-ordered block: downstream reductions (CG dot
        # products, projections) pairwise-sum by memory layout, and bitwise
        # reproducibility of historical solves requires the layout the
        # interpreted transfer produced.
        return np.ascontiguousarray(x) if batched else x

    # ------------------------------------------------------------------ #
    # legacy-shaped entry points
    # ------------------------------------------------------------------ #
    def forward_rhs(self, b: np.ndarray) -> np.ndarray:
        """Reduced right-hand side(s) only (carry discarded)."""
        return self.forward(b)[0]

    def backward_solution(self, b: np.ndarray, x_reduced: np.ndarray) -> np.ndarray:
        """Extend reduced solution(s) given the *original* right-hand side.

        Re-runs the forward sweep to rebuild the carry; prefer the
        :meth:`forward` / :meth:`backward` pair when both directions are
        needed (the solver hot path does).
        """
        _, carry = self.forward(b)
        return self.backward(carry, x_reduced)

    # ------------------------------------------------------------------ #
    # explicit sparse form
    # ------------------------------------------------------------------ #
    def forward_matrix(self) -> sp.csr_matrix:
        """The composed forward transfer as one ``n_kept x n`` CSR matrix.

        ``forward_matrix() @ b`` equals ``forward_rhs(b)`` up to
        floating-point associativity (the sweeps are the bit-exact replay;
        the matrix groups the same sums per row).  Useful for diagnostics,
        spectral checks, and exporting the preconditioner as a linear
        operator.
        """
        full = sp.identity(self.n, format="csr")
        for sub in self._subrounds:
            if isinstance(sub, _Rake):
                rows, cols = sub.u, sub.v
                vals = np.ones(sub.v.shape[0], dtype=np.float64)
            else:
                rows, cols, vals = sub.fwd_targets, sub.fwd_sources, sub.fwd_coeffs
            scatter = sp.coo_matrix(
                (vals, (rows, cols)), shape=(self.n, self.n)
            ).tocsr()
            full = full + scatter @ full
        return full[self.kept_vertices].tocsr()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferOperators(n={self.n}, kept={self.kept_vertices.shape[0]}, "
            f"steps={self.num_steps}, subrounds={self.num_subrounds})"
        )


def compile_transfers(elimination: EliminationResult) -> TransferOperators:
    """Compile an elimination's schedule into :class:`TransferOperators`."""
    return compile_schedule(elimination.schedule, elimination.kept_vertices)


def compile_schedule(
    schedule: EliminationSchedule, kept_vertices: np.ndarray
) -> TransferOperators:
    """Compile an :class:`EliminationSchedule` into :class:`TransferOperators`.

    Validates the sub-round invariant (uniform kind; no step references a
    vertex eliminated in the same sub-round) and precomputes the per-round
    scatter/gather arrays, including the forward coefficients
    ``w_i / (w_1 + w_2)``.
    """
    subrounds: List[_SubRound] = []
    for i in range(schedule.num_subrounds):
        sl = schedule.subround(i)
        v = schedule.vertices[sl]
        u1 = schedule.nbr1[sl]
        u2 = schedule.nbr2[sl]
        w1 = schedule.w1[sl]
        w2 = schedule.w2[sl]
        is_d1 = u2 < 0
        if is_d1.all():
            layers = tuple(
                (u1[sel], v[sel]) for sel in _occurrence_layers(u1)
            )
            subrounds.append(_Rake(v=v, u=u1, w=w1, layers=layers))
        elif not is_d1.any():
            size = v.shape[0]
            total = w1 + w2
            targets = np.empty(2 * size, dtype=np.int64)
            targets[0::2] = u1
            targets[1::2] = u2
            sources = np.repeat(v, 2)
            coeffs = np.empty(2 * size, dtype=np.float64)
            coeffs[0::2] = w1 / total
            coeffs[1::2] = w2 / total
            layers = tuple(
                (targets[sel], sources[sel], coeffs[sel])
                for sel in _occurrence_layers(targets)
            )
            subrounds.append(
                _Compress(
                    v=v, u1=u1, u2=u2, w1=w1, w2=w2, total=total,
                    fwd_targets=targets, fwd_sources=sources, fwd_coeffs=coeffs,
                    layers=layers,
                )
            )
        else:  # pragma: no cover - schedule invariant
            raise ValueError(f"sub-round {i} mixes degree-1 and degree-2 steps")
        # No step may reference a vertex eliminated in the same sub-round —
        # the bulk gather-before-scatter application depends on it.
        eliminated_here = set(v.tolist())
        refs = set(u1.tolist()) | set(u2[u2 >= 0].tolist())
        if eliminated_here & refs:  # pragma: no cover - schedule invariant
            raise ValueError(
                f"sub-round {i} eliminates a vertex it also references: "
                f"{sorted(eliminated_here & refs)[:5]}"
            )
    return TransferOperators(
        n=schedule.n,
        kept_vertices=kept_vertices,
        subrounds=subrounds,
        num_steps=schedule.num_steps,
    )
