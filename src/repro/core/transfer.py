"""Compiled solve transfers for greedy elimination (the chain hot path).

Greedy elimination (Lemma 6.5) is a partial Cholesky factorization,
``B_i = L · diag(D, A_{i+1}) · Lᵀ``.  At solve time every application of the
chain preconditioner must move a right-hand side down to the
Schur-complement system (*forward*) and extend the reduced solution back up
(*backward*).  This module compiles the elimination schedule
(:class:`~repro.core.elimination.EliminationSchedule`) once into that
factor, so each direction is one sparse product instead of a replay of the
schedule:

* Eliminating ``v`` scatters its forwarded value onto its neighbors:
  ``b_u += b_v`` (rake) or ``b_{u_i} += w_i / (w_1 + w_2) · b_v``
  (compress).  Collect those coefficients in the one-step scatter matrix
  ``S`` (``S[u, v]``); the fully-forwarded *carry* then satisfies
  ``carry = b + S · carry``, i.e. ``carry = C b`` with ``C = (I − S)⁻¹``.
  ``S`` only points from a vertex to a kept vertex or one eliminated later,
  so it is nilpotent and ``C = Π_j (I + S^(2^j))`` is built by repeated
  squaring.
* Back substitution is ``x_v = Σ_u S[u, v] x_u + carry_v / d_v`` with
  ``d_v = w`` (rake) or ``w_1 + w_2`` (compress), and ``x = x_reduced`` on
  the kept vertices, i.e. ``x = Cᵀ y`` where ``y`` stacks ``x_reduced`` and
  ``D⁻¹ carry``.

With ``H = C[[kept, eliminated]]`` (rows reordered, kept first) a level is
``Hᵀ · blockdiag(A_{i+1}⁺, D⁻¹) · H``: :meth:`TransferOperators.forward` is
``z = H b`` and :meth:`TransferOperators.backward` is
``Hᵀ [x_reduced; D⁻¹ z_eliminated]``.  Both serve ``(n,)`` vectors and
``(n, k)`` blocks; SciPy's CSR/CSC products accumulate every output entry in
the same order at every width, so a block equals its columns bit for bit.
The products regroup the replay's sums, so they agree with the sequential
per-step replay to rounding (max relative error ≤ 1e-12, measured ~1e-16),
not bitwise.

A compiled :class:`TransferOperators` is immutable: :meth:`forward` and
:meth:`backward` allocate their results per call and only read ``H``, so one
compiled instance serves any number of concurrent solves (each passing
per-call data and charging its own
:class:`~repro.pram.model.CostModel`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.elimination import EliminationResult, EliminationSchedule


class TransferOperators:
    """Partial-Cholesky forward/backward solve transfers for one elimination.

    Built once per chain level (at ``factorize`` time) by
    :func:`compile_transfers`; applied many times per solve.  The
    :meth:`forward` / :meth:`backward` pair shares the forwarded *carry* so
    a preconditioner application runs the forward product exactly once.
    """

    __slots__ = ("n", "n_kept", "num_steps", "num_subrounds", "_h", "_ht", "_dinv")

    def __init__(
        self, h: sp.csr_matrix, dinv: np.ndarray, num_subrounds: int
    ) -> None:
        self.n = int(h.shape[1])
        self.num_steps = int(dinv.shape[0])
        self.n_kept = self.n - self.num_steps
        self.num_subrounds = int(num_subrounds)
        self._h = h
        self._dinv = dinv
        # Hᵀ as CSC over the very same buffer objects: one stored copy of H.
        ht = sp.csc_matrix((h.data, h.indices, h.indptr), shape=(self.n, self.n))
        ht.data, ht.indices, ht.indptr = h.data, h.indices, h.indptr
        self._ht = ht

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def forward(self, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Propagate right-hand side(s) down; return ``(b_reduced, carry)``.

        ``carry = H b`` holds the forwarded values, kept vertices first (in
        the elimination's ``kept_vertices`` order, so ``b_reduced`` is its
        leading block), then each eliminated vertex's value at its
        elimination time, in step order — what :meth:`backward` substitutes
        with.  Accepts ``(n,)`` or ``(n, k)``.
        """
        carry = self._h @ np.asarray(b, dtype=float)
        return carry[: self.n_kept], carry

    def backward(self, carry: np.ndarray, x_reduced: np.ndarray) -> np.ndarray:
        """Back-substitute eliminated vertices from a :meth:`forward` carry.

        Returns ``Hᵀ [x_reduced; D⁻¹ carry_eliminated]``; on the kept
        vertices that is ``x_reduced`` exactly.
        """
        tail = carry[self.n_kept :]
        dinv = self._dinv if tail.ndim == 1 else self._dinv[:, None]
        stacked = np.concatenate([np.asarray(x_reduced, dtype=float), dinv * tail])
        return self._ht @ stacked

    # ------------------------------------------------------------------ #
    # legacy-shaped entry points
    # ------------------------------------------------------------------ #
    def forward_rhs(self, b: np.ndarray) -> np.ndarray:
        """Reduced right-hand side(s) only (carry discarded)."""
        return self.forward(b)[0]

    def backward_solution(self, b: np.ndarray, x_reduced: np.ndarray) -> np.ndarray:
        """Extend reduced solution(s) given the *original* right-hand side.

        Re-runs the forward product to rebuild the carry; prefer the
        :meth:`forward` / :meth:`backward` pair when both directions are
        needed (the solver hot path does).
        """
        _, carry = self.forward(b)
        return self.backward(carry, x_reduced)

    # ------------------------------------------------------------------ #
    # explicit sparse form
    # ------------------------------------------------------------------ #
    def forward_matrix(self) -> sp.csr_matrix:
        """The forward transfer as one ``n_kept x n`` CSR matrix (``H``'s kept rows).

        ``forward_matrix() @ b`` equals ``forward_rhs(b)`` exactly; its
        transpose is the ``x_reduced`` block of :meth:`backward`.
        """
        return self._h[: self.n_kept]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferOperators(n={self.n}, kept={self.n_kept}, "
            f"steps={self.num_steps}, subrounds={self.num_subrounds}, "
            f"nnz={self._h.nnz})"
        )


def compile_transfers(elimination: EliminationResult) -> TransferOperators:
    """Compile an elimination's schedule into :class:`TransferOperators`."""
    return compile_schedule(elimination.schedule, elimination.kept_vertices)


def _check_schedule(schedule: EliminationSchedule, kept: np.ndarray) -> None:
    """Reject a schedule whose scatter matrix would not be nilpotent.

    Every vertex must be kept or eliminated exactly once, and every step
    may only reference vertices that are kept or eliminated in a *later*
    sub-round — then ``S`` points strictly forward in sub-round order.
    """
    n = schedule.n
    vertices = schedule.vertices.astype(np.int64)
    counts = np.bincount(np.concatenate([kept, vertices]), minlength=n)
    if counts.shape[0] != n or (counts != 1).any():
        raise ValueError(
            "kept and eliminated vertices must partition 0..n-1, each exactly once"
        )
    step_round = np.repeat(
        np.arange(schedule.num_subrounds), np.diff(schedule.offsets)
    )
    when = np.full(n, schedule.num_subrounds, dtype=np.int64)
    when[vertices] = step_round
    for nbr in (schedule.nbr1, schedule.nbr2):
        nbr = nbr.astype(np.int64)
        has = nbr >= 0
        bad = np.flatnonzero(has & (when[np.where(has, nbr, 0)] <= step_round))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"step {i} (sub-round {int(step_round[i])}) eliminates vertex "
                f"{int(vertices[i])} but references vertex {int(nbr[i])}, which "
                f"is eliminated in sub-round {int(when[nbr[i]])}, not later"
            )


def compile_schedule(
    schedule: EliminationSchedule, kept_vertices: np.ndarray
) -> TransferOperators:
    """Compile an :class:`EliminationSchedule` into :class:`TransferOperators`.

    Validates the schedule (see :func:`_check_schedule`; a malformed one
    raises ``ValueError``), builds the one-step scatter matrix ``S`` in one
    vectorized pass, and forms ``H = ((I − S)⁻¹)[[kept, eliminated]]`` by
    repeated squaring.
    """
    n = schedule.n
    kept = np.asarray(kept_vertices, dtype=np.int64)
    _check_schedule(schedule, kept)
    v = schedule.vertices.astype(np.int64)
    u1 = schedule.nbr1.astype(np.int64)
    u2 = schedule.nbr2.astype(np.int64)
    is_d2 = u2 >= 0
    w1 = schedule.w1.astype(np.float64)
    w2 = schedule.w2.astype(np.float64)
    total = np.where(is_d2, w1 + w2, w1)
    rows = np.concatenate([u1, u2[is_d2]])
    cols = np.concatenate([v, v[is_d2]])
    vals = np.concatenate([w1 / total, w2[is_d2] / total[is_d2]])
    scatter = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    # C = I + S + S² + ... = (I + S)(I + S²)(I + S⁴)···, finite as S is nilpotent.
    carry_map = sp.identity(n, format="csr") + scatter
    power = scatter
    while True:
        power = power @ power
        if power.nnz == 0:
            break
        carry_map = carry_map + carry_map @ power
    h = carry_map[np.concatenate([kept, v])]
    h.sort_indices()
    return TransferOperators(h, 1.0 / total, schedule.num_subrounds)
