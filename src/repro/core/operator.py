"""The factorize-once / solve-many solver lifecycle (Theorem 1.1).

The paper's headline object is a *reusable* preconditioner chain: building it
(`IncrementalSparsify` + `GreedyElimination`, Section 6) is the expensive
near-linear-work phase, after which every solve against the same matrix costs
only ``~ sqrt(kappa)`` iterations per level.  This module makes that
lifecycle explicit:

* :func:`factorize` — one-time setup.  Accepts a graph, a graph Laplacian,
  or a general SDD matrix (reduced via Gremban, Section 2), builds the chain
  under a frozen :class:`~repro.core.config.ChainConfig`, and returns a
  :class:`LaplacianOperator`.
* :class:`LaplacianOperator` — owns the chain, the Gremban reduction, and
  the per-component null-space projectors (all precomputed at construction),
  and exposes :meth:`~LaplacianOperator.solve` for ``(n,)`` vectors *and*
  batched ``(n, k)`` right-hand-side blocks.  Batched solves run the ``k``
  independent CG recurrences in lockstep
  (:func:`repro.linalg.cg.batched_conjugate_gradient`), sharing every matvec,
  elimination transfer, and bottom-level factor application across columns —
  depth is charged once per iteration rather than once per column, which is
  exactly the PRAM parallelism the paper claims for independent solves.

The solve method is one of four fixed names
(:data:`~repro.core.config.SOLVE_METHODS`): ``pcg`` and ``chebyshev`` run
outer CG preconditioned by the chain (inner CG or inner Chebyshev),
``jacobi`` runs the same outer CG with a diagonal preconditioner, and
``direct`` applies one grounded sparse LU of the whole top-level Laplacian
(:class:`~repro.linalg.direct.FactorizedLaplacian`, the engine of the
chain's bottom level).

Concurrency: :meth:`LaplacianOperator.solve` is **re-entrant**.  Every call
charges a private :class:`~repro.pram.model.CostModel` (a child of the
operator's model) that is passed down the recursion; all per-solve charging
(outer iterations, inner smoothing, elimination transfers, bottom solves)
goes to it, never to shared operator state, so concurrent solves on one
operator return bit-identical ``x``/``work``/``depth`` to serial runs.  The
one-time lazy initializers (Chebyshev bound calibration, the ``direct``
factor and the Jacobi diagonal) are guarded by a setup lock and charge
the operator's *setup* accounting — their cost never appears in any
:class:`SolveReport`, cold start or warm.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.chain import PreconditionerChain, build_chain
from repro.core.chebyshev import chebyshev_apply, estimate_extreme_eigenvalues
from repro.core.config import ChainConfig, SolverConfig, check_count, check_method, check_tol
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.graph.laplacian import (
    GrembanReduction,
    is_sdd,
    laplacian_to_graph,
    sdd_to_laplacian,
)
from repro.linalg.cg import BatchedCGResult, batched_conjugate_gradient
from repro.linalg.direct import ComponentProjector, FactorizedLaplacian
from repro.linalg.jacobi import jacobi_preconditioner
from repro.pram.model import CostModel, log2ceil
from repro.pram.primitives import charge_elimination_transfer
from repro.util.rng import RngLike, as_rng

MatrixInput = Union[Graph, sp.spmatrix, np.ndarray]


@dataclass
class SolveReport:
    """Result of one :meth:`LaplacianOperator.solve` call.

    Attributes
    ----------
    x:
        The approximate solution of the *original* system — shape ``(n,)``
        for a vector right-hand side, ``(n, k)`` for a batched one.
    iterations:
        Outer (top-level) iterations; for a batch, the maximum over columns.
    relative_residual:
        Final relative 2-norm residual of the original system; for a batch,
        the maximum over columns.
    converged:
        Whether the tolerance was met (every column, for a batch).
    work:
        Machine-independent work charged during the solve (operation counts
        in the PRAM cost model).
    depth:
        Depth charged during the solve.  Batched columns run in lockstep, so
        this does **not** scale with the batch width.
    stats:
        Additional diagnostics (chain depth, batch width, setup cost, ...).
    column_iterations, column_residuals, column_converged:
        Per-column diagnostics for batched solves (``None`` for vector
        right-hand sides).
    """

    x: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool
    work: float
    depth: float
    stats: Dict[str, float] = field(default_factory=dict)
    column_iterations: Optional[np.ndarray] = None
    column_residuals: Optional[np.ndarray] = None
    column_converged: Optional[np.ndarray] = None

    def split(self) -> List["SolveReport"]:
        """Per-column reports of a batched solve (batch-splittable accounting).

        A batched ``(n, k)`` solve shares every matvec, transfer, and bottom
        factor application across columns, so its cost does not decompose
        exactly per column.  The split convention — what the serving layer
        hands back to each coalesced caller — is:

        * ``x`` / ``iterations`` / ``relative_residual`` / ``converged``
          come from the column's own slice (``x`` is bit-identical to a solo
          solve of that column, the PR-4 batched==looped guarantee);
        * ``work`` is the amortized share ``work / k`` (the shares sum back
          to the batch's work — the fair per-request charge for a lockstep
          batch);
        * ``depth`` is the batch depth unchanged: columns run in lockstep,
          so every request observes the full critical path.

        Each per-column ``stats`` dict carries ``batch_width`` (the original
        ``k``) and ``work_amortized = 1.0`` to flag the convention.  A
        vector report splits into ``[self]``; an empty ``(n, 0)`` batch into
        ``[]``.
        """
        if self.x.ndim != 2:
            return [self]
        k = self.x.shape[1]
        if k == 0:
            return []
        assert self.column_iterations is not None
        assert self.column_residuals is not None
        assert self.column_converged is not None
        share = self.work / k
        reports = []
        for j in range(k):
            stats = dict(self.stats)
            stats["batch_width"] = float(k)
            stats["work_amortized"] = 1.0
            reports.append(
                SolveReport(
                    x=self.x[:, j].copy(),
                    iterations=int(self.column_iterations[j]),
                    relative_residual=float(self.column_residuals[j]),
                    converged=bool(self.column_converged[j]),
                    work=share,
                    depth=self.depth,
                    stats=stats,
                )
            )
        return reports


class LaplacianOperator:
    """A factorized SDD system supporting repeated (batched) solves.

    Instances are produced by :func:`factorize`; the constructor wires every
    piece of per-solve state — null-space projectors for the top level and
    for each chain level, and the Chebyshev bound slots — so :meth:`solve`
    allocates nothing but iterate vectors.
    """

    def __init__(
        self,
        *,
        graph: Graph,
        chain: PreconditionerChain,
        chain_config: ChainConfig,
        solver_config: SolverConfig,
        reduction: Optional[GrembanReduction],
        original: Optional[sp.spmatrix],
        original_n: int,
        rng: np.random.Generator,
        cost: CostModel,
        factorize_seed: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.chain = chain
        self.chain_config = chain_config
        self.solver_config = solver_config
        self.reduction = reduction
        self._original = original
        self._original_n = int(original_n)
        self.cost = cost
        self._rng = rng
        #: The integer seed this operator was factorized under (``None`` for
        #: generator / ``None`` seeds).  :meth:`update` rebuilds with it so a
        #: threshold-triggered full rebuild is bit-identical to a fresh
        #: ``factorize()`` of the mutated graph.
        self.factorize_seed = factorize_seed
        #: Damage bookkeeping attached by :func:`repro.core.update.update_operator`
        #: on patched operators (``None`` on fresh factorizations).
        self._update_state = None
        # ``graph`` is the chain's top level (build_chain works on the
        # caller's graph; a patch swaps in a new top level), so the operator
        # shares that level's Laplacian instead of building a second one.
        self.laplacian = chain.levels[0].laplacian
        #: Iterations per inner chain level: ``max(2, ceil(sqrt(kappa)))``.
        self.inner_iterations = max(2, math.ceil(math.sqrt(chain_config.kappa)))

        # Null-space projectors, hoisted into construction-time state: one
        # for the (possibly Gremban-expanded) top-level graph, which level 0
        # shares, and one per inner level 1 .. depth-2 (the levels whose
        # projector a solve reads); the bottom level's comes with its factor.
        _, labels = connected_components(graph)
        self._projector = ComponentProjector(labels)
        self._level_projectors: List[ComponentProjector] = [self._projector] + [
            ComponentProjector(connected_components(level.graph)[1])
            for level in chain.levels[1:-1]
        ]
        if chain.depth > 1:
            self._level_projectors.append(chain.bottom_solver.projector)

        # One-time lazy state, shared by every solve once initialized:
        # Chebyshev bounds (Lemma 6.7) — calibrated eagerly when the
        # configured method is "chebyshev", on demand otherwise — plus the
        # ``direct`` factor and the diagonal preconditioner.  The
        # setup lock serializes cold-start initialization so concurrent
        # solves neither race the fills nor duplicate the work; the
        # accounting lock serializes merges into the cumulative cost model.
        self._setup_lock = threading.Lock()
        self._accounting_lock = threading.Lock()
        self._chebyshev_bounds: List[Optional[Tuple[float, float]]] = [None] * chain.depth
        self._chebyshev_ready = False
        self._direct_factor: Optional[FactorizedLaplacian] = None
        self._jacobi_apply: Optional[Callable[[np.ndarray], np.ndarray]] = None

        self.setup_work = cost.work
        self.setup_depth = cost.depth
        if solver_config.method == "chebyshev":
            self.ensure_chebyshev_bounds()

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Dimension of the original system (before Gremban reduction)."""
        return self._original_n

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._original_n, self._original_n)

    @property
    def depth(self) -> int:
        """Number of preconditioner-chain levels."""
        return self.chain.depth

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the *original* matrix to ``x`` (vector or ``(n, k)`` block)."""
        return self.original_matrix() @ np.asarray(x, dtype=float)

    def original_matrix(self) -> sp.spmatrix:
        """The matrix this operator solves against (pre-reduction)."""
        if self._original is not None:
            return self._original
        return self.laplacian

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LaplacianOperator(n={self._original_n}, levels={self.chain.depth}, "
            f"method={self.solver_config.method!r})"
        )

    # ------------------------------------------------------------------ #
    # one-time lazy state
    # ------------------------------------------------------------------ #
    def _charge_setup(self, work: float, depth: float) -> None:
        """Fold one-time lazy-initializer cost into the setup accounting.

        Lazy setup (Chebyshev calibration, the ``direct`` factorization)
        is charged here — to the operator, never to a solve context — so a
        solve's reported ``work``/``depth`` is identical whether or not it
        happened to be the call that triggered initialization.
        """
        with self._accounting_lock:
            self.cost.charge(work=work, depth=depth)
            self.setup_work += work
            self.setup_depth += depth

    def jacobi_preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """Diagonal preconditioner of the (reduced) Laplacian (baseline).

        Setup charges land *before* the initialized state is published (here
        and in the other lazy initializers): a thread that takes the
        unlocked fast path can therefore never observe setup state whose
        cost has not yet reached ``setup_work``/``setup_depth``.
        """
        if self._jacobi_apply is None:
            with self._setup_lock:
                if self._jacobi_apply is None:
                    apply = jacobi_preconditioner(self.laplacian)
                    self._charge_setup(float(self.graph.n), 1.0)
                    self._jacobi_apply = apply
        return self._jacobi_apply

    def direct_factor(self) -> FactorizedLaplacian:
        """Grounded sparse LU of the (reduced) top-level Laplacian (``direct``).

        Built from :attr:`laplacian` itself, never from the chain's bottom
        factor: a patched operator (:meth:`update`) keeps its pre-edit
        bottom level, which at depth 1 is the stale top level.  Charged like
        :func:`~repro.core.chain.build_chain`'s bottom factor.
        """
        if self._direct_factor is None:
            with self._setup_lock:
                if self._direct_factor is None:
                    factor = FactorizedLaplacian(self.laplacian, self._projector)
                    self._charge_setup(
                        float(max(factor.factor_nnz, factor.n)), log2ceil(factor.n) ** 2
                    )
                    self._direct_factor = factor
        return self._direct_factor

    def ensure_chebyshev_bounds(self) -> None:
        """Estimate the spectral bounds inner Chebyshev reads (Lemma 6.7).

        Only levels ``1 .. depth-2`` run inner Chebyshev: level 0 is
        preconditioned by the outer CG and the bottom level is solved
        directly.  They are calibrated deepest first, so each level's
        estimate runs through exactly the inner Chebyshev iterations a
        ``chebyshev`` solve applies below it.

        Double-checked under the setup lock: concurrent cold-start solves
        calibrate exactly once (the losers of the race block until the bounds
        are published, then proceed with them).  Calibration cost — including
        the recursive preconditioner applications it performs — is charged to
        the setup accounting via a private cost model.
        """
        if self._chebyshev_ready:
            return
        with self._setup_lock:
            if self._chebyshev_ready:
                return
            cost = self.cost.child()
            for i in range(self.chain.depth - 2, 0, -1):
                level = self.chain.levels[i]
                lo, hi = estimate_extreme_eigenvalues(
                    lambda v, lap=level.laplacian: lap @ v,
                    lambda r, i=i: self._apply_preconditioner(i, r, "chebyshev", cost),
                    level.num_vertices,
                    seed=self._rng,
                    project=self._level_projectors[i],
                )
                self._chebyshev_bounds[i] = (lo, hi)
            # Charge before publishing readiness (see jacobi_preconditioner).
            self._charge_setup(cost.work, cost.depth)
            self._chebyshev_ready = True

    # ------------------------------------------------------------------ #
    # recursive preconditioner (batched)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _apply_factor(
        factor: FactorizedLaplacian, b: np.ndarray, cost: CostModel
    ) -> np.ndarray:
        """Apply a sparse factor's ``L^+``: two triangular sweeps per column."""
        width = b.shape[1] if b.ndim == 2 else 1
        cost.charge(
            work=float(max(factor.factor_nnz, factor.n)) * width,
            depth=math.log2(max(factor.n, 2)),
        )
        return factor.solve(b)

    def _apply_preconditioner(
        self, level_index: int, r: np.ndarray, inner: str, cost: CostModel
    ) -> np.ndarray:
        """Approximate ``B_i^+ r`` via compiled elimination transfer + recursive solve."""
        r = np.asarray(r, dtype=float)
        if r.ndim == 1:
            return self._apply_preconditioner(level_index, r[:, None], inner, cost)[:, 0]
        level = self.chain.levels[level_index]
        elim = level.elimination
        transfers = level.transfers
        width = r.shape[1]
        charge_elimination_transfer(cost, elim.num_eliminated, elim.rounds, width)
        r_reduced, carry = transfers.forward(r)
        x_reduced = self._solve_level(level_index + 1, r_reduced, inner, cost)
        x = transfers.backward(carry, x_reduced)
        charge_elimination_transfer(cost, elim.num_eliminated, elim.rounds, width)
        return x

    def _solve_level(
        self, level_index: int, b: np.ndarray, inner: str, cost: CostModel
    ) -> np.ndarray:
        """Approximately solve ``A_i x = b`` with the fixed per-level budget."""
        if level_index >= self.chain.depth - 1:
            return self._apply_factor(self.chain.bottom_solver, b, cost)
        level = self.chain.levels[level_index]
        lap = level.laplacian
        project = self._level_projectors[level_index]
        apply_a = lap.__matmul__
        b = project(b)
        preconditioner = lambda r: self._apply_preconditioner(level_index, r, inner, cost)
        iters = self.inner_iterations
        width = b.shape[1] if b.ndim == 2 else 1
        cost.charge(
            work=float(iters) * max(lap.nnz, 1) * width,
            depth=float(iters) * math.log2(max(level.num_vertices, 2)),
        )
        if inner == "chebyshev":
            lo, hi = self._chebyshev_bounds[level_index]
            return chebyshev_apply(
                apply_a,
                preconditioner,
                b,
                lambda_min=lo,
                lambda_max=hi,
                iterations=iters,
                project=project,
            )
        result = batched_conjugate_gradient(
            apply_a,
            b,
            preconditioner=preconditioner,
            fixed_iterations=iters,
        )
        x = result.x[:, 0] if b.ndim == 1 else result.x
        return project(x)

    def _preconditioner(
        self, method: str, cost: CostModel
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The outer CG's preconditioner: Jacobi, or the chain with inner ``method``."""
        if method == "jacobi":
            return self.jacobi_preconditioner()
        if method == "chebyshev":
            self.ensure_chebyshev_bounds()
        if self.chain.depth > 1:
            return lambda r: self._apply_preconditioner(0, r, method, cost)
        return lambda b: self._apply_factor(self.chain.bottom_solver, b, cost)

    def _solve_direct(self, rhs: np.ndarray, tol: float, cost: CostModel) -> BatchedCGResult:
        """One exact application of the top-level sparse factor.

        The one-time factorization is charged to the setup accounting inside
        :meth:`direct_factor`; only the triangular sweeps land on ``cost``.
        """
        x = self._apply_factor(self.direct_factor(), rhs, cost)
        k = rhs.shape[1]
        b_norm = np.linalg.norm(rhs, axis=0)
        residual = np.linalg.norm(self.laplacian @ x - rhs, axis=0)
        res = np.where(b_norm > 0, residual / np.where(b_norm > 0, b_norm, 1.0), 0.0)
        return BatchedCGResult(
            x=x,
            iterations=np.ones(k, dtype=np.int64),
            converged=res <= tol,
            residuals=res,
            active_counts=[k],
        )

    # ------------------------------------------------------------------ #
    # public solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        b: np.ndarray,
        *,
        tol: Optional[float] = None,
        max_iterations: Optional[int] = None,
        method: Optional[str] = None,
    ) -> SolveReport:
        """Solve the original system for one or many right-hand sides.

        Parameters
        ----------
        b:
            Right-hand side(s): shape ``(n,)`` for a single solve or
            ``(n, k)`` for ``k`` simultaneous solves sharing the factorized
            chain.  For pure Laplacian inputs each column is projected onto
            the range (per-component zero sum).  An empty ``(n, 0)`` batch is
            a no-op: the report carries an empty ``(n, 0)`` solution with
            ``converged=True`` and zero iterations/work, so callers slicing
            right-hand-side blocks need no special case.  NaN or inf
            entries raise :class:`ValueError`.
        tol:
            Relative 2-norm residual target; defaults to the
            :class:`SolverConfig` value.  Must be finite and positive — the
            same :func:`~repro.core.config.check_tol` validation
            :class:`SolverConfig` applies at construction time.
        max_iterations:
            Cap on outer iterations; defaults to the :class:`SolverConfig`
            value.  Must be an integer ``>= 1``
            (:func:`~repro.core.config.check_count`).
        method:
            Optional per-call override of the configured solve method (one
            of :data:`~repro.core.config.SOLVE_METHODS`).

        Notes
        -----
        This method is re-entrant: concurrent calls on one operator (cached
        or not) are safe and report the same ``x``/``work``/``depth`` bit for
        bit as serial calls.  See the module docstring for how per-call
        cost models and the setup lock make that hold.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2):
            raise ValueError("b must be a vector (n,) or a batch (n, k)")
        if b.shape[0] != self._original_n:
            raise ValueError(f"b must have length {self._original_n}")
        if not np.isfinite(b).all():
            raise ValueError("b must be finite (found NaN or inf entries)")
        single = b.ndim == 1
        rhs_block = b[:, None] if single else b
        width = rhs_block.shape[1]

        cfg = self.solver_config
        tol = check_tol(cfg.tol if tol is None else float(tol))
        max_iterations = check_count(
            "max_iterations", cfg.max_iterations if max_iterations is None else max_iterations
        )
        method = check_method(cfg.method if method is None else method)

        if width == 0:
            return self._empty_report()

        cost = self.cost.child()

        if self.reduction is not None and not self.reduction.trivial:
            rhs = self.reduction.expand_rhs(rhs_block)
        else:
            rhs = rhs_block
        rhs = self._projector(rhs)
        if method == "direct":
            result = self._solve_direct(rhs, tol, cost)
        else:
            result = batched_conjugate_gradient(
                self.laplacian.__matmul__,
                rhs,
                tol=tol,
                max_iterations=max_iterations,
                preconditioner=self._preconditioner(method, cost),
                on_iteration=lambda cols: cost.charge(
                    work=float(max(self.laplacian.nnz, 1)) * cols,
                    depth=log2ceil(self.graph.n),
                ),
            )
        x = self._projector(result.x)

        if self.reduction is not None and not self.reduction.trivial:
            x_out = self.reduction.restrict_solution(x)
            residual = np.linalg.norm(rhs_block - (self.original_matrix() @ x_out), axis=0)
            denom = np.linalg.norm(rhs_block, axis=0)
            rel = np.where(denom > 0, residual / np.where(denom > 0, denom, 1.0), residual)
        else:
            x_out = x
            rel = result.residuals

        report = SolveReport(
            x=x_out[:, 0] if single else x_out,
            iterations=int(result.iterations.max(initial=0)),
            relative_residual=float(rel.max(initial=0.0)),
            converged=bool(result.converged.all()),
            work=cost.work,
            depth=cost.depth,
            stats={
                "chain_levels": float(self.chain.depth),
                "inner_iterations": float(self.inner_iterations),
                "setup_work": self.setup_work,
                "setup_depth": self.setup_depth,
                "batch_width": float(width),
            },
            column_iterations=None if single else result.iterations.copy(),
            column_residuals=None if single else np.asarray(rel, dtype=float).copy(),
            column_converged=None if single else result.converged.copy(),
        )
        # Cumulative operator-level accounting (what ``op.cost`` exposes to
        # benchmarks and caller-supplied models) — the only cross-solve
        # mutation left, serialized here.
        with self._accounting_lock:
            self.cost.sequential(cost)
        return report

    def update(self, edits):
        """Apply a batched edge edit to this factorized system.

        Patches the factorization in place of a full re-``factorize()``:
        the top chain level is rebuilt exactly against the mutated graph
        while the deeper levels (sparsifier, elimination, compiled
        transfers, bottom factor) are reused as a stale preconditioner —
        solves on the returned operator converge to the mutated system's
        true solution, staleness only costs iterations.  Once the
        accumulated damage exceeds :data:`~repro.core.update.REBUILD_DAMAGE`
        (or the batch merges connected components), the operator is instead
        rebuilt from scratch, bit-identical to a fresh ``factorize()`` of
        the mutated graph under this operator's original seed.

        Returns ``(operator, report)``: the operator to use from now on
        (``self`` for an empty batch; otherwise a new object — ``self``
        stays valid for in-flight solves against the old graph) and an
        :class:`~repro.core.update.UpdateReport` describing what happened.
        Neither the patched nor the rebuilt operator enters the chain cache.
        """
        from repro.core.update import update_operator

        return update_operator(self, edits)

    def _empty_report(self) -> SolveReport:
        """The trivial report for a ``(n, 0)`` batched right-hand side."""
        return SolveReport(
            x=np.zeros((self._original_n, 0)),
            iterations=0,
            relative_residual=0.0,
            converged=True,
            work=0.0,
            depth=0.0,
            stats={
                "chain_levels": float(self.chain.depth),
                "inner_iterations": float(self.inner_iterations),
                "setup_work": self.setup_work,
                "setup_depth": self.setup_depth,
                "batch_width": 0.0,
            },
            column_iterations=np.zeros(0, dtype=np.int64),
            column_residuals=np.zeros(0),
            column_converged=np.zeros(0, dtype=bool),
        )


def factorize(
    matrix: MatrixInput,
    chain: Optional[ChainConfig] = None,
    solver: Optional[SolverConfig] = None,
    *,
    seed: RngLike = None,
    cost: Optional[CostModel] = None,
    cache: bool = False,
    memory_profile: bool = False,
) -> LaplacianOperator:
    """Build a reusable :class:`LaplacianOperator` for ``matrix``.

    This is the expensive phase of Theorem 1.1 (near-linear work, polylog
    depth); the returned operator amortizes it over arbitrarily many
    :meth:`~LaplacianOperator.solve` calls.

    Parameters
    ----------
    matrix:
        A :class:`~repro.graph.graph.Graph` (solve its Laplacian), a graph
        Laplacian, or a general SDD matrix (``scipy.sparse`` / dense array;
        reduced to a Laplacian with the Gremban reduction).
    chain, solver:
        Frozen configuration objects; ``None`` selects the defaults.
    seed:
        RNG seed controlling every randomized component of the setup.
    cost:
        Optional cost model; defaults to a fresh enabled :class:`CostModel`
        so setup/solve work and depth are always meaningful.
    cache:
        Consult and populate the process-level chain cache
        (:mod:`repro.core.chain_cache`).  Only integer-seeded
        factorizations are cacheable — with a generator or ``None`` seed two
        calls are not reproducibly identical, so the cache is bypassed.
    memory_profile:
        Record per-stage tracemalloc peaks and per-stage RSS high-water
        marks in ``operator.chain.stats`` (see
        :func:`repro.core.chain.build_chain`).  Profiling runs bypass the
        chain cache in both directions: a hit would return a chain built
        without the requested profile, and a profiled build is not
        representative to share.

    Examples
    --------
    >>> from repro.graph import generators
    >>> from repro.core.operator import factorize
    >>> import numpy as np
    >>> g = generators.grid_2d(20, 20)
    >>> op = factorize(g, seed=0)
    >>> b = np.zeros((g.n, 2)); b[0] = 1.0; b[-1] = -1.0
    >>> report = op.solve(b, tol=1e-8)
    >>> report.converged
    True
    """
    from repro.core import chain_cache  # late import: cache stores operators

    chain_config = chain if chain is not None else ChainConfig()
    solver_config = solver if solver is not None else SolverConfig()

    key = None
    if cache and not memory_profile:
        key = chain_cache.make_key(matrix, chain_config, solver_config, seed)
        if key is not None:
            hit = chain_cache.lookup(key)
            if hit is not None:
                # No setup work happens on a hit — that is the point of the
                # cache — so nothing is charged to a caller-supplied model.
                return hit

    # A cacheable operator is shared between future callers, so it must not
    # capture this caller's cost model — it accounts into a private model
    # and the setup charges are mirrored to the caller below.
    shared = key is not None
    model = CostModel() if (shared or cost is None) else cost
    rng = as_rng(seed)

    reduction: Optional[GrembanReduction] = None
    original: Optional[sp.spmatrix] = None
    if isinstance(matrix, Graph):
        graph = matrix
        original_n = matrix.n
    else:
        mat = sp.csr_matrix(matrix)
        if not is_sdd(mat):
            raise ValueError("input matrix is not symmetric diagonally dominant")
        reduction = sdd_to_laplacian(mat)
        original_n = mat.shape[0]
        original = mat
        graph = laplacian_to_graph(reduction.laplacian)

    built = build_chain(
        graph, config=chain_config, seed=rng, cost=model, memory_profile=memory_profile
    )
    operator = LaplacianOperator(
        graph=graph,
        chain=built,
        chain_config=chain_config,
        solver_config=solver_config,
        reduction=reduction,
        original=original,
        original_n=original_n,
        rng=rng,
        cost=model,
        factorize_seed=int(seed)
        if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
        else None,
    )
    if key is not None:
        chain_cache.store(key, operator)
        if cost is not None:
            cost.charge(work=operator.setup_work, depth=operator.setup_depth)
    return operator
