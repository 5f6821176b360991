"""Preconditioned Chebyshev iteration (Lemma 6.7).

The paper's recursive solver uses preconditioned Chebyshev because its
iteration count depends only on a-priori eigenvalue bounds (``sqrt(kappa)``
iterations), which is what makes the depth analysis clean.  This module
provides:

* :func:`chebyshev_apply` — the classic preconditioned Chebyshev
  semi-iteration with given bounds on the spectrum of ``M A``.
* :func:`estimate_extreme_eigenvalues` — practical estimation of those
  bounds from the Lanczos tridiagonal matrix generated by a short
  preconditioned CG run (the standard CG/Lanczos equivalence), used when the
  theoretical ``kappa`` is not trusted for the scaled-down practical
  parameters.

Both functions are pure given their callables: all iteration state is local,
so :func:`chebyshev_apply` is safe to run from concurrent solves (each solve
hands it preconditioner closures bound to its own
:class:`~repro.pram.model.CostModel`).  Bound *calibration* draws from
the operator's RNG and fills shared slots, so the operator runs
:func:`estimate_extreme_eigenvalues` under its setup lock, exactly once.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.util.rng import RngLike, as_rng


def chebyshev_apply(
    apply_a: Callable[[np.ndarray], np.ndarray],
    apply_m: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    *,
    lambda_min: float,
    lambda_max: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Run ``iterations`` preconditioned Chebyshev steps for ``A x = b``.

    Parameters
    ----------
    apply_a, apply_m:
        Matvec with ``A`` and application of the preconditioner ``M ≈ A^+``.
    lambda_min, lambda_max:
        Bounds on the spectrum of ``M A`` restricted to the range of ``A``.
    iterations:
        Number of iterations (the paper uses ``ceil(sqrt(kappa))`` per chain
        level).
    project:
        Optional projection applied to iterates (null-space handling for
        Laplacians).
    """
    if lambda_max <= lambda_min or lambda_min <= 0:
        raise ValueError("need 0 < lambda_min < lambda_max")
    proj = project if project is not None else (lambda v: v)
    b = proj(np.asarray(b, dtype=float))
    x = np.zeros_like(b) if x0 is None else proj(np.asarray(x0, dtype=float).copy())
    theta = 0.5 * (lambda_max + lambda_min)
    delta = 0.5 * (lambda_max - lambda_min)
    r = proj(b - apply_a(x))
    p = np.zeros_like(b)
    alpha = 0.0
    for k in range(max(iterations, 0)):
        z = proj(apply_m(r))
        if k == 0:
            p[:] = z  # copy (not rebind): p stays owned here for in-place updates
            alpha = 1.0 / theta
        else:
            beta = 0.5 * (delta * alpha) ** 2 if k == 1 else (0.5 * delta * alpha) ** 2
            alpha = 1.0 / (theta - beta / alpha)
            # p = z + beta p, evaluated in place (bitwise equal, commuted)
            p *= beta
            p += z
        x += alpha * p
        r -= alpha * apply_a(p)
        r = proj(r)
    return proj(x)


def estimate_extreme_eigenvalues(
    apply_a: Callable[[np.ndarray], np.ndarray],
    apply_m: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    num_iterations: int = 25,
    seed: RngLike = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    safety: float = 1.2,
) -> Tuple[float, float]:
    """Estimate ``(lambda_min, lambda_max)`` of the preconditioned system ``M A``.

    Runs a short preconditioned CG on a random right-hand side, assembles the
    Lanczos tridiagonal matrix from the CG coefficients, and returns its
    extreme Ritz values widened by ``safety`` (lower bound divided, upper
    bound multiplied).
    """
    rng = as_rng(seed)
    proj = project if project is not None else (lambda v: v)
    b = proj(rng.standard_normal(n))
    if np.linalg.norm(b) == 0:
        return 1.0, 1.0 + 1e-6
    x = np.zeros(n)
    r = b - apply_a(x)
    r = proj(r)
    z = proj(apply_m(r))
    p = z.copy()
    rz = float(r @ z)
    alphas = []
    betas = []
    for _ in range(max(2, num_iterations)):
        ap = apply_a(p)
        pap = float(p @ ap)
        if pap <= 0 or rz <= 0:
            break
        alpha = rz / pap
        x = x + alpha * p
        r = proj(r - alpha * ap)
        z = proj(apply_m(r))
        rz_new = float(r @ z)
        beta = rz_new / rz
        alphas.append(alpha)
        betas.append(beta)
        rz = rz_new
        p = z + beta * p
        if np.sqrt(max(rz_new, 0.0)) < 1e-14:
            break
    k = len(alphas)
    if k == 0:
        return 1.0, 1.0 + 1e-6
    # Lanczos tridiagonal from CG coefficients.
    diag = np.zeros(k)
    off = np.zeros(max(k - 1, 0))
    for j in range(k):
        diag[j] = 1.0 / alphas[j]
        if j > 0:
            diag[j] += betas[j - 1] / alphas[j - 1]
        if j < k - 1:
            off[j] = np.sqrt(max(betas[j], 0.0)) / alphas[j]
    tri = np.diag(diag)
    if k > 1:
        tri += np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(tri)
    lo = float(max(eigs.min(), 1e-12)) / safety
    hi = float(eigs.max()) * safety
    if hi <= lo:
        hi = lo * (1.0 + 1e-6)
    return lo, hi
