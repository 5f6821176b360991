"""Pinned solve digests: the behaviour contract of the default solve path.

The four digests below pin the exact solutions of the recipe reproduced
here, so any change of float arithmetic anywhere in factorize or solve shows
up as a digest change.  Index dtypes and allocation strategy must never move
a bit (``test_int64_index_config_matches_default_bit_for_bit``); a change
that regroups sums on purpose re-pins the digests deliberately, keeps the
iteration counts, and records its agreement with the previous solutions.

The three ``pcg`` digests were last re-pinned when each chain level's
elimination became one precompiled partial-Cholesky factor (``H·r``
forward, ``Hᵀ·u`` backward) instead of per-sub-round sweeps.  Against the
sweep solutions the new ones agree to ``max|Δx|/max|x|`` of 7.8e-16
(``pcg_grid24``), 1.4e-15 (``pcg_grid24_batch3``) and 6.5e-16
(``pcg_grid24_k16``).

``cheb_wgrid20`` was re-pinned again when Chebyshev calibration stopped
estimating a bound for level 0, which no solve reads (level 0 is
preconditioned by the outer CG), and began estimating the other levels
deepest first.  Level 0's estimate no longer draws from the RNG before
level 1's, so the calibrated level-1 λ_min moves by 2.9e-5 relative
(0.83340252 → 0.83342657) and the fixed-degree Chebyshev iteration carries
that shift into the solution: the two agree to ``max|Δx|/max|x|`` of
1.0e-12 at the same 30 iterations.  Chebyshev digests are held to ≤1e-10
agreement across deliberate re-pins, not ≤1e-12, for this reason.

The RNG state flows sequentially through the workloads, so the recipe is
order-sensitive by construction (that is part of what is pinned).
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro.graph.graph
from repro.core.config import ChainConfig, SolverConfig
from repro.core.operator import factorize
from repro.graph import generators

#: name -> (sha256 of the solution, outer iterations).
PINNED = {
    "pcg_grid24": (
        "1e3101a1e41a6bf496f1eb9b3e741e1604a810691603a834cb3359abc95ca232",
        52,
    ),
    "pcg_grid24_batch3": (
        "e9eefc011762decf4cf4a58ddd8d48ffec12ab5989ceaa6419a0f45b8d74bd6a",
        53,
    ),
    "cheb_wgrid20": (
        "db33ada6f6c69c16ebcf7680e50111a2f736978167e23c669da51caba5757b67",
        30,
    ),
    "pcg_grid24_k16": (
        "9bcdb604bb54c4f37e04d4d2fc4c602b22d42199ce046fc1d8b20deab261a1ef",
        34,
    ),
}


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(x, dtype=np.float64).tobytes()
    ).hexdigest()


def _run_recipe():
    """The pinned measurement recipe (sequential RNG stream)."""
    out = {}
    g = generators.grid_2d(24, 24)
    op = factorize(g, seed=0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(g.n)
    b -= b.mean()
    r = op.solve(b)
    out["pcg_grid24"] = (_digest(r.x), r.iterations)

    B = rng.standard_normal((g.n, 3))
    B -= B.mean(axis=0, keepdims=True)
    rb = op.solve(B)
    out["pcg_grid24_batch3"] = (_digest(rb.x), rb.iterations)

    wg = generators.weighted_grid_2d(20, 20, seed=3)
    op2 = factorize(wg, solver=SolverConfig(method="chebyshev"), seed=11)
    b2 = rng.standard_normal(wg.n)
    b2 -= b2.mean()
    r2 = op2.solve(b2)
    out["cheb_wgrid20"] = (_digest(r2.x), r2.iterations)

    op3 = factorize(g, chain=ChainConfig(kappa=16.0, max_levels=3), seed=5)
    r3 = op3.solve(b)
    out["pcg_grid24_k16"] = (_digest(r3.x), r3.iterations)
    return out


def test_default_config_solves_match_pre_refactor_digests():
    results = _run_recipe()
    for name, (digest, iters) in results.items():
        want_digest, want_iters = PINNED[name]
        assert digest == want_digest, (
            f"{name}: solution drifted from its pinned digest "
            f"({digest} != {want_digest})"
        )
        assert iters == want_iters, f"{name}: iteration count changed"


def test_int64_index_config_matches_default_bit_for_bit(monkeypatch):
    """int64 storage (graphs past int32 capacity) solves bit-identically."""
    g = generators.weighted_grid_2d(16, 16, seed=9)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(g.n)
    b -= b.mean()
    x32 = factorize(g, seed=4).solve(b).x
    monkeypatch.setattr(repro.graph.graph, "min_index_dtype", lambda n, m: np.dtype(np.int64))
    op64 = factorize(generators.weighted_grid_2d(16, 16, seed=9), seed=4)
    assert op64.chain.levels[0].graph.u.dtype == np.dtype(np.int64)
    assert _digest(x32) == _digest(op64.solve(b).x)
