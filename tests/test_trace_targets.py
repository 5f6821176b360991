"""The repository benchmark's traced layers exist and are reached by a solve.

``perfbench/tracing.py`` wraps named entry points of each solver layer to
report per-layer timings.  A traced name that disappears is listed as
``absent`` instead of failing the benchmark, so a refactor could silently
drop a per-layer metric; this test makes that a tier-1 failure instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import repro
from repro.core.config import ChainConfig
from repro.graph import generators
from repro.graph.edits import EdgeEdits

_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perfbench.tracing import TRACED, Tracer  # noqa: E402


def test_every_traced_layer_exists():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.remove()


def test_solve_and_update_reach_every_traced_layer():
    g = generators.grid_2d(16, 16)
    op = repro.factorize(g, ChainConfig(bottom_size=20), seed=0)
    assert op.depth > 1
    b = np.random.default_rng(0).standard_normal(g.n)
    b -= b.mean()
    with Tracer() as tracer:
        op.solve(b, tol=1e-6)
        op.update(EdgeEdits.reweights([0], [2.0]))
    assert {span[0] for span in tracer.spans} == {name for name, *_ in TRACED}
