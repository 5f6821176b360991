"""Work-depth (PRAM) cost model.

The paper analyzes all algorithms in the PRAM model in terms of *work* (total
operation count) and *depth* (longest chain of dependencies).  This package
provides a light-weight accounting layer: parallel algorithms in
:mod:`repro.core` charge their operations to a :class:`CostModel`, which
reproduces the paper's work/depth scaling claims without needing actual
parallel hardware.

Each number has one owner.  A caller of a building block
(``split_graph``, ``low_stretch_subgraph``, ``build_chain``, ...) passes its
own model and reads it afterwards.  The solver keeps its two Theorem 1.1
prices itself: ``LaplacianOperator.setup_work``/``setup_depth`` hold the
one-time factorization (plus its lazy initializers) and
``SolveReport.work``/``depth`` hold one solve.
"""

from repro.pram.model import CostModel, null_cost
from repro.pram.primitives import (
    charge_elimination_transfer,
    charge_filter,
    charge_map,
    charge_reduce,
)

__all__ = [
    "CostModel",
    "null_cost",
    "charge_map",
    "charge_reduce",
    "charge_filter",
    "charge_elimination_transfer",
]
