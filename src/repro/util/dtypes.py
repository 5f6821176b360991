"""Index dtype rule shared by every array-building stage.

Every vertex/edge index array is stored in the smallest dtype that covers
the graph: int32 while ``max(n, 2m + 2) <= 2^31 - 1`` (the Euler-tour and
adjacency structures index ``2m`` arcs plus a sentinel) and int64 beyond
that.  :class:`~repro.graph.graph.Graph` applies the rule at construction;
nothing else chooses an index dtype for a graph.  Edge weights are always
float64.

Two hard rules keep the index dtype invisible on the float side:

* index dtypes never participate in floating-point arithmetic, and
* any integer arithmetic that can exceed the index range (e.g. the edge
  coalescing keys ``lo * n + hi``) is explicitly promoted to int64 at the
  call site regardless of the storage dtype.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def index_capacity_ok(dtype: np.dtype, n: int, m: int) -> bool:
    """Whether ``(n, m)`` index arrays are safe in ``dtype``.

    Requires every vertex id (< n), edge id (< m), CSR offset (<= 2m) and
    Euler-tour arc id plus its end-of-tour sentinel (<= 2m + 1) to be
    representable.
    """
    cap = np.iinfo(np.dtype(dtype)).max
    return max(int(n), 2 * int(m) + 2) <= cap


def min_index_dtype(n: int, m: int) -> np.dtype:
    """Smallest supported index dtype that safely covers ``(n, m)``."""
    if index_capacity_ok(np.int32, n, m):
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def as_index_array(a, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """View/convert ``a`` as a 1-D index array without an unnecessary copy.

    With ``dtype=None``, integer input arrays keep their dtype (int32/int64
    pass through untouched — slices of a lean parent stay lean) and anything
    else is converted to int64.
    """
    arr = np.asarray(a)
    if dtype is not None:
        return arr.astype(dtype, copy=False).ravel()
    if arr.dtype in (np.dtype(np.int32), np.dtype(np.int64)):
        return arr.ravel()
    return arr.astype(np.int64, copy=False).ravel()
