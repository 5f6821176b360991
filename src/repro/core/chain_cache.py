"""Process-level LRU memo of factorized operators (chain reuse across calls).

Building a preconditioner chain is the expensive phase of Theorem 1.1; many
workloads (the electrical-flow max-flow loop, repeated ``repro.solve`` calls
against a fixed system, the resistance oracle) ask for the *same* matrix
under the *same* configuration again and again.  This module memoizes
:func:`repro.core.operator.factorize` results in a fixed-capacity LRU table
keyed by

``(graph fingerprint, ChainConfig, SolverConfig, integer seed)``

A cached entry is only sound when a fresh factorization would be bit-for-bit
identical, so non-integer seeds (``None`` or generator objects, whose draws
differ between calls) bypass the cache entirely — :func:`make_key` returns
``None`` for them.  Inputs that cannot be content-hashed make
:func:`fingerprint_matrix` return ``None``, which likewise bypasses the
cache; :func:`~repro.core.operator.factorize` treats a ``None`` key as
"solve uncached", never as an error (:mod:`repro.serving` cannot key such
inputs and rejects them).

Keys are content fingerprints, so an entry never goes stale: a mutated
graph has a different fingerprint, hence a different key, and the old
graph's entry stays correct for the old graph.  The only eviction is LRU
beyond :func:`set_chain_cache_capacity` (default 32 entries).

A cached operator carries the *compiled* chain: every
:class:`~repro.core.chain.ChainLevel` holds its precompiled
:class:`~repro.core.transfer.TransferOperators` (built once at factorize
time), so a cache hit skips both the chain construction and the transfer
compilation.  The compiled transfer arrays are immutable and safely shared
between callers.

Concurrency: both the *table* (lock-guarded here) and the cached
:class:`~repro.core.operator.LaplacianOperator` objects are safe to share
across threads.  ``solve`` is re-entrant — every call charges a private
:class:`~repro.pram.model.CostModel`, and the operator's lazy
initializers (Chebyshev bounds, the ``direct`` factor, the Jacobi
diagonal) are serialized by a setup lock — so a hit can hand the same
operator to any number of concurrent callers and each solve reports the
same ``x``/``work``/``depth`` bit for bit as a serial run.

The only table-level nondeterminism under concurrency is benign: two
threads that *miss* on the same key both build the (identical) operator and
the second ``store`` wins, so hit/miss counters depend on arrival order —
warm the cache first when exact accounting matters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.config import ChainConfig, SolverConfig
from repro.graph.graph import Graph

#: Default capacity of the process-level cache (LRU eviction beyond this).
DEFAULT_CAPACITY = 32

_lock = threading.Lock()
_capacity = DEFAULT_CAPACITY
_hits = 0
_misses = 0
_evictions = 0
_entries: "OrderedDict[Hashable, object]" = OrderedDict()


@dataclass(frozen=True)
class ChainCacheStats:
    """Counters describing the process-level chain cache.

    ``evictions`` counts entries dropped by the LRU capacity bound.
    """

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int


# --------------------------------------------------------------------------- #
# keys and fingerprints
# --------------------------------------------------------------------------- #
def fingerprint_matrix(matrix) -> Optional[str]:
    """Content fingerprint of a solver input (graph or SDD matrix).

    Graphs hash their vertex count and edge arrays; sparse/dense matrices
    hash their CSR structure.  Returns ``None`` for inputs that cannot be
    fingerprinted — callers must fall back to uncached solving rather than
    erroring (the serving layer, which must key every input, rejects them).
    """
    if isinstance(matrix, Graph):
        return matrix.fingerprint()
    try:
        csr = sp.csr_matrix(matrix)
    except Exception:
        return None
    import hashlib

    h = hashlib.sha256()
    h.update(np.int64(csr.shape[0]).tobytes())
    h.update(np.int64(csr.shape[1]).tobytes())
    h.update(np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.data, dtype=np.float64).tobytes())
    return "m:" + h.hexdigest()


def make_key(
    matrix,
    chain_config: ChainConfig,
    solver_config: SolverConfig,
    seed,
) -> Optional[Tuple]:
    """Cache key for a factorization request, or ``None`` if uncacheable.

    Only plain integer seeds are cacheable (see the module docstring);
    booleans are excluded on principle even though they are ``int``.  A
    ``None`` fingerprint (unfingerprintable input) also yields ``None``.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        return None
    fp = fingerprint_matrix(matrix)
    if fp is None:
        return None
    return (fp, chain_config.cache_key(), solver_config.cache_key(), int(seed))


# --------------------------------------------------------------------------- #
# byte-size estimation
# --------------------------------------------------------------------------- #
def _iter_ndarrays(root) -> Iterator[np.ndarray]:
    """Yield every distinct ndarray reachable from ``root``.

    Generic object-graph walk (``__dict__``/``__slots__``, containers,
    scipy sparse buffer attributes) with an identity ``seen`` set; leaves
    that are not arrays or containers are ignored, so locks, RNGs, and
    callables are safely skipped.
    """
    seen = set()
    stack = [root]
    sparse_buffers = ("data", "indices", "indptr", "row", "col", "offsets")
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (str, bytes, bool, int, float, complex, type)):
            continue
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(obj, np.ndarray):
            yield obj
            continue
        if isinstance(obj, np.generic):
            continue
        if sp.issparse(obj):
            for name in sparse_buffers:
                buf = getattr(obj, name, None)
                if isinstance(buf, np.ndarray) and id(buf) not in seen:
                    seen.add(id(buf))
                    yield buf
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if callable(obj) and not hasattr(obj, "__dict__"):
            continue
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            stack.extend(attrs.values())
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                try:
                    stack.append(getattr(obj, slot))
                except AttributeError:
                    pass


def estimate_operator_bytes(operator) -> int:
    """Estimated resident bytes of a factorized operator's array state.

    Sums the ``nbytes`` of every distinct ndarray reachable from the
    operator — the chain's CSR Laplacians, the compiled transfer factors,
    the graph edge arrays, and the null-space projectors.  An estimate
    (Python object overhead is ignored) that tracks the per-level sparse
    arrays; the SuperLU ``L``/``U`` of the bottom factor (and of a built
    ``direct`` factor) live outside NumPy and are not counted.
    """
    return int(sum(a.nbytes for a in _iter_ndarrays(operator)))


# --------------------------------------------------------------------------- #
# table operations
# --------------------------------------------------------------------------- #
def _evict_lru_locked() -> None:
    global _evictions
    while len(_entries) > _capacity:
        _entries.popitem(last=False)
        _evictions += 1


def lookup(key: Hashable):
    """Return the cached operator for ``key`` (marking it most-recent), or ``None``."""
    global _hits, _misses
    with _lock:
        operator = _entries.get(key)
        if operator is None:
            _misses += 1
        else:
            _entries.move_to_end(key)
            _hits += 1
        return operator


def store(key: Hashable, operator) -> None:
    """Insert ``operator`` under ``key`` as most-recent, evicting LRU entries."""
    with _lock:
        _entries[key] = operator
        _entries.move_to_end(key)
        _evict_lru_locked()


def clear_chain_cache() -> None:
    """Drop every cached operator and reset all counters."""
    global _hits, _misses, _evictions
    with _lock:
        _entries.clear()
        _hits = 0
        _misses = 0
        _evictions = 0


def set_chain_cache_capacity(capacity: int) -> None:
    """Resize the cache (evicting LRU entries if shrinking)."""
    global _capacity
    if capacity < 1:
        raise ValueError("cache capacity must be >= 1")
    with _lock:
        _capacity = int(capacity)
        _evict_lru_locked()


def chain_cache_stats() -> ChainCacheStats:
    """Current hit/miss/size/capacity/eviction counters."""
    with _lock:
        return ChainCacheStats(
            hits=_hits,
            misses=_misses,
            size=len(_entries),
            capacity=_capacity,
            evictions=_evictions,
        )
