"""Process-level cache of factorized operators (chain reuse across calls).

Building a preconditioner chain is the expensive phase of Theorem 1.1; many
workloads (the electrical-flow max-flow loop, repeated ``repro.solve`` calls
against a fixed system, and the micro-batching :mod:`repro.serving` service)
ask for the *same* matrix under the *same* configuration again and again.
This module memoizes :func:`repro.core.operator.factorize` results in a
bounded table keyed by

``(graph fingerprint, ChainConfig, SolverConfig, integer seed)``

A cached entry is only sound when a fresh factorization would be bit-for-bit
identical, so non-integer seeds (``None`` or generator objects, whose draws
differ between calls) bypass the cache entirely — :func:`make_key` returns
``None`` for them.  Inputs that cannot be content-hashed make
:func:`fingerprint_matrix` return ``None``, which likewise bypasses the
cache; :func:`~repro.core.operator.factorize` treats a ``None`` key as
"solve uncached", never as an error (:mod:`repro.serving` cannot key such
inputs and rejects them).

A cached operator carries the *compiled* chain: every
:class:`~repro.core.chain.ChainLevel` holds its precompiled
:class:`~repro.core.transfer.TransferOperators` (built once at factorize
time), so a cache hit skips both the chain construction and the transfer
compilation.  The compiled transfer arrays are immutable and safely shared
between callers.

Eviction policy
---------------
Three independent bounds, all enforced at ``store`` time and observable per
reason in :func:`chain_cache_stats`:

* **Entry capacity** (:func:`set_chain_cache_capacity`, default 32): classic
  LRU — the least-recently-*used* entry goes first.
* **Byte budget** (:func:`set_chain_cache_budget`, default unlimited): the
  resident set is bounded by the *estimated* memory of the cached chains
  (CSR Laplacians, compiled transfer arrays, projectors — see
  :func:`estimate_operator_bytes`), again evicting LRU-first.  The single
  most-recent entry is always retained even if it alone exceeds the budget,
  so an over-budget graph still gets factorize-once/solve-many behaviour.
* **TTL** (:func:`set_chain_cache_ttl`, default none): entries idle longer
  than the TTL (no lookup hit since) are expired on the next table
  operation, or eagerly via :func:`sweep_expired` (the serving layer's
  periodic sweep calls this).

:func:`evict` drops one key on demand (targeted invalidation — e.g. the
serving layer unregistering a graph).

Concurrency: both the *table* (lock-guarded here) and the cached
:class:`~repro.core.operator.LaplacianOperator` objects are safe to share
across threads.  ``solve`` is re-entrant — every call charges a private
:class:`~repro.pram.model.CostModel`, and the operator's lazy
initializers (Chebyshev bounds, the ``direct`` factor, the Jacobi
diagonal) are serialized by a setup lock — so a hit can hand the same
operator to any number of concurrent callers and each solve reports the
same ``x``/``work``/``depth`` bit for bit as a serial run.  A multi-threaded service therefore wants
exactly this cache: factorize once (``cache=True``, integer seed) and serve
every request thread from the shared operator.

The only table-level nondeterminism under concurrency is benign: two
threads that *miss* on the same key both build the (identical) operator and
the second ``store`` wins, so hit/miss counters depend on arrival order —
warm the cache first when exact accounting matters.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.config import ChainConfig, SolverConfig
from repro.graph.graph import Graph

#: Default capacity of the process-level cache (LRU eviction beyond this).
DEFAULT_CAPACITY = 32

#: Clock used for TTL accounting (monotonic; module-level so tests can
#: substitute a fake clock without sleeping).
_now = time.monotonic

_lock = threading.Lock()
_capacity = DEFAULT_CAPACITY
_byte_budget: Optional[int] = None
_ttl_seconds: Optional[float] = None

_hits = 0
_misses = 0
_stored_bytes = 0
_cumulative_stored_bytes = 0
_lookup_count = 0
_lookup_seconds = 0.0
_evictions: Dict[str, int] = {"capacity": 0, "bytes": 0, "ttl": 0, "explicit": 0}


class _Entry:
    """One cached operator plus its bookkeeping."""

    __slots__ = ("operator", "nbytes", "inserted_at", "last_access", "hits")

    def __init__(self, operator, nbytes: int, now: float) -> None:
        self.operator = operator
        self.nbytes = int(nbytes)
        self.inserted_at = now
        self.last_access = now
        self.hits = 0


_entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()


@dataclass(frozen=True)
class KeyStats:
    """Per-key counters exposed by :func:`chain_cache_stats`.

    ``inserted_at``/``last_access`` are clock readings from the module's
    monotonic ``_now`` (stable between snapshots when the entry is not
    touched, so two stats snapshots straddling cache-bypassing work compare
    equal); age is ``_now() - inserted_at``.
    """

    hits: int
    stored_bytes: int
    inserted_at: float
    last_access: float


@dataclass(frozen=True)
class ChainCacheStats:
    """Counters describing the process-level chain cache.

    ``hits``/``misses``/``size``/``capacity`` keep their historical meaning.
    ``evictions`` is the total across every cause; the ``evictions_*``
    fields split it by cause (LRU capacity, byte budget, TTL expiry, and
    explicit :func:`evict` calls).  ``stored_bytes`` is the estimated
    resident footprint of the live entries; ``cumulative_stored_bytes``
    counts every byte ever stored (monotone — eviction does not subtract).
    ``lookup_seconds``/``lookup_count`` accumulate table-lookup latency.
    ``per_key`` maps each live key to its :class:`KeyStats`.
    """

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int = 0
    evictions_capacity: int = 0
    evictions_bytes: int = 0
    evictions_ttl: int = 0
    evictions_explicit: int = 0
    stored_bytes: int = 0
    cumulative_stored_bytes: int = 0
    byte_budget: Optional[int] = None
    ttl_seconds: Optional[float] = None
    lookup_count: int = 0
    lookup_seconds: float = 0.0
    per_key: Tuple[Tuple[Hashable, KeyStats], ...] = ()


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
def _evict_locked(key: Hashable, reason: str) -> None:
    global _stored_bytes
    entry = _entries.pop(key)
    _stored_bytes -= entry.nbytes
    _evictions[reason] += 1


def _expire_locked(now: float) -> int:
    """Drop every entry idle longer than the TTL; returns the count."""
    if _ttl_seconds is None:
        return 0
    stale = [k for k, e in _entries.items() if now - e.last_access > _ttl_seconds]
    for key in stale:
        _evict_locked(key, "ttl")
    return len(stale)


def _enforce_bounds_locked() -> None:
    while len(_entries) > _capacity:
        _evict_locked(next(iter(_entries)), "capacity")
    if _byte_budget is not None:
        # Keep at least the most-recent entry so an over-budget chain still
        # amortizes its factorization (documented in the module docstring).
        while _stored_bytes > _byte_budget and len(_entries) > 1:
            _evict_locked(next(iter(_entries)), "bytes")


def lookup(key: Hashable):
    """Return the cached operator for ``key`` (marking it most-recent), or ``None``."""
    global _hits, _misses, _lookup_count, _lookup_seconds
    t0 = time.perf_counter()
    now = _now()
    with _lock:
        _expire_locked(now)
        entry = _entries.get(key)
        if entry is None:
            _misses += 1
            result = None
        else:
            _entries.move_to_end(key)
            entry.last_access = now
            entry.hits += 1
            _hits += 1
            result = entry.operator
        _lookup_count += 1
        _lookup_seconds += time.perf_counter() - t0
    return result


def store(key: Hashable, operator, *, nbytes: Optional[int] = None) -> None:
    """Insert ``operator`` under ``key``, evicting expired/LRU/over-budget entries.

    ``nbytes`` overrides the :func:`estimate_operator_bytes` estimate (used
    by tests; real callers let the estimate stand).
    """
    global _stored_bytes, _cumulative_stored_bytes
    if nbytes is None:
        nbytes = estimate_operator_bytes(operator)
    now = _now()
    with _lock:
        _expire_locked(now)
        old = _entries.pop(key, None)
        if old is not None:
            _stored_bytes -= old.nbytes
        entry = _Entry(operator, nbytes, now)
        _entries[key] = entry
        _stored_bytes += entry.nbytes
        _cumulative_stored_bytes += entry.nbytes
        _enforce_bounds_locked()


def evict(key: Hashable) -> bool:
    """Drop ``key`` from the cache (targeted invalidation).

    Returns ``True`` if an entry was removed.  Used by the serving layer to
    unregister a graph and by tests to force cold paths.
    """
    with _lock:
        if key not in _entries:
            return False
        _evict_locked(key, "explicit")
        return True


def invalidate_fingerprint(fingerprint: str) -> int:
    """Drop every cached operator keyed under ``fingerprint``.

    A graph mutation makes every cached factorization of the *old* graph
    stale from the mutating caller's point of view: the serving layer (and
    :func:`repro.core.update.update_operator` when asked) calls this after
    an update so the superseded fingerprint cannot keep serving hits across
    every (config, seed) combination it was stored under.  Returns the
    number of entries evicted (counted as explicit evictions).
    """
    with _lock:
        stale = [
            k for k in _entries if isinstance(k, tuple) and k and k[0] == fingerprint
        ]
        for key in stale:
            _evict_locked(key, "explicit")
        return len(stale)


def sweep_expired() -> int:
    """Eagerly drop every TTL-expired entry; returns the number evicted.

    The serving layer's periodic cache sweep calls this so idle chains are
    reclaimed even when no traffic touches the table.
    """
    with _lock:
        return _expire_locked(_now())


def clear_chain_cache() -> None:
    """Drop every cached operator and reset all counters."""
    global _hits, _misses, _stored_bytes, _cumulative_stored_bytes
    global _lookup_count, _lookup_seconds
    with _lock:
        _entries.clear()
        _hits = 0
        _misses = 0
        _stored_bytes = 0
        _cumulative_stored_bytes = 0
        _lookup_count = 0
        _lookup_seconds = 0.0
        for reason in _evictions:
            _evictions[reason] = 0


def set_chain_cache_capacity(capacity: int) -> None:
    """Resize the cache (evicting LRU entries if shrinking)."""
    global _capacity
    if capacity < 1:
        raise ValueError("cache capacity must be >= 1")
    with _lock:
        _capacity = int(capacity)
        _enforce_bounds_locked()


def set_chain_cache_budget(max_bytes: Optional[int]) -> None:
    """Bound the resident set by estimated bytes (``None`` = unlimited).

    Enforced immediately and at every subsequent ``store``; the single
    most-recent entry is retained even if it alone exceeds the budget.
    """
    global _byte_budget
    if max_bytes is not None and int(max_bytes) < 0:
        raise ValueError("byte budget must be >= 0 or None")
    with _lock:
        _byte_budget = None if max_bytes is None else int(max_bytes)
        _enforce_bounds_locked()


def set_chain_cache_ttl(seconds: Optional[float]) -> None:
    """Expire entries idle longer than ``seconds`` (``None`` disables TTL)."""
    global _ttl_seconds
    if seconds is not None and not float(seconds) > 0:
        raise ValueError("ttl must be positive or None")
    with _lock:
        _ttl_seconds = None if seconds is None else float(seconds)
        _expire_locked(_now())


def chain_cache_stats() -> ChainCacheStats:
    """Current hit/miss/size/eviction/byte/latency counters."""
    now = _now()
    with _lock:
        _expire_locked(now)
        per_key = tuple(
            (
                key,
                KeyStats(
                    hits=entry.hits,
                    stored_bytes=entry.nbytes,
                    inserted_at=entry.inserted_at,
                    last_access=entry.last_access,
                ),
            )
            for key, entry in _entries.items()
        )
        return ChainCacheStats(
            hits=_hits,
            misses=_misses,
            size=len(_entries),
            capacity=_capacity,
            evictions=sum(_evictions.values()),
            evictions_capacity=_evictions["capacity"],
            evictions_bytes=_evictions["bytes"],
            evictions_ttl=_evictions["ttl"],
            evictions_explicit=_evictions["explicit"],
            stored_bytes=_stored_bytes,
            cumulative_stored_bytes=_cumulative_stored_bytes,
            byte_budget=_byte_budget,
            ttl_seconds=_ttl_seconds,
            lookup_count=_lookup_count,
            lookup_seconds=_lookup_seconds,
            per_key=per_key,
        )
