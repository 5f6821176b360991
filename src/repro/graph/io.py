"""Chunked edge-list ingestion: build CSR graphs in streaming passes.

Million-edge graphs should not require the edge list to exist twice in
memory (once in the caller's format, once inside :class:`Graph`).  This
module builds a graph from a stream of ``(u, v, w)`` blocks instead:

* :func:`iter_edge_blocks` adapts the common sources — in-memory array
  triples, 2-D ``(m, 3)`` NumPy ``.npy`` files (opened as memmaps, so the
  OS pages the edge list in block by block), structured-record ``.npy``
  files, and raw packed binary files — into a block iterator;
* :func:`graph_from_edge_blocks` consumes any block iterator, validates
  each block while it is small, and fills preallocated lean arrays, so the
  transient overhead is one block rather than one edge list;
* :func:`save_edge_list_npy` / :func:`save_edge_list_binary` write the
  matching on-disk formats (used by benchmarks and tests).

The resulting graph is bit-identical — same ``n``, same endpoint/weight
values, same dtypes — to ``Graph(n, u, v, w)`` on the concatenated
edge list; the streaming-ingestion tests assert exactly that across the
fuzz corpus, multigraphs and disconnected unions included.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.graph import Graph, check_edge_weights, check_vertex_count, check_vertex_ids
from repro.util.dtypes import index_capacity_ok, min_index_dtype

#: One streamed chunk of edges: ``(u, v, w)`` parallel arrays.
EdgeBlock = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Default record layout for packed binary edge files.
BINARY_EDGE_DTYPE = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])

DEFAULT_BLOCK_EDGES = 1 << 20


def _blocks_from_arrays(
    u: np.ndarray, v: np.ndarray, w: Optional[np.ndarray], block_edges: int
) -> Iterator[EdgeBlock]:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")
    if w is not None:
        w = np.asarray(w)
        if w.shape != u.shape:
            raise ValueError("w must have the same length as u and v")
    m = int(u.shape[0])
    for start in range(0, m, block_edges):
        stop = min(start + block_edges, m)
        wb = (
            w[start:stop]
            if w is not None
            else np.ones(stop - start, dtype=np.float64)
        )
        yield u[start:stop], v[start:stop], wb
    if m == 0:
        yield u[:0], v[:0], np.ones(0, dtype=np.float64)


def _blocks_from_npy(path: str, block_edges: int) -> Iterator[EdgeBlock]:
    arr = np.load(path, mmap_mode="r")
    if arr.dtype.names is not None:
        names = arr.dtype.names
        if not {"u", "v"} <= set(names):
            raise ValueError(
                f"structured edge file {path!r} needs fields 'u' and 'v' (got {names})"
            )
        has_w = "w" in names
        m = int(arr.shape[0])
        for start in range(0, max(m, 1), block_edges):
            stop = min(start + block_edges, m)
            chunk = np.asarray(arr[start:stop])  # one block paged in
            wb = (
                np.ascontiguousarray(chunk["w"])
                if has_w
                else np.ones(stop - start, dtype=np.float64)
            )
            yield np.ascontiguousarray(chunk["u"]), np.ascontiguousarray(chunk["v"]), wb
        return
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError(
            f"edge file {path!r} must be an (m, 2) or (m, 3) array "
            f"or a structured array with u/v[/w] fields (got shape {arr.shape})"
        )
    m = int(arr.shape[0])
    has_w = arr.shape[1] == 3
    for start in range(0, max(m, 1), block_edges):
        stop = min(start + block_edges, m)
        chunk = np.asarray(arr[start:stop])
        u = chunk[:, 0].astype(np.int64)
        v = chunk[:, 1].astype(np.int64)
        wb = (
            np.ascontiguousarray(chunk[:, 2])
            if has_w
            else np.ones(stop - start, dtype=np.float64)
        )
        yield u, v, wb


def _blocks_from_binary(
    path: str, record_dtype: np.dtype, block_edges: int
) -> Iterator[EdgeBlock]:
    record_dtype = np.dtype(record_dtype)
    if record_dtype.names is None or not {"u", "v"} <= set(record_dtype.names):
        raise ValueError("binary record dtype needs at least fields 'u' and 'v'")
    size = os.path.getsize(path)
    if size % record_dtype.itemsize:
        raise ValueError(
            f"binary edge file {path!r} size {size} is not a multiple of "
            f"the record size {record_dtype.itemsize}"
        )
    m = size // record_dtype.itemsize
    has_w = "w" in record_dtype.names
    with open(path, "rb") as fh:
        remaining = m
        while True:
            count = min(block_edges, remaining)
            chunk = np.fromfile(fh, dtype=record_dtype, count=count)
            remaining -= chunk.shape[0]
            wb = (
                np.ascontiguousarray(chunk["w"])
                if has_w
                else np.ones(chunk.shape[0], dtype=np.float64)
            )
            yield np.ascontiguousarray(chunk["u"]), np.ascontiguousarray(chunk["v"]), wb
            if remaining <= 0 or chunk.shape[0] == 0:
                break


def iter_edge_blocks(
    source: Union[str, os.PathLike, Tuple, Graph, Iterable[EdgeBlock]],
    *,
    block_edges: int = DEFAULT_BLOCK_EDGES,
    binary_dtype: Optional[np.dtype] = None,
) -> Iterator[EdgeBlock]:
    """Adapt an edge-list source into an iterator of ``(u, v, w)`` blocks.

    Accepted sources:

    * a :class:`Graph` — blocks are views of its arrays;
    * a tuple/list ``(u, v)`` or ``(u, v, w)`` of array-likes;
    * a path to a ``.npy`` file — either a 2-D ``(m, 2)``/``(m, 3)`` array
      (columns ``u, v[, w]``) or a 1-D structured array with fields
      ``u``/``v``[/``w``]; opened with ``mmap_mode="r"`` so only the block
      being ingested is resident;
    * a path to a packed binary record file (``binary_dtype`` gives the
      record layout, default :data:`BINARY_EDGE_DTYPE`);
    * any iterator/iterable of ``(u, v, w)`` blocks — passed through.

    Missing weights default to ones.
    """
    if block_edges < 1:
        raise ValueError("block_edges must be >= 1")
    if isinstance(source, Graph):
        return _blocks_from_arrays(source.u, source.v, source.w, block_edges)
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        if binary_dtype is None and path.endswith(".npy"):
            return _blocks_from_npy(path, block_edges)
        return _blocks_from_binary(path, binary_dtype or BINARY_EDGE_DTYPE, block_edges)
    if isinstance(source, (tuple, list)) and len(source) in (2, 3):
        first = np.asarray(source[0])
        if first.ndim <= 1 and (first.ndim == 0 or first.dtype != object):
            u, v = source[0], source[1]
            w = source[2] if len(source) == 3 else None
            return _blocks_from_arrays(np.asarray(u), np.asarray(v), w, block_edges)
    return iter(source)


def _validate_block(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    if u.shape != v.shape or w.shape != u.shape:
        raise ValueError("block arrays u, v, w must have the same length")
    check_vertex_ids(u, "u", n)
    check_vertex_ids(v, "v", n)
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    check_edge_weights(w)


def graph_from_edge_blocks(
    n: int,
    blocks: Iterable[EdgeBlock],
    *,
    num_edges: Optional[int] = None,
    validate: bool = True,
) -> Graph:
    """Build a :class:`Graph` by streaming ``(u, v, w)`` blocks into place.

    Each block is validated while it is small (bounds, self-loops, weight
    positivity — skipped with ``validate=False`` for trusted producers) and
    copied into the final storage arrays, so peak memory is the final graph
    plus one block.  With ``num_edges`` given the storage is allocated
    exactly once; otherwise it grows by doubling (amortized O(m), peak
    ~1.5x the final arrays during the last regrow).

    Endpoints are stored in the dtype :class:`Graph` would pick — sized
    for ``num_edges`` when known, otherwise starting at the leanest dtype
    that covers ``n`` and widening to int64 mid-stream in the (rare) case
    the edge count outgrows int32 capacity — and weights in float64.
    """
    n = check_vertex_count(n)
    cap = 0 if num_edges is None else int(num_edges)
    idt = min_index_dtype(n, cap)
    u = np.empty(cap, dtype=idt)
    v = np.empty(cap, dtype=idt)
    w = np.empty(cap, dtype=np.float64)
    filled = 0
    for bu, bv, bw in blocks:
        bu = np.asarray(bu).ravel()
        bv = np.asarray(bv).ravel()
        bw = np.asarray(bw).ravel()
        if validate:
            _validate_block(n, bu, bv, bw)
        need = filled + bu.shape[0]
        if need > u.shape[0]:
            if num_edges is not None:
                raise ValueError(
                    f"edge stream produced more than the declared num_edges={num_edges}"
                )
            new_cap = max(need, 2 * u.shape[0], 1024)
            if not index_capacity_ok(idt, n, new_cap):
                idt = np.dtype(np.int64)
            u = _regrow(u, new_cap, idt)
            v = _regrow(v, new_cap, idt)
            w = _regrow(w, new_cap, w.dtype)
        u[filled:need] = bu
        v[filled:need] = bv
        w[filled:need] = bw
        filled = need
    if num_edges is not None and filled != num_edges:
        raise ValueError(
            f"edge stream produced {filled} edges but num_edges={num_edges} were declared"
        )
    if filled != u.shape[0]:
        u = u[:filled].copy()
        v = v[:filled].copy()
        w = w[:filled].copy()
    return Graph(n, u, v, w, validate=False)


def _regrow(arr: np.ndarray, new_cap: int, dtype: np.dtype) -> np.ndarray:
    out = np.empty(new_cap, dtype=dtype)
    out[: arr.shape[0]] = arr
    return out


def graph_from_edge_list(
    n: int,
    source: Union[str, os.PathLike, Tuple, Graph, Iterable[EdgeBlock]],
    *,
    block_edges: int = DEFAULT_BLOCK_EDGES,
    binary_dtype: Optional[np.dtype] = None,
    validate: bool = True,
) -> Graph:
    """Build a graph from any :func:`iter_edge_blocks` source, streaming."""
    blocks = iter_edge_blocks(source, block_edges=block_edges, binary_dtype=binary_dtype)
    return graph_from_edge_blocks(n, blocks, validate=validate)


def save_edge_list_npy(graph: Graph, path: Union[str, os.PathLike]) -> str:
    """Write ``graph``'s edges as a structured ``.npy`` (fields ``u, v, w``).

    The structured layout round-trips endpoint integers exactly and is
    memmap-friendly for :func:`iter_edge_blocks`.
    """
    path = os.fspath(path)
    rec = np.empty(graph.num_edges, dtype=BINARY_EDGE_DTYPE)
    rec["u"] = graph.u
    rec["v"] = graph.v
    rec["w"] = graph.w
    np.save(path, rec)
    return path if path.endswith(".npy") else path + ".npy"


def save_edge_list_binary(
    graph: Graph,
    path: Union[str, os.PathLike],
    *,
    record_dtype: np.dtype = BINARY_EDGE_DTYPE,
) -> str:
    """Write ``graph``'s edges as packed binary records (default u/v/w int64+float64)."""
    path = os.fspath(path)
    record_dtype = np.dtype(record_dtype)
    rec = np.empty(graph.num_edges, dtype=record_dtype)
    rec["u"] = graph.u
    rec["v"] = graph.v
    if "w" in record_dtype.names:
        rec["w"] = graph.w
    rec.tofile(path)
    return path
