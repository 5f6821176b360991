"""Spans around the public entry points of each solver layer.

The tracer wraps named functions and methods of the installed ``repro``
package from the outside (no code inside ``src/`` knows about it), records
one span per call, and restores every original on :meth:`Tracer.remove`.
A span is a small list ``[name, start, end, parent, child_seconds, value]``:

* ``start``/``end`` are ``time.perf_counter()`` readings;
* ``parent`` is the enclosing span on the same thread (``None`` at top level);
* ``child_seconds`` accumulates the durations of direct children, so a span's
  self time is ``end - start - child_seconds``;
* ``value`` is an optional count taken from the call's result (the iteration
  count of a CG run).

A traced name that no longer exists in the package is listed in
:attr:`Tracer.absent` instead of raising, so deleting or renaming a layer does
not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


def _cg_iterations(result) -> int:
    return int(result.iterations.max(initial=0))


#: (span name, module, attribute path, result -> value) of every traced name.
TRACED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("solve", "repro.core.operator", "LaplacianOperator.solve", None),
    ("update", "repro.core.operator", "LaplacianOperator.update", None),
    ("cg", "repro.linalg.cg", "batched_conjugate_gradient", _cg_iterations),
    ("transfer.forward", "repro.core.transfer", "TransferOperators.forward", None),
    ("transfer.backward", "repro.core.transfer", "TransferOperators.backward", None),
    ("bottom", "repro.linalg.direct", "FactorizedLaplacian.solve", None),
)

NAME, START, END, PARENT, CHILD, VALUE = range(6)


class Tracer:
    """Install span-recording wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.absent: List[str] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        self.absent = []
        for name, module_name, path, extract in TRACED:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, extract)
            if owner_path:
                self._patch(owner, attr, wrapped)
                continue
            # A module-level function is also bound by name in every module
            # that imported it; patch each alias of the same object.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "repro" and vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapped)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn, extract):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, clock(), 0.0, parent, 0.0, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span[VALUE] = extract(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]

        return traced


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``seconds`` and ``self_seconds``."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span[NAME], {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        duration = span[END] - span[START]
        row["calls"] += 1
        row["seconds"] += duration
        row["self_seconds"] += duration - span[CHILD]
    return out
