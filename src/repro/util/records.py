"""Structured result records used by benchmarks and examples.

The benchmark harness prints tables comparing paper guarantees against
measured quantities.  Keeping the rows as small dataclasses (instead of ad
hoc dicts) makes the harness output uniform and easy to test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any, Dict, List, Optional


@dataclass
class ExperimentRow:
    """One row of an experiment table.

    Attributes
    ----------
    experiment:
        Experiment id (``"E1"`` … ``"E12"``; each ``benchmarks/bench_*.py``
        module tags the rows of the experiments it runs, e.g. ``"E2"``).
    workload:
        Human-readable workload description (e.g. ``"grid 64x64"``).
    params:
        Parameter setting for the row (e.g. ``{"rho": 16}``).
    measured:
        Measured quantities (e.g. cut fraction, stretch, work).
    bound:
        The paper's bound for the measured quantity, when applicable.
    """

    experiment: str
    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)
    bound: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def format_table(rows: List[ExperimentRow], columns: Optional[List[str]] = None) -> str:
    """Render experiment rows as an aligned plain-text table.

    ``columns`` selects keys from ``params`` and ``measured``; if omitted, the
    union of keys across rows is used (params first, then measured).
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        pkeys: List[str] = []
        mkeys: List[str] = []
        for r in rows:
            for k in r.params:
                if k not in pkeys:
                    pkeys.append(k)
            for k in r.measured:
                if k not in mkeys:
                    mkeys.append(k)
        columns = pkeys + mkeys
    header = ["workload"] + columns
    table: List[List[str]] = [header]
    for r in rows:
        row = [r.workload]
        for c in columns:
            val = r.params.get(c, r.measured.get(c, ""))
            if isinstance(val, float):
                row.append(f"{val:.4g}")
            else:
                row.append(str(val))
        table.append(row)
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(header))))
    return "\n".join(lines)
