"""The repository benchmark: end-to-end and per-layer metrics of the solver.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-stream --seed 1 --seconds 20 --trace 0

It imports ``repro`` from ``src/`` of the same checkout and drives only the
public API (``repro.factorize``, ``LaplacianOperator.solve``/``update``,
``repro.SolverService``) from one process.  ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics from spans recorded around each layer's public names (see
``tracing.py``).  Every answer is checked against the benchmark's own SciPy
Laplacian; ``attempted``/``failed`` count solved columns and requests.

The last line of standard output is the result object; the line before it
is a JSON record of the environment, sample counts, the SciPy baselines and
any traced names that no longer exist.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

#: Thread pools of the numeric libraries, pinned before NumPy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Environment overrides of the solver's backends; the benchmark measures defaults.
SOLVER_ENV_OVERRIDES = ("REPRO_KERNEL_BACKEND", "REPRO_ARRAY_BACKEND")

ROOT = Path(__file__).resolve().parent.parent


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in SOLVER_ENV_OVERRIDES:
        os.environ.pop(var, None)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny graphs (self-test only; numbers are meaningless)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy as np
    import scipy

    from session import WORKLOADS, Session

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"]
        for kind in ("end_to_end", "per_layer")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    }

    session = Session(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny)
    metrics, detail = session.run()
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=session.attempted,
        failed=session.failed,
        environment={
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        },
    )
    print(json.dumps(detail, default=str))
    result = {
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
