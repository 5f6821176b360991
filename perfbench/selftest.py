"""Self-test of the benchmark at tiny sizes (about half a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that one command emits every metric named in ``BENCHMARK.json``
with its unit -- the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1`` -- for every workload, and that a
deliberately wrong answer is caught: with ``LaplacianOperator.solve``
patched to corrupt one entry of every solution, the run must report
``correct: false`` and a positive ``fail_frac``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_cli(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: answers not all correct: {result}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                fail(f"{workload} --trace {trace}: metrics {got} != {expected}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    fail(f"{workload} --trace {trace}: {name} = {m['value']!r}")
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, {result['attempted']} answers")


def check_wrong_answers_counted(spec: dict) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.core.operator import LaplacianOperator
    from session import WORKLOADS, Session

    original = LaplacianOperator.solve

    def corrupted(self, b, **kwargs):
        report = original(self, b, **kwargs)
        report.x[0] += 1.0
        return report

    LaplacianOperator.solve = corrupted
    try:
        session = Session(WORKLOADS[spec["workloads"][0]["name"]], seed=3, seconds=1, trace=True, tiny=True)
        metrics, _ = session.run()
    finally:
        LaplacianOperator.solve = original
    if not (session.failed > 0 and metrics["fail_frac"] > 0):
        fail(f"corrupted answers not counted: failed={session.failed} of {session.attempted}")
    print(f"ok  corrupted answers counted: fail_frac={metrics['fail_frac']:.2f}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_answers_counted(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
