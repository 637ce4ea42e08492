"""Self-test of the benchmark at tiny sizes: about a minute, from the checkout root.

    python3 perfbench/selftest.py

For every workload it runs one untraced and two traced tiny runs with one
seed, and asserts that every metric registered in ``BENCHMARK.json`` is
printed with its unit, that no op failed, and that every count metric of the
traced runs repeats exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_UNITS = ("count", "byte")


def run(workload: str, trace: int) -> tuple:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(result: dict, registered: list, label: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in registered}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} ops failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        record, result = run(workload, trace=0)
        check_metrics(result, spec["end_to_end"], f"{workload} untraced")
        if record["failed_ops_frac"] != 0:
            raise AssertionError(f"{workload}: failed_ops_frac is {record['failed_ops_frac']}")
        first = run(workload, trace=1)[1]
        second = run(workload, trace=1)[1]
        for result in (first, second):
            check_metrics(result, spec["per_layer"], f"{workload} traced")
        for name, metric in first["metrics"].items():
            if metric["unit"] in COUNT_UNITS and metric["value"] != second["metrics"][name]["value"]:
                raise AssertionError(
                    f"{workload}: count {name} differs between traced runs: "
                    f"{metric['value']} vs {second['metrics'][name]['value']}"
                )
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
