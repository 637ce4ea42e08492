"""Compare two checkouts on one workload by alternating pairs of runs.

    python3 perfbench/compare.py --base ../parent --change . --workload convert-cold

Runs ``--pairs`` pairs (at least 10), each pair on its own seed, and
alternates which side runs first.  Every run measures for the
``run_seconds`` of ``BENCHMARK.json``, the length its bounds were set for.
For every end-to-end metric it prints each side's median and quartiles, how
many pairs the change won, and whether the gain rule holds: the change wins
at least nine tenths of the pairs (ties count for neither) and the medians
differ by more than the base's own quartile
spread.  Both checkouts must hold the same ``perfbench`` files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


FIRST_SEED = 1000


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {result['failed']} ops failed on seed {seed}")
    return result["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("use at least 10 pairs")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, seed, spec["run_seconds"]))
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [m[name]["value"] for m in sides["base"]]
        change = [m[name]["value"] for m in sides["change"]]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq, cq = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
        gain = wins >= 0.9 * args.pairs and abs(cq[1] - bq[1]) > bq[2] - bq[0]
        print(
            f"{name:12s} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
            f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
            f"wins {wins}/{args.pairs}  {'GAIN' if gain else 'no claim'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
