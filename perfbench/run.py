"""ncsym benchmark: one workload run, printed as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload convert-cold --seed 3 --seconds 20 --trace 0

Each run starts fresh worker interpreters, one at a time: one that checks
every distinct op's output once, three that only set up, and one that
measures and compares each output with the checked one.  ``setup_s`` is the
median of their five set-up times.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (input digest, git SHA, Python version, nproc, seed, failed-op
share, tail percentile).  ``--trace 1`` runs only the check and the measuring
worker and reports the per-layer metrics instead of the end-to-end ones.
Metric names and units are those registered in ``BENCHMARK.json``.
End-to-end times are scaled to a reference machine speed (see README.md).
``--record-golden`` rewrites ``golden.json`` from the default seed after
checking every output by its independent route.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 5  # set-ups per run: the check worker, three more, the measuring worker

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("NCSYM_MAX_DEGREE", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, mode: str, trace: int = 0, expected: dict | None = None) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--size", args.size,
        "--mode", mode,
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        input=json.dumps(expected or {}),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ncsym" / "__init__.py").is_file():
        print(f"error: no ncsym source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args)
    if args.workload is None:
        ap.error("--workload is required")

    # the check worker is also the first set-up sample
    check = run_worker(args, "check")
    setups = [check]
    if not args.trace:
        setups += [run_worker(args, "setup") for _ in range(SETUP_SAMPLES - 2)]
    out = run_worker(args, "run", trace=args.trace, expected=check["digests"])
    setups.append(out)

    record = dict(out["record"])
    record["setup_samples_s"] = [s["setup_s"] for s in setups]
    record["setup_raw_samples_s"] = [s["setup_raw_s"] for s in setups]
    record["failed_ops_frac"] = out["failed"] / out["attempted"]
    record["check_failures"] = check["failures"]
    record["failures"] = out["failures"]
    if args.trace:
        values, registered = out["layers"], spec["per_layer"]
    else:
        values = dict(out["latency"], setup_s=statistics.median(record["setup_samples_s"]))
        registered = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in registered}
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def record_golden(args) -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        args.workload, args.seed, args.size = name, workloads.DEFAULT_SEED, "full"
        out = run_worker(args, "record")
        if out["failures"]:
            print(f"{name}: {out['failures']}", file=sys.stderr)
            return 1
        golden[name] = out["digests"]
        print(f"{name}: {len(out['digests'])} digests", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
