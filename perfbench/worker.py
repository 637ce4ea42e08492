"""One workload run in a fresh interpreter; prints one JSON line of raw results.

``run.py`` starts this file; it is not meant to be run by hand.  Modes:

- ``setup`` stops after set-up and reports its time;
- ``check`` runs each distinct op once, checks its output (against
  ``golden.json`` for the default seed, by an independent route for any
  other) and prints the digests of the outputs that passed;
- ``record`` is ``check`` by the independent routes only, for rewriting
  ``golden.json``;
- ``run`` reads those digests on standard input and measures.  Every
  execution counts as failed unless its output has the checked digest.
  With ``--trace 1`` one pass runs every op once untraced and once traced,
  and the per-layer counters of the traced runs are reported.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3  # per-op medians need at least three samples
# On a shared host the whole machine flips between a fast and a slow mode
# for seconds at a time, and runs minutes apart differ by a third.  Each op's
# latency is therefore scaled by the speed of a fixed reference kernel timed
# just before and just after it, so every time reads as on a machine where
# that kernel takes REFERENCE_NOMINAL_S.  Raw figures go into the run record.
REFERENCE_EVERY_S = 0.25  # wall time between reference kernel samples
REFERENCE_NOMINAL_S = 0.0015

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def load_library():
    """Import ``ncsym`` from the checkout's ``src``, and from nowhere else."""
    pkg = ROOT / "src" / "ncsym"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"library source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import ncsym
    from ncsym import checks, cli  # noqa: F401  (cli is not imported by the package)

    if Path(ncsym.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported ncsym from {ncsym.__file__}, expected {pkg}")
    return ncsym


def _fingerprint(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    return f"{type(value).__name__}:{value}"


def run_record(wl, seed: int, size: str) -> dict:
    inputs = json.dumps(
        [[op.label, op.target, _fingerprint(op.args)] for op in wl.ops] + [wl.sequence]
    )
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncsym").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    record = {
        "workload": wl.name,
        "seed": seed,
        "size": size,
        "inputs_sha256": hashlib.sha256(inputs.encode()).hexdigest(),
        "ops_in_plan": len(wl.ops),
        "git_sha": sha,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if len(wl.sequence) > len(wl.ops):
        # the share of the draws held by the most popular requests, and their kinds
        top = collections.Counter(wl.sequence).most_common(5)
        record["top1_request_share"] = top[0][1] / len(wl.sequence)
        record["top5_request_share"] = sum(k for _, k in top) / len(wl.sequence)
        record["top5_request_kinds"] = [wl.ops[idx].kind for idx, _ in top]
    return record


class Harness:
    def __init__(self, L, wl, expected):
        self.L = L
        self.wl = wl
        self.expected = expected  # op index -> digest of its checked output
        self.modules = [getattr(L, name) for name in tracer.LAYERS]
        self.digests = {}  # check mode: op index -> digest of its checked output
        self.attempted = 0
        self.failures = []  # one message per failed execution
        self.tables = dict.fromkeys(self.table_totals(), 0)  # traced ops only

    def clear_tables(self):
        for module in self.modules:
            for fn in tracer.lru_tables(module):
                fn.cache_clear()

    def call(self, op):
        module, func = op.target.split(".")
        fn = getattr(getattr(self.L, module), func)
        if op.target != "cli.main":
            return fn(*op.args)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fn(list(op.args[0]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def timed(self, idx, trace=None):
        """Run one op; with a tracer, trace it and count its table use."""
        op = self.wl.ops[idx]
        if self.wl.cold:
            self.clear_tables()
        if trace is not None:
            before = self.table_totals()
            trace.active = True
        t0 = perf_counter()
        try:
            result, error = self.call(op), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        if trace is not None:
            trace.active = False
            after = self.table_totals()
            for key in after:
                self.tables[key] += after[key] - before[key]
            self.tables["expressions.table_entries"] = max(
                self.tables["expressions.table_entries"], after["expressions.table_entries"]
            )
        return result, error, dt

    def table_totals(self) -> dict:
        e_hits, e_misses, e_entries = tracer.table_totals(self.L.expressions)
        _, s_misses, _ = tracer.table_totals(self.L.sym)
        return {
            "expressions.table_hits": e_hits,
            "expressions.table_misses": e_misses,
            "expressions.table_entries": e_entries,
            "sym.table_misses": s_misses,
        }

    def record(self, idx, result, error):
        """Count one execution as failed unless its output has the checked digest.

        Runs outside the timed window.  The expected digests come from the
        ``check`` worker, so no independent check runs in a measuring process.
        """
        self.attempted += 1
        label = self.wl.ops[idx].label
        if error is not None:
            self.failures.append(f"{label}: {error}")
            return
        d = oracles.digest(oracles.canonical(self.L, result))
        if self.expected.get(str(idx)) != d:
            self.failures.append(f"{label}: output differs from the checked output")

    def check(self, golden):
        """Run each distinct op once and check it: against ``golden`` if given, else independently."""
        for idx in sorted(set(self.wl.sequence)):
            op = self.wl.ops[idx]
            result, error, _ = self.timed(idx)
            if error is not None:
                self.failures.append(f"{op.label}: {error}")
                continue
            d = oracles.digest(oracles.canonical(self.L, result))
            try:
                ok = golden.get(str(idx)) == d if golden is not None else oracles.verify(self.L, op, result)
            except Exception:
                self.failures.append(f"{op.label}: check raised {traceback.format_exc(limit=2)}")
                continue
            if ok:
                self.digests[idx] = d
            else:
                self.failures.append(f"{op.label}: wrong output")

    # -------------------------------------------------------------- phases

    def warm_up(self):
        for op in self.wl.ops:
            with contextlib.suppress(Exception):
                self.call(op)

    def timed_phase(self, seconds: float) -> tuple:
        """Whole passes over the sequence until ``seconds`` of op time is spent.

        Returns per pass the raw latencies and the same latencies scaled to
        the reference speed around each op (see ``local_speed``).
        Stopping only between passes keeps the op mix of every pass the same.
        """
        self.reference = []  # (when, seconds the reference kernel took)
        raw, starts, busy = [], [], 0.0
        while busy < seconds or len(raw) < MIN_PASSES:
            latencies, begun = [], []
            for idx in self.wl.sequence:
                if not self.reference or perf_counter() - self.reference[-1][0] >= REFERENCE_EVERY_S:
                    self.reference.append((perf_counter(), reference_time()))
                begun.append(perf_counter())
                result, error, dt = self.timed(idx)
                latencies.append(dt)
                self.record(idx, result, error)
            raw.append(latencies)
            starts.append(begun)
            busy += sum(latencies)
        self.reference.append((perf_counter(), reference_time()))
        scaled = [
            [dt * self.local_speed(t, dt) for t, dt in zip(begun, latencies)]
            for begun, latencies in zip(starts, raw)
        ]
        return raw, scaled

    def local_speed(self, start: float, dt: float) -> float:
        """Reference speed around one op: the kernel samples just before and just after it."""
        times = [t for t, _ in self.reference]
        before = bisect.bisect_right(times, start) - 1
        after = bisect.bisect_left(times, start + dt)
        picks = [self.reference[k][1] for k in {max(before, 0), min(after, len(times) - 1)}]
        return REFERENCE_NOMINAL_S / statistics.fmean(picks)

    def paired_passes(self, trace) -> tuple:
        """Each op once untraced and once traced, in alternating order.

        The tracer is installed only around the traced run of an op, outside
        its timed window, so the untraced run is the library as it ships.
        Pairing the two runs of an op keeps machine drift out of the tracing
        overhead.  Returns the untraced and traced op time.
        """
        times = {None: 0.0, trace: 0.0}
        for i, idx in enumerate(self.wl.sequence):
            for tr in (None, trace) if i % 2 == 0 else (trace, None):
                if tr is not None:
                    tr.install()
                try:
                    result, error, dt = self.timed(idx, tr)
                finally:
                    if tr is not None:
                        tr.uninstall()
                times[tr] += dt
                self.record(idx, result, error)
        return times[None], times[trace]


def reference_time() -> float:
    """Seconds one fixed stdlib-only kernel takes now: the machine's current speed.

    The kernel does the kind of work ncsym does (set partitions of six
    elements as sorted tuples, dict counts, Fraction sums) without importing
    it, so no change to the library changes it.  The cyclic collector is off
    while it runs, so a library that holds a large heap does not slow it.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        counts, total = {}, Fraction(0)
        for blocks in oracles.set_partitions(list(range(1, 7))):
            key = tuple(sorted(tuple(sorted(b)) for b in blocks))
            counts[key] = counts.get(key, 0) + 1
            total += Fraction(1, len(key))
        return perf_counter() - t0
    finally:
        gc.enable()


def summarize(passes: list) -> dict:
    """End-to-end figures that one slow pass cannot move.

    Throughput is the median of the per-pass rates.  Each op position in the
    sequence gets the median of its latencies over the passes; the median
    and the tail are taken over those per-op figures, the tail at the
    highest rank with ten op positions above it.
    """
    rates = [len(p) / sum(p) for p in passes]
    per_op = sorted(statistics.median(samples) for samples in zip(*passes))
    rank = len(per_op) - 10  # 1-based rank of the reported op
    if rank < 1:
        raise SystemExit(f"{len(per_op)} ops per pass is too few for a tail latency")
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(per_op) * 1000.0,
        "op_tail_ms": per_op[rank - 1] * 1000.0,
        "op_tail_percentile": 100.0 * rank / len(per_op),
        "op_tail_samples": len(per_op),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "check", "record", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at launch")
    args = ap.parse_args(argv)

    # a measuring worker reads the checked digests from standard input
    expected = json.loads(sys.stdin.read()) if args.mode == "run" else {}
    L = load_library()
    wl = workloads.build(L, args.workload, args.seed, args.size)
    harness = Harness(L, wl, expected)
    if not wl.cold:
        harness.warm_up()
    setup_s = time.monotonic() - args.t0
    # set-up is scaled like every time, by the reference speed right after it
    setup_ref = statistics.fmean(reference_time() for _ in range(3))
    out = {"setup_s": setup_s * REFERENCE_NOMINAL_S / setup_ref, "setup_raw_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    out["record"] = run_record(wl, args.seed, args.size)
    if args.mode in ("check", "record"):
        golden = None
        if args.mode == "check" and args.seed == workloads.DEFAULT_SEED and args.size == "full":
            golden = json.loads((HERE / "golden.json").read_text())[args.workload]
        harness.check(golden)
        out["digests"] = {str(idx): d for idx, d in sorted(harness.digests.items())}
        out["failures"] = harness.failures[:5]
        print(json.dumps(out))
        return 0

    if args.trace:
        trace = tracer.Tracer(L)
        untraced, traced = harness.paired_passes(trace)
        layer = dict(trace.layer_metrics(), **harness.tables)
        layer["trace.overhead_frac"] = traced / untraced - 1.0
        out["layers"] = layer
        out["record"]["untraced_pass_s"] = untraced
        out["record"]["traced_pass_s"] = traced
    else:
        raw, scaled = harness.timed_phase(args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        figures = summarize(scaled)
        speed = REFERENCE_NOMINAL_S / statistics.fmean(r for _, r in harness.reference)
        out["latency"] = {
            "ops_per_s": figures["ops_per_s"],
            "op_p50_ms": figures["op_p50_ms"],
            "op_tail_ms": figures["op_tail_ms"],
            "peak_rss_mb": rss_kb / 1024.0,
        }
        out["record"].update(
            passes=len(raw),
            ops_per_pass=len(raw[0]),
            op_tail_percentile=figures["op_tail_percentile"],
            op_tail_samples=figures["op_tail_samples"],
            timed_busy_s=sum(map(sum, raw)),
            raw=summarize(raw),
            reference_ms=[round(r * 1000, 4) for _, r in harness.reference],
            speed=speed,
        )
    out["attempted"] = harness.attempted
    out["failed"] = len(harness.failures)
    out["failures"] = harness.failures[:5]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
