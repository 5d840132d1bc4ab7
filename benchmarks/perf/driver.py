"""The ledger's driver: one workload in this interpreter, or all of them in turn.

With ``--workload`` the workload runs here and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0`` (tracing off, no spans), every
``per_layer`` metric with ``--trace 1``.  Without it, each workload runs
in a fresh interpreter of its own, one at a time, and every metric is
printed by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from benchmarks.perf import THREAD_ENV, layers
from benchmarks.perf.clock import cpu_seconds, drift_ratio, peak_rss_mb, summary, timed
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.workloads import BLOCK, WORKLOADS, ServeWorkload, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: set-ups per end-to-end run (their median is ``setup_s``) and the
#: fewest blocks a run measures, whatever ``--seconds`` says
SETUPS = 3
MIN_BLOCKS = 2


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except FileNotFoundError:
        git_commit = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit,
    }


def measure(wl: Workload, seconds: float, smoke: bool) -> dict:
    """The end-to-end run: tracing off, no spans."""
    failures: list[str] = []
    attempted = 0

    def attempt(kind: str, call) -> float | None:
        """Time one op; check its output outside the timed region."""
        nonlocal attempted
        attempted += 1
        try:
            dt, out = timed(call)
        except Exception:
            failures.append(traceback.format_exc())
            return None
        message = wl.observe(kind, out)
        if message:
            failures.append(message)
        return dt

    setup_s = []
    for i in range(1 if smoke else SETUPS):
        if i:
            wl.teardown()
        setup_s.append(attempt("op", wl.setup))
        if setup_s[-1] is None:
            raise SystemExit(f"{wl.name}: set-up failed\n{failures[-1]}")

    samples: dict[str, list[float]] = {"op": [], "alt": []}
    wall0, cpu0 = perf_counter(), cpu_seconds()
    blocks = 0
    while blocks < MIN_BLOCKS or perf_counter() < wall0 + seconds:
        for kind in BLOCK:
            dt = attempt(kind, wl.prepare(kind))
            if dt is not None:
                samples[kind].append(dt)
        blocks += 1
    cpu_over_wall = (cpu_seconds() - cpu0) / (perf_counter() - wall0)

    checks, messages = wl.verify()
    attempted += checks
    failures += messages
    wl.teardown()
    return {
        "attempted": attempted,
        "failures": failures,
        "values": {
            "setup_s": median(setup_s),
            "op_s_p50": median(samples["op"]),
            "alt_s_p50": median(samples["alt"]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "setup_s": setup_s,
            "op_s": summary(samples["op"]),
            "alt_s": summary(samples["alt"]),
        },
        "facts": wl.facts(),
        "diagnostics": {
            "driver.cpu_over_wall": cpu_over_wall,
            "driver.drift_ratio": drift_ratio(samples["op"]),
        },
        # a single-process workload that did not get a whole core
        "noisy": wl.single_process and cpu_over_wall < 0.9,
    }


def trace(wl: Workload, seconds: float, chrome: Path | None) -> dict:
    """The traced run: per-layer metrics from spans recorded in this package."""
    rec = SpanRecorder()
    tracer = layers.trace_serve if isinstance(wl, ServeWorkload) else layers.trace_evaluate
    values, attempted, failures = tracer(wl, seconds, rec)
    if chrome is not None:
        chrome.write_text(json.dumps(rec.chrome_trace()))
    return {
        "attempted": attempted,
        "failures": failures,
        "values": values,
        "spans": len(rec.spans),
    }


def run_workload(args, spec: dict) -> int:
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        if args.trace:
            record = trace(wl, args.seconds, args.chrome)
        else:
            record = measure(wl, args.seconds, args.smoke)
    finally:
        wl.teardown()
    catalog = spec["per_layer" if args.trace else "end_to_end"]
    values = record.pop("values")
    unknown = set(values) - {m["name"] for m in catalog}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # the contract wants every metric of the catalog on every workload:
    # a layer the workload never enters reads 0 and is listed as such
    not_applicable = sorted(m["name"] for m in catalog if m["name"] not in values)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in catalog
    }
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        **result,
        "not_applicable": not_applicable,
        **record,
        "host": host_fingerprint(),
    }
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, m in metrics.items():
        if name not in not_applicable:
            print(f"{wl.name:15s} {name:42s} {m['value']:<12.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one at a time."""
    records = []
    with tempfile.TemporaryDirectory() as scratch:
        record_file = Path(scratch) / "record.json"
        for name in WORKLOADS:
            for run in range(args.runs):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
                cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
                cmd += ["--trace", str(args.trace), "--out", str(record_file)]
                if args.smoke:
                    cmd.append("--smoke")
                if args.trace and args.out is not None:
                    cmd += ["--chrome", str(args.out.parent / f"trace_{name}.json")]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
                    return done.returncode
                # the child's table, without its closing JSON line
                sys.stdout.write(done.stdout.rstrip("\n").rpartition("\n")[0] + "\n")
                records.append({"run": run, **json.loads(record_file.read_text())})
    if args.out is not None:
        args.out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    noisy = sorted({r["workload"] for r in records if r.get("noisy")})
    if noisy:
        print(f"noisy host (cpu/wall < 0.9) during: {', '.join(noisy)}", file=sys.stderr)
    failed = sum(r["failed"] for r in records)
    print(f"{sum(r['attempted'] for r in records)} ops attempted, {failed} failed")
    return 1 if failed else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds, or 1 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one set-up")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all workloads)")
    parser.add_argument("--out", type=Path, help="write the record(s) to this JSON file")
    parser.add_argument("--chrome", type=Path, help="write the spans as a Chrome trace")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    # temporary files (the parallel backend's operator snapshot, the
    # records of the child runs) stay inside the checkout
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)
    # a terminated run closes its session (workers, shm segments) on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_workload(args, spec) if args.workload else run_all(args)
