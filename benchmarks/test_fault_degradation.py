"""Fault-degradation sweep: what a lossy network costs in virtual time.

The hardened parcel layer turns drops, duplicates and reordering into
pure makespan overhead - the potentials stay bit-identical to the
fault-free run.  This benchmark quantifies that trade on the
quickstart-sized workload: one fault-free baseline, then a sweep of
combined drop+duplicate rates through :func:`degradation_sweep`, with
bit-identity asserted at every rate.  Each invocation appends one
record to ``benchmarks/results/BENCH_degradation.json`` (the same
trajectory-file protocol as ``BENCH_wallclock.json``), which CI's
``paper-artifacts`` lane uploads as an artifact.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_report
from benchmarks.trajectory import append_record
from repro.analysis import degradation_sweep
from repro.dashmm.evaluator import DashmmEvaluator
from repro.hpx.network import FaultyNetwork
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.tree.dualtree import build_dual_tree

N = 4000
P = 10
THRESHOLD = 60
RATES = (0.01, 0.02, 0.05, 0.10)
SEED = 2024


def _problem():
    rng = np.random.default_rng(3)
    src = rng.uniform(0.0, 1.0, (N, 3))
    tgt = rng.uniform(0.0, 1.0, (N, 3))
    w = rng.normal(size=N)
    return src, w, tgt


def test_fault_degradation_sweep():
    src, w, tgt = _problem()
    dual = build_dual_tree(src, tgt, THRESHOLD, source_weights=w)

    def run(rate: float):
        cfg = RuntimeConfig(
            n_localities=4, workers_per_locality=8, tracing=False, reliable=True
        )
        if rate:
            cfg.network = FaultyNetwork(
                drop=rate, duplicate=rate, reorder=0.5, seed=SEED
            )
        ev = DashmmEvaluator(
            LaplaceKernel(P), threshold=THRESHOLD, runtime_config=cfg
        )
        return ev.evaluate(src, w, tgt, dual=dual)

    sweep = degradation_sweep(run, RATES)
    for row in sweep["rows"]:
        assert row["bit_identical"], f"rate {row['rate']}: results diverged"
        assert row["transport"]["in_flight"] == 0

    record = {
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "n": N,
        "p": P,
        "threshold": THRESHOLD,
        "seed": SEED,
        **sweep,
    }
    append_record("BENCH_degradation", record)

    lines = [
        f"fault-degradation sweep  (n={N}, p={P}, drop=dup=rate, reorder=0.5,"
        f" seed={SEED})",
        f"  baseline makespan: {sweep['baseline_makespan'] * 1e3:8.3f} ms",
    ]
    for row in sweep["rows"]:
        lines.append(
            f"  rate {row['rate']:4.2f}: makespan {row['makespan_faulty'] * 1e3:8.3f} ms"
            f"  ({row['makespan_overhead']:+7.2%})"
            f"  retries {row['transport']['retries']:4d}"
            f"  dedups {row['transport']['dups_suppressed']:4d}"
            f"  bit-identical {row['bit_identical']}"
        )
    write_report("BENCH_degradation", lines)
