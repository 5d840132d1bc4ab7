#!/usr/bin/env python
"""How much of an evaluation CPython's cyclic collector takes.

Times back-to-back ``evaluate()`` calls of two problems on the simulator:
the performance ledger's phantom problem (``--n`` points on a sphere
surface, cost model only, 16 localities x 32 cores) and its numeric slab
(4 096 points, Laplace p=6, 4 x 8 cores).  For each evaluate it prints
the wall seconds and the collector passes per generation that ran inside
it, with their seconds, measured through ``gc.callbacks``; after each
problem, the passes that ran between its evaluates.  An evaluation is
freed by reference counting and holds the collector off while it runs
(DESIGN.md "Object lifetime"), so the script exits non-zero if any pass
ran inside an evaluate.

Run:  python examples/gc_share.py [--n 10000] [--repeats 3] [--seed 1]
"""

import argparse
import gc
import sys
import time

from flush_stages import canonical_evaluator, slab_problem  # same directory

from repro.dashmm import DashmmEvaluator, FmmPolicy
from repro.hpx.runtime import RuntimeConfig
from repro.kernels import LaplaceKernel
from repro.sim.costmodel import CostModel
from repro.workloads.distributions import random_charges, sphere_points


class CollectorLog:
    """Every collector pass as (inside an evaluate?, generation, seconds)."""

    def __init__(self):
        self.inside = False
        self.passes: list[tuple[bool, int, float]] = []
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.passes.append((self.inside, info["generation"], time.perf_counter() - self._t0))


def per_generation(passes) -> str:
    counts = [sum(1 for _, g, _ in passes if g == gen) for gen in range(3)]
    seconds = sum(dt for _, _, dt in passes)
    return f"{'/'.join(map(str, counts))} passes (gen 0/1/2), {seconds:.4f} s"


def measure(name: str, evaluator, inputs, repeats: int, log: CollectorLog) -> int:
    """Print one row per evaluate; returns the passes that ran inside one."""
    first = len(log.passes)
    inside = 0
    report = None
    for i in range(repeats):
        mark = len(log.passes)
        log.inside = True
        t0 = time.perf_counter()
        report = evaluator.evaluate(*inputs)  # frees the previous report
        wall = time.perf_counter() - t0
        log.inside = False
        ran = [p for p in log.passes[mark:] if p[0]]
        inside += len(ran)
        print(f"{name:<16s} evaluate {i + 1}: {wall:.3f} s, inside: {per_generation(ran)}")
    del report
    between = [p for p in log.passes[first:] if not p[0]]
    print(f"{name:<16s} between evaluates: {per_generation(between)}")
    return inside


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10_000, help="points of the phantom problem")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    phantom = DashmmEvaluator(
        LaplaceKernel(9),
        method="fmm",
        threshold=60,
        mode="phantom",
        cost_model=CostModel.for_kernel("laplace"),
        policy=FmmPolicy(balance="work"),
        runtime_config=RuntimeConfig(n_localities=16, workers_per_locality=32, tracing=False),
    )
    sphere = (
        sphere_points(args.n, args.seed),
        random_charges(args.n, args.seed + 2),
        sphere_points(args.n, args.seed + 1),
    )
    slab = canonical_evaluator(RuntimeConfig(n_localities=4, workers_per_locality=8, tracing=False))
    points, charges = slab_problem(args.seed)

    log = CollectorLog()
    gc.callbacks.append(log)
    try:
        inside = measure(f"phantom n={args.n}", phantom, sphere, args.repeats, log)
        inside += measure("slab n=4096", slab, (points, charges, points), args.repeats, log)
    finally:
        gc.callbacks.remove(log)
    if inside:
        print(f"FAIL: {inside} collector passes ran inside an evaluate")
        return 1
    print("OK - no collector pass inside an evaluate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
