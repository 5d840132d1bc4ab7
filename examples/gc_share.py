#!/usr/bin/env python
"""What an evaluation allocates, and how much of it CPython's cyclic
collector takes.

Times back-to-back ``evaluate()`` calls of two problems on the simulator:
the performance ledger's phantom problem (``--n`` points on a sphere
surface, cost model only, 16 localities x 32 cores) and its numeric slab
(4 096 points, Laplace p=6, 4 x 8 cores).  For each evaluate it prints
the wall seconds; the GC-tracked objects the evaluation leaves alive (the
``gc.get_objects()`` count after it minus before it, the previous report
dropped and the collector paused while counting) and how many of them
are ``Edge`` records; and the collector passes per generation that ran
inside it, with their seconds, measured through ``gc.callbacks``.  After
each problem it prints the passes that ran between its evaluates.  An
evaluation is freed by reference counting and holds the collector off
while it runs, and its DAG keeps the edges as arrays (DESIGN.md "Object
lifetime"), so the script exits non-zero if any pass ran inside an
evaluate or any ``Edge`` object exists after one.

Run:  python examples/gc_share.py [--n 10000] [--repeats 3] [--seed 1]
"""

import argparse
import gc
import sys
import time

from flush_stages import canonical_evaluator, slab_problem  # same directory

from repro.dashmm import DashmmEvaluator, FmmPolicy
from repro.dashmm.dag import Edge
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


def tracked() -> tuple[int, int]:
    """GC-tracked objects and ``Edge`` objects alive, counted with the
    collector paused (a pass would untrack tuples and skew the count)."""
    gc.disable()
    try:
        objects = gc.get_objects()
        return len(objects), sum(type(o) is Edge for o in objects)
    finally:
        gc.enable()


def measure(name: str, evaluator, inputs, repeats: int, log: CollectorLog) -> tuple[int, int]:
    """Print one row per evaluate; returns the passes that ran inside an
    evaluate and the ``Edge`` objects found after one."""
    first = len(log.passes)
    inside = edges = 0
    report = None
    for i in range(repeats):
        report = None  # the previous evaluation is not this one's allocation
        before, _ = tracked()
        mark = len(log.passes)
        log.inside = True
        t0 = time.perf_counter()
        report = evaluator.evaluate(*inputs)
        wall = time.perf_counter() - t0
        log.inside = False
        after, n_edge = tracked()
        edges += n_edge
        ran = [p for p in log.passes[mark:] if p[0]]
        inside += len(ran)
        print(
            f"{name:<16s} evaluate {i + 1}: {wall:.3f} s, {after - before} tracked objects "
            f"alive, {n_edge} Edge, inside: {per_generation(ran)}"
        )
    del report
    between = [p for p in log.passes[first:] if not p[0]]
    print(f"{name:<16s} between evaluates: {per_generation(between)}")
    return inside, edges


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
        runs = [
            measure(f"phantom n={args.n}", phantom, sphere, args.repeats, log),
            measure("slab n=4096", slab, (points, charges, points), args.repeats, log),
        ]
    finally:
        gc.callbacks.remove(log)
    inside, edges = (sum(counts) for counts in zip(*runs))
    if inside:
        print(f"FAIL: {inside} collector passes ran inside an evaluate")
    if edges:
        print(f"FAIL: {edges} Edge objects alive after an evaluate")
    if inside or edges:
        return 1
    print("OK - no collector pass inside an evaluate, no Edge object after one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
