#!/usr/bin/env python
"""Bytes and host seconds per DAG edge of one simulated drain.

Builds the FMM DAG of a uniform cube (threshold 60, work-balanced
localities of 32 cores each) once, then runs one phantom ``evaluate()``
on the prebuilt structures twice: untraced for the host seconds, and
under ``tracemalloc`` for the heap peak and for what the report retains
once the drain is over.  Both memory figures are per DAG edge and count
only what the evaluation allocates on top of the prebuilt tree, lists
and DAG; the busy-interval tracer is off, so they are the drain's own.

Run:  python examples/drain_probe.py [N] [CORES] [KERNEL]
      (defaults 40000 points, 4096 cores, laplace; KERNEL is laplace
      or yukawa; CORES must be a multiple of 32)
"""

import gc
import sys
import time
import tracemalloc

import numpy as np

from repro.dashmm import DashmmEvaluator, FmmPolicy
from repro.dashmm.dag import OP_CODE
from repro.hpx.runtime import RuntimeConfig
from repro.kernels import LaplaceKernel, YukawaKernel
from repro.sim.costmodel import CostModel
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from repro.workloads.distributions import cube_points, random_charges

KERNELS = {"laplace": lambda: LaplaceKernel(9), "yukawa": lambda: YukawaKernel(9)}


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40_000
    cores = int(sys.argv[2]) if len(sys.argv) > 2 else 4096
    name = sys.argv[3] if len(sys.argv) > 3 else "laplace"
    if cores < 32 or cores % 32:
        raise SystemExit("CORES must be a positive multiple of 32")
    if name not in KERNELS:
        raise SystemExit(f"KERNEL must be one of {sorted(KERNELS)}")
    src, tgt = cube_points(n, seed=1), cube_points(n, seed=2)
    w = random_charges(n, seed=3)
    dual = build_dual_tree(src, tgt, 60, source_weights=w)
    lists = build_lists(dual)
    cm = CostModel()
    ev = DashmmEvaluator(
        KERNELS[name](),
        mode="phantom",
        runtime_config=RuntimeConfig(
            n_localities=cores // 32, workers_per_locality=32, tracing=False
        ),
        cost_model=cm,
        policy=FmmPolicy(balance="work", cost_model=cm),
    )
    dag, _ = ev.build_dag(dual, lists)
    edges = dag.n_edges
    i2i = int(np.count_nonzero(dag.edge_columns().op == OP_CODE["I2I"]))

    t0 = time.perf_counter()
    rep = ev.evaluate(src, w, tgt, dual=dual, lists=lists, dag=dag)
    host_s = time.perf_counter() - t0
    virtual_s = rep.time
    del rep
    gc.collect()

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    rep = ev.evaluate(src, w, tgt, dual=dual, lists=lists, dag=dag)
    gc.collect()
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rep.time == virtual_s, "the traced run took another schedule"

    print(f"N={n} cores={cores} kernel={name}")
    print(f"edges          {edges}")
    print(f"I->I share     {i2i / edges:.3f}")
    print(f"host s         {host_s:.3f}")
    print(f"virtual s      {virtual_s:.6e}")
    print(f"peak B/edge    {(peak - base) / edges:.1f}")
    print(f"retained B/edge {(retained - base) / edges:.1f}")


if __name__ == "__main__":
    main()
