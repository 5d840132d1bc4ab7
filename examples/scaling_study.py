#!/usr/bin/env python
"""A miniature Figure 3/4: strong scaling and utilization on your laptop.

Runs the advanced FMM DAG in *phantom* mode (cost model calibrated from
the paper's Table II, no numerics) on simulated clusters of growing
size, printing the scaling table and the utilization profile with the
end-of-run starved region the paper analyses - then repeats the largest
run with the proposed binary task priorities to show the fix.

Run:  python examples/scaling_study.py  [N]        (default N=100000)
"""

import sys

import numpy as np

from repro.analysis.scaling import scaling_table
from repro.analysis.utilization import total_utilization, underutilized_region
from repro.dashmm import DashmmEvaluator, FmmPolicy
from repro.hpx.runtime import RuntimeConfig
from repro.kernels import LaplaceKernel
from repro.sim.costmodel import CostModel
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from repro.workloads.distributions import cube_points, random_charges


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    print(f"building dual tree and DAG for N={n} cube points ...")
    src, tgt = cube_points(n, seed=1), cube_points(n, seed=2)
    w = random_charges(n, seed=3)
    dual = build_dual_tree(src, tgt, 60, source_weights=w)
    lists = build_lists(dual)
    cm = CostModel()
    proto = DashmmEvaluator(LaplaceKernel(9), mode="phantom")
    dag, _ = proto.build_dag(dual, lists)
    print(f"DAG: {len(dag.nodes)} nodes, {dag.n_edges} edges")

    # tree, lists, DAG and the distribution policy are built once and
    # reused across every core count below: only the locality cuts (and
    # the simulated run itself) differ between configurations
    policy = FmmPolicy(balance="work", cost_model=cm)

    times = {}
    for localities in (1, 2, 4, 8, 16, 32):
        cores = localities * 32
        cfg = RuntimeConfig(n_localities=localities, workers_per_locality=32)
        ev = DashmmEvaluator(
            LaplaceKernel(9),
            mode="phantom",
            runtime_config=cfg,
            cost_model=cm,
            policy=policy,
        )
        rep = ev.evaluate(src, w, tgt, dual=dual, lists=lists, dag=dag)
        times[cores] = rep.time
        fk = total_utilization(rep.tracer, cores, rep.time, 50)
        dip = underutilized_region(fk)
        bar = "".join("#" if v > 0.8 else ("+" if v > 0.4 else ".") for v in fk)
        print(f"n={cores:5d}  t={rep.time * 1e3:9.3f} ms  dip={dip}  [{bar}]")

    print("\nstrong scaling (cf. paper Fig. 3):")
    for r in scaling_table(times):
        print(
            f"  n={r['cores']:5d}  t={r['time'] * 1e3:9.3f} ms"
            f"  speedup={r['speedup']:6.2f}  efficiency={r['efficiency']:.0%}"
        )

    # the Section VI fix: binary task priorities
    cores = 32 * 32
    out = {}
    for sched in ("stock", "binary"):
        cfg = RuntimeConfig(n_localities=32, workers_per_locality=32, policy=sched)
        ev = DashmmEvaluator(
            LaplaceKernel(9),
            mode="phantom",
            runtime_config=cfg,
            cost_model=cm,
            policy=policy,
        )
        out[sched] = ev.evaluate(src, w, tgt, dual=dual, lists=lists, dag=dag).time
    gain = out["stock"] / out["binary"] - 1
    print(f"\nbinary priorities at n={cores}: {out['stock'] * 1e3:.2f} ms -> "
          f"{out['binary'] * 1e3:.2f} ms ({gain:+.1%}; the paper estimates ~+10% at scale)")


if __name__ == "__main__":
    main()
