"""Wall-clock benchmark of the setup phase.

Unlike every other benchmark here (which reproduces a *virtual-time*
figure of the paper), this one tracks real time the simulator itself
needs.  It times the *setup phase* (tree carving, interaction lists, DAG
assembly) of the quickstart-sized workload with the vectorised array
passes against the per-box reference functions called directly
(``carve_reference`` -> ``build_lists_reference`` ->
``build_fmm_dag_reference``; the Morton sort is shared, so only the
array passes are charged for it), gated on the two producing
structurally identical output, and appends one record per invocation to
``benchmarks/results/BENCH_wallclock.json`` as a trajectory file.

Measurement protocol: the two paths run interleaved and the minimum of
N CPU-time samples is compared - ``time.process_time`` plus min-of-N is
the most contention-robust estimator available on a shared box.

The wall-clock number of record for an evaluation is
``cold-sim/op_s_p50`` in the performance ledger (``benchmarks/perf``);
that the batched stages agree with the per-edge reference
(``tests/reference_chain.py``) is asserted by
``tests/test_batched_edges.py``.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_report
from benchmarks.trajectory import append_record
from repro.dashmm.dag import build_fmm_dag, build_fmm_dag_reference
from repro.dashmm.evaluator import DashmmEvaluator
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from tests.reference_chain import reference_dual, reference_lists

#: quickstart-sized workload (examples/quickstart.py)
N = 4000
P = 10
THRESHOLD = 60
SAMPLES = 5

#: setup-phase floor: the vectorised passes must beat the per-box
#: reference loops by at least this factor on the quickstart workload
MIN_SETUP_SPEEDUP = 3.0


def _problem():
    rng = np.random.default_rng(3)
    src = rng.uniform(0.0, 1.0, (N, 3))
    tgt = rng.uniform(0.0, 1.0, (N, 3))
    w = rng.normal(size=N)
    return src, w, tgt


def test_wallclock_setup_phase():
    """Vectorised vs reference setup: tree carve, lists, DAG assembly."""
    src, w, tgt = _problem()

    def staged(tree_stage, lists_stage, dag_stage):
        stages = {}
        t0 = time.process_time()
        dual = tree_stage()
        stages["tree"] = time.process_time() - t0
        t0 = time.process_time()
        lists = lists_stage(dual)
        stages["lists"] = time.process_time() - t0
        t0 = time.process_time()
        dag = dag_stage(dual, lists)
        stages["dag"] = time.process_time() - t0
        return dual, lists, dag, stages

    def vectorized():
        return staged(
            lambda: build_dual_tree(src, tgt, THRESHOLD, source_weights=w),
            build_lists,
            build_fmm_dag,
        )

    def reference():
        return staged(
            lambda: reference_dual(dual_v),
            reference_lists,
            lambda dual, lists: build_fmm_dag_reference(dual, lists, advanced=True),
        )

    # correctness gate: identical structure before timing anything
    dual_v, lists_v, dag_v, _ = vectorized()
    dual_r, lists_r, dag_r, _ = reference()
    assert len(dual_v.source.boxes) == len(dual_r.source.boxes)
    assert len(dual_v.target.boxes) == len(dual_r.target.boxes)
    for name in ("l1", "l2", "l3", "l4"):
        assert getattr(lists_v, name) == getattr(lists_r, name), name
    assert len(dag_v.nodes) == len(dag_r.nodes)
    assert dag_v.n_edges == dag_r.n_edges
    assert dag_v.out_edges == dag_r.out_edges

    # the two setups must also drive the simulator to the same clock
    ev = DashmmEvaluator(
        LaplaceKernel(P),
        threshold=THRESHOLD,
        runtime_config=RuntimeConfig(n_localities=4, workers_per_locality=8, tracing=False),
        mode="phantom",
    )
    t_vec = ev.evaluate(src, w, tgt, dual=dual_v, lists=lists_v, dag=dag_v).time
    t_ref = ev.evaluate(src, w, tgt, dual=dual_r, lists=lists_r, dag=dag_r).time
    assert t_vec == t_ref, "setup path must not change the virtual clock"

    vec_runs, ref_runs = [], []
    for _ in range(SAMPLES):
        *_, sv = vectorized()
        vec_runs.append(sv)
        *_, sr = reference()
        ref_runs.append(sr)

    def best(runs):
        total = min(sum(s.values()) for s in runs)
        per_stage = {k: min(s[k] for s in runs) for k in runs[0]}
        return total, per_stage

    vec_total, vec_stages = best(vec_runs)
    ref_total, ref_stages = best(ref_runs)
    speedup = ref_total / vec_total
    record = {
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "section": "setup_phase",
        "n": N,
        "p": P,
        "threshold": THRESHOLD,
        "samples": SAMPLES,
        "vectorized_s": round(vec_total, 4),
        "reference_s": round(ref_total, 4),
        "speedup": round(speedup, 3),
        "vectorized_stages_s": {k: round(v, 4) for k, v in vec_stages.items()},
        "reference_stages_s": {k: round(v, 4) for k, v in ref_stages.items()},
        "virtual_time": t_vec,
    }

    append_record("BENCH_wallclock", record)

    write_report(
        "wallclock_setup",
        [
            f"setup phase: n={N}, threshold={THRESHOLD}, min of {SAMPLES}",
            f"vectorized: {vec_total:.3f} s  "
            + " ".join(f"{k}={v:.3f}" for k, v in vec_stages.items()),
            f"reference:  {ref_total:.3f} s  "
            + " ".join(f"{k}={v:.3f}" for k, v in ref_stages.items()),
            f"speedup: {speedup:.2f}x  (floor {MIN_SETUP_SPEEDUP}x)",
            f"virtual time (identical both paths): {t_vec:.6f}",
        ],
    )

    assert speedup >= MIN_SETUP_SPEEDUP, (
        f"vectorized setup only {speedup:.2f}x faster than the reference "
        f"loops (floor {MIN_SETUP_SPEEDUP}x); see BENCH_wallclock.json"
    )
