"""Registrar internals: task accounting, LCO wiring, phantom costs."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, FmmPolicy
from repro.dashmm.registrar import CRITICAL_OPS, FILLER_OPS, Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(50)
    n = 2500
    src = rng.uniform(0, 1, (n, 3))
    tgt = rng.uniform(0, 1, (n, 3))
    w = rng.normal(size=n)
    dual = build_dual_tree(src, tgt, 30, source_weights=w)
    lists = build_lists(dual)
    ev = DashmmEvaluator(LaplaceKernel(8), mode="phantom")
    dag, _ = ev.build_dag(dual, lists)
    return src, w, tgt, dual, lists, dag


def _registrar(dag, dual, policy=None, coalesce=True):
    cfg = RuntimeConfig(n_localities=3, workers_per_locality=2, policy=policy)
    rt = Runtime(cfg)
    FmmPolicy().assign(dag, dual, 3)
    reg = Registrar(rt, dag, dual, LaplaceKernel(8), None, mode="phantom", coalesce=coalesce)
    return rt, reg


def test_lco_count_equals_nodes_with_inputs(setup):
    _, _, _, dual, _, dag = setup
    rt, reg = _registrar(dag, dual)
    reg.allocate()
    expected = sum(
        1 for n in dag.nodes if n.kind != "S" and dag.in_degree[n.id] > 0
    )
    assert len(reg.lcos) == expected


def test_initial_tasks_one_per_s_node(setup):
    _, _, _, dual, _, dag = setup
    rt, reg = _registrar(dag, dual)
    reg.allocate()
    n_tasks = reg.initial_tasks()
    n_s = sum(1 for n in dag.nodes if n.kind == "S" and dag.out_edges[n.id])
    assert n_tasks == n_s


def test_initial_tasks_split_under_priorities(setup):
    _, _, _, dual, _, dag = setup
    rt, reg = _registrar(dag, dual, policy="binary")
    reg.allocate()
    n_tasks = reg.initial_tasks()
    n_s = sum(1 for n in dag.nodes if n.kind == "S" and dag.out_edges[n.id])
    assert n_tasks > n_s  # critical + filler groups


def test_all_lcos_trigger(setup):
    _, _, _, dual, _, dag = setup
    rt, reg = _registrar(dag, dual)
    reg.allocate()
    reg.initial_tasks()
    rt.run()
    assert all(l.triggered for l in reg.lcos.values())


def test_trace_covers_every_edge_class(setup):
    _, _, _, dual, _, dag = setup
    rt, reg = _registrar(dag, dual)
    reg.allocate()
    reg.initial_tasks()
    rt.run()
    ops_in_dag = {e.op for edges in dag.out_edges for e in edges}
    traced = set(rt.tracer.classes)
    assert ops_in_dag <= traced


def test_edge_work_conserved_across_cluster_shapes(setup):
    """Total per-class busy time is schedule-independent."""
    _, _, _, dual, _, dag = setup

    def busy(L, W, seed):
        cfg = RuntimeConfig(n_localities=L, workers_per_locality=W, steal_seed=seed)
        rt = Runtime(cfg)
        FmmPolicy().assign(dag, dual, L)
        reg = Registrar(rt, dag, dual, LaplaceKernel(8), None, mode="phantom")
        reg.allocate()
        reg.initial_tasks()
        rt.run()
        return {c: rt.tracer.busy_time(c) for c in ("S2M", "I2I", "L2T", "S2T")}

    a = busy(2, 2, 1)
    b = busy(4, 3, 99)
    for c in a:
        assert a[c] == pytest.approx(b[c], rel=1e-9)


def test_critical_and_filler_ops_partition_edge_classes():
    from repro.dashmm.dag import EDGE_OPS

    assert set(CRITICAL_OPS) | set(FILLER_OPS) == set(EDGE_OPS)
    assert not set(CRITICAL_OPS) & set(FILLER_OPS)


def test_runtime_overhead_traced_for_remote_edges(setup):
    _, _, _, dual, _, dag = setup
    rt, reg = _registrar(dag, dual)
    reg.allocate()
    reg.initial_tasks()
    rt.run()
    if rt.scheduler.parcels_sent > 0:
        assert rt.tracer.busy_time("_runtime") > 0


def test_single_locality_no_parcels(setup):
    _, _, _, dual, _, dag = setup
    cfg = RuntimeConfig(n_localities=1, workers_per_locality=4)
    rt = Runtime(cfg)
    FmmPolicy().assign(dag, dual, 1)
    reg = Registrar(rt, dag, dual, LaplaceKernel(8), None, mode="phantom")
    reg.allocate()
    reg.initial_tasks()
    rt.run()
    assert rt.scheduler.remote_bytes == 0
    assert rt.tracer.busy_time("_runtime") == 0.0
