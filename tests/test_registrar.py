"""Registrar internals: task accounting, LCO wiring, phantom costs."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, FmmPolicy
from repro.dashmm.registrar import CRITICAL_OPS, FILLER_OPS, Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.sim.costmodel import CostModel
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


def _registrar(dag, dual, policy=None, coalesce=True, cost_model=None):
    cfg = RuntimeConfig(n_localities=3, workers_per_locality=2, policy=policy)
    rt = Runtime(cfg)
    FmmPolicy().assign(dag, dual, 3)
    reg = Registrar(
        rt, dag, dual, LaplaceKernel(8), None, mode="phantom", coalesce=coalesce, cost_model=cost_model
    )
    return rt, reg


def _charge_edge(cost, dual, dag, e) -> float:
    """One edge's charge as a per-edge walk computes it, from the point
    counts of the leaf boxes in the trees."""
    def sbox():
        return dual.source.boxes[dag.nodes[e.src].box_index]

    def tbox():
        return dual.target.boxes[dag.nodes[e.dst].box_index]

    if e.op == "S2T":
        return cost.edge_cost(e.op, n_src=sbox().count, n_tgt=tbox().count)
    if e.op in ("S2M", "S2L"):
        return cost.edge_cost(e.op, n_src=sbox().count)
    if e.op in ("L2T", "M2T"):
        return cost.edge_cost(e.op, n_tgt=tbox().count)
    return cost.edge_cost(e.op)


@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("kernel", ["laplace", "yukawa", "free parcels"])
def test_compiled_drain_charges_are_the_per_edge_charges(setup, kernel, coalesce):
    """Every edge sits in exactly one group, with the charge of the
    per-edge walk bit for bit, and every parcel carries the size and
    sender-side cost the size and cost models give its group (none at
    all when staging a parcel is free)."""
    _, _, _, dual, _, dag = setup
    if kernel == "free parcels":
        cost = CostModel(remote_edge_alloc=0.0, copy_bandwidth=float("inf"))
    else:
        cost = CostModel.for_kernel(kernel)
    _, reg = _registrar(dag, dual, policy="binary", coalesce=coalesce, cost_model=cost)
    reg.allocate()
    t = reg._compile_drain()
    ptr = dag.edge_columns().out_ptr
    seen = set()
    for k in range(2 * len(dag.nodes)):
        node = dag.nodes[k // 2]
        for g in range(t.part_ptr[k], t.part_ptr[k + 1]):
            entries = range(t.bounds[g], t.bounds[g + 1])
            edges = [dag.out_edges[node.id][t.rows[i] - ptr[node.id]] for i in entries]
            assert {dag.nodes[e.dst].locality for e in edges} == {t.loc[g]}
            assert {e.op in CRITICAL_OPS for e in edges} == {k % 2 == 0}
            for i, e in zip(entries, edges):
                seen.add(t.rows[i])
                charge = t.charges[t.cpos[i] : t.cpos[i + 1]]
                assert charge == [(e.op, _charge_edge(cost, dual, dag, e))]
                assert t.ops[i] == e.op and t.lcos[i] is reg.lcos[e.dst]
            send = t.send[g]
            assert (send is None) == (t.loc[g] == node.locality)
            if send is not None:
                assert coalesce or len(edges) == 1
                payload = reg.sizes.payload_bytes(edges[0].op, n_src_points=node.n_points)
                nbytes = reg.sizes.parcel_bytes(payload, len(edges))
                handling = cost.remote_handling_cost(len(edges), nbytes)
                assert send[:2] == ((("_runtime", handling) if handling else None), nbytes)
    assert len(seen) == dag.n_edges


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
