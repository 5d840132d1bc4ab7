"""Explicit DAG construction: node/edge classes, degrees, stats, topology."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dashmm.dag import EDGE_OPS, build_bh_dag, build_fmm_dag
from repro.dashmm.export import dag_from_json, dag_to_json
from repro.methods.barneshut import mac_pairs
from repro.sim.costmodel import SizeModel
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from tests.reference_chain import build_bh_dag_reference, build_fmm_dag_reference

sys.path.insert(0, str(Path(__file__).resolve().parent / "goldens"))
import generate  # noqa: E402  (the golden workload definitions)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(10)
    src = rng.uniform(0, 1, (3000, 3))
    tgt = rng.uniform(0, 1, (3000, 3))
    w = rng.normal(size=3000)
    dual = build_dual_tree(src, tgt, 30, source_weights=w)
    lists = build_lists(dual)
    return dual, lists


def test_advanced_dag_edge_classes(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    es = dag.edge_stats()
    assert "M2I" in es and "I2I" in es and "I2L" in es
    assert "M2L" not in es  # list 2 entirely through intermediates
    assert es["I2I"]["count"] == lists.counts()["l2"]
    assert es["S2T"]["count"] == lists.counts()["l1"]


def test_basic_dag_edge_classes(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=False)
    es = dag.edge_stats()
    assert es["M2L"]["count"] == lists.counts()["l2"]
    assert "I2I" not in es


def test_node_counts(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    ns = dag.node_stats()
    n_src_leaves = sum(1 for b in dual.source.boxes if b.is_leaf and b.count)
    assert ns["S"]["count"] == n_src_leaves
    assert ns["M"]["count"] == len(dual.source.boxes)
    # merge-and-shift: one Is per source box with list-2 out-edges, one
    # It per target box with list-2 in-edges
    assert ns["Is"]["count"] <= ns["M"]["count"]
    assert ns["It"]["count"] == len(lists.l2)


def test_s_nodes_have_no_inputs(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    for n in dag.nodes:
        if n.kind == "S":
            assert dag.in_degree[n.id] == 0
        if n.kind == "T":
            assert not dag.out_edges[n.id]


def test_m2i_single_edge_per_is(setup):
    """The paper's M->I count equals the Is count (one op per box
    covering all six directions)."""
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    ns = dag.node_stats()
    es = dag.edge_stats()
    assert es["M2I"]["count"] == ns["Is"]["count"]
    assert es["I2L"]["count"] == ns["It"]["count"]


def test_dag_is_acyclic(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    assert dag.critical_path_length() > 0  # raises on cycles


def test_critical_path_spans_both_trees(setup):
    """Critical path: up the source tree, across, down the target tree."""
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    hops = dag.critical_path_length()
    # at least S2M + (depth-ish M2M) + M2I + I2I + I2L + (L2L...) + L2T
    assert hops >= 5


def test_size_model_in_stats(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    sm = SizeModel()
    ns = dag.node_stats(size_model=sm)
    assert ns["M"]["size_min"] == ns["M"]["size_max"] == 880
    assert ns["Is"]["size_min"] == 6 * 912
    assert ns["S"]["size_min"] >= 32  # at least one point
    es = dag.edge_stats(size_model=sm)
    assert es["I2I"]["size_min"] == 912


def test_in_degree_matches_edges(setup):
    dual, lists = setup
    dag = build_fmm_dag(dual, lists, advanced=True)
    indeg = [0] * len(dag.nodes)
    for edges in dag.out_edges:
        for e in edges:
            indeg[e.dst] += 1
    assert indeg == dag.in_degree.tolist()


def _reference(method: str, ps: str):
    """The per-box reference assembly of one golden cell's DAG."""
    pts = generate.point_set(ps)
    dual = build_dual_tree(pts, pts, generate.THRESHOLDS[ps])
    if method == "bh":
        return build_bh_dag_reference(dual, mac_pairs(dual, generate.THETA))
    return build_fmm_dag_reference(dual, build_lists(dual), advanced=(method == "fmm"))


def _records(dag) -> list:
    return [(e.src, e.dst, e.op, e.aux, e.pos) for out in dag.out_edges for e in out]


@pytest.mark.parametrize(
    "method, ps", [(m, ps) for m in generate.METHODS for ps in generate.POINT_SETS]
)
def test_edge_columns_equal_the_edge_objects(method, ps):
    """The view of the builder's edge columns is the reference builder's
    edge stream, record for record - and so is the view of the DAG after
    a JSON round trip, which reassembles it from the file's rows."""
    _, dag = generate.build(method, "laplace", ps)
    want = _records(_reference(method, ps))
    assert want and _records(dag) == want
    cols = dag.edge_columns()
    assert cols is dag.edge_columns() and dag.out_edges is dag.out_edges  # built once
    ops = [EDGE_OPS[c] for c in cols.op.tolist()]
    pos = np.arange(len(cols.dst)) - cols.out_ptr[cols.src]
    rows = zip(cols.src.tolist(), cols.dst.tolist(), ops, cols.aux_values(), pos.tolist())
    assert list(rows) == want
    assert np.array_equal(np.diff(cols.out_ptr), [len(out) for out in dag.out_edges])
    assert _records(dag_from_json(dag_to_json(dag))) == want


def test_bh_dag(setup):
    dual, _ = setup
    dag = build_bh_dag(dual, mac_pairs(dual, 0.5))
    es = dag.edge_stats()
    assert set(es) <= {"S2M", "M2M", "M2T", "S2T"}
    assert es["M2T"]["count"] > 0
    ns = dag.node_stats()
    assert "L" not in ns and "It" not in ns  # no local/intermediate side


def test_pruned_subtree_has_no_nodes():
    rng = np.random.default_rng(11)
    src = rng.uniform(0, 0.25, (500, 3))
    tgt = rng.uniform(0, 0.25, (500, 3)) + 2.0
    dual = build_dual_tree(src, tgt, 30, source_weights=np.ones(500))
    lists = build_lists(dual)
    assert lists.pruned
    dag = build_fmm_dag(dual, lists, advanced=True)
    pruned_levels = {dual.target.boxes[i].level for i in lists.pruned}
    # no target-side nodes deeper than any pruned box's subtree
    for n in dag.nodes:
        if n.tree == "target" and n.kind in ("L", "T", "It"):
            box = dual.target.boxes[n.box_index]
            # walk up: no ancestor may be pruned
            b = box
            while b.parent is not None:
                pi = dual.target.key_to_index[b.parent]
                assert pi not in lists.pruned
                b = dual.target.boxes[pi]
