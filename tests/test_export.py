"""DAG JSON/DOT export round trip, and the JSON reader's input checks."""

import json

import numpy as np
import pytest

from repro.dashmm.dag import build_fmm_dag
from repro.dashmm.export import dag_from_json, dag_to_dot, dag_to_json
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists


@pytest.fixture(scope="module")
def small_dag():
    rng = np.random.default_rng(60)
    pts = rng.uniform(0, 1, (300, 3))
    dual = build_dual_tree(pts, pts, 20, source_weights=np.ones(300))
    lists = build_lists(dual)
    return build_fmm_dag(dual, lists, advanced=True)


def test_json_roundtrip(small_dag):
    text = dag_to_json(small_dag)
    back = dag_from_json(text)
    assert len(back.nodes) == len(small_dag.nodes)
    assert back.n_edges == small_dag.n_edges
    assert np.array_equal(back.in_degree, small_dag.in_degree)
    assert list(back.nodes) == list(small_dag.nodes)
    # aux survives (I2I carries (direction, delta) tuples)
    for ea, eb in zip(small_dag.out_edges[0], back.out_edges[0]):
        assert ea.op == eb.op and ea.aux == eb.aux


def test_json_preserves_i2i_aux(small_dag):
    back = dag_from_json(dag_to_json(small_dag))
    i2i = [e for edges in back.out_edges for e in edges if e.op == "I2I"]
    assert i2i
    d, delta = i2i[0].aux
    assert isinstance(d, str) and len(delta) == 3


def _doc(edge: dict, kind: str = "L") -> str:
    """A two-node DAG file, M -> ``kind``, its one edge ``edge`` over an
    M2L edge without aux."""
    node = {"box": 0, "level": 2, "n_points": 0, "locality": -1}
    nodes = [
        dict(node, id=0, kind="M", tree="source"),
        dict(node, id=1, kind=kind, tree="target"),
    ]
    edges = [{"src": 0, "dst": 1, "op": "M2L", "aux": None, **edge}]
    return json.dumps({"nodes": nodes, "edges": edges})


@pytest.mark.parametrize(
    "edge, kind, field",
    [
        ({"op": "Q2Q"}, "L", "edge 0 op"),  # no such operator
        ({"aux": {"t": [2, 0]}}, "L", "edge 0 aux"),  # not a 3-int delta
        ({"aux": {"t": [2.0, 0, 0]}}, "L", "edge 0 aux"),
        ({"aux": [2, 0, 0]}, "L", "edge 0 aux"),  # not the writer's form
        ({"op": "I2I", "aux": {"t": ["+w", {"t": [2, 0, 0]}]}}, "L", "edge 0 aux direction"),
        ({"op": "M2M", "aux": 1 << 9}, "L", "edge 0 aux"),  # no int8 octant
        ({"op": "M2M", "aux": "3"}, "L", "edge 0 aux"),
        ({"op": "M2M", "aux": True}, "L", "edge 0 aux"),
        ({"dst": -1}, "L", "edge 0 dst"),  # a negative endpoint
        ({"dst": 2}, "L", "edge 0 dst"),  # an endpoint past the nodes
        ({"src": 7}, "L", "edge 0 src"),
        ({}, "Z", "node 1 kind"),  # no such node kind
    ],
)
def test_json_reader_rejects_what_the_columns_cannot_store(edge, kind, field):
    with pytest.raises(ValueError, match=field):
        dag_from_json(_doc(edge, kind))


def test_json_reader_stores_what_it_accepts():
    dag = dag_from_json(_doc({"op": "I2I", "aux": {"t": ["-x", {"t": [-3, 1, 0]}]}}))
    assert dag.in_degree.tolist() == [0, 1]
    assert [(e.src, e.dst, e.op, e.aux, e.pos) for e in dag.out_edges[0]] == [
        (0, 1, "I2I", ("-x", (-3, 1, 0)), 0)
    ]


def test_dot_output(small_dag):
    if len(small_dag.nodes) <= 500:
        dot = dag_to_dot(small_dag)
        assert dot.startswith("digraph")
        assert "S2M" in dot


def test_dot_refuses_huge():
    rng = np.random.default_rng(61)
    pts = rng.uniform(0, 1, (5000, 3))
    dual = build_dual_tree(pts, pts, 10, source_weights=np.ones(5000))
    lists = build_lists(dual)
    dag = build_fmm_dag(dual, lists)
    with pytest.raises(ValueError):
        dag_to_dot(dag, max_nodes=100)
