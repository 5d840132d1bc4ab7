"""Hypothesis properties of the DAG schema validator.

Two sides of the same coin:

* **Soundness of the builder**: over randomly generated point clouds
  (uniform, clustered, degenerate-planar; random sizes and thresholds),
  every graph the declarative builder materializes - for every built-in
  method - passes validation.
* **Completeness of the validator**: seeded structural corruption of a
  valid graph (dropped edge, wrong operator kind, degree violation,
  level inversion) always raises :class:`SchemaValidationError`, and
  the error names the offending node or edge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import DagBuilder, SchemaValidationError, method_schema, validate_dag
from repro.dashmm.dag import EDGE_OPS
from repro.methods.barneshut import mac_pairs
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from tests.dag_edits import edited

METHODS = ("fmm", "fmm-basic", "bh")


def _cloud(seed: int, n: int, shape: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        return rng.random((n, 3))
    if shape == "clustered":
        centers = rng.random((3, 3))
        who = rng.integers(0, 3, n)
        return np.clip(centers[who] + rng.normal(scale=0.04, size=(n, 3)), 0, 1)
    # degenerate: all points near one plane (deep anisotropic refinement)
    pts = rng.random((n, 3))
    pts[:, 2] = 0.5 + 0.01 * rng.random(n)
    return pts


def _build(method: str, seed: int, n: int, shape: str, threshold: int):
    pts = _cloud(seed, n, shape)
    dual = build_dual_tree(pts, pts, threshold)
    schema = method_schema(method)
    builder = DagBuilder(schema)
    if method == "bh":
        dag = builder.build(dual, mac_pairs=mac_pairs(dual, 0.5))
    else:
        dag = builder.build(dual, lists=build_lists(dual))
    return schema, dag


cloud_params = st.tuples(
    st.integers(0, 10_000),
    st.integers(40, 160),
    st.sampled_from(("uniform", "clustered", "planar")),
    st.sampled_from((8, 15, 30)),
)


@settings(max_examples=12, deadline=None)
@given(params=cloud_params, method=st.sampled_from(METHODS))
def test_random_trees_always_validate(params, method):
    seed, n, shape, threshold = params
    schema, dag = _build(method, seed, n, shape, threshold)
    validate_dag(schema, dag)  # must not raise


def _edges(dag):
    return [e for oe in dag.out_edges for e in oe]


def _assert_structured(err: SchemaValidationError, dag):
    """The error names a real element of the graph it rejects."""
    assert err.rule
    assert err.node is not None or err.edge is not None
    if err.node is not None:
        assert 0 <= err.node < len(dag.nodes)
        assert str(err.node) in str(err) or dag.nodes[err.node].kind in str(err)
    if err.edge is not None:
        src, dst, op = err.edge
        assert op in str(err) or f"{src}->{dst}" in str(err)


@settings(max_examples=10, deadline=None)
@given(
    params=cloud_params,
    method=st.sampled_from(METHODS),
    pick=st.integers(0, 1 << 30),
)
def test_dropped_edge_always_rejected(params, method, pick):
    seed, n, shape, threshold = params
    schema, dag = _build(method, seed, n, shape, threshold)
    edges = _edges(dag)
    victim = edges[pick % len(edges)]
    bad = edited(dag, victim, drop=True)
    bad.in_degree = list(dag.in_degree)  # the table from before the drop
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(schema, bad)
    # a dropped edge surfaces as a stale in-degree table or, for a
    # mandatory edge, as a degree-bound violation
    assert err.value.rule in ("in-degree-table", "in-degree", "out-degree")
    _assert_structured(err.value, dag)


@settings(max_examples=10, deadline=None)
@given(
    params=cloud_params,
    method=st.sampled_from(METHODS),
    pick=st.integers(0, 1 << 30),
    pick_op=st.integers(0, 1 << 30),
)
def test_wrong_operator_kind_always_rejected(params, method, pick, pick_op):
    """Any edge re-opped to a catalog operator the schema does not declare."""
    seed, n, shape, threshold = params
    schema, dag = _build(method, seed, n, shape, threshold)
    edges = _edges(dag)
    victim = edges[pick % len(edges)]
    undeclared = [o for o in EDGE_OPS if o not in schema.ops]
    op = undeclared[pick_op % len(undeclared)]
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(schema, edited(dag, victim, op=op))
    assert err.value.rule == "edge-op"
    assert err.value.edge == (victim.src, victim.dst, op)
    _assert_structured(err.value, dag)


@settings(max_examples=10, deadline=None)
@given(
    params=cloud_params,
    method=st.sampled_from(METHODS),
    pick=st.integers(0, 1 << 30),
)
def test_degree_violation_always_rejected(params, method, pick):
    """Duplicating an S2M edge (with a consistent in-degree table)
    violates the kind's uniqueness/fan-in declaration."""
    seed, n, shape, threshold = params
    schema, dag = _build(method, seed, n, shape, threshold)
    s2m = [e for e in _edges(dag) if e.op == "S2M"]
    victim = s2m[pick % len(s2m)]
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(schema, edited(dag, victim, duplicate=True))
    assert err.value.rule in ("edge-multiplicity", "in-degree")
    assert err.value.node == victim.dst
    _assert_structured(err.value, dag)


@settings(max_examples=10, deadline=None)
@given(
    params=cloud_params,
    method=st.sampled_from(METHODS),
    pick=st.integers(0, 1 << 30),
)
def test_level_inversion_always_rejected(params, method, pick):
    seed, n, shape, threshold = params
    schema, dag = _build(method, seed, n, shape, threshold)
    m2m = [e for e in _edges(dag) if e.op == "M2M"]
    victim = m2m[pick % len(m2m)]
    # invert the parent/child level relation on the destination node
    dag.level[victim.dst] = dag.level[victim.src] + 1
    with pytest.raises(SchemaValidationError) as err:
        validate_dag(schema, dag)
    assert err.value.rule in ("edge-level", "node-level")
    _assert_structured(err.value, dag)
