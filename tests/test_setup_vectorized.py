"""Vectorised setup pipeline equals the per-box reference, structure for structure.

The array-based passes (tree carving, interaction lists, MAC traversal,
DAG assembly) must reproduce the reference loops exactly: same box
tables, same list memberships in the same canonical order, same DAG
node/edge multisets and in-degrees, and hence the same simulated
virtual clock.  Property tests sweep random identical, overlapping and
disjoint ensembles; deterministic cases pin the pruned-subtree and
degenerate-point paths.

The reference loops are plain functions (``carve_reference``,
``build_lists_reference``, ``mac_pairs_reference``,
``build_*_dag_reference``), called here directly through
``tests/reference_chain.py``; no production entry point can select them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dashmm.dag import (
    build_bh_dag,
    build_bh_dag_reference,
    build_fmm_dag,
    build_fmm_dag_reference,
)
from repro.dashmm.evaluator import DashmmEvaluator
from repro.kernels.laplace import LaplaceKernel
from repro.methods.barneshut import mac_pairs, mac_pairs_reference
from repro.tree.dualtree import build_dual_tree, carve_reference
from repro.tree.lists import build_lists, build_lists_reference, canonicalize, list_pairs
from tests.reference_chain import reference_dual, reference_lists, reference_setup


def _ensemble(mode: str, n_src: int, n_tgt: int, seed: int):
    rng = np.random.default_rng(seed)
    src = rng.random((n_src, 3))
    if mode == "identical":
        tgt = src[:n_tgt] if n_tgt <= n_src else np.vstack([src, rng.random((n_tgt - n_src, 3))])
    elif mode == "overlapping":
        tgt = rng.random((n_tgt, 3)) * 0.7 + 0.2
    else:  # disjoint clusters in opposite corners
        src = src * 0.25
        tgt = rng.random((n_tgt, 3)) * 0.25 + 0.75
    return src, tgt


def assert_trees_equal(tv, tr):
    assert len(tv.boxes) == len(tr.boxes)
    for bv, br in zip(tv.boxes, tr.boxes):
        assert (bv.key, bv.level, bv.start, bv.stop, bv.parent, bv.children, bv.index) == (
            br.key,
            br.level,
            br.start,
            br.stop,
            br.parent,
            br.children,
            br.index,
        )
    assert tv.key_to_index == tr.key_to_index
    assert tv.levels == tr.levels
    assert np.array_equal(tv.perm, tr.perm)
    assert np.array_equal(tv.points, tr.points)


def assert_lists_equal(lv, lr):
    for name in ("l1", "l2", "l3", "l4"):
        assert list(getattr(lv, name).items()) == list(getattr(lr, name).items()), name
    assert lv.pruned == lr.pruned


def assert_dags_equal(dv, dr):
    assert dv.nodes == dr.nodes
    assert dv.out_edges == dr.out_edges
    assert dv.in_degree == dr.in_degree
    assert dv.index == dr.index


ENSEMBLES = st.tuples(
    st.sampled_from(["identical", "overlapping", "disjoint"]),
    st.integers(min_value=1, max_value=250),
    st.integers(min_value=1, max_value=250),
    st.integers(min_value=0, max_value=2**31),
)


@settings(max_examples=12, deadline=None)
@given(params=ENSEMBLES, threshold=st.sampled_from([1, 4, 16]))
def test_property_setup_pipeline_matches_reference(params, threshold):
    src, tgt = _ensemble(*params)
    dual_v = build_dual_tree(src, tgt, threshold=threshold)
    dual_r = reference_dual(dual_v)
    assert_trees_equal(dual_v.source, dual_r.source)
    assert_trees_equal(dual_v.target, dual_r.target)

    lists_v = build_lists(dual_v)
    lists_r = reference_lists(dual_r)
    assert_lists_equal(lists_v, lists_r)

    for advanced in (True, False):
        assert_dags_equal(
            build_fmm_dag(dual_v, lists_v, advanced=advanced),
            build_fmm_dag_reference(dual_r, lists_r, advanced=advanced),
        )

    pairs_v = mac_pairs(dual_v, 0.5)
    pairs_r = mac_pairs_reference(dual_r, 0.5)
    assert list(pairs_v.items()) == list(pairs_r.items())
    assert_dags_equal(
        build_bh_dag(dual_v, pairs_v),
        build_bh_dag_reference(dual_r, pairs_r),
    )


def test_disjoint_ensembles_prune_and_match():
    # far-apart clusters force pruned target sub-trees; both paths must
    # agree on the pruned set and on everything below it
    rng = np.random.default_rng(3)
    src = rng.random((400, 3)) * 0.2
    tgt = rng.random((400, 3)) * 0.2 + 0.8
    dual_v = build_dual_tree(src, tgt, threshold=10)
    dual_r = reference_dual(dual_v)
    lists_v = build_lists(dual_v)
    lists_r = reference_lists(dual_r)
    assert lists_v.pruned, "expected pruned boxes for disjoint clusters"
    assert_lists_equal(lists_v, lists_r)
    assert_dags_equal(
        build_fmm_dag(dual_v, lists_v),
        build_fmm_dag_reference(dual_r, lists_r, advanced=True),
    )


def test_degenerate_coincident_points():
    # all points identical: carving bottoms out at the depth cap
    pts = np.ones((50, 3)) * 0.3
    dual_v = build_dual_tree(pts, pts, threshold=4)
    dual_r = reference_dual(dual_v)
    assert_trees_equal(dual_v.source, dual_r.source)
    assert_lists_equal(build_lists(dual_v), reference_lists(dual_r))


def test_canonical_order_is_sorted():
    rng = np.random.default_rng(11)
    dual = build_dual_tree(rng.random((600, 3)), rng.random((600, 3)), threshold=8)
    lists = build_lists(dual)
    for name in ("l1", "l2", "l3", "l4"):
        table = getattr(lists, name)
        keys = list(table.keys())
        assert keys == sorted(keys), name
        for sis in table.values():
            assert sis == sorted(sis), name
    # the reference path is canonicalized identically
    assert_lists_equal(lists, canonicalize(build_lists_reference(dual)))


def test_phantom_virtual_time_identical():
    rng = np.random.default_rng(5)
    src = rng.random((700, 3))
    tgt = rng.random((700, 3))
    w = rng.random(700)
    k = LaplaceKernel(p=3)
    for method in ("fmm", "fmm-basic", "bh"):
        ev = DashmmEvaluator(k, method=method, threshold=15, mode="phantom")
        t_vec = ev.evaluate(src, w, tgt)
        t_ref = ev.evaluate(src, w, tgt, **reference_setup(method, src, w, tgt, 15))
        assert t_vec.time == t_ref.time, method
        assert len(t_vec.dag.nodes) == len(t_ref.dag.nodes)
        assert t_vec.dag.n_edges == t_ref.dag.n_edges


def test_leaves_cached():
    rng = np.random.default_rng(9)
    dual = build_dual_tree(rng.random((300, 3)), rng.random((300, 3)), threshold=10)
    tree = dual.source
    first = tree.leaf_indices
    assert first is tree.leaf_indices  # cached array object, not recomputed
    leaves = tree.leaves
    assert [b.index for b in leaves] == first.tolist()
    assert all(b.is_leaf for b in leaves)
    assert tree.arrays is tree.arrays  # columnar table cached too


def test_list_pairs_flattening():
    table = {3: [1, 5, 7], 9: [2], 12: []}
    tis, sis = list_pairs(table)
    assert tis.tolist() == [3, 3, 3, 9]
    assert sis.tolist() == [1, 5, 7, 2]
    tis, sis = list_pairs({})
    assert tis.size == 0 and sis.size == 0


def test_setup_smoke_vectorized_not_slower():
    # CI smoke: on the quickstart workload the vectorized setup must be
    # at least as fast as the reference loops (the benchmark asserts the
    # full 3x; here a conservative floor keeps CI signal non-flaky)
    import time

    rng = np.random.default_rng(42)
    src = rng.random((4000, 3))
    tgt = rng.random((4000, 3))

    def vectorized():
        dual = build_dual_tree(src, tgt, threshold=60)
        build_fmm_dag(dual, build_lists(dual))

    sorted_dual = build_dual_tree(src, tgt, threshold=60)

    def reference():
        # the Morton sort is charged to the array passes only
        for tree in (sorted_dual.source, sorted_dual.target):
            carve_reference(tree.deep_sorted, tree.n_points, 60)
        lists = canonicalize(build_lists_reference(sorted_dual))
        build_fmm_dag_reference(sorted_dual, lists, advanced=True)

    def run(setup) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.process_time()
            setup()
            best = min(best, time.process_time() - t0)
        return best

    t_ref = run(reference)
    t_vec = run(vectorized)
    assert t_vec <= t_ref, f"vectorized setup slower: {t_vec:.3f}s vs {t_ref:.3f}s"
