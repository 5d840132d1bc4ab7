"""Adaptive tree construction invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.box import Domain
from repro.tree.dualtree import TreeArrays, build_dual_tree, build_tree
from repro.tree.morton import decode_morton


def _random_points(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 3))


def test_domain_bounding_contains_everything():
    a = _random_points(100, 1) * 3 - 1
    b = _random_points(50, 2) * 5 + 2
    dom = Domain.bounding(a, b)
    for pts in (a, b):
        assert np.all(pts >= dom.origin - 1e-12)
        assert np.all(pts <= dom.origin + dom.size + 1e-12)


def test_domain_is_cubic():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 10.0]])
    dom = Domain.bounding(a)
    assert dom.size >= 10.0


def test_box_centers_equal_the_per_box_loop():
    """The vectorised centres of an adaptive tree - leaves on several
    levels, odd origin and size - are the scalar ones bit for bit."""
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(0.2, 0.01, (400, 3)), rng.uniform(-1.7, 2.3, (300, 3))])
    tree = build_tree(pts, Domain.bounding(pts), threshold=10)
    keys = tree.arrays.keys
    assert len(set(tree.arrays.levels[tree.arrays.leaf].tolist())) > 2
    loop = np.array([tree.domain.box_center(b.key) for b in tree.boxes])
    assert np.array_equal(tree.domain.box_centers(keys), loop)
    assert tree.domain.box_centers(keys[:0]).shape == (0, 3)


def test_tree_partitions_points():
    pts = _random_points(2000)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=25)
    # every point belongs to exactly one leaf
    covered = np.zeros(len(pts), dtype=int)
    for b in tree.boxes:
        if b.is_leaf:
            covered[b.start : b.stop] += 1
    assert np.all(covered == 1)


def test_leaf_threshold_respected():
    pts = _random_points(3000, 3)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=40)
    for b in tree.boxes:
        if b.is_leaf:
            assert b.count <= 40 or b.level == 20  # deep-level cap


def test_children_partition_parent_range():
    pts = _random_points(2000, 4)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=30)
    for b in tree.boxes:
        if b.children:
            kids = [tree.boxes[tree.key_to_index[k]] for k in b.children]
            assert sum(k.count for k in kids) == b.count
            kids.sort(key=lambda k: k.start)
            assert kids[0].start == b.start
            assert kids[-1].stop == b.stop
            for a, c in zip(kids, kids[1:]):
                assert a.stop == c.start


def test_no_empty_children():
    pts = _random_points(500, 5)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=5)
    for b in tree.boxes:
        if b.parent is not None:
            assert b.count > 0


def test_points_inside_their_boxes():
    pts = _random_points(1000, 6)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=20)
    for b in tree.boxes:
        if not b.is_leaf or b.count == 0:
            continue
        level, ix, iy, iz = decode_morton(b.key)
        h = dom.box_size(level)
        lo = dom.origin + h * np.array([ix, iy, iz])
        box_pts = tree.points[b.start : b.stop]
        assert np.all(box_pts >= lo - 1e-9)
        assert np.all(box_pts <= lo + h + 1e-9)


def test_perm_is_inverse_sorted_order():
    pts = _random_points(500, 7)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=10)
    assert np.allclose(tree.points, pts[tree.perm])


def test_weights_sorted_alongside():
    pts = _random_points(300, 8)
    w = np.arange(300.0)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=10, weights=w)
    assert np.allclose(tree.weights, w[tree.perm])


def test_levels_listing():
    pts = _random_points(2000, 9)
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=20)
    seen = set()
    for level, idxs in enumerate(tree.levels):
        for i in idxs:
            assert tree.boxes[i].level == level
            seen.add(i)
    assert seen == set(range(len(tree.boxes)))


def test_duplicate_points_no_infinite_recursion():
    pts = np.tile(np.array([[0.5, 0.5, 0.5]]), (100, 1))
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=10)
    assert tree.n_points == 100  # terminates, all points kept


def test_dual_tree_shares_domain():
    s = _random_points(400, 10)
    t = _random_points(400, 11) + 2.0
    dual = build_dual_tree(s, t, 30, source_weights=np.ones(400))
    assert dual.source.domain is dual.domain
    assert dual.target.domain is dual.domain
    # both ensembles inside the shared cube
    for pts in (s, t):
        assert np.all(pts >= dual.domain.origin)
        assert np.all(pts <= dual.domain.origin + dual.domain.size)
    # one ensemble on both sides is sorted and carved once: the target
    # tree shares the source tree's order and boxes, gathers its own
    # points, and equals a separate build column by column
    w = np.random.default_rng(12).uniform(-1, 1, 400)
    same = build_dual_tree(s, s, 30, source_weights=w)
    src, tgt = same.source, same.target
    assert tgt.arrays is src.arrays and tgt.perm is src.perm
    assert tgt.deep_sorted is src.deep_sorted
    assert not np.shares_memory(tgt.points, src.points)
    for tree, weights in ((src, w), (tgt, None)):
        alone = build_tree(s, same.domain, 30, weights=weights)
        for f in dataclasses.fields(TreeArrays):
            assert np.array_equal(getattr(tree.arrays, f.name), getattr(alone.arrays, f.name)), f.name
        for name in ("points", "perm", "deep_sorted"):
            assert np.array_equal(getattr(tree, name), getattr(alone, name)), name
        assert (tree.weights is None) == (weights is None)
        if weights is not None:
            assert np.array_equal(tree.weights, alone.weights)


def test_invalid_inputs():
    pts = _random_points(10)
    dom = Domain.bounding(pts)
    with pytest.raises(ValueError):
        build_tree(pts, dom, threshold=0)
    with pytest.raises(ValueError):
        build_tree(pts[:, :2], dom, threshold=5)
    with pytest.raises(ValueError):
        build_tree(pts, dom, threshold=5, weights=np.ones(3))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tree_invariants_property(n, threshold, seed):
    pts = np.random.default_rng(seed).uniform(-5, 5, size=(n, 3))
    dom = Domain.bounding(pts)
    tree = build_tree(pts, dom, threshold=threshold)
    covered = np.zeros(n, dtype=int)
    for b in tree.boxes:
        assert b.stop >= b.start
        if b.is_leaf:
            covered[b.start : b.stop] += 1
    assert np.all(covered == 1)
    assert tree.boxes[0].count == n
