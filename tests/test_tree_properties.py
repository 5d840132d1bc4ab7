"""Property-based tests (hypothesis) for the tree layer.

Three structural invariants everything downstream rests on:

* Morton keys are a bijection: encode/decode round-trips exactly at
  every level (scalar and vectorised paths), parent/child relations are
  consistent, and keys of different levels never collide;
* tree construction partitions the points: every box's slice of the
  Morton-ordered point array lies geometrically inside the box;
* interaction lists split near from far: the near list (L1, handled by
  direct S->T interactions) never overlaps the far lists (L2/L3/L4,
  handled by expansions) for any target box, and no list contains a
  duplicate.

All runs are derandomized (a fixed hypothesis seed) so the suite is
reproducible; the heavier tree/list properties cap their example count
to stay inside the tier-1 budget.
"""

from __future__ import annotations

import numpy as np
import pytest

hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.tree.box import Domain
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from repro.tree.morton import (
    MAX_LEVEL,
    decode_morton,
    encode_morton,
    encode_points,
    morton_children,
    morton_level,
    morton_parent,
)

#: strategy for one (level, ix, iy, iz) lattice coordinate tuple
coords = st.integers(min_value=0, max_value=MAX_LEVEL).flatmap(
    lambda level: st.tuples(
        st.just(level),
        *(st.integers(min_value=0, max_value=(1 << level) - 1),) * 3,
    )
)


@settings(derandomize=True, max_examples=200)
@given(coords)
def test_morton_round_trip_scalar(c):
    level, ix, iy, iz = c
    key = encode_morton(level, ix, iy, iz)
    assert decode_morton(key) == (level, ix, iy, iz)
    assert morton_level(key) == level


@settings(derandomize=True, max_examples=50)
@given(st.lists(coords, min_size=1, max_size=64))
def test_morton_round_trip_vectorized(cs):
    level = np.array([c[0] for c in cs])
    ix = np.array([c[1] for c in cs])
    iy = np.array([c[2] for c in cs])
    iz = np.array([c[3] for c in cs])
    # vectorised encode takes one shared level; encode per-row instead
    keys = np.array(
        [encode_morton(l, x, y, z) for l, x, y, z in cs], dtype=np.int64
    )
    dl, dx, dy, dz = decode_morton(keys)
    np.testing.assert_array_equal(dl, level)
    np.testing.assert_array_equal(dx, ix)
    np.testing.assert_array_equal(dy, iy)
    np.testing.assert_array_equal(dz, iz)


@settings(derandomize=True, max_examples=200)
@given(coords.filter(lambda c: c[0] < MAX_LEVEL))
def test_morton_parent_child_consistency(c):
    level, ix, iy, iz = c
    key = encode_morton(level, ix, iy, iz)
    children = morton_children(key)
    assert len(set(children)) == 8
    for child in children:
        assert morton_parent(child) == key
        cl, cx, cy, cz = decode_morton(child)
        assert cl == level + 1
        assert (cx >> 1, cy >> 1, cz >> 1) == (ix, iy, iz)


@settings(derandomize=True, max_examples=100)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_encode_points_buckets_correctly(level, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((32, 3))
    domain = Domain(origin=np.zeros(3), size=1.0)
    keys = encode_points(pts, domain.origin, domain.size, level)
    lv, ix, iy, iz = decode_morton(np.asarray(keys))
    np.testing.assert_array_equal(lv, level)
    expected = np.minimum(
        np.floor(pts * (1 << level)).astype(np.int64), (1 << level) - 1
    )
    np.testing.assert_array_equal(np.stack([ix, iy, iz], axis=1), expected)


# -- tree-box containment ---------------------------------------------------------

#: a seeded point-cloud configuration: (rng seed, n points, threshold)
cloud_cfg = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=10, max_value=400),
    st.integers(min_value=4, max_value=40),
)


def _containment(tree):
    domain = tree.domain
    for box in tree.boxes:
        pts = tree.points[box.start : box.stop]
        assert len(pts) == box.count
        h = domain.box_size(box.level)
        center = domain.box_center(box.key)
        lo, hi = center - h / 2, center + h / 2
        # the far domain face is clamped into the last cell, so points
        # may sit exactly on a box's upper boundary
        assert np.all(pts >= lo - 1e-12), (box.key, box.level)
        assert np.all(pts <= hi + 1e-12), (box.key, box.level)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(cloud_cfg)
def test_tree_box_containment(cfg):
    seed, n, threshold = cfg
    rng = np.random.default_rng(seed)
    sources = rng.random((n, 3))
    targets = rng.random((n, 3))
    dual = build_dual_tree(sources, targets, threshold)
    _containment(dual.source)
    _containment(dual.target)
    # the children of any box partition its point slice
    # (``Box.children`` holds the children's Morton keys)
    for tree in (dual.source, dual.target):
        for box in tree.boxes:
            if box.children:
                kids = [tree.boxes[tree.key_to_index[k]] for k in box.children]
                assert kids[0].start == box.start
                assert kids[-1].stop == box.stop
                for a, b in zip(kids, kids[1:]):
                    assert a.stop == b.start


# -- interaction-list disjointness ------------------------------------------------


@settings(derandomize=True, max_examples=8, deadline=None)
@given(cloud_cfg)
def test_interaction_lists_near_far_disjoint(cfg):
    seed, n, threshold = cfg
    rng = np.random.default_rng(seed)
    sources = rng.random((n, 3))
    targets = rng.random((n, 3))
    dual = build_dual_tree(sources, targets, threshold)
    lists = build_lists(dual)
    all_targets = (
        set(lists.l1) | set(lists.l2) | set(lists.l3) | set(lists.l4)
    )
    for tgt in all_targets:
        near = lists.l1.get(tgt, [])
        far = (
            lists.l2.get(tgt, [])
            + lists.l3.get(tgt, [])
            + lists.l4.get(tgt, [])
        )
        # no duplicates within any one list
        for lname in ("l1", "l2", "l3", "l4"):
            entries = getattr(lists, lname).get(tgt, [])
            assert len(entries) == len(set(entries)), (tgt, lname)
        # near (direct S->T) and far (expansion-mediated) never overlap:
        # a source box handled both ways would be double-counted
        assert not set(near) & set(far), tgt
