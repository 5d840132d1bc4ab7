"""Incremental tree maintenance: every update path must be value-identical
to a cold build over the same (pinned) domain, and the cheap paths must
do zero carving."""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np
import pytest

from repro.tree.dualtree import COUNTERS, build_dual_tree, build_tree
from repro.tree.fingerprint import (
    dual_full_fingerprint,
    dual_shape_fingerprint,
    tree_full_fingerprint,
    tree_shape_fingerprint,
)
from repro.tree.incremental import moved_positions, point_moves, update_dual_tree, update_tree
from tests.crc_forge import neutral_flips
from tests.reference_chain import assert_tree_equal

THRESHOLD = 25


@pytest.fixture()
def base():
    rng = np.random.default_rng(11)
    n = 900
    src = rng.uniform(0.0, 1.0, (n, 3))
    tgt = rng.uniform(0.0, 1.0, (n, 3))
    w = rng.normal(size=n)
    dual = build_dual_tree(src, tgt, THRESHOLD, source_weights=w)
    return rng, src, tgt, w, dual


def test_unchanged_when_only_weights_move(base):
    rng, src, tgt, w, dual = base
    before = dict(COUNTERS)
    new, info = update_dual_tree(dual, src, tgt, source_weights=rng.normal(size=len(w)))
    assert info == {"source": "unchanged", "target": "unchanged"}
    assert dict(COUNTERS) == before  # zero carving
    # box tables are shared outright, ids trivially stable
    assert new.source.arrays is dual.source.arrays
    assert dual_shape_fingerprint(new) == dual_shape_fingerprint(dual)


def test_unchanged_under_subcell_jitter(base):
    rng, src, tgt, w, dual = base
    src2 = src + rng.normal(scale=1e-13, size=src.shape)
    before = dict(COUNTERS)
    new, info = update_dual_tree(dual, src2, tgt, source_weights=w)
    assert info["source"] == "unchanged"
    assert dict(COUNTERS) == before
    assert np.array_equal(new.source.points, src2[new.source.perm])


def test_splice_keeps_ids_and_matches_cold_build(base):
    rng, src, tgt, w, dual = base
    # move a handful of points slightly: keys shift but structure holds
    src2 = src.copy()
    idx = rng.choice(len(src), size=5, replace=False)
    src2[idx] = np.clip(src2[idx] + rng.normal(scale=1e-3, size=(5, 3)), 0.0, 1.0)
    before = dict(COUNTERS)
    new, status = update_tree(dual.source, src2, weights=w)
    assert status in ("unchanged", "spliced")
    assert dict(COUNTERS) == before  # zero carving either way
    # every box keeps its id
    assert np.array_equal(new.arrays.keys, dual.source.arrays.keys)
    cold = build_tree(src2, dual.source.domain, THRESHOLD, weights=w)
    assert_tree_equal(new, cold)
    assert tree_shape_fingerprint(new) == tree_shape_fingerprint(cold)


def test_moved_positions_against_a_leaf_by_leaf_walk(base):
    """A position moved where its leaf's count changed or its point is not
    the old tree's point at the same leaf-relative position, byte for
    byte."""
    rng, src, tgt, w, dual = base
    src2 = src.copy()
    idx = rng.choice(len(src), size=20, replace=False)
    src2[idx] = np.clip(src2[idx] + rng.normal(scale=2e-2, size=(20, 3)), 0.0, 1.0)
    src2[idx[0]] = src[idx[0]] + 1e-12  # within its deep cell
    new, status = update_tree(dual.source, src2, weights=w)
    assert status == "spliced"
    old = dual.source
    expected = np.zeros(len(src), dtype=bool)
    for a, b in zip(old.boxes, new.boxes):
        for r in range(b.count if b.is_leaf else 0):
            expected[b.start + r] = a.count != b.count or (
                old.points[a.start + r].tobytes() != new.points[b.start + r].tobytes()
            )
    moved = moved_positions(old, new)
    assert np.array_equal(moved, expected)
    assert 0 < np.count_nonzero(moved) < len(src)
    assert any(a.count != b.count for a, b in zip(old.boxes, new.boxes))
    assert not moved_positions(new, new).any()


def test_point_moves_follow_points_across_a_recount(base):
    """In a leaf whose count held a position is what
    :func:`moved_positions` says and copies from its own leaf-relative
    position; in a leaf whose count moved it copies from where the old
    leaf held the same input point with the same coordinates, and is
    moved only where no such point was there - a leaf-by-leaf walk."""
    rng, src, tgt, w, dual = base
    src2 = src.copy()
    idx = rng.choice(len(src), size=20, replace=False)
    src2[idx] = np.clip(src2[idx] + rng.normal(scale=2e-2, size=(20, 3)), 0.0, 1.0)
    new, status = update_tree(dual.source, src2, weights=w)
    assert status == "spliced"
    old = dual.source
    moves = point_moves(old, new)
    recounted = 0
    for a, b in zip(old.boxes, new.boxes):
        if not b.is_leaf:
            continue
        if a.count == b.count:
            at = slice(b.start, b.stop)
            assert np.array_equal(moves.moved[at], moved_positions(old, new)[at])
            assert np.array_equal(moves.was[at], np.arange(b.count))
            continue
        recounted += 1
        held = {int(old.perm[q]): q - a.start for q in range(a.start, a.stop)}
        for r in range(b.count):
            q = held.get(int(new.perm[b.start + r]))
            same = q is not None and (
                old.points[a.start + q].tobytes() == new.points[b.start + r].tobytes()
            )
            assert moves.moved[b.start + r] == (not same)
            if same:
                assert moves.was[b.start + r] == q
    assert recounted and np.count_nonzero(moves.moved) < np.count_nonzero(moved_positions(old, new))


def test_recarve_matches_cold_build(base):
    rng, src, tgt, w, dual = base
    # move a third of the points a long way: structure must change
    src2 = src.copy()
    idx = rng.choice(len(src), size=len(src) // 3, replace=False)
    src2[idx] = np.clip(src2[idx] + rng.normal(scale=0.3, size=(len(idx), 3)), 0.0, 1.0)
    before = COUNTERS["full_carves"]
    new, status = update_tree(dual.source, src2, weights=w)
    assert status == "recarved"
    assert COUNTERS["full_carves"] == before + 1  # the sorted keys, carved once
    cold = build_tree(src2, dual.source.domain, THRESHOLD, weights=w)
    assert_tree_equal(new, cold)


def test_rebuilt_on_size_change(base):
    rng, src, tgt, w, dual = base
    src2 = rng.uniform(0.0, 1.0, (len(src) + 10, 3))
    new, status = update_tree(dual.source, src2)
    assert status == "rebuilt"
    cold = build_tree(src2, dual.source.domain, THRESHOLD)
    assert_tree_equal(new, cold)


def test_old_tree_never_mutated(base):
    rng, src, tgt, w, dual = base
    old = dual.source

    def values():
        a = old.arrays
        return [getattr(a, f.name) for f in dataclasses.fields(a)] + [
            old.points, old.perm, old.weights, old.deep_sorted
        ]

    snapshot = [v.copy() for v in values()]
    src2 = np.clip(src + rng.normal(scale=0.05, size=src.shape), 0.0, 1.0)
    update_tree(old, src2, weights=w)
    assert all(np.array_equal(a, b) for a, b in zip(snapshot, values()))


def test_fingerprints_track_counts(base):
    rng, src, tgt, w, dual = base
    src2 = src.copy()
    idx = rng.choice(len(src), size=5, replace=False)
    src2[idx] = np.clip(src2[idx] + rng.normal(scale=1e-3, size=(5, 3)), 0.0, 1.0)
    new, status = update_dual_tree(dual, src2, tgt, source_weights=w)
    if status["source"] in ("unchanged", "spliced"):
        # the shape fingerprint (DAG-template key) ignores counts and
        # must hold; the full one (work-bounds key) must move exactly
        # when per-box counts moved
        assert dual_shape_fingerprint(new) == dual_shape_fingerprint(dual)
        counts_moved = not np.array_equal(
            new.source.arrays.counts, dual.source.arrays.counts
        )
        full_moved = dual_full_fingerprint(new) != dual_full_fingerprint(dual)
        assert full_moved == counts_moved


def test_fingerprints_tell_a_crc_collision_apart(base):
    """Box keys with a GF(2)-dependent set of low bits flipped - their
    CRC-32 unchanged, so a checksum key would take the two shapes for
    one - key a different shape and a different count distribution."""
    rng, src, tgt, w, dual = base
    tree = dual.source
    keys = tree.arrays.keys
    # the 12 low bits of the keys of three boxes
    bits = [(box, k) for box in (1, 2, 3) for k in range(12)]
    subset = neutral_flips(keys.tobytes(), [[(8 * box + k // 8, k % 8)] for box, k in bits])
    forged_keys = keys.copy()
    for i, (box, k) in enumerate(bits):
        if subset >> i & 1:
            forged_keys[box] ^= 1 << k
    assert not np.array_equal(forged_keys, keys)
    assert zlib.crc32(forged_keys.tobytes()) == zlib.crc32(keys.tobytes())
    forged = dataclasses.replace(tree, arrays=dataclasses.replace(tree.arrays, keys=forged_keys))
    assert tree_shape_fingerprint(forged) != tree_shape_fingerprint(tree)
    assert tree_full_fingerprint(forged) != tree_full_fingerprint(tree)
