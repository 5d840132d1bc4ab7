"""Incremental tree maintenance: dirty-range detection and splicing.

The serving regime the persistent evaluation layer targets - millions
of repeated queries over slowly-moving point sets - almost never needs
a new tree.  Given the previous :class:`~repro.tree.dualtree.Tree` (and
the sorted deep Morton keys it retained), :func:`update_tree` produces
the box table of perturbed points in one of four escalating ways:

1. **unchanged** - the new sorted key sequence is byte-identical to the
   old one (points moved within their deep cells, or only the weights
   changed): the old :class:`~repro.tree.dualtree.TreeArrays` are
   shared as-is.  Zero carving.
2. **spliced** - keys moved but every old box still passes the carve
   invariants against the new key sequence (leaves at or under the
   threshold, internal boxes over it, recorded children nonempty and
   covering their parent): only the ``starts``/``stops``/``counts``
   columns are recomputed (one vectorised ``searchsorted`` over the box
   key ranges) and every box keeps its id.  Zero carving.
3. **recarved** - the structure changed somewhere: the keys the update
   has already sorted go through the array carve of a cold build
   (:func:`~repro.tree.dualtree.carve`), so the result is
   **bit-identical to a cold build** by construction (the property the
   DAG-template layer and all downstream caches rely on, and what the
   tests assert).  A walk that grafts clean subtrees costs more than
   this carve of the whole sequence at every size measured.
4. **rebuilt** - the ensemble size changed or no previous key sequence
   was retained: plain :func:`~repro.tree.dualtree.build_tree`.

Why id stability in case 2 matches the cold numbering: the carve emits
each level's boxes in ascending run-start order, and within a level the
sorted key sequence makes ascending start equivalent to ascending box
key - which is invariant under any perturbation that preserves the box
structure.

:data:`repro.tree.dualtree.COUNTERS` records every carve; the warm-path
acceptance gate of the evaluation service asserts it stays put for
repeat-shape submissions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.tree.dualtree import (
    DEEP_LEVEL,
    DualTree,
    Tree,
    TreeArrays,
    build_tree,
    carve,
    checked_points,
    checked_weights,
)
from repro.tree.morton import encode_points


def _structural_splice(tree: Tree, deep_new: np.ndarray) -> TreeArrays | None:
    """New starts/stops for every old box, or None if the structure broke.

    One vectorised ``searchsorted`` pass recomputes each box's point
    range against the new sorted keys, then the carve invariants are
    checked as whole-array reductions.  Passing them proves a cold
    carve of the new keys would emit exactly the old box table (same
    keys, same leaf statuses, same numbering - see module docstring).
    """
    a = tree.arrays
    shift = (3 * (DEEP_LEVEL - a.levels)).astype(np.int64)
    lo_keys = a.keys << shift
    hi_keys = (a.keys + 1) << shift
    starts = np.searchsorted(deep_new, lo_keys, side="left")
    stops = np.searchsorted(deep_new, hi_keys, side="left")
    counts = stops - starts

    if counts.min(initial=1) < 1:
        return None  # a recorded box emptied out
    internal = ~a.leaf
    thr = tree.threshold
    if np.any(counts[a.leaf & (a.levels < DEEP_LEVEL)] > thr):
        return None  # a leaf would now split
    if np.any(counts[internal] <= thr):
        return None  # an internal box would now be a leaf
    # recorded children must still partition their parent's range: the
    # children of box i are table rows child_lo[i]:child_hi[i]
    # (contiguous by construction), so a prefix sum gives each family's
    # total in O(B)
    csum = np.concatenate(([0], np.cumsum(counts)))
    covered = csum[a.child_hi[internal]] - csum[a.child_lo[internal]]
    if np.any(covered != counts[internal]):
        return None  # points drifted into a pruned child gap
    return TreeArrays(
        keys=a.keys,
        levels=a.levels,
        ix=a.ix,
        iy=a.iy,
        iz=a.iz,
        leaf=a.leaf,
        parent=a.parent,
        counts=counts,
        starts=starts,
        stops=stops,
        child_lo=a.child_lo,
        child_hi=a.child_hi,
    )


def update_tree(
    tree: Tree,
    points: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[Tree, str]:
    """Rebuild ``tree`` for perturbed ``points``, reusing what survived.

    Returns ``(new_tree, status)`` with status one of ``"unchanged"``,
    ``"spliced"``, ``"recarved"``, ``"rebuilt"`` (see module docstring).
    The new tree is always *value-identical* to a cold
    :func:`~repro.tree.dualtree.build_tree` of the same points over the
    same domain; the old tree is never mutated.
    """
    return _update_tree(tree, points, weights, None)


def _update_tree(
    tree: Tree,
    points: np.ndarray,
    weights: np.ndarray | None,
    order: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[Tree, str]:
    """:func:`update_tree`; ``order`` is the ``(perm, deep_sorted)`` of
    these very points over ``tree.domain`` when a caller already has it."""
    points = checked_points(points)
    domain = tree.domain
    if len(points) != tree.n_points or tree.deep_sorted is None:
        new = build_tree(points, domain, tree.threshold, weights=weights)
        return new, "rebuilt"

    n = len(points)
    if order is None:
        deep = encode_points(points, domain.origin, domain.size, DEEP_LEVEL)
        perm = np.argsort(deep, kind="stable")
        deep_sorted = deep[perm]
    else:
        perm, deep_sorted = order
    points_sorted = points[perm]
    weights_sorted = None
    if weights is not None:
        weights_sorted = checked_weights(weights, n)[perm]

    if np.array_equal(deep_sorted, tree.deep_sorted):
        # same key sequence: structure, ranges and numbering all carry over
        arrays, status = tree.arrays, "unchanged"
    else:
        arrays, status = _structural_splice(tree, deep_sorted), "spliced"
        if arrays is None:
            arrays, status = carve(deep_sorted, n, tree.threshold), "recarved"
    new = Tree(
        domain=domain,
        points=points_sorted,
        weights=weights_sorted,
        perm=perm,
        arrays=arrays,
        threshold=tree.threshold,
        deep_sorted=deep_sorted,
    )
    return new, status


def moved_positions(old: Tree, new: Tree) -> np.ndarray:
    """Which sorted positions of ``new`` hold a point ``old`` did not.

    ``new`` has ``old``'s shape: the same box keys and leaves.  A
    position is *moved* where its leaf's count changed, or where its
    coordinates differ, byte for byte, from ``old``'s point at the same
    leaf-relative position.  One vectorised pass over the leaves in
    Morton order, which tile ``[0, n)`` in both trees.
    """
    leaves = new.leaf_indices
    na, oa = new.arrays, old.arrays
    leaves = leaves[np.argsort(na.starts[leaves])]
    counts = na.counts[leaves]
    moved = np.repeat(counts != oa.counts[leaves], counts)
    kept = np.flatnonzero(~moved)
    shift = np.repeat(oa.starts[leaves] - na.starts[leaves], counts)
    was = old.points.view(np.int64)[kept + shift[kept]]
    moved[kept] = (new.points.view(np.int64)[kept] != was).any(axis=1)
    return moved


class PointMoves(NamedTuple):
    """:func:`point_moves` of one tree."""

    #: per sorted position of the new tree: its value must be recomputed
    moved: np.ndarray
    #: per sorted position: the leaf-relative position in the old tree
    #: its value can be copied from (meaningless where ``moved``)
    was: np.ndarray


def point_moves(old: Tree, new: Tree) -> PointMoves:
    """What a cache of values per sorted position of ``old`` keeps for
    ``new`` (same shape).

    In a leaf whose count held, as :func:`moved_positions`: a position
    copies from the same leaf-relative position, and is moved where its
    coordinates differ there.  In a leaf whose count moved, a position
    copies from where ``old`` held the same input point with the same
    coordinates in that leaf, and is moved where ``old`` held none - so
    a point crossing a leaf boundary moves itself, not its leaves.
    """
    moved = moved_positions(old, new)
    na, oa = new.arrays, old.arrays
    leaves = new.leaf_indices
    leaves = leaves[np.argsort(na.starts[leaves])]
    counts = na.counts[leaves]
    leaf_of = np.repeat(leaves, counts)
    was = np.arange(len(moved)) - na.starts[leaf_of]
    at = np.flatnonzero(np.repeat(counts != oa.counts[leaves], counts))
    if len(at):
        # a point's old sorted position, found by its input index
        inv = np.full(max(len(old.perm), len(new.perm)), -1)
        inv[old.perm] = np.arange(len(old.perm))
        q = inv[new.perm[at]]
        lo = oa.starts[leaf_of[at]]
        kept = (q >= lo) & (q < oa.stops[leaf_of[at]])
        kept[kept] = (old.points.view(np.int64)[q[kept]] == new.points.view(np.int64)[at[kept]]).all(axis=1)
        moved[at] = ~kept
        was[at] = np.where(kept, q - lo, 0)
    return PointMoves(moved, was)


def update_dual_tree(
    dual: DualTree,
    sources: np.ndarray,
    targets: np.ndarray,
    source_weights: np.ndarray | None = None,
) -> tuple[DualTree, dict]:
    """Incremental :func:`~repro.tree.dualtree.build_dual_tree`.

    The domain is pinned to the previous dual's (sessions carve every
    step against one fixed cube); callers that let the domain float must
    rebuild from scratch instead.
    """
    src, s_status = update_tree(dual.source, sources, weights=source_weights)
    # one ensemble on both sides (every default submit): the two trees
    # share a domain, hence the Morton keys and their sort
    order = (src.perm, src.deep_sorted) if targets is sources and s_status != "rebuilt" else None
    tgt, t_status = _update_tree(dual.target, targets, None, order)
    new = DualTree(
        domain=dual.domain, source=src, target=tgt, threshold=dual.threshold
    )
    return new, {"source": s_status, "target": t_status}
