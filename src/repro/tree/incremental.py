"""Incremental tree maintenance: dirty-range detection and splicing.

The serving regime the persistent evaluation layer targets - millions
of repeated queries over slowly-moving point sets - almost never needs
a new tree.  Given the previous :class:`~repro.tree.dualtree.Tree` (and
the sorted deep Morton keys it retained), :func:`update_tree` rebuilds
the box table for perturbed points in one of four escalating ways:

1. **unchanged** - the new sorted key sequence is byte-identical to the
   old one (points moved within their deep cells, or only the weights
   changed): the entire box structure, numbering and point ranges are
   reused as-is.  Zero carving.
2. **spliced** - keys moved but every old box still passes the carve
   invariants against the new key sequence (leaves at or under the
   threshold, internal boxes over it, recorded children nonempty and
   covering their parent): only the ``starts``/``stops``/``counts``
   columns are recomputed (one vectorised ``searchsorted`` over the box
   key ranges) and every box keeps its id.  Zero carving.
3. **recarved** - the structure changed somewhere: the old tree is
   walked top-down, clean subtrees (identical key subsequences) are
   copied with shifted point ranges, and only the dirty subtrees are
   re-carved from their key ranges.  The merged table is renumbered
   level-major with boxes ascending by run start - exactly the order
   both from-scratch carvers emit - so the result is **bit-identical to
   a cold build** (the property the DAG-template layer and all
   downstream caches rely on, and what the tests assert).
4. **rebuilt** - the ensemble size changed or no previous key sequence
   was retained: plain :func:`~repro.tree.dualtree.build_tree`.

Why id stability in case 2 matches the cold numbering: both carvers
emit each level's boxes in ascending run-start order, and within a
level the sorted key sequence makes ascending start equivalent to
ascending box key - which is invariant under any perturbation that
preserves the box structure.

The module-level counters in :mod:`repro.tree.dualtree` record every
full carve and every dirty-subtree re-carve; the warm-path acceptance
gate of the evaluation service asserts both stay at zero for
repeat-shape submissions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.tree.box import Box, Domain
from repro.tree.dualtree import (
    COUNTERS,
    DEEP_LEVEL,
    DualTree,
    Tree,
    TreeArrays,
    build_tree,
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


def _spliced_boxes(tree: Tree, arrays: TreeArrays) -> list[Box]:
    """Fresh Box objects carrying the spliced ranges (old ids kept).

    The previous tree may still back a live template or registrar, so
    its Box objects are never mutated.
    """
    starts = arrays.starts.tolist()
    stops = arrays.stops.tolist()
    return [
        Box(
            key=b.key,
            level=b.level,
            start=starts[b.index],
            stop=stops[b.index],
            parent=b.parent,
            children=b.children,
            index=b.index,
        )
        for b in tree.boxes
    ]


def _carve_subtree(
    deep_new: np.ndarray,
    lo: int,
    hi: int,
    key: int,
    level: int,
    parent_key: int | None,
    threshold: int,
    out: list[Box],
) -> None:
    """Re-carve one dirty subtree from its new key range (absolute
    positions); boxes are appended to ``out`` unnumbered."""
    COUNTERS["subtree_carves"] += 1
    root = Box(
        key=key, level=level, start=lo, stop=hi,
        parent=parent_key, children=[], index=-1,
    )
    out.append(root)
    frontier = [root]
    while frontier:
        nxt: list[Box] = []
        for box in frontier:
            if box.count <= threshold or box.level >= DEEP_LEVEL:
                continue
            child_level = box.level + 1
            shift = 3 * (DEEP_LEVEL - child_level)
            base = box.key << 3
            bounds = np.array([(base + c) << shift for c in range(9)], dtype=np.int64)
            cuts = np.searchsorted(deep_new[box.start : box.stop], bounds, side="left")
            cuts += box.start
            for c in range(8):
                clo, chi = int(cuts[c]), int(cuts[c + 1])
                if chi <= clo:
                    continue
                child = Box(
                    key=base + c, level=child_level, start=clo, stop=chi,
                    parent=box.key, children=[], index=-1,
                )
                box.children.append(child.key)
                out.append(child)
                nxt.append(child)
        frontier = nxt


def _copy_subtree(tree: Tree, box: Box, delta: int, out: list[Box]) -> None:
    """Copy a clean subtree, shifting every point range by ``delta``."""
    stack = [box]
    boxes, k2i = tree.boxes, tree.key_to_index
    while stack:
        b = stack.pop()
        out.append(
            Box(
                key=b.key, level=b.level,
                start=b.start + delta, stop=b.stop + delta,
                parent=b.parent, children=list(b.children), index=-1,
            )
        )
        for ck in b.children:
            stack.append(boxes[k2i[ck]])


def _merge_update(tree: Tree, deep_new: np.ndarray) -> list[Box]:
    """Top-down dirty walk: copy clean subtrees, re-carve dirty ones.

    Returns the unnumbered merged box list.  A subtree is *clean* when
    its slice of the new sorted keys is byte-identical to the old one
    (only its absolute offset may have changed); a dirty internal box
    whose nonempty-child set survived recurses child by child, anything
    else re-carves in place.
    """
    deep_old = tree.deep_sorted
    thr = tree.threshold
    boxes, k2i = tree.boxes, tree.key_to_index
    out: list[Box] = []

    def visit(b: Box, lo: int, hi: int) -> None:
        count = hi - lo
        old_seg = deep_old[b.start : b.stop]
        if count == b.count and np.array_equal(old_seg, deep_new[lo:hi]):
            _copy_subtree(tree, b, lo - b.start, out)
            return
        if count <= thr or b.level >= DEEP_LEVEL:
            # subtree collapses to a leaf (possibly shedding children)
            out.append(
                Box(key=b.key, level=b.level, start=lo, stop=hi,
                    parent=b.parent, children=[], index=-1)
            )
            return
        if b.is_leaf:
            _carve_subtree(deep_new, lo, hi, b.key, b.level, b.parent, thr, out)
            return
        child_level = b.level + 1
        shift = 3 * (DEEP_LEVEL - child_level)
        base = b.key << 3
        bounds = np.array([(base + c) << shift for c in range(9)], dtype=np.int64)
        cuts = np.searchsorted(deep_new[lo:hi], bounds, side="left")
        cuts += lo
        live = [
            (base + c, int(cuts[c]), int(cuts[c + 1]))
            for c in range(8)
            if cuts[c + 1] > cuts[c]
        ]
        if [k for k, _, _ in live] != b.children:
            # the child set itself changed: re-carve the whole subtree
            _carve_subtree(deep_new, lo, hi, b.key, b.level, b.parent, thr, out)
            return
        out.append(
            Box(key=b.key, level=b.level, start=lo, stop=hi,
                parent=b.parent, children=list(b.children), index=-1)
        )
        for ck, clo, chi in live:
            visit(boxes[k2i[ck]], clo, chi)

    visit(boxes[0], 0, len(deep_new))
    return out


def _renumber(merged: list[Box]) -> tuple[list[Box], dict[int, int], list[list[int]]]:
    """Level-major numbering, ascending start within a level - the exact
    emission order of both from-scratch carvers."""
    merged.sort(key=lambda b: (b.level, b.start))
    key_to_index: dict[int, int] = {}
    levels: list[list[int]] = []
    for i, b in enumerate(merged):
        b.index = i
        key_to_index[b.key] = i
        while len(levels) <= b.level:
            levels.append([])
        levels[b.level].append(i)
    return merged, key_to_index, levels


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
        new = Tree(
            domain=domain,
            points=points_sorted,
            weights=weights_sorted,
            perm=perm,
            boxes=tree.boxes,
            key_to_index=tree.key_to_index,
            levels=tree.levels,
            threshold=tree.threshold,
            deep_sorted=deep_sorted,
        )
        new._arrays = tree._arrays
        new._leaf_indices = tree._leaf_indices
        return new, "unchanged"

    arrays = _structural_splice(tree, deep_sorted)
    if arrays is not None:
        new = Tree(
            domain=domain,
            points=points_sorted,
            weights=weights_sorted,
            perm=perm,
            boxes=_spliced_boxes(tree, arrays),
            key_to_index=tree.key_to_index,
            levels=tree.levels,
            threshold=tree.threshold,
            deep_sorted=deep_sorted,
        )
        new._arrays = arrays
        new._leaf_indices = tree._leaf_indices
        return new, "spliced"

    merged = _merge_update(tree, deep_sorted)
    boxes, key_to_index, levels = _renumber(merged)
    new = Tree(
        domain=domain,
        points=points_sorted,
        weights=weights_sorted,
        perm=perm,
        boxes=boxes,
        key_to_index=key_to_index,
        levels=levels,
        threshold=tree.threshold,
        deep_sorted=deep_sorted,
    )
    return new, "recarved"


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
