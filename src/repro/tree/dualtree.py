"""Adaptive hierarchical partitioning and the dual tree (Section II).

A :class:`Tree` is built per ensemble by sorting the points along a
deep Morton curve once and then carving contiguous key ranges into
boxes top-down.  A box is refined while it holds more points than the
refinement *threshold*; empty children are pruned.  The
:class:`DualTree` pairs the source and target trees over the shared
domain; the ensembles may be identical, partially overlapping, or
disjoint.

Trees are carved by whole-array passes over the sorted deep keys: every
level's boxes are discovered at once (shifted-prefix run detection plus
``searchsorted`` range splits).  :func:`carve_reference` refines one
box at a time, exactly as the paper describes the algorithm; nothing in
the package calls it - it is the oracle the array carve is
property-tested against, box table for box table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tree.box import Box, Domain
from repro.tree.morton import MAX_LEVEL, decode_morton, encode_points

#: Depth of the space-filling curve used for the one-time sort.  Boxes
#: never refine past this level; duplicate points therefore cannot force
#: unbounded recursion.
DEEP_LEVEL = MAX_LEVEL

#: Instrumentation for the persistent-evaluation layer: how many times a
#: tree was carved from scratch and how many dirty subtrees were
#: re-carved by the incremental path.  The warm-path guarantee of
#: :class:`repro.dashmm.service.EvaluatorSession` - a repeat submit with
#: an unchanged shape does *zero* carving - is asserted against these.
COUNTERS = {"full_carves": 0, "subtree_carves": 0}


@dataclass
class TreeArrays:
    """Columnar view of a tree's box table (one row per box).

    Decoded lattice coordinates are computed once per tree, so setup
    passes (adjacency, interaction lists, DAG assembly) never re-decode
    Morton keys pairwise.  ``child_lo:child_hi`` is the contiguous box
    table index range of a box's children (both builders append the
    children of one box consecutively).
    """

    keys: np.ndarray  # int64 Morton keys
    levels: np.ndarray  # int64 level per box
    ix: np.ndarray  # int64 lattice coordinates
    iy: np.ndarray
    iz: np.ndarray
    leaf: np.ndarray  # bool
    parent: np.ndarray  # int64 parent box index, -1 for the root
    counts: np.ndarray  # int64 points per box
    starts: np.ndarray  # int64 point range per box
    stops: np.ndarray
    child_lo: np.ndarray  # int64 children index range [lo, hi)
    child_hi: np.ndarray


def _arrays_from_boxes(boxes: list[Box], key_to_index: dict[int, int]) -> TreeArrays:
    nb = len(boxes)
    keys = np.fromiter((b.key for b in boxes), dtype=np.int64, count=nb)
    starts = np.fromiter((b.start for b in boxes), dtype=np.int64, count=nb)
    stops = np.fromiter((b.stop for b in boxes), dtype=np.int64, count=nb)
    parent = np.fromiter(
        (-1 if b.parent is None else key_to_index[b.parent] for b in boxes),
        dtype=np.int64,
        count=nb,
    )
    child_lo = np.zeros(nb, dtype=np.int64)
    child_hi = np.zeros(nb, dtype=np.int64)
    for b in boxes:
        if b.children:
            child_lo[b.index] = key_to_index[b.children[0]]
            child_hi[b.index] = key_to_index[b.children[-1]] + 1
    levels, ix, iy, iz = decode_morton(keys)
    return TreeArrays(
        keys=keys,
        levels=levels,
        ix=ix,
        iy=iy,
        iz=iz,
        leaf=child_lo == child_hi,
        parent=parent,
        counts=stops - starts,
        starts=starts,
        stops=stops,
        child_lo=child_lo,
        child_hi=child_hi,
    )


@dataclass
class Tree:
    """One adaptive octree over an ensemble of points.

    Attributes
    ----------
    domain:
        Shared root cube.
    points:
        (N, 3) points in Morton order.
    weights:
        (N,) weights (charges/masses) in the same order, or None for a
        target tree.
    perm:
        Original index of each sorted point (``points[i] ==
        original[perm[i]]``).
    boxes:
        Box table; index 0 is the root.
    key_to_index:
        Morton key -> box table index.
    levels:
        ``levels[l]`` lists box indices at level ``l``.
    threshold:
        The refinement threshold used to build the tree.
    """

    domain: Domain
    points: np.ndarray
    weights: np.ndarray | None
    perm: np.ndarray
    boxes: list[Box]
    key_to_index: dict[int, int]
    levels: list[list[int]] = field(default_factory=list)
    threshold: int = 0
    #: sorted deep Morton keys of the points; retained so the
    #: incremental updater can diff a perturbed ensemble against the
    #: exact key sequence this tree was carved from
    deep_sorted: np.ndarray | None = field(default=None, repr=False, compare=False)
    _leaf_indices: np.ndarray | None = field(default=None, repr=False, compare=False)
    _arrays: TreeArrays | None = field(default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def leaf_indices(self) -> np.ndarray:
        """Box table indices of the leaves, cached at first use."""
        if self._leaf_indices is None:
            self._leaf_indices = np.fromiter(
                (b.index for b in self.boxes if b.is_leaf), dtype=np.int64
            )
        return self._leaf_indices

    @property
    def leaves(self) -> list[Box]:
        boxes = self.boxes
        return [boxes[i] for i in self.leaf_indices]

    @property
    def arrays(self) -> TreeArrays:
        """Columnar box table with decoded coordinates, built once."""
        if self._arrays is None:
            self._arrays = _arrays_from_boxes(self.boxes, self.key_to_index)
        return self._arrays

    def box(self, key: int) -> Box:
        return self.boxes[self.key_to_index[key]]

    def box_points(self, box: Box) -> np.ndarray:
        return self.points[box.start : box.stop]

    def box_weights(self, box: Box) -> np.ndarray:
        if self.weights is None:
            raise ValueError("tree has no weights (target tree)")
        return self.weights[box.start : box.stop]

    def set_weights(self, weights: np.ndarray) -> None:
        """Replace the point weights (given in *original* point order).

        Supports the paper's iterative use case: the same DAG is
        evaluated many times for different inputs, amortizing all setup.
        """
        self.weights = checked_weights(weights, self.n_points)[self.perm]


def checked_points(points) -> np.ndarray:
    """``points`` as a float array, or ``ValueError``: shape (N, 3), finite."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (found NaN or inf)")
    return points


def checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as a float array, or ``ValueError``: shape (n,), finite,
    real (the plane-wave rule carries half its terms and relies on it)."""
    weights = np.asarray(weights)
    if np.iscomplexobj(weights) and np.any(weights.imag != 0):
        raise ValueError("weights must be real (found a non-zero imaginary part)")
    weights = np.asarray(weights.real, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must have shape (N,)")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite (found NaN or inf)")
    return weights


@dataclass
class DualTree:
    """Source tree + target tree over a shared domain."""

    domain: Domain
    source: Tree
    target: Tree
    threshold: int


def carve_reference(
    deep_sorted: np.ndarray, n: int, threshold: int
) -> tuple[list[Box], dict[int, int], list[list[int]]]:
    """Per-box breadth-first refinement (the oracle loop path).

    A box's deep keys lie in ``[key << 3*(D-l), (key+1) << 3*(D-l))``;
    children are the nonempty subranges split at the eight child-prefix
    boundaries.
    """
    boxes: list[Box] = []
    key_to_index: dict[int, int] = {}
    levels: list[list[int]] = [[]]

    root = Box(key=1, level=0, start=0, stop=n, parent=None, children=[], index=0)
    boxes.append(root)
    key_to_index[1] = 0
    levels[0].append(0)

    frontier = [0]
    level = 0
    while frontier:
        next_frontier: list[int] = []
        child_level = level + 1
        if child_level > DEEP_LEVEL:
            break
        new_level_indices: list[int] = []
        shift = 3 * (DEEP_LEVEL - child_level)
        for bi in frontier:
            box = boxes[bi]
            if box.count <= threshold:
                continue
            base = box.key << 3
            # Boundaries of the eight candidate children in deep-key space.
            bounds = np.array(
                [(base + c) << shift for c in range(9)], dtype=np.int64
            )
            cuts = np.searchsorted(
                deep_sorted[box.start : box.stop], bounds, side="left"
            )
            cuts += box.start
            for c in range(8):
                lo, hi = int(cuts[c]), int(cuts[c + 1])
                if hi <= lo:
                    continue  # prune empty child
                ckey = base + c
                child = Box(
                    key=ckey,
                    level=child_level,
                    start=lo,
                    stop=hi,
                    parent=box.key,
                    children=[],
                    index=len(boxes),
                )
                key_to_index[ckey] = child.index
                boxes.append(child)
                box.children.append(ckey)
                new_level_indices.append(child.index)
                next_frontier.append(child.index)
        if new_level_indices:
            levels.append(new_level_indices)
        frontier = next_frontier
        level = child_level

    return boxes, key_to_index, levels


def _carve_vectorized(
    deep_sorted: np.ndarray, n: int, threshold: int
) -> tuple[list[Box], dict[int, int], list[list[int]]]:
    """Whole-level box discovery from the sorted deep-key array.

    Every box at level ``l`` is a maximal run of equal level-``l`` key
    prefixes inside its parent's range.  One level is carved with three
    array passes: a run-boundary scan of the shifted prefixes restricted
    to the over-threshold parent ranges, a ``searchsorted`` to attribute
    each run to its parent, and a clipped shift to find run stops.  The
    resulting box table is bit-identical to :func:`carve_reference`.
    """
    boxes = [Box(key=1, level=0, start=0, stop=n, parent=None, children=[], index=0)]
    key_to_index: dict[int, int] = {1: 0}
    levels: list[list[int]] = [[0]]

    cur_starts = np.array([0], dtype=np.int64)
    cur_stops = np.array([n], dtype=np.int64)
    cur_index = np.array([0], dtype=np.int64)
    level = 0
    while cur_starts.size and level < DEEP_LEVEL:
        child_level = level + 1
        split = (cur_stops - cur_starts) > threshold
        if not split.any():
            break
        starts_p = cur_starts[split]
        stops_p = cur_stops[split]
        index_p = cur_index[split]

        # Level-(child_level) key of every point: deep key shifted so the
        # marker bit lands at 3*child_level (exactly the box key).
        prefix = deep_sorted >> np.int64(3 * (DEEP_LEVEL - child_level))

        # Child boxes are runs of equal prefix inside split parents.
        delta = np.zeros(n + 1, dtype=np.int64)
        delta[starts_p] += 1
        delta[stops_p] -= 1
        in_split = np.cumsum(delta[:-1]) > 0
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(prefix[1:], prefix[:-1], out=change[1:])
        run_starts = np.flatnonzero(change & in_split)
        child_keys = prefix[run_starts]
        owner = np.searchsorted(starts_p, run_starts, side="right") - 1
        run_stops = np.minimum(
            np.append(run_starts[1:], n), stops_p[owner]
        )

        base = len(boxes)
        ck = child_keys.tolist()
        lo = run_starts.tolist()
        hi = run_stops.tolist()
        pk = (child_keys >> 3).tolist()
        for k, s, e, p in zip(ck, lo, hi, pk):
            boxes.append(
                Box(
                    key=k,
                    level=child_level,
                    start=s,
                    stop=e,
                    parent=p,
                    children=[],
                    index=len(boxes),
                )
            )
        key_to_index.update(zip(ck, range(base, base + len(ck))))
        per_parent = np.bincount(owner, minlength=starts_p.size)
        off = 0
        for p_idx, c in zip(index_p.tolist(), per_parent.tolist()):
            boxes[p_idx].children = ck[off : off + c]
            off += c
        levels.append(list(range(base, base + len(ck))))

        cur_starts, cur_stops = run_starts, run_stops
        cur_index = np.arange(base, base + len(ck), dtype=np.int64)
        level = child_level

    return boxes, key_to_index, levels


def build_tree(
    points: np.ndarray,
    domain: Domain,
    threshold: int,
    weights: np.ndarray | None = None,
) -> Tree:
    """Build one adaptive octree.

    The points are sorted once by their level-``DEEP_LEVEL`` Morton key;
    every box then owns a contiguous slice of the sorted order, and
    whole levels of boxes are carved per array pass.
    """
    points = checked_points(points)
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    n = len(points)
    deep = encode_points(points, domain.origin, domain.size, DEEP_LEVEL)
    perm = np.argsort(deep, kind="stable")
    deep_sorted = deep[perm]
    points_sorted = points[perm]
    weights_sorted = None
    if weights is not None:
        weights_sorted = checked_weights(weights, n)[perm]

    COUNTERS["full_carves"] += 1
    boxes, key_to_index, levels = _carve_vectorized(deep_sorted, n, threshold)

    return Tree(
        domain=domain,
        points=points_sorted,
        weights=weights_sorted,
        perm=perm,
        boxes=boxes,
        key_to_index=key_to_index,
        levels=levels,
        threshold=threshold,
        deep_sorted=deep_sorted,
    )


def build_dual_tree(
    sources: np.ndarray,
    targets: np.ndarray,
    threshold: int,
    source_weights: np.ndarray | None = None,
    domain: Domain | None = None,
) -> DualTree:
    """Build the dual tree over the common domain of both ensembles.

    ``domain`` pins the root cube explicitly (a time-stepped session
    carves every step against one fixed domain so box keys stay
    comparable across steps); by default it is the bounding cube of the
    two ensembles.
    """
    if domain is None:
        # a non-finite coordinate must fail here, not become the domain
        domain = Domain.bounding(checked_points(sources), checked_points(targets))
    src = build_tree(sources, domain, threshold, weights=source_weights)
    tgt = build_tree(targets, domain, threshold)
    return DualTree(domain=domain, source=src, target=tgt, threshold=threshold)
