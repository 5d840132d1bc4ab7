"""Adaptive hierarchical partitioning and the dual tree (Section II).

A :class:`Tree` is built per ensemble by sorting the points along a
deep Morton curve once and then carving contiguous key ranges into
boxes top-down.  A box is refined while it holds more points than the
refinement *threshold*; empty children are pruned.  The
:class:`DualTree` pairs the source and target trees over the shared
domain; the ensembles may be identical, partially overlapping, or
disjoint.

A tree *is* its columns: :func:`carve` turns the sorted deep keys into
a :class:`TreeArrays` box table in whole-array passes, one per level
(shifted-prefix run detection plus ``searchsorted`` range splits), and
builds no per-box object.  :attr:`Tree.boxes` is a read-only per-box
view of those columns, built on first use.  The per-box refinement the
paper describes is the oracle the array carve is property-tested
against, column for column (``carve_reference`` in
``tests/reference_chain.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from repro.tree.box import Box, Domain
from repro.tree.morton import MAX_LEVEL, decode_morton, encode_points

#: Depth of the space-filling curve used for the one-time sort.  Boxes
#: never refine past this level; duplicate points therefore cannot force
#: unbounded recursion.
DEEP_LEVEL = MAX_LEVEL

#: Instrumentation for the persistent-evaluation layer: how many times a
#: key sequence was carved into boxes (cold builds and the recarves of
#: :func:`repro.tree.incremental.update_tree` alike).  The warm-path
#: guarantee of :class:`repro.dashmm.service.EvaluatorSession` - a
#: repeat submit with an unchanged shape does *zero* carving - is
#: asserted against it.
COUNTERS = {"full_carves": 0}


@dataclass
class TreeArrays:
    """A tree's box table as columns (one row per box): what a tree is.

    Rows are level-major, ascending run start (equivalently ascending
    key) within a level, so ``child_lo:child_hi`` is the contiguous row
    range of a box's children (``0:0`` for a leaf).  Decoded lattice
    coordinates are computed once per tree, so setup passes (adjacency,
    interaction lists, DAG assembly) never re-decode Morton keys
    pairwise.
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
    arrays:
        The box table as columns; row 0 is the root.
    threshold:
        The refinement threshold used to build the tree.

    ``boxes``, ``key_to_index`` and ``levels`` are read-only views of
    ``arrays``, built on first use for the tests and the setup
    benchmarks; the setup and execution pipeline reads the columns.
    """

    domain: Domain
    points: np.ndarray
    weights: np.ndarray | None
    perm: np.ndarray
    arrays: TreeArrays
    threshold: int = 0
    #: sorted deep Morton keys of the points; retained so the
    #: incremental updater can diff a perturbed ensemble against the
    #: exact key sequence this tree was carved from
    deep_sorted: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return int(self.arrays.levels[-1])

    @property
    def n_points(self) -> int:
        return len(self.points)

    @cached_property
    def leaf_indices(self) -> np.ndarray:
        """Box table indices of the leaves, cached at first use."""
        return np.flatnonzero(self.arrays.leaf)

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        """One read-only :class:`Box` per row of :attr:`arrays`."""
        a = self.arrays
        keys = a.keys.tolist()
        parents = [keys[p] if p >= 0 else None for p in a.parent.tolist()]
        children = [tuple(keys[lo:hi]) for lo, hi in zip(a.child_lo.tolist(), a.child_hi.tolist())]
        rows = (a.levels, a.starts, a.stops)
        return tuple(map(Box, keys, *(r.tolist() for r in rows), parents, children, range(len(keys))))

    @cached_property
    def key_to_index(self) -> MappingProxyType:
        """Morton key -> box table index (read-only)."""
        return MappingProxyType(dict(zip(self.arrays.keys.tolist(), range(len(self.arrays.keys)))))

    @cached_property
    def levels(self) -> tuple[range, ...]:
        """``levels[l]``: the box indices at level ``l`` (rows are
        level-major, so each is a range)."""
        bounds = np.searchsorted(self.arrays.levels, np.arange(self.depth + 2)).tolist()
        return tuple(range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))

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


def carve(deep_sorted: np.ndarray, n: int, threshold: int) -> TreeArrays:
    """The box table of ``n`` points with sorted deep keys
    ``deep_sorted``, carved level by level in whole-array passes.

    Every box at level ``l`` is a maximal run of equal level-``l`` key
    prefixes inside its parent's range.  One level is carved with three
    array passes: a run-boundary scan of the shifted prefixes restricted
    to the over-threshold parent ranges, a ``searchsorted`` to attribute
    each run to its parent (its *owner*), and a clipped shift to find
    run stops.  The owners give each child its parent row and each
    parent its children's row range.  The table is bit-identical to the
    per-box reference carve.
    """
    COUNTERS["full_carves"] += 1
    keys = [np.array([1], dtype=np.int64)]
    starts = [np.array([0], dtype=np.int64)]
    stops = [np.array([n], dtype=np.int64)]
    parent = [np.array([-1], dtype=np.int64)]
    families = []  # (parent rows, their first child row, their child count)

    cur_index = np.array([0], dtype=np.int64)
    base = 1
    level = 0
    while level < DEEP_LEVEL:
        cur_starts, cur_stops = starts[-1], stops[-1]
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
        owner = np.searchsorted(starts_p, run_starts, side="right") - 1
        per_parent = np.bincount(owner, minlength=starts_p.size)

        keys.append(prefix[run_starts])
        starts.append(run_starts)
        stops.append(np.minimum(np.append(run_starts[1:], n), stops_p[owner]))
        parent.append(index_p[owner])
        families.append((index_p, base + np.cumsum(per_parent) - per_parent, per_parent))

        cur_index = np.arange(base, base + run_starts.size, dtype=np.int64)
        base += run_starts.size
        level = child_level

    keys = np.concatenate(keys)
    starts = np.concatenate(starts)
    stops = np.concatenate(stops)
    child_lo = np.zeros(base, dtype=np.int64)
    child_hi = np.zeros(base, dtype=np.int64)
    for rows, first, count in families:
        child_lo[rows] = first
        child_hi[rows] = first + count
    levels, ix, iy, iz = decode_morton(keys)
    return TreeArrays(
        keys=keys,
        levels=levels,
        ix=ix,
        iy=iy,
        iz=iz,
        leaf=child_lo == child_hi,
        parent=np.concatenate(parent),
        counts=stops - starts,
        starts=starts,
        stops=stops,
        child_lo=child_lo,
        child_hi=child_hi,
    )


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

    return Tree(
        domain=domain,
        points=points_sorted,
        weights=weights_sorted,
        perm=perm,
        arrays=carve(deep_sorted, n, threshold),
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
    if targets is sources:
        # one ensemble on both sides: the same keys, sort and boxes
        tgt = Tree(
            domain=domain,
            points=checked_points(targets)[src.perm],
            weights=None,
            perm=src.perm,
            arrays=src.arrays,
            threshold=threshold,
            deep_sorted=src.deep_sorted,
        )
    else:
        tgt = build_tree(targets, domain, threshold)
    return DualTree(domain=domain, source=src, target=tgt, threshold=threshold)
