"""Tree-shape fingerprints: the cache keys of the persistent layer.

Two levels of keying, both cheap CRC folds over the columnar box
tables:

* the **shape fingerprint** captures everything the interaction lists
  and the structural DAG depend on: the refinement threshold, the
  domain cube, and each tree's Morton keys and leaf mask.  Box *counts*
  are deliberately excluded - every box holds at least one point by
  construction, and neither the adjacency descent nor DAG wiring reads
  counts beyond "nonempty" - so a perturbation that moves points
  between leaves without changing the box structure keeps the shape
  fingerprint (and therefore the DAG template) valid.
* the **full fingerprint** extends the shape with the per-box counts.
  Anything that reads counts - per-point work estimates, locality cuts,
  S/T node sizes - must key on this one: a spliced tree with shifted
  counts shares the shape but not the workload.

Fingerprints are value keys, not identity keys: two independently built
trees over the same inputs collide on purpose (that is what lets a
worker process agree with the parent, and a re-built session agree with
its template cache).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.tree.dualtree import DualTree, Tree


def _crc(crc: int, arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)


def tree_shape_fingerprint(tree: Tree) -> int:
    """Shape key of one tree: threshold + domain + box keys + leaf mask."""
    a = tree.arrays
    crc = zlib.crc32(
        np.array(
            [tree.threshold, *np.asarray(tree.domain.origin, dtype=float).view(np.int64)],
            dtype=np.int64,
        ).tobytes()
    )
    crc = _crc(crc, np.array([tree.domain.size], dtype=float).view(np.int64))
    crc = _crc(crc, a.keys)
    crc = _crc(crc, a.leaf)
    return crc


def tree_full_fingerprint(tree: Tree) -> int:
    """Shape key + per-box counts (point distribution over the boxes)."""
    return _crc(tree_shape_fingerprint(tree), tree.arrays.counts)


def dual_shape_fingerprint(dual: DualTree) -> tuple[int, int]:
    """Shape key of a dual tree (source shape, target shape)."""
    return (
        tree_shape_fingerprint(dual.source),
        tree_shape_fingerprint(dual.target),
    )


def dual_full_fingerprint(dual: DualTree) -> tuple[int, int]:
    """Full key of a dual tree (source, target), counts included."""
    return (
        tree_full_fingerprint(dual.source),
        tree_full_fingerprint(dual.target),
    )


def geometry_token(*arrays: np.ndarray) -> int:
    """CRC over raw coordinate bytes: keys caches of *numeric* geometry.

    Shape and counts can survive a perturbation while the coordinates do
    not.  A session compares this token to tell a charge-only submit,
    which reuses every cached point-derived matrix (p2m rows, evaluation
    rows, greens chunks) as it is, from a drift, which patches them
    where points moved (:meth:`repro.dashmm.registrar.Registrar.rebind`).
    """
    crc = 0
    for a in arrays:
        crc = _crc(crc, np.asarray(a, dtype=float))
    return crc
