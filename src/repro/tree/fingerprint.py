"""Tree-shape fingerprints: the cache keys of the persistent layer.

Cheap CRC folds over the columnar box tables:

* the **shape fingerprint** captures everything the interaction lists
  and the structural DAG depend on: the refinement threshold, the
  domain cube, and each tree's Morton keys and leaf mask.  It is the
  tree half of a template key (:class:`repro.dashmm.service.TemplateStore`).
  Box *counts* are deliberately excluded - every box holds at least
  one point by construction, and neither the adjacency descent nor DAG
  wiring reads counts beyond "nonempty" - so a perturbation that moves
  points between leaves keeps the template; whether a leaf's count
  moved, and where coordinates moved, the template's registrar learns
  from diffing its own previous tree
  (:meth:`repro.dashmm.registrar.Registrar.rebind`), not from a key.
* the **full fingerprint** extends the shape with the per-box counts,
  for what reads counts and caches across trees (the distribution
  policy's work-balance cuts).

Fingerprints are value keys, not identity keys: two independently built
trees over the same inputs collide on purpose (that is what lets a
worker process agree with the parent, and a re-built session agree with
its template cache).  Coordinates are never fingerprinted: a charge-only
submission is recognised by comparing them byte for byte.
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

