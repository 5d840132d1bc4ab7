"""Tree-shape fingerprints: the cache keys of the persistent layer.

Collision-resistant digests (BLAKE2b, 256 bits) over the columnar box
tables:

* the **shape fingerprint** captures everything the interaction lists
  and the structural DAG depend on: the refinement threshold, the
  domain cube, and each tree's Morton keys and leaf mask.  With the
  two point counts it is the tree half of a template key
  (:class:`repro.dashmm.service.TemplateStore`).
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

A key must tell shapes apart, not just usually: a store that took two
shapes for one would rebind a registrar to a tree of another shape.  So
the keys are cryptographic digests, not checksums - a CRC-32 is linear
over GF(2), and flipping a dependent set of key bits forges a collision
at will.

Fingerprints are value keys, not identity keys: two independently built
trees over the same inputs collide on purpose (that is what lets a
worker process agree with the parent, and a re-built session agree with
its template cache).  Coordinates are never fingerprinted: a charge-only
submission is recognised by comparing them byte for byte.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.tree.dualtree import DualTree, Tree


def _digest(*parts) -> bytes:
    """BLAKE2b-256 of the parts' bytes, each prefixed by its length."""
    h = hashlib.blake2b(digest_size=32)
    for part in parts:
        data = np.ascontiguousarray(part).tobytes()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.digest()


def tree_shape_fingerprint(tree: Tree) -> bytes:
    """Shape key of one tree: threshold + domain + box keys + leaf mask."""
    a = tree.arrays
    domain = np.array([*np.asarray(tree.domain.origin, dtype=float), tree.domain.size], dtype=float)
    return _digest(np.array([tree.threshold], dtype=np.int64), domain, a.keys, a.leaf)


def tree_full_fingerprint(tree: Tree) -> bytes:
    """Shape key + per-box counts (point distribution over the boxes)."""
    return _digest(tree_shape_fingerprint(tree), tree.arrays.counts)


def dual_shape_fingerprint(dual: DualTree) -> tuple[bytes, bytes]:
    """Shape key of a dual tree (source shape, target shape)."""
    return (
        tree_shape_fingerprint(dual.source),
        tree_shape_fingerprint(dual.target),
    )


def dual_full_fingerprint(dual: DualTree) -> tuple[bytes, bytes]:
    """Full key of a dual tree (source, target), counts included."""
    return (
        tree_full_fingerprint(dual.source),
        tree_full_fingerprint(dual.target),
    )
