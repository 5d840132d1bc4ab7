"""Box geometry and the computational domain.

The *domain* is the smallest cube containing both ensembles (Section
II).  Boxes are identified by Morton keys; geometric quantities (center,
size, radius) derive from the key and the domain.

Well-separatedness follows the paper: box ``A`` is well-separated from
box ``B`` if the distance between their centers exceeds a
``beta``-dilation of A's radius, where ``beta`` depends on the
dimension.  For the standard 3-D FMM on a uniform lattice this reduces
to "not adjacent at the same level": boxes whose lattice coordinates
differ by more than one in some axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tree.morton import decode_morton

#: Dilation factor for well-separatedness in 3-D.  Two same-level boxes
#: with unit size whose centers are >= 2 apart in some axis satisfy
#: ``dist(centers) >= 2 > beta * radius`` with ``radius = sqrt(3)/2``.
BETA_3D = 2.0 / (np.sqrt(3.0) / 2.0)  # ~2.309


@dataclass(frozen=True)
class Domain:
    """The root cube: ``origin`` corner and edge ``size``."""

    origin: np.ndarray
    size: float

    @staticmethod
    def bounding(*point_sets: np.ndarray, pad: float = 1e-9) -> "Domain":
        """Smallest cube containing all given (N, 3) point sets.

        A tiny relative pad keeps boundary points strictly inside so
        floor-based bucketing is stable.
        """
        stacked = np.vstack([np.asarray(p, dtype=float) for p in point_sets])
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        size = float((hi - lo).max())
        if size == 0.0:
            size = 1.0
        size *= 1.0 + pad
        center = (lo + hi) / 2.0
        origin = center - size / 2.0
        return Domain(origin=origin, size=size)

    def box_size(self, level: int) -> float:
        """Edge length of a level-``level`` box."""
        return self.size / (1 << level)

    def box_center(self, key: int) -> np.ndarray:
        """Center of the box with Morton key ``key``."""
        level, ix, iy, iz = decode_morton(key)
        h = self.box_size(level)
        return self.origin + h * (np.array([ix, iy, iz], dtype=float) + 0.5)

    def box_centers(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`box_center`: one ``(3,)`` row per key, keys of
        any mix of levels, bit-identical to the scalar version (an empty
        key array gives a ``(0, 3)`` array)."""
        level, ix, iy, iz = decode_morton(np.asarray(keys, dtype=np.int64))
        h = self.size / (1 << level).astype(float)
        idx = np.stack([ix, iy, iz], axis=-1).astype(float)
        return self.origin + (h[:, None] * (idx + 0.5))

    def box_radius(self, level: int) -> float:
        """Half-diagonal of a level-``level`` box."""
        return self.box_size(level) * np.sqrt(3.0) / 2.0


@dataclass
class Box:
    """A node of one tree: geometry plus the slice of points it owns.

    Points are stored once per tree in Morton order; each box holds the
    half-open index range ``[start, stop)`` of the points inside it.
    """

    key: int
    level: int
    start: int
    stop: int
    parent: int | None
    children: list[int]
    index: int  # position in the tree's box table

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def count(self) -> int:
        return self.stop - self.start


def lattice_coords(key: int) -> tuple[int, int, int]:
    """Integer lattice coordinates of a box key."""
    _, ix, iy, iz = decode_morton(key)
    return ix, iy, iz


def well_separated(key_a: int, key_b: int) -> bool:
    """Same-level well-separatedness: lattice distance > 1 in some axis."""
    la, ax, ay, az = decode_morton(key_a)
    lb, bx, by, bz = decode_morton(key_b)
    if la != lb:
        raise ValueError("well_separated expects same-level keys")
    return max(abs(ax - bx), abs(ay - by), abs(az - bz)) > 1


def well_separated_levels(domain: Domain, key_a: int, key_b: int) -> bool:
    """General (cross-level) well-separatedness test per the paper.

    ``A`` is well-separated from ``B`` when the distance between their
    centers exceeds ``BETA_3D`` times A's radius.  With ``BETA_3D =
    2/(sqrt(3)/2)`` face neighbours two cells apart sit *exactly* at the
    dilation boundary, so the comparison carries a relative tolerance to
    make the definition agree with the standard lattice rule there.
    """
    la, *_ = decode_morton(key_a)
    ca = domain.box_center(key_a)
    cb = domain.box_center(key_b)
    threshold = BETA_3D * domain.box_radius(la)
    return float(np.linalg.norm(ca - cb)) > threshold * (1.0 - 1e-9)
