"""Kernel interface and expansion containers.

A :class:`Kernel` supplies the *analytic particle-side* operators of the
FMM in normalized (box-unit) coordinates:

* ``p2m``  - S->M: multipole coefficients of point sources,
* ``m2t``  - M->T: evaluate a multipole expansion at target points,
* ``p2l``  - S->L: local coefficients due to far point sources,
* ``l2t``  - L->T: evaluate a local expansion at target points,
* ``direct`` - S->T: direct pairwise evaluation,

plus the ingredients of the exponential (intermediate) representation
used by the merge-and-shift technique:

* ``expo_t(lam, scale)``  - decay rate t(lambda) of the plane wave,
* ``expo_weight(lam, scale)`` - Sommerfeld-integrand weight nu(lambda).

All *box-to-box* operators (M->M, M->L, L->L, M->I, I->L) are dense
linear maps constructed from these primitives by least-squares fitting
(:mod:`repro.kernels.fitops`), which is what keeps the framework
generic over kernels.

Coordinates passed to the expansion operators are *relative to the box
center and divided by the box edge length* ``scale``; ``scale`` itself
is passed alongside so scale-variant kernels (Yukawa) can recover
physical distances.  Returned potentials are in physical units.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.kernels.sphharm import Harmonics


def pair_distances(targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Euclidean distances between every target and every source: ``(T, S)``.

    ``sqrt((dx*dx + dy*dy) + dz*dz)`` on three ``(T, S)`` planes.  The
    association is the one ``np.linalg.norm(t[:, None] - s[None],
    axis=-1)`` uses for its length-3 reduction, so the result is
    bit-identical to it - without the ``(T, S, 3)`` temporary and the
    strided reduction over its last axis, which dominate the direct sum.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    d2 = targets[:, 0, None] - sources[None, :, 0]
    d2 *= d2
    d = targets[:, 1, None] - sources[None, :, 1]
    d *= d
    d2 += d
    np.subtract(targets[:, 2, None], sources[None, :, 2], out=d)
    d *= d
    d2 += d
    return np.sqrt(d2, out=d2)


@dataclass
class Expansion:
    """A series expansion attached to a box.

    ``kind`` is one of ``"M"`` (multipole), ``"L"`` (local) or ``"I"``
    (intermediate/exponential, per direction).  ``coeffs`` is the flat
    complex coefficient vector; ``scale`` is the edge length of the box
    the expansion is centred on.
    """

    kind: str
    coeffs: np.ndarray
    center: np.ndarray
    scale: float

    @property
    def nbytes(self) -> int:
        return self.coeffs.nbytes


class Kernel(ABC):
    """Base class for interaction kernels (Laplace, Yukawa, user-defined)."""

    #: short name used in reports and operator-cache keys
    name: str = "kernel"
    #: whether expansions/operators depend on the absolute box size
    scale_variant: bool = False

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("expansion order p must be >= 1")
        self.p = p
        self.harm = Harmonics(p)
        self.size = self.harm.size

    # -- direct interaction ------------------------------------------------
    @abstractmethod
    def greens(self, r: np.ndarray) -> np.ndarray:
        """Green's function value at distances ``r`` (``r == 0`` -> 0)."""

    def direct(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        chunk: int = 2048,
    ) -> np.ndarray:
        """S->T: exact pairwise potentials, chunked to bound memory."""
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        out = np.zeros(len(targets))
        for lo in range(0, len(targets), chunk):
            r = pair_distances(targets[lo : lo + chunk], sources)
            out[lo : lo + chunk] = self.greens(r) @ weights
        return out

    # -- spherical expansions (box units) ----------------------------------
    @abstractmethod
    def p2m_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        """Per-unit-charge multipole rows: (N, size) with
        ``p2m = q @ p2m_matrix``."""

    @abstractmethod
    def p2l_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        """Per-unit-charge local rows: (N, size) with
        ``p2l = q @ p2l_matrix``."""

    def p2m(self, rel: np.ndarray, q: np.ndarray, scale: float) -> np.ndarray:
        """Multipole coefficients of sources at ``rel`` (box units)."""
        return np.asarray(q) @ self.p2m_matrix(rel, scale)

    def p2l(self, rel: np.ndarray, q: np.ndarray, scale: float) -> np.ndarray:
        """Local coefficients due to far sources at ``rel`` (box units)."""
        return np.asarray(q) @ self.p2l_matrix(rel, scale)

    @abstractmethod
    def m2t_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        """Evaluation rows E with ``m2t = Re(E @ coeffs)``; shape (N, size)."""

    @abstractmethod
    def l2t_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        """Evaluation rows E with ``l2t = Re(E @ coeffs)``; shape (N, size)."""

    def m2t(self, coeffs: np.ndarray, rel: np.ndarray, scale: float) -> np.ndarray:
        """Evaluate a multipole expansion at points ``rel`` (box units)."""
        return (self.m2t_matrix(rel, scale) @ coeffs).real

    def l2t(self, coeffs: np.ndarray, rel: np.ndarray, scale: float) -> np.ndarray:
        """Evaluate a local expansion at points ``rel`` (box units)."""
        return (self.l2t_matrix(rel, scale) @ coeffs).real

    def l2t_rows(
        self, coeffs_rows: np.ndarray, rel: np.ndarray, scale: float
    ) -> np.ndarray:
        """Row-wise L->T: point ``i`` evaluates its own coefficient row."""
        return (self.l2t_matrix(rel, scale) * coeffs_rows).sum(axis=1).real

    def m2t_rows(
        self, coeffs_rows: np.ndarray, rel: np.ndarray, scale: float
    ) -> np.ndarray:
        """Row-wise M->T: point ``i`` evaluates its own coefficient row."""
        return (self.m2t_matrix(rel, scale) * coeffs_rows).sum(axis=1).real

    # -- gradients (forces) --------------------------------------------------
    def greens_gradient(self, d: np.ndarray) -> np.ndarray:
        """grad_target G for displacements ``d = target - source``;
        shape (..., 3), zero at coincident points.

        Default: numerical radial derivative of :meth:`greens` (valid
        for any radial kernel); concrete kernels override with the
        analytic form.
        """
        r = np.linalg.norm(d, axis=-1)
        safe = np.where(r > 0, r, 1.0)
        h = 1e-6 * safe
        dg = (self.greens(safe + h) - self.greens(safe - h)) / (2.0 * h)
        return np.where(r > 0, dg / safe, 0.0)[..., None] * d

    def direct_gradient(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        chunk: int = 2048,
    ) -> np.ndarray:
        """Exact field gradients at targets; shape (N, 3)."""
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        out = np.zeros((len(targets), 3))
        for lo in range(0, len(targets), chunk):
            t = targets[lo : lo + chunk]
            d = t[:, None, :] - sources[None, :, :]
            g = self.greens_gradient(d)  # (nt, ns, 3)
            out[lo : lo + chunk] = np.einsum("tsk,s->tk", g, weights)
        return out

    def _fd_gradient(self, eval_fn, coeffs, rel, scale: float, h: float = 1e-6):
        """Central-difference gradient of an expansion evaluation.

        The expansions are smooth (analytic) in the evaluation point, so
        a small central difference in box units reaches ~1e-9 relative
        accuracy - ample next to the expansion truncation error.  The
        1/scale converts the box-unit derivative to physical units.
        """
        rel = np.atleast_2d(rel)
        grad = np.empty((len(rel), 3))
        for ax in range(3):
            dp = rel.copy()
            dm = rel.copy()
            dp[:, ax] += h
            dm[:, ax] -= h
            grad[:, ax] = (eval_fn(coeffs, dp, scale) - eval_fn(coeffs, dm, scale)) / (
                2.0 * h * scale
            )
        return grad

    def l2t_gradient(self, coeffs: np.ndarray, rel: np.ndarray, scale: float) -> np.ndarray:
        """Gradient of a local expansion at points ``rel``; (N, 3)."""
        return self._fd_gradient(self.l2t, coeffs, rel, scale)

    def m2t_gradient(self, coeffs: np.ndarray, rel: np.ndarray, scale: float) -> np.ndarray:
        """Gradient of a multipole expansion at points ``rel``; (N, 3)."""
        return self._fd_gradient(self.m2t, coeffs, rel, scale)

    # -- exponential (intermediate) representation --------------------------
    def expo_t(self, lam: np.ndarray, scale: float) -> np.ndarray:
        """Decay rate t(lambda) of the plane-wave factor e^{-t z}."""
        raise NotImplementedError(f"{self.name} has no exponential representation")

    def expo_weight(self, lam: np.ndarray, scale: float) -> np.ndarray:
        """Sommerfeld-integrand weight nu(lambda) (before quadrature weight)."""
        raise NotImplementedError(f"{self.name} has no exponential representation")

    # -- operator-cache keying ----------------------------------------------
    def param_key(self) -> tuple:
        """Numeric kernel parameters the fitted operators depend on.

        Part of the operator-cache signature (sharing and disk
        persistence): kernels with constructor parameters that change
        the expansions (e.g. a screening length) must return them here
        unless :meth:`level_key` already folds them in.
        """
        return ()

    def level_key(self, scale: float):
        """Cache key component for fitted operators at a given box size.

        Scale-invariant kernels return ``None`` (one operator set serves
        every level); scale-variant kernels return a value derived from
        the physical box size so each level gets its own operators.
        """
        if not self.scale_variant:
            return None
        return round(float(scale), 12)
