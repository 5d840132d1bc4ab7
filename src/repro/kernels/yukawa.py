"""The scale-variant Yukawa kernel exp(-lam r)/r (screened Coulomb).

With scipy's modified spherical Bessel conventions the pairing identity
is

    e^{-k|x-y|}/|x-y| = (2k/pi) * sum_{n,m} (2n+1) i_n(k r_<) k_n(k r_>)
                        * Ynm(x_hat) conj(Ynm(y_hat))

verified to machine precision in the test suite.  Because ``i_n`` and
``k_n`` have enormous dynamic range across orders, the stored
coefficients are rescaled per order by the values of the radial
functions at the box radius, so coefficient vectors stay O(1):

* multipole coeff n: ``M_n^m = (2k/pi)(2n+1) sum q i_n(k r_i)
  conj(Ynm) / i_n(k r_b)`` with ``r_b`` the box half-diagonal;
  evaluation multiplies back ``i_n(k r_b) k_n(k r_y)``.
* local coeff n: scaled by ``k_n(k r_b)`` analogously.

Because the scaling depends on the physical box size, the fitted
translation operators are per-level ("the length of the intermediate
expansion depends on the depth in the hierarchy" - the paper's
scale-variance note).

The exponential representation is the Sommerfeld identity

    e^{-k r}/r = int_0^inf (lam/t) e^{-t z} J_0(lam rho) dlam,
    t = sqrt(lam^2 + k^2),   (z > 0)

so ``expo_t = sqrt(lam^2 + (k*scale)^2)`` and ``expo_weight = lam/t`` in
box units.
"""

from __future__ import annotations

import numpy as np
from scipy.special import spherical_in, spherical_kn

_BOX_RADIUS = np.sqrt(3.0) / 2.0  # half-diagonal of a unit box

from repro.kernels.base import Kernel


class YukawaKernel(Kernel):
    """Yukawa (screened Coulomb) interaction ``q e^{-lam r} / r``."""

    name = "yukawa"
    scale_variant = True

    def __init__(self, p: int, lam: float = 1.0):
        super().__init__(p)
        if lam <= 0:
            raise ValueError("Yukawa screening parameter lam must be > 0")
        self.lam = float(lam)

    def greens(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        g = np.zeros_like(r)
        with np.errstate(over="ignore"):
            np.divide(np.exp(-self.lam * r), r, out=g, where=r > 0)
        return g

    def greens_gradient(self, d: np.ndarray) -> np.ndarray:
        # grad_t e^{-k|d|}/|d| = -(1 + k|d|) e^{-k|d|} d / |d|^3
        r = np.linalg.norm(d, axis=-1)
        safe = np.where(r > 0, r, 1.0)
        factor = np.where(
            r > 0, (1.0 + self.lam * safe) * np.exp(-self.lam * safe) / safe**3, 0.0
        )
        return -factor[..., None] * d

    # -- per-order scaling -------------------------------------------------
    def _box_scales(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """(i_n(k r_b), k_n(k r_b)) per flat index, r_b = box half-diagonal."""
        zb = self.lam * scale * _BOX_RADIUS
        n = np.arange(self.p + 1)
        i_b = spherical_in(n, zb)
        k_b = spherical_kn(n, zb)
        return i_b[self.harm.ns], k_b[self.harm.ns]

    def _radials(self, fn, rho: np.ndarray, scale: float) -> np.ndarray:
        """fn(n, k*r_phys) for all orders; shape (N, size)."""
        z = self.lam * scale * np.asarray(rho, dtype=float)
        n = np.arange(self.p + 1)
        vals = fn(n[None, :], z[:, None])  # (N, p+1)
        return vals[:, self.harm.ns]

    def p2m_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        y = self.harm.ynm(rel).conj()
        i_vals = self._radials(spherical_in, rho, scale)
        i_b, _ = self._box_scales(scale)
        pref = (2.0 * self.lam / np.pi) * (2 * self.harm.ns + 1)
        return (pref / i_b) * i_vals * y

    def m2t_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        y = self.harm.ynm(rel)
        k_vals = self._radials(spherical_kn, rho, scale)
        i_b, _ = self._box_scales(scale)
        return y * k_vals * i_b

    def p2l_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        y = self.harm.ynm(rel).conj()
        k_vals = self._radials(spherical_kn, rho, scale)
        _, k_b = self._box_scales(scale)
        pref = (2.0 * self.lam / np.pi) * (2 * self.harm.ns + 1)
        return (pref / k_b) * k_vals * y

    def l2t_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        y = self.harm.ynm(rel)
        i_vals = self._radials(spherical_in, rho, scale)
        _, k_b = self._box_scales(scale)
        return y * i_vals * k_b

    # exponential representation -------------------------------------------
    def expo_t(self, lam: np.ndarray, scale: float) -> np.ndarray:
        kh = self.lam * scale
        return np.sqrt(np.asarray(lam, dtype=float) ** 2 + kh * kh)

    def expo_weight(self, lam: np.ndarray, scale: float) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        return lam / self.expo_t(lam, scale)

    def param_key(self) -> tuple:
        return (self.lam,)

    def level_key(self, scale: float):
        return round(float(self.lam * scale), 12)
