"""The scale-invariant Laplace kernel 1/r.

This is the typical potential of electrostatics or Newtonian
gravitation.  In box units (lengths divided by the box edge ``h``):

* multipole:  ``Phi(y) = (1/h) * sum_{n,m} M_n^m Ynm(y_hat) / rho_y^{n+1}``
  with ``M_n^m = sum_i q_i rho_i^n conj(Ynm(x_hat_i))``,
* local:      ``Phi(y) = (1/h) * sum_{n,m} L_n^m rho_y^n Ynm(y_hat)``
  with ``L_n^m = sum_i q_i conj(Ynm(x_hat_i)) / rho_i^{n+1}``,

both exact consequences of the Legendre addition theorem with the
normalized harmonics of :mod:`repro.kernels.sphharm`.

The exponential representation is the Lipschitz integral
``1/r = int_0^inf e^{-lam z} J_0(lam rho) dlam`` (z > 0), i.e.
``t(lam) = lam`` and ``nu(lam) = 1``; it is scale-invariant in box
units.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel


class LaplaceKernel(Kernel):
    """Laplace (Coulomb/Newton) interaction ``q / r``."""

    name = "laplace"
    scale_variant = False

    def greens(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        g = np.zeros_like(r)
        np.divide(1.0, r, out=g, where=r > 0)
        return g

    def greens_gradient(self, d: np.ndarray) -> np.ndarray:
        # grad_t 1/|d| = -d / |d|^3; |d| = 0 maps to r2 = inf so the
        # self-interaction gradient is exactly zero (d is the 0 vector)
        r2 = (d * d).sum(-1)
        safe = np.where(r2 > 0, r2, np.inf)
        return -d / (safe * np.sqrt(safe))[..., None]

    def p2m_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        return self.harm.powers(rho) * self.harm.ynm(rel).conj()

    def m2t_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        y = self.harm.ynm(rel)
        inv = self.harm.powers(1.0 / rho) / rho[:, None]  # rho^{-(n+1)}
        return (y * inv) / scale

    def p2l_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        inv = self.harm.powers(1.0 / rho) / rho[:, None]
        return inv * self.harm.ynm(rel).conj()

    def l2t_matrix(self, rel: np.ndarray, scale: float) -> np.ndarray:
        rel = np.atleast_2d(rel)
        rho = np.linalg.norm(rel, axis=-1)
        return (self.harm.ynm(rel) * self.harm.powers(rho)) / scale

    # exponential representation -------------------------------------------
    def expo_t(self, lam: np.ndarray, scale: float) -> np.ndarray:
        return np.asarray(lam, dtype=float)

    def expo_weight(self, lam: np.ndarray, scale: float) -> np.ndarray:
        return np.ones_like(np.asarray(lam, dtype=float))
