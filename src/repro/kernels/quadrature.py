"""Numerically generated quadratures for the exponential representation.

The merge-and-shift technique rests on the Sommerfeld-type integral

    G(x) = int_0^inf nu(lam) e^{-t(lam) z} J_0(lam rho) dlam,   z > 0,

(Lipschitz for Laplace: t = lam, nu = 1; Sommerfeld for Yukawa:
t = sqrt(lam^2 + kappa^2), nu = lam/t).  The paper's FMM uses the
optimized generalized-Gaussian rules of Cheng-Greengard-Rokhlin; those
node tables are not reproducible offline, so we generate near-optimal
rules numerically:

1. lay down a dense composite Gauss-Legendre candidate grid in lambda,
2. select a small subset of nodes by column-pivoted QR ("empirical
   interpolation") of the matrix of candidate basis functions
   ``e^{-t z} J_0(lam rho)`` sampled over the translation geometry,
3. re-fit the weights by least squares against the exact kernel,
4. choose the (even) number ``M_k`` of equispaced azimuthal points per
   node by directly testing the trapezoid rule's error in reproducing
   J_0,
5. carry only the ``M_k/2`` azimuths in ``[0, pi)``, with doubled
   weights.  Azimuths ``a`` and ``a + pi`` of one node give
   complex-conjugate exponentials, so for *real* charges the partner's
   amplitude is the conjugate of the carried one through every stage of
   P->W -> I->I, and the full-circle sum is twice the real part of the
   half-circle sum.  Every consumer of plane-wave amplitudes ends in a
   real part (``w2t``, and L->T behind I->L), so the half rule
   reproduces the kernel unchanged; the amplitudes themselves are
   meaningful only under that real part, and only for real charges.
   The one stage that is not elementwise in the terms, the fit of I->L,
   restores the partners' contribution itself
   (:meth:`repro.kernels.fitops.OperatorFactory._fit_i2l_family`).

The resulting rules are somewhat longer than the paper's optimal ones
(documented in DESIGN.md); the cost model uses paper-calibrated message
sizes so the simulated runs keep the paper's communication profile.

The standard translation geometry, in units of the box edge, is
``z in [1, 4]`` and ``rho <= 4*sqrt(2)`` (same-level list-2 boxes,
direction assigned to the axis of largest separation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr
from scipy.special import j0, roots_legendre

#: default geometry of a list-2 exponential translation, in box units
Z_RANGE = (1.0, 4.0)
RHO_MAX = 4.0 * np.sqrt(2.0)


@dataclass
class ExpoQuadrature:
    """A discretized exponential representation, flattened over terms.

    The representation is ``G(u) ~ Re sum_f w[f] e^{-t[f] u_z}
    e^{i lam[f] (u_x cosa[f] + u_y sina[f])}`` where ``f`` runs over the
    carried (node, azimuth) pairs: the azimuths in ``[0, pi)`` of each
    node's full-circle trapezoid rule.  ``node_counts[k]`` is the (even)
    full-circle count ``M_k`` of lambda-node ``k``, of which ``M_k/2``
    terms are carried.
    """

    lams: np.ndarray  # (s,) lambda nodes
    weights: np.ndarray  # (s,) fitted weights (include nu(lam))
    node_counts: np.ndarray  # (s,) full-circle azimuthal points per node (even)
    ts: np.ndarray  # (s,) decay rates t(lam)
    # flattened per-term arrays
    lam_f: np.ndarray
    t_f: np.ndarray
    w_f: np.ndarray  # weights[k] / (node_counts[k] / 2): partner's share included
    cosa: np.ndarray
    sina: np.ndarray
    eps: float

    @property
    def nterms(self) -> int:
        return len(self.lam_f)

    @property
    def nnodes(self) -> int:
        return len(self.lams)


def _candidate_nodes(lam_max: float, rho_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre grid dense enough to resolve J_0."""
    panel = min(1.0, 2.0 * np.pi / max(rho_max, 1.0) / 2.0)
    n_panels = max(4, int(np.ceil(lam_max / panel)))
    xg, wg = roots_legendre(8)
    edges = np.linspace(0.0, lam_max, n_panels + 1)
    lams, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = (b - a) / 2.0
        lams.append((a + b) / 2.0 + half * xg)
        ws.append(half * wg)
    return np.concatenate(lams), np.concatenate(ws)


def _azimuth_count(lam: float, rho_max: float, tol: float, cap: int = 256) -> int:
    """Smallest even M with trapezoid error below tol for J_0(lam rho)."""
    rho = np.linspace(0.0, rho_max, 40)
    exact = j0(lam * rho)
    m = max(4, 2 * int(np.ceil(lam * rho_max / np.pi / 2.0)))
    while m <= cap:
        a = 2.0 * np.pi * np.arange(m) / m
        approx = np.mean(np.cos(lam * np.outer(rho, np.cos(a))), axis=1)
        # trapezoid of e^{i lam rho cos a}; imaginary part integrates to 0
        if np.max(np.abs(approx - exact)) < tol:
            return m
        m += 2
    return cap


def build_quadrature(
    kernel,
    scale: float,
    eps: float = 1e-4,
    z_range: tuple[float, float] = Z_RANGE,
    rho_max: float = RHO_MAX,
    max_nodes: int = 40,
) -> ExpoQuadrature:
    """Generate an exponential quadrature for ``kernel`` at box size ``scale``.

    Accuracy ``eps`` is an absolute tolerance on the box-unit kernel over
    the translation geometry (the kernel there is O(1), so this is also
    roughly relative).
    """
    zmin, zmax = z_range
    lam_max = (np.log(1.0 / eps) + 3.0) / zmin
    cand_lam, cand_w = _candidate_nodes(lam_max, rho_max)
    nu = kernel.expo_weight(cand_lam, scale)
    t = kernel.expo_t(cand_lam, scale)

    # Sample the translation geometry.
    zs = np.linspace(zmin, zmax, 24)
    rhos = np.linspace(0.0, rho_max, 26)
    Z, R = np.meshgrid(zs, rhos, indexing="ij")
    z_s, rho_s = Z.ravel(), R.ravel()
    # candidate basis matrix and exact right-hand side (box units); the
    # least-squares weight fit absorbs the candidate quadrature weights
    # and the integrand factor nu, so columns are bare basis functions
    # (scaled by cand_w*nu only to guide the QR pivoting toward nodes
    # that matter for the integral).
    A = (cand_w * nu)[None, :] * np.exp(-np.outer(z_s, t)) * j0(
        np.outer(rho_s, cand_lam)
    )
    r_s = np.sqrt(z_s**2 + rho_s**2)
    b = kernel.greens(r_s * scale) * scale  # physical -> box units

    # Empirical interpolation: pick nodes by column-pivoted QR, growing
    # the subset until the least-squares residual beats eps.
    _, _, piv = qr(A, mode="economic", pivoting=True)
    best = None
    for s in range(4, min(max_nodes, len(piv)) + 1):
        cols = piv[:s]
        sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
        resid = np.max(np.abs(A[:, cols] @ sol - b))
        best = (cols, sol, resid)
        if resid < eps * 0.5:
            break
    cols, sol, resid = best
    order = np.argsort(cand_lam[cols])
    lams = cand_lam[cols][order]
    # effective weight of node k is sol_k times the prefactor baked into
    # its column of A
    weights = (sol * cand_w[cols] * nu[cols])[order]
    ts = t[cols][order]

    # azimuthal counts: tolerate more error on weakly weighted nodes
    counts = []
    for lam_k, w_k, t_k in zip(lams, weights, ts):
        damp = abs(w_k) * np.exp(-t_k * zmin)
        tol_k = eps / max(len(lams) * damp, 1e-12)
        counts.append(_azimuth_count(lam_k, rho_max, min(0.3, tol_k)))
    counts = np.array(counts, dtype=int)

    # carry the [0, pi) half of each node's circle; the doubled weight
    # stands in for the conjugate partner at a + pi
    half = counts // 2
    lam_f = np.repeat(lams, half)
    t_f = np.repeat(ts, half)
    w_f = np.repeat(weights / half, half)
    ang = np.concatenate([2.0 * np.pi * np.arange(m // 2) / m for m in counts])
    return ExpoQuadrature(
        lams=lams,
        weights=weights,
        node_counts=counts,
        ts=ts,
        lam_f=lam_f,
        t_f=t_f,
        w_f=w_f,
        cosa=np.cos(ang),
        sina=np.sin(ang),
        eps=eps,
    )
