"""Exponential (intermediate) expansions and their analytic operators.

An intermediate expansion is a vector of plane-wave amplitudes over the
flattened quadrature terms of :class:`repro.kernels.quadrature.ExpoQuadrature`,
attached to one of six axis directions.  For direction ``d`` with
orthonormal frame ``(e1, e2, d)`` and source/target coordinates
``u = frame @ x`` (box units):

* *outgoing* amplitudes of a source box (P->W, analytic):
  ``W_f = sum_i q_i (w_f/scale) e^{+t_f u_z,i} e^{-i lam_f (u_x,i cos a_f
  + u_y,i sin a_f)}``
* *I->I translation* by offset Delta (diagonal, the cheap operation the
  paper measures at 1.75 us):
  ``V_f = W_f * e^{-t_f D_z} e^{+i lam_f (D_x cos a_f + D_y sin a_f)}``
* *evaluation* of incoming amplitudes at target points (W->T, analytic):
  ``Phi(y) = Re sum_f V_f e^{-t_f u_z,y} e^{+i lam_f (u_x,y cos a_f +
  u_y,y sin a_f)}``

The composition P->W -> I->I -> W->T reproduces the kernel for any pair
of points whose separation along ``d`` lies in the quadrature's design
range; this is asserted in the test suite for both kernels.  The
box-to-box operators M->I and I->L are least-squares fits against these
analytic primitives (see :mod:`repro.kernels.fitops`).

The quadrature carries only the azimuths in ``[0, pi)`` of each
lambda-node, with doubled weights ``w_f``
(:mod:`repro.kernels.quadrature`): the term at ``a_f + pi`` is the
complex conjugate of the carried one at every stage above, provided the
charges ``q_i`` are real.  Amplitudes are therefore meaningful only
under the real part that ends every chain (``w2t`` here, L->T behind
I->L), and only for real charges - which the tree layer checks on input.
The functions of this module are elementwise in ``f`` and know nothing
of the partners.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.quadrature import ExpoQuadrature

#: The six translation directions, in a fixed order used throughout the
#: DAG: +z, -z, +x, -x, +y, -y (the paper's up/down/north/south/east/west).
DIRECTIONS = ("+z", "-z", "+x", "-x", "+y", "-y")

_FRAMES = {
    "+z": np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
    "-z": np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
    "+x": np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]]),
    "-x": np.array([[0, -1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]]),
    "+y": np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0]]),
    "-y": np.array([[0, 0, -1.0], [1.0, 0, 0], [0, -1.0, 0]]),
}


def frame(direction: str) -> np.ndarray:
    """Orthonormal frame rows (e1, e2, d) for a direction label."""
    return _FRAMES[direction]


def assign_direction(delta) -> str:
    """Direction label for a list-2 offset: the axis of largest |delta|.

    Ties break in axis order z, x, y so the assignment is deterministic.
    """
    dx, dy, dz = (float(v) for v in delta)
    ax = {"z": abs(dz), "x": abs(dx), "y": abs(dy)}
    best = max(("z", "x", "y"), key=lambda a: ax[a])
    value = {"z": dz, "x": dx, "y": dy}[best]
    return ("+" if value > 0 else "-") + best


def p2w_matrix(
    quad: ExpoQuadrature,
    direction: str,
    rel: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Per-unit-charge outgoing amplitude rows: ``p2w = q @ p2w_matrix``."""
    u = np.atleast_2d(rel) @ frame(direction).T
    phase = np.exp(
        np.outer(u[:, 2], quad.t_f)
        - 1j * (np.outer(u[:, 0], quad.lam_f * quad.cosa) + np.outer(u[:, 1], quad.lam_f * quad.sina))
    )
    return phase * (quad.w_f / scale)


def p2w(
    quad: ExpoQuadrature,
    direction: str,
    rel: np.ndarray,
    q: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Outgoing plane-wave amplitudes of sources at ``rel`` (box units)."""
    return np.asarray(q) @ p2w_matrix(quad, direction, rel, scale)


def w2t(
    quad: ExpoQuadrature,
    direction: str,
    amps: np.ndarray,
    rel: np.ndarray,
) -> np.ndarray:
    """Evaluate incoming amplitudes at target points ``rel`` (box units)."""
    u = np.atleast_2d(rel) @ frame(direction).T
    phase = np.exp(
        -np.outer(u[:, 2], quad.t_f)
        + 1j * (np.outer(u[:, 0], quad.lam_f * quad.cosa) + np.outer(u[:, 1], quad.lam_f * quad.sina))
    )
    return (phase @ amps).real


def i2i_factor(quad: ExpoQuadrature, direction: str, delta: np.ndarray) -> np.ndarray:
    """Diagonal translation factors for a center offset ``delta`` (box units)."""
    u = frame(direction) @ np.asarray(delta, dtype=float)
    return np.exp(
        -quad.t_f * u[2] + 1j * quad.lam_f * (u[0] * quad.cosa + u[1] * quad.sina)
    )


def i2i_tables(quad: ExpoQuadrature, kmax: int, zmax: int) -> tuple:
    """The separable pieces of :func:`i2i_factor` at integer coordinates.

    With ``u_s``, ``u_t`` the lattice coordinates of the source and the
    target box in the direction's frame, the factor at ``u_t - u_s`` is
    ``P(u_t) * P(-u_s) * Z[u_t,z - u_s,z]`` where ``P(u) = X[kmax + u_x]
    * Y[kmax + u_y]``: ``X`` and ``Y`` hold one row of unit-modulus
    phases per transverse coordinate in ``[-kmax, kmax]``, ``Z`` one row
    of decays per axial offset in ``[0, zmax]``.  None of them depends
    on a direction, on the box geometry or on the charges.
    """
    k = np.arange(-kmax, kmax + 1)[:, None]
    x = np.exp(1j * k * (quad.lam_f * quad.cosa))
    y = np.exp(1j * k * (quad.lam_f * quad.sina))
    z = np.exp(-np.arange(zmax + 1)[:, None] * quad.t_f)
    return x, y, z
