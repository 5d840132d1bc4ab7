"""Exponential quadrature generation: accuracy and scale-variance."""

import numpy as np
import pytest
from scipy.special import j0

from repro.kernels.quadrature import RHO_MAX, Z_RANGE, build_quadrature


def _check_accuracy(kernel, quad, scale, n=400, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.uniform(*Z_RANGE, n)
    rho = rng.uniform(0, RHO_MAX, n)
    approx = (
        quad.weights[None, :]
        * np.exp(-np.outer(z, quad.ts))
        * j0(np.outer(rho, quad.lams))
    ).sum(axis=1)
    exact = kernel.greens(np.sqrt(z**2 + rho**2) * scale) * scale
    return np.max(np.abs(approx - exact))


def test_laplace_accuracy(laplace):
    quad = build_quadrature(laplace, 0.5, eps=1e-4)
    assert _check_accuracy(laplace, quad, 0.5) < 5e-4


def test_yukawa_accuracy(yukawa):
    quad = build_quadrature(yukawa, 0.5, eps=1e-4)
    assert _check_accuracy(yukawa, quad, 0.5) < 5e-4


def test_laplace_scale_invariant(laplace):
    """Laplace rules are identical in box units at any physical scale."""
    q1 = build_quadrature(laplace, 0.5, eps=1e-4)
    q2 = build_quadrature(laplace, 4.0, eps=1e-4)
    assert np.allclose(q1.lams, q2.lams)
    assert np.allclose(q1.weights, q2.weights)


def test_yukawa_length_depends_on_scale(yukawa):
    """The scale-variant kernel's expansion length varies with depth
    (box size) - the paper's Section V.A observation."""
    shallow = build_quadrature(yukawa, 8.0, eps=1e-4)  # large kappa*h
    deep = build_quadrature(yukawa, 0.05, eps=1e-4)  # small kappa*h
    assert shallow.nterms != deep.nterms
    assert shallow.nterms < deep.nterms  # heavy damping needs fewer terms


def test_flat_layout_consistency(laplace):
    quad = build_quadrature(laplace, 0.5, eps=1e-3)
    # the rule carries the [0, pi) half of each node's full circle
    carried = quad.node_counts // 2
    assert quad.nterms == int(carried.sum()) == int(quad.node_counts.sum()) // 2
    assert len(quad.lam_f) == len(quad.t_f) == len(quad.w_f) == len(quad.cosa)
    # per-node flattened weights still sum to the node weight: each
    # carried term holds its conjugate partner's share too
    pos = 0
    for k, m in enumerate(carried):
        assert np.allclose(quad.w_f[pos : pos + m].sum(), quad.weights[k])
        ang = np.arctan2(quad.sina[pos : pos + m], quad.cosa[pos : pos + m])
        assert np.allclose(ang, 2.0 * np.pi * np.arange(m) / quad.node_counts[k])
        pos += m


def test_azimuthal_counts_even_and_bounded(laplace):
    quad = build_quadrature(laplace, 0.5, eps=1e-4)
    assert np.all(quad.node_counts % 2 == 0)  # full circle: partners pair up
    assert np.all(quad.node_counts >= 4)
    assert np.all(quad.node_counts <= 256)
    assert (quad.nnodes, quad.nterms) == (23, 313)


def test_tighter_eps_needs_more_nodes(laplace):
    loose = build_quadrature(laplace, 0.5, eps=1e-2)
    tight = build_quadrature(laplace, 0.5, eps=1e-5)
    assert tight.nnodes > loose.nnodes
    assert _check_accuracy(laplace, loose, 0.5) < 5e-2
    assert _check_accuracy(laplace, tight, 0.5) < 5e-5
