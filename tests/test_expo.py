"""Plane-wave (intermediate expansion) operators: frames, P2W/I2I/W2T."""

import numpy as np
import pytest

from repro.kernels.expo import (
    DIRECTIONS,
    assign_direction,
    frame,
    i2i_factor,
    p2w,
    p2w_matrix,
    w2t,
)
from repro.kernels.quadrature import build_quadrature

RNG = np.random.default_rng(7)


def test_frames_are_orthonormal():
    for d in DIRECTIONS:
        F = frame(d)
        assert np.allclose(F @ F.T, np.eye(3))


def test_frame_third_row_is_direction():
    signs = {"+": 1.0, "-": -1.0}
    axes = {"x": 0, "y": 1, "z": 2}
    for d in DIRECTIONS:
        v = np.zeros(3)
        v[axes[d[1]]] = signs[d[0]]
        assert np.allclose(frame(d)[2], v)


def test_assign_direction():
    assert assign_direction((0, 0, 3)) == "+z"
    assert assign_direction((0, 0, -2)) == "-z"
    assert assign_direction((3, 0, 1)) == "+x"
    assert assign_direction((-3, 2, 2)) == "-x"
    assert assign_direction((1, -3, 2)) == "-y"
    # tie prefers z then x then y
    assert assign_direction((2, 2, 2)) == "+z"
    assert assign_direction((2, 2, 0)) == "+x"


@pytest.mark.parametrize("delta", [(0, 0, 2), (1, -2, 3), (-3, 1, 1), (2, 3, -1)])
def test_chain_reproduces_kernel(laplace, delta):
    scale = 0.5
    quad = build_quadrature(laplace, scale, eps=1e-4)
    d = assign_direction(delta)
    src = RNG.uniform(-0.5, 0.5, (25, 3))
    q = RNG.normal(size=25)
    tgt = RNG.uniform(-0.5, 0.5, (15, 3))
    delta = np.asarray(delta, dtype=float)
    W = p2w(quad, d, src, q, scale)
    V = W * i2i_factor(quad, d, delta)
    phi = w2t(quad, d, V, tgt)
    exact = laplace.direct((tgt + delta) * scale, src * scale, q)
    assert np.max(np.abs(phi - exact)) / np.max(np.abs(exact)) < 1e-3


def test_chain_yukawa(yukawa):
    scale = 0.5
    quad = build_quadrature(yukawa, scale, eps=1e-4)
    delta = np.array([0.0, 1.0, 3.0])
    d = assign_direction(delta)
    src = RNG.uniform(-0.5, 0.5, (25, 3))
    q = RNG.normal(size=25)
    tgt = RNG.uniform(-0.5, 0.5, (15, 3))
    W = p2w(quad, d, src, q, scale)
    V = W * i2i_factor(quad, d, delta)
    phi = w2t(quad, d, V, tgt)
    exact = yukawa.direct((tgt + delta) * scale, src * scale, q)
    assert np.max(np.abs(phi - exact)) / np.max(np.abs(exact)) < 1e-3


def _full_circle_sum(quad, direction, src, q, tgt, delta, scale):
    """The rule the carried half stands for: every azimuth ``2 pi j/M_k``,
    ``j < M_k``, of every node with weight ``weights[k]/M_k``, summed
    term by term for each (target, source) pair."""
    counts = quad.node_counts
    lam = np.repeat(quad.lams, counts)
    t = np.repeat(quad.ts, counts)
    w = np.repeat(quad.weights / counts, counts)
    ang = np.concatenate([2.0 * np.pi * np.arange(m) / m for m in counts])
    u = ((tgt + delta)[:, None, :] - src[None, :, :]) @ frame(direction).T  # (T, S, 3)
    terms = (w / scale) * np.exp(
        -u[..., 2, None] * t
        + 1j * lam * (u[..., 0, None] * np.cos(ang) + u[..., 1, None] * np.sin(ang))
    )
    total = np.einsum("tsf,s->t", terms, q)
    assert np.max(np.abs(total.imag)) < 1e-12 * np.max(np.abs(total.real))
    return total.real


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
@pytest.mark.parametrize("delta", [(0, 0, 2), (1, -2, 3), (-3, 1, 1), (2, 3, -1)])
def test_half_rule_chain_equals_full_circle_sum(kern, delta, laplace, yukawa):
    """Carrying the [0, pi) azimuths with doubled weights and taking the
    real part is the full-circle rule, to roundoff - not to eps."""
    k = laplace if kern == "laplace" else yukawa
    scale = 0.5
    quad = build_quadrature(k, scale, eps=1e-4)
    d = assign_direction(delta)
    src = RNG.uniform(-0.5, 0.5, (25, 3))
    q = RNG.normal(size=25)
    tgt = RNG.uniform(-0.5, 0.5, (15, 3))
    delta = np.asarray(delta, dtype=float)
    V = p2w(quad, d, src, q, scale) * i2i_factor(quad, d, delta)
    phi = w2t(quad, d, V, tgt)
    full = _full_circle_sum(quad, d, src, q, tgt, delta, scale)
    assert np.max(np.abs(phi - full)) / np.max(np.abs(full)) < 1e-12


def test_i2i_composes(laplace):
    """Translating by a+b equals translating by a then by b (diagonal)."""
    quad = build_quadrature(laplace, 0.5, eps=1e-3)
    a = np.array([0.0, 1.0, 1.5])
    b = np.array([1.0, -1.0, 1.5])
    f_ab = i2i_factor(quad, "+z", a + b)
    f_a = i2i_factor(quad, "+z", a)
    f_b = i2i_factor(quad, "+z", b)
    assert np.allclose(f_ab, f_a * f_b, rtol=1e-10)


def test_p2w_matrix_consistency(laplace):
    quad = build_quadrature(laplace, 0.5, eps=1e-3)
    src = RNG.uniform(-0.5, 0.5, (10, 3))
    q = RNG.normal(size=10)
    assert np.allclose(p2w(quad, "+x", src, q, 0.5), q @ p2w_matrix(quad, "+x", src, 0.5))


def test_superposition(laplace):
    """Amplitudes add: W(q1+q2) = W(q1) + W(q2)."""
    quad = build_quadrature(laplace, 0.5, eps=1e-3)
    src = RNG.uniform(-0.5, 0.5, (8, 3))
    q1 = RNG.normal(size=8)
    q2 = RNG.normal(size=8)
    w1 = p2w(quad, "-y", src, q1, 0.5)
    w2 = p2w(quad, "-y", src, q2, 0.5)
    w12 = p2w(quad, "-y", src, q1 + q2, 0.5)
    assert np.allclose(w12, w1 + w2)
