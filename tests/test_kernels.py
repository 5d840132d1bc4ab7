"""Kernel expansions: P2M/M2T, P2L/L2T accuracy, scaling robustness."""

import numpy as np
import pytest

from repro.kernels.base import pair_distances
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.yukawa import YukawaKernel

RNG = np.random.default_rng(123)


def _setup(scale=0.4, n=30, sep=(2.5, 1.0, -2.0)):
    src = RNG.uniform(-0.5, 0.5, (n, 3))
    q = RNG.normal(size=n)
    tgt = RNG.uniform(-0.5, 0.5, (20, 3)) + np.array(sep)
    return src, q, tgt


@pytest.fixture(params=["laplace", "yukawa"])
def kernel(request, laplace, yukawa):
    return laplace if request.param == "laplace" else yukawa


def test_greens_zero_at_origin(kernel):
    r = np.array([0.0, 1.0])
    g = kernel.greens(r)
    assert g[0] == 0.0
    assert g[1] > 0.0


def test_direct_excludes_self(kernel):
    pts = RNG.uniform(0, 1, (10, 3))
    w = np.ones(10)
    phi = kernel.direct(pts, pts, w)
    assert np.isfinite(phi).all()


def _norm_distances(t, s):
    """The reduction ``pair_distances`` replaced (reference)."""
    return np.linalg.norm(t[:, None, :] - s[None, :, :], axis=-1)


def _direct_norm_loop(kernel, targets, sources, weights, chunk=2048):
    """``Kernel.direct`` as it was before ``pair_distances`` (reference)."""
    out = np.zeros(len(targets))
    for lo in range(0, len(targets), chunk):
        r = _norm_distances(targets[lo : lo + chunk], sources)
        out[lo : lo + chunk] = kernel.greens(r) @ weights
    return out


@pytest.mark.parametrize("magnitude", [1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_pair_distances_bit_identical_to_norm(magnitude):
    rng = np.random.default_rng(5)
    t = rng.normal(size=(257, 3)) * magnitude
    s = rng.normal(size=(63, 3)) * magnitude
    # mixed magnitudes inside one difference vector too
    s[::7, 1] *= 1e-6
    assert np.array_equal(pair_distances(t, s), _norm_distances(t, s))


def test_pair_distances_degenerate_shapes(kernel):
    rng = np.random.default_rng(6)
    pts = rng.random((9, 3))
    r = pair_distances(pts, pts)
    assert np.array_equal(r, _norm_distances(pts, pts))
    assert np.all(np.diag(r) == 0.0)
    assert np.all(np.diag(kernel.greens(r)) == 0.0)  # coincident points drop out
    assert pair_distances(pts[:0], pts).shape == (0, 9)
    assert pair_distances(pts, pts[:0]).shape == (9, 0)
    assert np.array_equal(pair_distances(pts[:1], pts[1:2]), _norm_distances(pts[:1], pts[1:2]))
    assert kernel.direct(pts[:0], pts, np.ones(9)).shape == (0,)
    assert np.array_equal(kernel.direct(pts, pts[:0], np.ones(0)), np.zeros(9))


@pytest.mark.parametrize("n_targets", [1, 700, 2049])
def test_direct_bit_identical_to_norm_loop(kernel, n_targets):
    """2 049 targets cross the 2 048-row chunk boundary."""
    rng = np.random.default_rng(n_targets)
    tgt = rng.random((n_targets, 3))
    src = np.concatenate([rng.random((40, 3)), tgt[:3]])  # a few coincident pairs
    w = rng.normal(size=len(src))
    assert np.array_equal(kernel.direct(tgt, src, w), _direct_norm_loop(kernel, tgt, src, w))


def test_multipole_accuracy(kernel):
    scale = 0.4
    src, q, tgt = _setup(scale)
    M = kernel.p2m(src, q, scale)
    phi = kernel.m2t(M, tgt, scale)
    exact = kernel.direct(tgt * scale, src * scale, q)
    rel = np.max(np.abs(phi - exact)) / np.max(np.abs(exact))
    assert rel < 1e-6


def test_local_accuracy(kernel):
    scale = 0.4
    src, q, tgt = _setup(scale)
    L = kernel.p2l(tgt, q[:20], scale)
    phi = kernel.l2t(L, src, scale)
    exact = kernel.direct(src * scale, tgt * scale, q[:20])
    rel = np.max(np.abs(phi - exact)) / np.max(np.abs(exact))
    assert rel < 1e-6


def test_p2m_matrix_consistency(kernel):
    src, q, _ = _setup()
    M1 = kernel.p2m(src, q, 0.4)
    M2 = q @ kernel.p2m_matrix(src, 0.4)
    assert np.allclose(M1, M2)


def test_l2t_rows_consistency(kernel):
    src, q, tgt = _setup()
    L = kernel.p2l(tgt, q[:20], 0.4)
    phi1 = kernel.l2t(L, src, 0.4)
    rows = np.broadcast_to(L, (len(src), len(L)))
    phi2 = kernel.l2t_rows(rows, src, 0.4)
    assert np.allclose(phi1, phi2)


def test_linearity_in_charges(kernel):
    src, q, _ = _setup()
    M1 = kernel.p2m(src, q, 0.4)
    M2 = kernel.p2m(src, 2.0 * q, 0.4)
    assert np.allclose(M2, 2.0 * M1)


def test_coefficients_well_scaled(kernel):
    """The per-order scaling keeps coefficient magnitudes moderate."""
    src, q, _ = _setup()
    for scale in (1e-3, 0.1, 1.0, 8.0):
        M = kernel.p2m(src, q, scale)
        assert np.isfinite(M).all()
        assert np.abs(M).max() < 1e6


def test_yukawa_matches_brute_series(yukawa):
    """The 2k/pi prefactor and scipy Bessel conventions are correct."""
    from repro.kernels.sphharm import legendre_poly
    from scipy.special import spherical_in, spherical_kn

    k = yukawa.lam
    x = RNG.normal(size=(3, 3)) * 0.2
    y = RNG.normal(size=(3, 3))
    y *= 2.0 / np.linalg.norm(y, axis=1)[:, None]
    rx = np.linalg.norm(x, axis=1)
    ry = np.linalg.norm(y, axis=1)
    cg = np.sum(x * y, axis=1) / (rx * ry)
    p = 35
    n = np.arange(p + 1)
    series = (2 * k / np.pi) * np.sum(
        (2 * n + 1)
        * spherical_in(n, k * rx[:, None])
        * spherical_kn(n, k * ry[:, None])
        * legendre_poly(p, cg),
        axis=1,
    )
    exact = np.exp(-k * np.linalg.norm(x - y, axis=1)) / np.linalg.norm(x - y, axis=1)
    assert np.allclose(series, exact, rtol=1e-10)


def test_yukawa_level_key_varies_with_scale(yukawa, laplace):
    assert yukawa.level_key(0.5) != yukawa.level_key(0.25)
    assert laplace.level_key(0.5) is None and laplace.level_key(0.25) is None


def test_invalid_construction():
    with pytest.raises(ValueError):
        LaplaceKernel(0)
    with pytest.raises(ValueError):
        YukawaKernel(5, lam=-1.0)


def test_yukawa_reduces_to_laplace_at_small_lam():
    """For lam*r << 1 the Yukawa potential approaches 1/r."""
    yk = YukawaKernel(8, lam=1e-4)
    lp = LaplaceKernel(8)
    src, q, tgt = _setup()
    a = yk.direct(tgt * 0.4, src * 0.4, q)
    b = lp.direct(tgt * 0.4, src * 0.4, q)
    assert np.allclose(a, b, rtol=1e-3)
