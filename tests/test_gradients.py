"""Field gradients (forces): analytic kernels, expansion derivatives,
and the outputs stage of the compiled plan (FMM and Barnes-Hut)."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.base import Kernel
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.tree.dualtree import build_dual_tree
from repro.workloads.distributions import sphere_points

RNG = np.random.default_rng(90)


def _fd_direct(kernel, t, sources, w, h=1e-6):
    g = np.zeros(3)
    for ax in range(3):
        dp, dm = t.copy(), t.copy()
        dp[ax] += h
        dm[ax] -= h
        g[ax] = (
            kernel.direct(dp[None], sources, w)[0]
            - kernel.direct(dm[None], sources, w)[0]
        ) / (2 * h)
    return g


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_direct_gradient_matches_finite_difference(kern, laplace, yukawa):
    k = laplace if kern == "laplace" else yukawa
    sources = RNG.uniform(0, 1, (30, 3))
    w = RNG.normal(size=30)
    t = np.array([2.0, 0.3, -1.0])
    g = k.direct_gradient(t[None], sources, w)[0]
    assert np.allclose(g, _fd_direct(k, t, sources, w), rtol=1e-5)


def test_gradient_zero_at_coincident_point(laplace):
    pts = RNG.uniform(0, 1, (5, 3))
    g = laplace.direct_gradient(pts, pts, np.ones(5))
    assert np.isfinite(g).all()


def test_greens_gradient_exactly_zero_at_origin(laplace):
    """The r == 0 self-interaction row is exactly zero, not just finite."""
    d = np.vstack([np.zeros(3), [0.3, -0.2, 0.1], np.zeros(3)])
    g = laplace.greens_gradient(d)
    assert np.array_equal(g[0], np.zeros(3))
    assert np.array_equal(g[2], np.zeros(3))
    r = np.linalg.norm(d[1])
    assert np.allclose(g[1], -d[1] / r**3, rtol=1e-12)


def test_default_radial_gradient_fallback():
    """A kernel that doesn't override greens_gradient still gets one."""

    class Gaussian(Kernel):
        name = "gaussian"

        def greens(self, r):
            return np.exp(-(r**2))

        def p2m_matrix(self, rel, scale):  # pragma: no cover - unused here
            raise NotImplementedError

        def p2l_matrix(self, rel, scale):  # pragma: no cover
            raise NotImplementedError

        def m2t_matrix(self, rel, scale):  # pragma: no cover
            raise NotImplementedError

        def l2t_matrix(self, rel, scale):  # pragma: no cover
            raise NotImplementedError

    g = Gaussian(2)
    d = np.array([[0.5, -0.3, 0.2]])
    r = np.linalg.norm(d[0])
    expected = -2 * r * np.exp(-(r**2)) * d[0] / r
    assert np.allclose(g.greens_gradient(d)[0], expected, rtol=1e-5)


def test_expansion_gradients_match_direct(laplace, laplace_factory):
    sources = RNG.uniform(-0.5, 0.5, (25, 3))
    w = RNG.normal(size=25)
    h = 0.5
    # multipole gradient at far points
    M = laplace.p2m(sources, w, h)
    far = RNG.uniform(-0.5, 0.5, (8, 3)) + np.array([3.0, 2.0, -2.5])
    g_m = laplace.m2t_gradient(M, far, h)
    g_exact = laplace.direct_gradient(far * h, sources * h, w)
    assert np.max(np.abs(g_m - g_exact)) / np.max(np.abs(g_exact)) < 1e-4
    # local gradient at near points
    L = laplace.p2l(far, w[:8], h)
    near = RNG.uniform(-0.5, 0.5, (8, 3))
    g_l = laplace.l2t_gradient(L, near, h)
    g_exact2 = laplace.direct_gradient(near * h, far * h, w[:8])
    assert np.max(np.abs(g_l - g_exact2)) / np.max(np.abs(g_exact2)) < 1e-4


def _gradient_error(method, kernel, factory, src, w, tgt, probe=slice(0, 300)):
    """Relative L2 error of a ``gradients=True`` evaluate against
    ``direct_gradient`` at the probed targets; checks on the way that
    asking for gradients leaves the potentials' bits alone."""
    ev = DashmmEvaluator(kernel, method=method, threshold=30, factory=factory)
    rep = ev.evaluate(src, w, tgt, gradients=True)
    plain = ev.evaluate(src, w, tgt)
    assert np.array_equal(rep.potentials, plain.potentials)
    assert plain.gradients is None and rep.gradients.shape == (len(tgt), 3)
    exact = kernel.direct_gradient(tgt[probe], src, w)
    return np.linalg.norm(rep.gradients[probe] - exact) / np.linalg.norm(exact), rep


def _kernel(kern, laplace, yukawa, laplace_factory, yukawa_factory):
    if kern == "laplace":
        return laplace, laplace_factory
    return yukawa, yukawa_factory


def _sphere(n=1000):
    return sphere_points(n, seed=1), RNG.normal(size=n), sphere_points(n, seed=2)


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_fmm_gradients(kern, laplace, yukawa, laplace_factory, yukawa_factory, small_cloud):
    k, F = _kernel(kern, laplace, yukawa, laplace_factory, yukawa_factory)
    err, _ = _gradient_error("fmm", k, F, *small_cloud)
    assert err < 2e-3


@pytest.mark.parametrize("kern", ["laplace", "yukawa"])
def test_bh_gradients(kern, laplace, yukawa, laplace_factory, yukawa_factory, small_cloud):
    k, F = _kernel(kern, laplace, yukawa, laplace_factory, yukawa_factory)
    err, _ = _gradient_error("bh", k, F, *small_cloud)
    assert err < 2e-3


def test_fmm_gradients_with_adaptive_lists(laplace, yukawa, laplace_factory, yukawa_factory):
    """Sphere data exercises the M->T gradient path (list 3)."""
    src, w, tgt = _sphere()
    for k, F in ((laplace, laplace_factory), (yukawa, yukawa_factory)):
        err, rep = _gradient_error("fmm", k, F, src, w, tgt, probe=slice(0, 200))
        assert err < 2e-3
        assert rep.dag.edge_stats()["M2T"]["count"] > 0


def test_bh_gradients_on_sphere_data(laplace, yukawa, laplace_factory, yukawa_factory):
    src, w, tgt = _sphere()
    for k, F in ((laplace, laplace_factory), (yukawa, yukawa_factory)):
        err, _ = _gradient_error("bh", k, F, src, w, tgt, probe=slice(0, 200))
        assert err < 2e-3


@pytest.mark.parametrize("method", ["fmm", "bh"])
def test_gradients_are_the_same_bits_on_every_path(method):
    """On the simulator at one locality count, a cold evaluate, a
    session's cold, warm and 50-point-drift submits, a
    critical-path-policy run and its resumption from a checkpoint all
    sum the same gradient bits, and a plain submit between two gradient
    submits leaves no trace."""
    rng = np.random.default_rng(91)
    src, w = rng.uniform(0.0, 1.0, (800, 3)), rng.normal(size=800)
    factory = OperatorFactory(LaplaceKernel(4), eps=1e-3)

    def evaluator(policy="binary", **config):
        cfg = RuntimeConfig(n_localities=2, workers_per_locality=2, policy=policy, **config)
        return DashmmEvaluator(
            factory.kernel, method=method, threshold=30, factory=factory, runtime_config=cfg
        )

    ev = evaluator()
    cold = ev.evaluate(src, w, src, gradients=True)
    checkpointed = evaluator("critical-path", checkpoint_every=2e-4)
    critical = checkpointed.evaluate(src, w, src, gradients=True)
    assert np.array_equal(critical.gradients, cold.gradients)
    resumed = checkpointed.resume(critical, critical.extras["checkpoints"][0])
    assert np.array_equal(resumed.gradients, cold.gradients)
    moved = src.copy()
    moved[:50] = np.clip(moved[:50] + rng.normal(scale=1e-3, size=(50, 3)), 0.0, 1.0)
    with EvaluatorSession(ev) as session:
        for _ in range(2):  # cold, then warm
            phi, grad = session.submit(src, w, gradients=True)
            assert np.array_equal(phi, cold.potentials)
            assert np.array_equal(grad, cold.gradients)
        assert np.array_equal(session.submit(src, w), cold.potentials)
        assert np.array_equal(session.submit(src, w, gradients=True)[1], cold.gradients)
        drift_phi, drift_grad = session.submit(moved, w, gradients=True)
        assert session.stats["tree_updates"][-1]["source"] != "rebuilt"
        domain = session.domain
    dual = build_dual_tree(moved, moved, 30, source_weights=w, domain=domain)
    ref = ev.evaluate(moved, w, moved, dual=dual, gradients=True)
    assert np.array_equal(drift_phi, ref.potentials)
    assert np.array_equal(drift_grad, ref.gradients)


def test_gradients_need_a_numeric_simulator_run(laplace, laplace_factory, small_cloud):
    src, w, tgt = small_cloud
    phantom = DashmmEvaluator(laplace, threshold=30, mode="phantom", factory=laplace_factory)
    with pytest.raises(ValueError, match="phantom"):
        phantom.evaluate(src, w, tgt, gradients=True)
