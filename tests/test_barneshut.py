"""Barnes-Hut (``DashmmEvaluator(method="bh")``): accuracy, MAC
behavior, traversal coverage."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator
from repro.methods.barneshut import mac_pairs
from repro.methods.direct import direct_potentials
from repro.tree.dualtree import build_dual_tree
from repro.workloads.distributions import plummer_points


def _cloud(n=1200, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0, 1, (n, 3)),
        rng.normal(size=n),
        rng.uniform(0, 1, (n, 3)),
    )


def _bh(kernel, factory, theta, threshold=30):
    return DashmmEvaluator(kernel, method="bh", threshold=threshold, theta=theta, factory=factory)


def test_accuracy(laplace, laplace_factory):
    src, w, tgt = _cloud()
    phi = _bh(laplace, laplace_factory, 0.4).evaluate(src, w, tgt).potentials
    exact = direct_potentials(laplace, tgt, src, w)
    assert np.linalg.norm(phi - exact) / np.linalg.norm(exact) < 1e-3


def test_smaller_theta_is_more_accurate(laplace, laplace_factory):
    src, w, tgt = _cloud(800, 1)
    exact = direct_potentials(laplace, tgt, src, w)
    errs = []
    for theta in (0.8, 0.3):
        phi = _bh(laplace, laplace_factory, theta).evaluate(src, w, tgt).potentials
        errs.append(np.linalg.norm(phi - exact) / np.linalg.norm(exact))
    assert errs[1] < errs[0]


def test_smaller_theta_does_more_work(laplace, laplace_factory):
    src, w, tgt = _cloud(800, 2)
    ops = []
    for theta in (0.8, 0.3):
        edges = _bh(laplace, laplace_factory, theta).evaluate(src, w, tgt).dag.edge_stats()
        ops.append(edges["M2T"]["count"] + edges["S2T"]["count"])
    assert ops[1] > ops[0]


def test_mac_pairs_cover_all_sources_once():
    """Every source point is accounted exactly once per target leaf."""
    rng = np.random.default_rng(3)
    src = rng.uniform(0, 1, (600, 3))
    tgt = rng.uniform(0, 1, (600, 3))
    dual = build_dual_tree(src, tgt, 25, source_weights=np.ones(600))
    pairs = mac_pairs(dual, theta=0.5)
    n_src = dual.source.n_points
    for ti, ops in pairs.items():
        covered = 0
        for _, si in ops:
            covered += dual.source.boxes[si].count
        assert covered == n_src, "each target leaf must see every source once"


def test_clustered_distribution(laplace, laplace_factory):
    """Plummer clustering stresses adaptivity."""
    src = plummer_points(1000, seed=4)
    tgt = plummer_points(1000, seed=5)
    w = np.random.default_rng(6).normal(size=1000)
    phi = _bh(laplace, laplace_factory, 0.4, threshold=20).evaluate(src, w, tgt).potentials
    exact = direct_potentials(laplace, tgt, src, w)
    assert np.linalg.norm(phi - exact) / np.linalg.norm(exact) < 2e-3


def test_invalid_theta(laplace, laplace_factory):
    for theta in (0.0, 1.0, 1.5, -1.0):
        with pytest.raises(ValueError, match="theta"):
            DashmmEvaluator(laplace, method="bh", theta=theta, factory=laplace_factory)
