"""The FMM end to end through its one evaluator, ``DashmmEvaluator``:
adaptive data, pruned sub-trees, prebuilt-tree reuse, superposition and
merge-and-shift's translation counts.  Cube accuracy per (variant,
kernel) is ``test_method_oracle.py``'s."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator
from repro.methods.direct import direct_potentials
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from repro.workloads.distributions import sphere_points

#: the paper requires 3-digit accuracy; our operators target 1e-4
TOL = 1e-3


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _fmm(kernel, factory, method="fmm", threshold=30):
    return DashmmEvaluator(kernel, method=method, threshold=threshold, factory=factory)


def test_sphere_surface_accuracy(laplace, laplace_factory):
    """Sphere data: highly adaptive trees with nonempty lists 3/4."""
    src = sphere_points(2500, seed=1)
    tgt = sphere_points(2500, seed=2)
    w = np.random.default_rng(3).normal(size=2500)
    rep = _fmm(laplace, laplace_factory).evaluate(src, w, tgt)
    exact = direct_potentials(laplace, tgt, src, w)
    assert _rel_err(rep.potentials, exact) < TOL
    edges = rep.dag.edge_stats()
    assert edges.get("M2T", {"count": 0})["count"] > 0, "sphere data should exercise list 3"
    assert edges.get("S2L", {"count": 0})["count"] > 0, "sphere data should exercise list 4"


def test_disjoint_ensembles_with_pruning(laplace, laplace_factory):
    rng = np.random.default_rng(4)
    src = rng.uniform(0, 0.3, (800, 3))
    tgt = rng.uniform(0.7, 1.0, (800, 3)) + 1.5
    w = rng.normal(size=800)
    dual = build_dual_tree(src, tgt, 30, source_weights=w)
    lists = build_lists(dual)
    assert lists.pruned
    rep = _fmm(laplace, laplace_factory).evaluate(src, w, tgt, dual=dual, lists=lists)
    exact = direct_potentials(laplace, tgt, src, w)
    assert _rel_err(rep.potentials, exact) < TOL


def test_mergeshift_reduces_heavy_translations(laplace, laplace_factory, small_cloud):
    """Advanced FMM: one cheap I2I per list-2 pair replaces each heavy
    M2L; the heavy M2I + I2L are one per box and direction."""
    src, w, tgt = small_cloud
    dual = build_dual_tree(src, tgt, 30, source_weights=w)
    adv, _ = _fmm(laplace, laplace_factory).build_dag(dual)
    basic, _ = _fmm(laplace, laplace_factory, "fmm-basic").build_dag(dual)
    adv, basic = adv.edge_stats(), basic.edge_stats()
    assert adv["I2I"]["count"] == basic["M2L"]["count"]
    heavy_adv = adv["M2I"]["count"] + adv["I2L"]["count"]
    assert heavy_adv < basic["M2L"]["count"] / 3


def test_prebuilt_tree_reuse(laplace, laplace_factory, small_cloud):
    """Iterative use case: same tree and lists, evaluated again."""
    src, w, tgt = small_cloud
    dual = build_dual_tree(src, tgt, 30, source_weights=w)
    lists = build_lists(dual)
    ev = _fmm(laplace, laplace_factory)
    phi1 = ev.evaluate(src, w, tgt, dual=dual, lists=lists).potentials
    phi2 = ev.evaluate(src, w, tgt, dual=dual, lists=lists).potentials
    assert np.array_equal(phi1, phi2)
    assert np.array_equal(phi1, ev.evaluate(src, w, tgt).potentials)


def test_weightless_dual_tree_rejected(laplace, laplace_factory, small_cloud):
    src, w, tgt = small_cloud
    dual = build_dual_tree(src, tgt, 30)  # no weights
    with pytest.raises(ValueError, match="must carry source weights"):
        _fmm(laplace, laplace_factory).evaluate(src, w, tgt, dual=dual)


def test_potential_superposition(laplace, laplace_factory, small_cloud):
    src, w, tgt = small_cloud
    ev = _fmm(laplace, laplace_factory)
    phi1 = ev.evaluate(src, w, tgt).potentials
    phi2 = ev.evaluate(src, 2.0 * w, tgt).potentials
    assert np.allclose(phi2, 2.0 * phi1, rtol=1e-9, atol=1e-9)


def test_tiny_problem_all_direct(laplace, laplace_factory):
    """Fewer points than the threshold: a single leaf, pure S2T."""
    rng = np.random.default_rng(5)
    src = rng.uniform(0, 1, (20, 3))
    tgt = rng.uniform(0, 1, (20, 3))
    w = rng.normal(size=20)
    rep = _fmm(laplace, laplace_factory, threshold=60).evaluate(src, w, tgt)
    assert {op for op in rep.dag.edge_stats() if op.endswith("2T")} == {"S2T"}
    exact = direct_potentials(laplace, tgt, src, w)
    assert np.allclose(rep.potentials, exact, rtol=1e-12)
