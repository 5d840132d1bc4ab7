"""Batched edge execution is a way to compute, not a different algorithm.

The default numeric run must produce the potentials of the per-edge
reference (``sequential_edges=False`` computes every edge one by one) to
stacked-GEMM rounding, and the *bit-identical* virtual completion time of
the sequential per-edge loop - which is what ``mode="phantom"`` executes,
with the same charges - since charges and effect ordering are
value-independent."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator
from repro.hpx.runtime import RuntimeConfig
from repro.methods.direct import direct_potentials


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(4321)
    n = 1100
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


def _run(laplace, laplace_factory, cloud, method="fmm", **kw):
    src, w, tgt = cloud
    ev = DashmmEvaluator(
        laplace,
        method=method,
        threshold=30,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4),
        factory=laplace_factory,
        **kw,
    )
    return ev.evaluate(src, w, tgt)


@pytest.mark.parametrize("method", ["fmm", "fmm-basic"])
def test_batched_matches_per_edge(method, laplace, laplace_factory, cloud):
    bat = _run(laplace, laplace_factory, cloud, method)
    ref = _run(laplace, laplace_factory, cloud, method, sequential_edges=False)
    np.testing.assert_allclose(bat.potentials, ref.potentials, rtol=0, atol=1e-12)
    # identical DAG, charges and effect ordering -> identical virtual clock
    loop = _run(laplace, laplace_factory, cloud, method, mode="phantom")
    assert bat.time == loop.time
    assert bat.runtime_stats["tasks_run"] == loop.runtime_stats["tasks_run"]
    assert bat.runtime_stats["steals"] == loop.runtime_stats["steals"]


def test_batched_is_accurate(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    rep = _run(laplace, laplace_factory, cloud)
    exact = direct_potentials(laplace, tgt, src, w)
    err = np.linalg.norm(rep.potentials - exact) / np.linalg.norm(exact)
    assert err < 1e-3
    assert rep.extras["untriggered"] == 0
