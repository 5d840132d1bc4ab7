"""The AMT execution path: numeric equivalence, phantom mode, coalescing,
priorities - the integration layer of the whole reproduction."""

import numpy as np
import pytest

from repro.dashmm import BlockPolicy, DashmmEvaluator, FmmPolicy, RandomPolicy
from repro.hpx.runtime import RuntimeConfig
from repro.methods.direct import direct_potentials
from repro.methods.fmm import FmmEvaluator

TOL = 1e-3


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(77)
    n = 1200
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_numeric_accuracy(method, laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    ev = DashmmEvaluator(
        laplace,
        method=method,
        threshold=30,
        runtime_config=RuntimeConfig(n_localities=3, workers_per_locality=4),
        factory=laplace_factory,
        theta=0.4,
    )
    rep = ev.evaluate(src, w, tgt)
    exact = direct_potentials(laplace, tgt, src, w)
    assert _rel(rep.potentials, exact) < TOL
    assert rep.extras["untriggered"] == 0
    assert rep.time > 0


def test_amt_matches_sync_fmm(laplace, laplace_factory, cloud):
    """Same operators, different execution order: results agree tightly."""
    src, w, tgt = cloud
    sync = FmmEvaluator(laplace, threshold=30, factory=laplace_factory)
    phi_sync = sync.evaluate(src, w, tgt)
    amt = DashmmEvaluator(
        laplace,
        threshold=30,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4),
        factory=laplace_factory,
    )
    phi_amt = amt.evaluate(src, w, tgt).potentials
    assert _rel(phi_amt, phi_sync) < 1e-10


def test_yukawa_amt(yukawa, yukawa_factory, cloud):
    src, w, tgt = cloud
    ev = DashmmEvaluator(
        yukawa,
        threshold=30,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4),
        factory=yukawa_factory,
    )
    rep = ev.evaluate(src, w, tgt)
    exact = direct_potentials(yukawa, tgt, src, w)
    assert _rel(rep.potentials, exact) < TOL


def test_result_independent_of_cluster_shape(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    reps = []
    for L, W in [(1, 2), (4, 2)]:
        ev = DashmmEvaluator(
            laplace,
            threshold=30,
            runtime_config=RuntimeConfig(n_localities=L, workers_per_locality=W),
            factory=laplace_factory,
        )
        reps.append(ev.evaluate(src, w, tgt).potentials)
    assert _rel(reps[0], reps[1]) < 1e-10


def test_phantom_mode(laplace, cloud):
    src, w, tgt = cloud
    ev = DashmmEvaluator(
        laplace,
        mode="phantom",
        threshold=30,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4),
    )
    rep = ev.evaluate(src, w, tgt)
    assert rep.potentials is None
    assert rep.extras["untriggered"] == 0
    assert rep.time > 0
    assert rep.runtime_stats["tasks_run"] > 0


def test_phantom_more_cores_is_faster(laplace, cloud):
    src, w, tgt = cloud
    times = {}
    for W in (1, 4):
        ev = DashmmEvaluator(
            laplace,
            mode="phantom",
            threshold=30,
            runtime_config=RuntimeConfig(n_localities=1, workers_per_locality=W),
        )
        times[W] = ev.evaluate(src, w, tgt).time
    assert times[4] < times[1]


def test_coalescing_reduces_parcels(laplace, cloud):
    src, w, tgt = cloud
    counts = {}
    for coalesce in (True, False):
        ev = DashmmEvaluator(
            laplace,
            mode="phantom",
            threshold=30,
            coalesce=coalesce,
            runtime_config=RuntimeConfig(n_localities=4, workers_per_locality=2),
        )
        counts[coalesce] = ev.evaluate(src, w, tgt).runtime_stats["parcels_sent"]
    assert counts[True] < counts[False]


def test_priorities_preserve_numerics(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    reps = []
    for policy in ("stock", "binary"):
        ev = DashmmEvaluator(
            laplace,
            threshold=30,
            runtime_config=RuntimeConfig(
                n_localities=2, workers_per_locality=2, policy=policy
            ),
            factory=laplace_factory,
        )
        reps.append(ev.evaluate(src, w, tgt).potentials)
    assert _rel(reps[0], reps[1]) < 1e-10


def test_policies_preserve_numerics(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    reps = []
    for pol in (FmmPolicy(), BlockPolicy(), RandomPolicy()):
        ev = DashmmEvaluator(
            laplace,
            threshold=30,
            policy=pol,
            runtime_config=RuntimeConfig(n_localities=3, workers_per_locality=2),
            factory=laplace_factory,
        )
        reps.append(ev.evaluate(src, w, tgt).potentials)
    assert _rel(reps[0], reps[1]) < 1e-10
    assert _rel(reps[0], reps[2]) < 1e-10


def test_trace_has_paper_edge_classes(laplace, laplace_factory):
    # deep enough tree (level >= 3) so the L2L operator appears
    rng = np.random.default_rng(88)
    n = 6000
    src, w, tgt = rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))
    ev = DashmmEvaluator(
        laplace,
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=2),
        factory=laplace_factory,
    )
    rep = ev.evaluate(src, w, tgt)
    classes = set(rep.tracer.classes)
    assert {"S2M", "M2M", "M2I", "I2I", "I2L", "L2L", "L2T", "S2T"} <= classes


def test_virtual_time_deterministic(laplace, cloud):
    src, w, tgt = cloud
    times = []
    for _ in range(2):
        ev = DashmmEvaluator(
            laplace,
            mode="phantom",
            threshold=30,
            runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4),
        )
        times.append(ev.evaluate(src, w, tgt).time)
    assert times[0] == times[1]


def test_invalid_method(laplace):
    with pytest.raises(ValueError):
        DashmmEvaluator(laplace, method="tree-code")


def test_invalid_mode(laplace):
    with pytest.raises(ValueError):
        from repro.dashmm.registrar import Registrar
        from repro.hpx.runtime import Runtime

        Registrar(Runtime(RuntimeConfig()), None, None, laplace, None, mode="bogus")


def test_parallel_edges_preserve_numerics(laplace, laplace_factory, cloud):
    """One task per edge vs sequential edge processing: same results."""
    src, w, tgt = cloud
    reps = []
    for seq in (True, False):
        ev = DashmmEvaluator(
            laplace,
            threshold=30,
            sequential_edges=seq,
            runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=3),
            factory=laplace_factory,
        )
        reps.append(ev.evaluate(src, w, tgt).potentials)
    assert _rel(reps[0], reps[1]) < 1e-10
