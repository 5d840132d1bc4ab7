"""The drain is a schedule; the plan computes the numbers.

A simulated evaluation's drain carries no values, so every potential
comes from the compiled execution plan's stacked stages.  Those must
agree with the plain per-edge sums of the DAG - one operator per edge,
folded in canonical key order (``tests/reference_chain.py``) - to
stacked-GEMM rounding.  The schedule on the other hand is the virtual
clock: a numeric run must keep the *bit-identical* clock, task and steal
counts of ``mode="phantom"``, and the Section VI ablations
(``sequential_edges=False``, ``coalesce=False``) move that clock but not
a bit of the potentials."""

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator
from repro.hpx.runtime import RuntimeConfig
from repro.methods.direct import direct_potentials
from tests.reference_chain import folded_keys, per_edge_potentials


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(4321)
    n = 1100
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


def _run(kernel, factory, cloud, method="fmm", **kw):
    src, w, tgt = cloud
    ev = DashmmEvaluator(
        kernel,
        method=method,
        threshold=30,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4),
        factory=factory,
        **kw,
    )
    return ev.evaluate(src, w, tgt)


def _same_schedule(a, b) -> None:
    assert a.time == b.time
    for stat in ("tasks_run", "steals", "parcels_sent", "remote_bytes", "events"):
        assert a.runtime_stats[stat] == b.runtime_stats[stat], stat


@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_batched_matches_per_edge(method, laplace, laplace_factory, yukawa, yukawa_factory, cloud):
    for kernel, factory in ((laplace, laplace_factory), (yukawa, yukawa_factory)):
        rep = _run(kernel, factory, cloud, method)
        ref = per_edge_potentials(rep.dag, rep.dual, kernel, factory)
        np.testing.assert_allclose(rep.potentials, ref, rtol=0, atol=1e-12)
        # identical DAG, charges and effect ordering -> identical virtual clock
        _same_schedule(rep, _run(kernel, factory, cloud, method, mode="phantom"))


@pytest.mark.parametrize("ablation", ["sequential_edges", "coalesce"])
def test_ablations_move_the_clock_not_the_bits(ablation, laplace, laplace_factory, cloud):
    base = _run(laplace, laplace_factory, cloud)
    rep = _run(laplace, laplace_factory, cloud, **{ablation: False})
    assert np.array_equal(rep.potentials, base.potentials)
    assert rep.runtime_stats["tasks_run"] != base.runtime_stats["tasks_run"] or (
        rep.runtime_stats["parcels_sent"] != base.runtime_stats["parcels_sent"]
    )
    _same_schedule(rep, _run(laplace, laplace_factory, cloud, mode="phantom", **{ablation: False}))


def test_batched_is_accurate(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    rep = _run(laplace, laplace_factory, cloud)
    exact = direct_potentials(laplace, tgt, src, w)
    err = np.linalg.norm(rep.potentials - exact) / np.linalg.norm(exact)
    assert err < 1e-3
    assert rep.extras["untriggered"] == 0


@pytest.mark.parametrize("policy", ["stock", "binary", "critical-path"])
@pytest.mark.parametrize("method", ["fmm", "bh"])
def test_group_count_down_matches_the_per_input_path(method, policy, laplace, cloud):
    """Under hazard detection every edge of a drain group goes through
    ``LCO._apply_set``; the grouped count-down of a default run must
    give the same schedule and the same folded keys in the drain's store."""
    src, w, tgt = cloud

    def run(**cfg):
        ev = DashmmEvaluator(
            laplace,
            method=method,
            threshold=30,
            mode="phantom",
            runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=4, policy=policy, **cfg),
        )
        rep = ev.evaluate(src, w, tgt)
        return rep, folded_keys(rep.extras["registrar"])

    base, base_keys = run()
    hz, hz_keys = run(detect_hazards=True)
    assert hz.runtime_stats["hazards"] == {}
    _same_schedule(hz, base)
    assert hz_keys == base_keys
