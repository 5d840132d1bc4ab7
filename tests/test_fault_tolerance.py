"""Fault-injected end-to-end evaluation: the hardening acceptance matrix.

With ``FaultyNetwork`` (drop=dup=0.05, reorder on, fixed seed) and the
reliable transport enabled, FMM and Barnes-Hut evaluations must produce
bit-identical potentials to the fault-free run, quiesce, and report
nonzero retries/dedups; with the transport disabled under the same
faults, the run must fail with a structured ``LCOError``, not a bare
``RuntimeError``.
"""

import numpy as np
import pytest

from repro.analysis import degradation_report, degradation_sweep
from repro.dashmm import DashmmEvaluator
from repro.hpx import FaultyNetwork, LCOError, RuntimeConfig
from tests.reference_chain import assert_each_edge_counted_once

#: the acceptance-criteria fault mix, plus single-fault ablations
FAULTS = {
    "drop": dict(drop=0.05),
    "duplicate": dict(duplicate=0.05),
    "reorder": dict(reorder=0.5, reorder_jitter=10e-6),
    "delay": dict(delay=0.05, delay_time=100e-6),
    "mixed": dict(drop=0.05, duplicate=0.05, reorder=0.5),
}


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(1234)
    n = 900
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


def _evaluate(kernel, factory, cloud, method="fmm", net=None, reliable=True, **cfg_kw):
    src, w, tgt = cloud
    cfg = RuntimeConfig(
        n_localities=3, workers_per_locality=2, reliable=reliable, **cfg_kw
    )
    if net is not None:
        cfg.network = net
    ev = DashmmEvaluator(
        kernel,
        method=method,
        threshold=30,
        runtime_config=cfg,
        factory=factory,
        theta=0.5,
    )
    rep = ev.evaluate(src, w, tgt)
    # the drain carries no values, so potentials cannot reveal an edge
    # folded twice: check every LCO's dedup ledger instead
    assert_each_edge_counted_once(rep.extras["registrar"])
    return rep


@pytest.mark.parametrize("mode", sorted(FAULTS))
@pytest.mark.parametrize("method", ["fmm", "bh"])
def test_bit_identical_under_faults(mode, method, laplace, laplace_factory, cloud):
    clean = _evaluate(laplace, laplace_factory, cloud, method=method)
    faulty = _evaluate(
        laplace,
        laplace_factory,
        cloud,
        method=method,
        net=FaultyNetwork(seed=2024, **FAULTS[mode]),
    )
    # quiescence: every LCO triggered, nothing left in flight
    assert faulty.extras["untriggered"] == 0
    assert faulty.runtime_stats["transport"]["in_flight"] == 0
    # exactly-once delivery: _evaluate checked that every edge counted
    # once, which duplicates must have put to the test; potentials
    # agree to the bit
    if "duplicate" in FAULTS[mode]:
        assert faulty.runtime_stats["network_faults"]["duplicated"] > 0
    assert np.array_equal(clean.potentials, faulty.potentials)
    # only the virtual clock may change (fault-shifted arrivals reshuffle
    # the steal schedule, so the makespan can move in either direction)
    assert faulty.time > 0.0


def test_acceptance_mix_reports_retries_and_dedups(laplace, laplace_factory, cloud):
    faulty = _evaluate(
        laplace,
        laplace_factory,
        cloud,
        net=FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=7),
    )
    xp = faulty.runtime_stats["transport"]
    assert xp["retries"] > 0
    assert xp["dups_suppressed"] > 0
    nf = faulty.runtime_stats["network_faults"]
    assert nf["dropped"] > 0 and nf["duplicated"] > 0 and nf["reordered"] > 0


def test_unreliable_transport_fails_with_structured_error(
    laplace, laplace_factory, cloud
):
    with pytest.raises(LCOError) as ei:
        _evaluate(
            laplace,
            laplace_factory,
            cloud,
            net=FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=7),
            reliable=False,
        )
    err = ei.value
    assert err.lco_class == "ExpansionLCO"
    assert err.addr is not None
    assert err.op_class is not None


def test_fault_schedule_is_deterministic(laplace, laplace_factory, cloud):
    runs = [
        _evaluate(
            laplace,
            laplace_factory,
            cloud,
            net=FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=99),
        )
        for _ in range(2)
    ]
    assert runs[0].time == runs[1].time
    assert np.array_equal(runs[0].potentials, runs[1].potentials)
    assert runs[0].runtime_stats["transport"] == runs[1].runtime_stats["transport"]


def test_outage_window_only_stretches_clock(laplace, laplace_factory, cloud):
    clean = _evaluate(laplace, laplace_factory, cloud)
    net = FaultyNetwork(outages=((1, 0.0, 3e-4),), seed=5)
    faulty = _evaluate(
        laplace, laplace_factory, cloud, net=net, retry_timeout=5e-5, retry_limit=12
    )
    assert np.array_equal(clean.potentials, faulty.potentials)
    assert faulty.time > clean.time


def test_outage_beyond_retry_budget_completes_via_suspend_resume(
    laplace, laplace_factory, cloud
):
    """Acceptance: a blackout longer than the whole retry budget no
    longer raises ``TransportError`` - exhausted parcels suspend, resume
    when the window lifts, and the potentials stay bit-identical."""
    clean = _evaluate(laplace, laplace_factory, cloud)
    net = FaultyNetwork(outages=((1, 1e-4, 2.1e-3),), seed=5)
    faulty = _evaluate(
        laplace,
        laplace_factory,
        cloud,
        net=net,
        retry_timeout=20e-6,
        retry_limit=3,  # budget ~ 20e-6 * (1 + 2 + 4) << the 2ms window
    )
    assert np.array_equal(clean.potentials, faulty.potentials)
    xp = faulty.runtime_stats["transport"]
    assert xp["suspensions"] > 0
    assert xp["resumes"] == xp["suspensions"]
    assert xp["suspended"] == 0 and xp["in_flight"] == 0
    assert faulty.time > clean.time


@pytest.mark.parametrize("fuzz", [3, 44])
def test_short_outage_bit_identical_under_fuzzed_schedules(
    fuzz, laplace, laplace_factory, cloud
):
    """An outage the retry budget rides out converges bit-identically
    no matter how the schedule fuzzer perturbs pick/steal decisions."""
    clean = _evaluate(laplace, laplace_factory, cloud, fuzz_schedule=fuzz)
    net = FaultyNetwork(outages=((1, 0.0, 3e-4),), seed=5)
    faulty = _evaluate(
        laplace,
        laplace_factory,
        cloud,
        net=net,
        retry_timeout=5e-5,
        retry_limit=12,
        fuzz_schedule=fuzz,
    )
    assert np.array_equal(clean.potentials, faulty.potentials)
    assert faulty.runtime_stats["transport"]["suspensions"] == 0


def test_phantom_mode_quiesces_under_faults(laplace, cloud):
    src, w, tgt = cloud
    cfg = RuntimeConfig(
        n_localities=3,
        workers_per_locality=2,
        reliable=True,
        network=FaultyNetwork(drop=0.05, duplicate=0.05, seed=3),
    )
    ev = DashmmEvaluator(laplace, mode="phantom", threshold=30, runtime_config=cfg)
    rep = ev.evaluate(src, w, tgt)
    assert rep.extras["untriggered"] == 0
    assert rep.runtime_stats["transport"]["in_flight"] == 0
    assert rep.runtime_stats["network_faults"]["duplicated"] > 0
    assert_each_edge_counted_once(rep.extras["registrar"])


# -- degradation accounting ---------------------------------------------------


def test_degradation_report_fields(laplace, laplace_factory, cloud):
    clean = _evaluate(laplace, laplace_factory, cloud)
    faulty = _evaluate(
        laplace,
        laplace_factory,
        cloud,
        net=FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=7),
    )
    row = degradation_report(clean, faulty)
    assert row["bit_identical"] is True
    assert row["max_abs_diff"] == 0.0
    assert row["makespan_overhead"] == pytest.approx(
        (faulty.time - clean.time) / clean.time
    )
    assert row["transport"]["retries"] > 0
    assert row["network_faults"]["dropped"] > 0


def test_degradation_sweep_shape(laplace, laplace_factory, cloud):
    def run(rate):
        net = FaultyNetwork(drop=rate, duplicate=rate, seed=11) if rate else None
        return _evaluate(laplace, laplace_factory, cloud, net=net)

    sweep = degradation_sweep(run, [0.02, 0.05])
    assert sweep["baseline_makespan"] > 0
    assert [r["rate"] for r in sweep["rows"]] == [0.02, 0.05]
    assert all(r["bit_identical"] for r in sweep["rows"])
