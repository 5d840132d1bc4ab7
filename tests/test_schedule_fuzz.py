"""Schedule fuzzing, happens-before hazard detection, deterministic replay.

The tier-1 tests here certify, on small workloads:

* the fuzz machinery is invisible when off (bit-identical baseline);
* fuzzed schedules differ (makespans, steal counts) yet every method's
  potentials stay bit-identical and the hazard detector stays silent -
  the paper's schedule-independence claim as an executable assertion;
* a recorded schedule trace replays decision for decision (same clock,
  same potentials), survives a save/load round trip, and a stale trace
  fails loudly with :class:`ReplayDivergence`;
* a deliberately seeded set-after-trigger bug is always detected, has a
  schedule-dependent outcome under fuzzing, and any one outcome is
  reproduced exactly from its trace;
* GAS races and non-commutative fold orders are flagged, their
  correctly synchronized counterparts are not, and reliable-transport
  retransmissions are never misreported as hazards.

The ``fuzz``-marked sweeps at the bottom push the same assertions
through >= 100 fuzzed schedules per method (run with ``-m fuzz``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.schedules import fuzz_sweep
from repro.dashmm.evaluator import DashmmEvaluator
from repro.hpx.lco import Future, ReductionLCO
from repro.hpx.network import FaultyNetwork
from repro.hpx.parcel import Parcel
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.hpx.scheduler import ReplayDivergence, Task
from repro.hpx.tracing import SCHEDULE_DECISION_KINDS, ScheduleTrace
from repro.kernels.laplace import LaplaceKernel
from tests.reference_chain import assert_each_edge_counted_once


@pytest.fixture(scope="module")
def kernel():
    return LaplaceKernel(5)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(7)
    return rng.random((300, 3)), rng.random(300), rng.random((200, 3))


def _evaluate(kernel, cloud, method="fmm", **cfg_kwargs):
    sources, weights, targets = cloud
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=2, **cfg_kwargs)
    ev = DashmmEvaluator(kernel, method=method, threshold=30, runtime_config=cfg)
    rep = ev.evaluate(sources, weights, targets)
    # whatever the schedule, every edge counted down its LCO exactly once
    # (the drain carries no values, so the potentials could not tell)
    assert_each_edge_counted_once(rep.extras["registrar"])
    return rep


# -- invisibility of the machinery when off -------------------------------------


def test_detector_alone_changes_nothing(kernel, cloud):
    plain = _evaluate(kernel, cloud)
    detected = _evaluate(kernel, cloud, detect_hazards=True)
    assert detected.time == plain.time
    assert np.array_equal(detected.potentials, plain.potentials)
    assert detected.extras["hazards"] == []
    assert "schedule_trace" not in plain.extras


# -- schedule independence under fuzzing ----------------------------------------


@pytest.mark.parametrize("method", ["fmm", "bh"])
def test_fuzzed_schedules_bit_identical(kernel, cloud, method):
    def run(seed):
        return _evaluate(
            kernel, cloud, method=method, fuzz_schedule=seed, detect_hazards=True
        )

    baseline = _evaluate(kernel, cloud, method=method)
    result = fuzz_sweep(run, seeds=range(4), baseline=baseline)
    assert result.all_bit_identical, result.summary()
    assert result.total_hazards == 0, result.summary()
    # the sweep must actually perturb the schedule, or the verdict is vacuous
    assert result.distinct_makespans > 1, result.summary()
    assert all(r.decisions > 0 for r in result.rows)


def test_fuzz_decision_kinds_exercised(kernel, cloud):
    rep = _evaluate(kernel, cloud, fuzz_schedule=1)
    counts = rep.extras["schedule_trace"].counts()
    assert set(counts) <= set(SCHEDULE_DECISION_KINDS)
    # tie-breaks and placement occur on any workload; a multi-locality
    # coalescing run must also permute destination order
    for kind in ("tie", "place", "coalesce"):
        assert counts.get(kind, 0) > 0, counts


# -- priority policies stay schedule-independent ---------------------------------


@pytest.mark.parametrize("policy", ["binary", "critical-path"])
def test_priority_policy_fuzz_sweep(kernel, cloud, policy):
    """Every freedom the priority policies add routes through the driver.

    Fuzzed runs under a priority policy must still produce bit-identical
    potentials (vs that policy's own unfuzzed baseline), stay hazard
    free, and genuinely explore distinct schedules - including the
    interleave choice and eager-send event ordering of the
    critical-path policy.
    """

    def run(seed):
        return _evaluate(
            kernel,
            cloud,
            policy=policy,
            fuzz_schedule=seed,
            detect_hazards=True,
        )

    baseline = _evaluate(kernel, cloud, policy=policy)
    result = fuzz_sweep(run, seeds=range(4), baseline=baseline)
    assert result.all_bit_identical, result.summary()
    assert result.total_hazards == 0, result.summary()
    assert result.distinct_makespans > 1, result.summary()
    assert all(r.decisions > 0 for r in result.rows)


def test_critical_path_fuzz_records_interleave_choices(kernel, cloud):
    rep = _evaluate(kernel, cloud, policy="critical-path", fuzz_schedule=2)
    counts = rep.extras["schedule_trace"].counts()
    assert set(counts) <= set(SCHEDULE_DECISION_KINDS)
    assert counts.get("interleave", 0) > 0, counts


def test_priority_policy_replay_exact(kernel, cloud, tmp_path):
    fuzzed = _evaluate(
        kernel, cloud, policy="critical-path", fuzz_schedule=21, detect_hazards=True
    )
    trace = fuzzed.extras["schedule_trace"]
    path = tmp_path / "cp-schedule.json"
    trace.save(path)
    replayed = _evaluate(
        kernel,
        cloud,
        policy="critical-path",
        replay_schedule=str(path),
        detect_hazards=True,
    )
    assert replayed.time == fuzzed.time
    assert np.array_equal(replayed.potentials, fuzzed.potentials)
    assert replayed.runtime_stats["steals"] == fuzzed.runtime_stats["steals"]
    assert replayed.runtime_stats["events"] == fuzzed.runtime_stats["events"]
    assert replayed.runtime_stats["schedule_decisions"] == len(trace)


# -- deterministic replay --------------------------------------------------------


def test_record_save_load_replay(kernel, cloud, tmp_path):
    fuzzed = _evaluate(kernel, cloud, fuzz_schedule=11, detect_hazards=True)
    trace = fuzzed.extras["schedule_trace"]
    path = tmp_path / "schedule.json"
    trace.save(path)
    loaded = ScheduleTrace.load(path)
    assert loaded.decisions == trace.decisions
    assert loaded.meta == trace.meta

    replayed = _evaluate(
        kernel, cloud, replay_schedule=str(path), detect_hazards=True
    )
    assert replayed.time == fuzzed.time
    assert np.array_equal(replayed.potentials, fuzzed.potentials)
    assert (
        replayed.runtime_stats["steals"] == fuzzed.runtime_stats["steals"]
    )
    assert replayed.runtime_stats["events"] == fuzzed.runtime_stats["events"]
    assert replayed.runtime_stats["schedule_decisions"] == len(trace)


def test_fuzz_and_replay_mutually_exclusive():
    with pytest.raises(ValueError):
        Runtime(RuntimeConfig(fuzz_schedule=1, replay_schedule=ScheduleTrace()))


def test_replay_divergence_on_stale_trace():
    stale = ScheduleTrace(decisions=[["victim", 99]])
    cfg = RuntimeConfig(
        n_localities=1, workers_per_locality=2, replay_schedule=stale
    )
    rt = Runtime(cfg)
    with pytest.raises(ReplayDivergence):
        rt.enqueue_task(
            Task(fn=lambda ctx: ctx.charge("x", 1e-6), op_class="x"), 0
        )
        rt.run()


# -- seeded set-after-trigger bug: detect, fuzz, replay ---------------------------


def _racy_future_run(seed=None, replay=None):
    """Two equal-cost tasks race to set one Future with distinct keys.

    Under the reliable transport the future tolerates the post-trigger
    set (dedup suppresses it), so the loser's value is silently lost -
    the winner is decided by the schedule.  This is the deliberately
    seeded bug of the acceptance criteria.
    """
    cfg = RuntimeConfig(
        n_localities=1,
        workers_per_locality=2,
        reliable=True,
        fuzz_schedule=seed,
        replay_schedule=replay,
        detect_hazards=True,
    )
    rt = Runtime(cfg)
    fut = Future(rt, 0)
    winner = []

    def setter(ctx, tag):
        ctx.charge("set", 1e-6)
        ctx.lco_set(fut, tag, key=("racer", tag))

    fut.on_trigger(lambda ctx: winner.append(fut.value))
    for tag in ("A", "B"):
        rt.enqueue_task(Task(fn=setter, args=(tag,), op_class="racer"), 0)
    rt.run()
    return rt, winner[0]


def test_seeded_bug_always_detected_and_schedule_dependent():
    winners = set()
    for seed in range(8):
        rt, winner = _racy_future_run(seed)
        winners.add(winner)
        assert [r.kind for r in rt.hazards] == ["set-after-trigger"]
        # the lost update is visible in the dedup counter too
        assert rt.stats()["lco_dups_suppressed"] == 1
    # the outcome genuinely depends on the schedule
    assert winners == {"A", "B"}


def test_seeded_bug_reproduced_from_trace(tmp_path):
    rt, winner = _racy_future_run(seed=3)
    path = tmp_path / "bug.json"
    rt.schedule_trace.save(path)
    rt2, winner2 = _racy_future_run(replay=str(path))
    assert winner2 == winner
    assert rt2.now == rt.now
    assert [r.kind for r in rt2.hazards] == ["set-after-trigger"]


# -- GAS races --------------------------------------------------------------------


def test_gas_write_race_detected():
    cfg = RuntimeConfig(
        n_localities=2, workers_per_locality=2, detect_hazards=True
    )
    rt = Runtime(cfg)
    addr = rt.gas.alloc(1, 0)

    def put(ctx, v):
        ctx.charge("w", 1e-6)
        rt.memput(ctx, addr, v)

    for v in (1, 2):
        rt.enqueue_task(Task(fn=put, args=(v,), op_class="put"), 0)
    rt.run()
    kinds = {r.kind for r in rt.hazards}
    assert "gas-write-race" in kinds


def test_gas_lco_ordered_writes_clean():
    """write1 -> future trigger -> write2 is a happens-before chain."""
    cfg = RuntimeConfig(
        n_localities=2, workers_per_locality=2, detect_hazards=True
    )
    rt = Runtime(cfg)
    addr = rt.gas.alloc(1, 0)
    done = Future(rt, 1)

    def write1(ctx, target):
        ctx.charge("w", 1e-6)
        rt.gas.put_local(addr, 1, ctx.locality)
        ctx.lco_set(done, None)

    rt.register_action("w1", write1)

    def write2(ctx):
        rt.gas.put_local(addr, 2, ctx.locality)

    done.on_trigger(write2, op_class="w2", cost=1e-6)
    rt.enqueue_task(
        Task(
            fn=lambda ctx: ctx.send_parcel(Parcel(action="w1", target=addr)),
            op_class="start",
            cost=1e-6,
        ),
        0,
    )
    rt.run()
    assert rt.hazards == []
    assert rt.gas.translate(addr, 1) == 2


# -- non-commutative fold order ---------------------------------------------------


@pytest.mark.parametrize("commutative", [False, True])
def test_noncommutative_fold_flagging(commutative):
    cfg = RuntimeConfig(
        n_localities=1, workers_per_locality=2, detect_hazards=True
    )
    rt = Runtime(cfg)
    red = ReductionLCO(
        rt, 0, 2, op=lambda a, b: a + [b], init=[], commutative=commutative
    )

    def setter(ctx, v):
        ctx.charge("s", 1e-6)
        ctx.lco_set(red, v)

    for v in (1, 2):
        rt.enqueue_task(Task(fn=setter, args=(v,), op_class="s"), 0)
    rt.run()
    kinds = [r.kind for r in rt.hazards]
    if commutative:
        assert kinds == []
    else:
        assert kinds == ["unordered-noncommutative-fold"]


# -- transport duplicates are not hazards ----------------------------------------


def test_retransmissions_not_misreported(kernel, cloud):
    def run(seed):
        net = FaultyNetwork(drop=0.05, duplicate=0.05, seed=99)
        return _evaluate(
            kernel,
            cloud,
            network=net,
            reliable=True,
            fuzz_schedule=seed,
            detect_hazards=True,
        )

    baseline = run(None)
    assert baseline.extras["hazards"] == []
    result = fuzz_sweep(run, seeds=range(2), baseline=baseline)
    assert result.all_bit_identical, result.summary()
    assert result.total_hazards == 0, result.summary()


# -- full sweeps (run with -m fuzz) ----------------------------------------------


@pytest.mark.fuzz
@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_fuzz_sweep_100_schedules(kernel, cloud, method):
    def run(seed):
        return _evaluate(
            kernel, cloud, method=method, fuzz_schedule=seed, detect_hazards=True
        )

    result = fuzz_sweep(run, seeds=range(100))
    assert result.all_bit_identical, result.summary()
    assert result.total_hazards == 0, result.summary()
    assert result.distinct_makespans > 10, result.summary()


@pytest.mark.fuzz
def test_fuzz_sweep_fault_matrix(kernel, cloud):
    """Fuzzed schedules x faulty networks: still bit-identical, no hazards."""
    faults = {
        "drop": FaultyNetwork(drop=0.1, seed=5),
        "dup": FaultyNetwork(duplicate=0.1, seed=6),
        "both": FaultyNetwork(drop=0.05, duplicate=0.05, seed=7),
    }
    for name, net in faults.items():
        def run(seed, net=net):
            return _evaluate(
                kernel,
                cloud,
                network=net,
                reliable=True,
                fuzz_schedule=seed,
                detect_hazards=True,
            )

        result = fuzz_sweep(run, seeds=range(34))
        assert result.all_bit_identical, f"{name}: {result.summary()}"
        assert result.total_hazards == 0, f"{name}: {result.summary()}"
