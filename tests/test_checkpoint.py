"""Checkpoint/restore: kill a run at any checkpoint, lose nothing.

The fail-safe contract: a run interrupted at a checkpoint and restored
is *bit-identical* - potentials AND virtual clock - to one that was
never interrupted, because a :class:`RuntimeCheckpoint` rewinds the
live object graph (scheduler heap, LCO ledgers, GAS, transport ledger,
registrar accumulators, RNG streams) to exactly the state the
uninterrupted run passed through.  Certified here across methods,
kernels, fuzzed schedules and a faulty network, plus the structured
abort path that leaves a checkpoint behind when a run dies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator
from repro.hpx import (
    FaultyNetwork,
    Parcel,
    Runtime,
    RuntimeConfig,
    TransportError,
)
from repro.hpx.checkpoint import copy_state
from repro.hpx.gas import GlobalAddress
from repro.hpx.scheduler import Task
from tests.reference_chain import assert_each_edge_counted_once


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(99)
    n = 700
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


def _evaluator(kernel, factory, method="fmm", **cfg_kw):
    return DashmmEvaluator(
        kernel,
        method=method,
        threshold=30,
        runtime_config=RuntimeConfig(
            n_localities=3, workers_per_locality=2, **cfg_kw
        ),
        factory=factory,
    )


def _assert_resumes_bit_identical(ev, baseline, checkpoints, picks):
    """Restore ``baseline`` at each picked checkpoint; demand identity."""
    for i in picks:
        resumed = ev.resume(baseline, checkpoints[i])
        assert np.array_equal(baseline.potentials, resumed.potentials), (
            f"potentials diverged after restore at checkpoint {i} "
            f"(t={checkpoints[i].time:.6g})"
        )
        assert resumed.time == baseline.time, (
            f"virtual clock diverged after restore at checkpoint {i}: "
            f"{resumed.time} != {baseline.time}"
        )
        assert resumed.extras["resumed_from"] == checkpoints[i].time
        assert resumed.extras["untriggered"] == 0
        # the restored ledgers plus the resumed drain count every edge once
        assert_each_edge_counted_once(resumed.extras["registrar"])


def test_kill_and_restore_at_every_checkpoint(laplace, laplace_factory, cloud):
    """The core guarantee, exhaustively: every checkpoint of one run is
    a valid kill point."""
    src, w, tgt = cloud
    ev = _evaluator(laplace, laplace_factory, checkpoint_every=2e-4)
    baseline = ev.evaluate(src, w, tgt)
    cps = baseline.extras["checkpoints"]
    assert len(cps) >= 3  # the run actually paused repeatedly
    assert [cp.time for cp in cps] == sorted(cp.time for cp in cps)
    assert baseline.runtime_stats["checkpoints"] == len(cps)
    _assert_resumes_bit_identical(ev, baseline, cps, range(len(cps)))


@pytest.mark.parametrize("policy", ["stock", "binary", "critical-path"])
def test_restore_recounts_the_queues(policy, laplace, laplace_factory, cloud):
    """At every kill point, in reverse so the deques change each time, a
    restore leaves each worker's queue count equal to its deques'
    length and each locality's equal to the sum of its workers' - the
    counts a steal attempt reads."""
    src, w, tgt = cloud
    ev = _evaluator(laplace, laplace_factory, checkpoint_every=2e-4, policy=policy)
    baseline = ev.evaluate(src, w, tgt)
    runtime = baseline.extras["runtime"]
    sched = runtime.scheduler
    queued, by_locality = [], []
    for cp in reversed(list(baseline.extras["checkpoints"])):
        runtime.restore(cp)
        assert sched._queued == [sum(map(len, levels)) for levels in sched.deques]
        assert sched._loc_queued == [
            sum(sched._queued[w] for w in ws) for ws in sched.locality_workers
        ]
        queued.append(sum(sched._queued))
        by_locality.append(tuple(sched._loc_queued))
    assert max(queued) > 0 and len(set(by_locality)) > 1
    resumed = ev.resume(baseline, baseline.extras["checkpoints"][0])
    assert resumed.time == baseline.time and sum(sched._queued) == sum(sched._loc_queued) == 0


@pytest.mark.parametrize("method", ["fmm", "bh"])
@pytest.mark.parametrize("kname", ["laplace", "yukawa"])
def test_restore_matrix_methods_kernels(kname, method, cloud, request):
    kernel = request.getfixturevalue(kname)
    factory = request.getfixturevalue(f"{kname}_factory")
    src, w, tgt = cloud
    ev = _evaluator(kernel, factory, method=method, checkpoint_every=3e-4)
    baseline = ev.evaluate(src, w, tgt)
    cps = baseline.extras["checkpoints"]
    assert cps, "run finished before the first checkpoint interval"
    picks = sorted({0, len(cps) // 2, len(cps) - 1})
    _assert_resumes_bit_identical(ev, baseline, cps, picks)


@pytest.mark.parametrize("fuzz", [7, 123])
def test_restore_under_fuzzed_schedules(fuzz, laplace, laplace_factory, cloud):
    """Fuzzed pick/steal decisions: the snapshot carries the fuzzer's
    RNG state and truncates its trace, so the resumed run re-makes the
    *same* perturbed decisions."""
    src, w, tgt = cloud
    ev = _evaluator(
        laplace, laplace_factory, checkpoint_every=3e-4, fuzz_schedule=fuzz
    )
    baseline = ev.evaluate(src, w, tgt)
    cps = baseline.extras["checkpoints"]
    assert cps
    picks = sorted({0, len(cps) // 2, len(cps) - 1})
    _assert_resumes_bit_identical(ev, baseline, cps, picks)


def test_restore_with_faulty_network_and_reliable_transport(
    laplace, laplace_factory, cloud
):
    """Retry timers, the transport's ledger and the fault-RNG all rewind."""
    src, w, tgt = cloud
    ev = _evaluator(
        laplace,
        laplace_factory,
        checkpoint_every=3e-4,
        reliable=True,
        network=FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=7),
    )
    baseline = ev.evaluate(src, w, tgt)
    assert baseline.runtime_stats["transport"]["retries"] > 0
    cps = baseline.extras["checkpoints"]
    assert cps
    picks = sorted({0, len(cps) // 2, len(cps) - 1})
    _assert_resumes_bit_identical(ev, baseline, cps, picks)


def test_restore_at_every_checkpoint_of_a_replayed_schedule(
    laplace, laplace_factory, cloud
):
    """A replayed run snapshots the replayer's cursor: every kill point
    of a run replaying a fuzzed trace resumes the same decisions."""
    src, w, tgt = cloud
    fuzzed = _evaluator(laplace, laplace_factory, fuzz_schedule=5).evaluate(src, w, tgt)
    ev = _evaluator(
        laplace,
        laplace_factory,
        checkpoint_every=3e-4,
        replay_schedule=fuzzed.extras["schedule_trace"],
    )
    baseline = ev.evaluate(src, w, tgt)
    assert baseline.time == fuzzed.time
    cps = baseline.extras["checkpoints"]
    assert len(cps) >= 3
    _assert_resumes_bit_identical(ev, baseline, cps, range(len(cps)))


def test_restore_at_every_checkpoint_across_an_outage(laplace, laplace_factory, cloud):
    """An outage longer than the retry budget parks parcels in the
    transport's suspended table; every kill point - those holding
    parked parcels among them - resumes bit for bit."""
    src, w, tgt = cloud
    ev = _evaluator(
        laplace,
        laplace_factory,
        checkpoint_every=2e-4,
        reliable=True,
        retry_timeout=20e-6,
        retry_limit=3,
        network=FaultyNetwork(outages=((1, 1e-4, 2.1e-3),), seed=5),
    )
    baseline = ev.evaluate(src, w, tgt)
    assert baseline.runtime_stats["transport"]["suspensions"] > 0
    runtime = baseline.extras["runtime"]
    cps = baseline.extras["checkpoints"]
    parked = 0
    for cp in cps:
        runtime.restore(cp)
        parked += runtime.stats()["transport"]["suspended"] > 0
    assert parked > 0
    _assert_resumes_bit_identical(ev, baseline, cps, range(len(cps)))


def test_abort_leaves_restorable_checkpoint():
    """A structured abort quiesces first, so the TransportError carries
    a checkpoint holding the failing parcel in the suspended table; a
    restore-and-resume re-drives it with a fresh retry budget (and, the
    network still being dead here, fails again - later, deterministically)."""
    cfg = RuntimeConfig(
        n_localities=2,
        workers_per_locality=1,
        progress_cost=0.0,
        reliable=True,
        retry_limit=3,
        retry_timeout=1e-5,
        network=FaultyNetwork(drop=1.0, seed=3),
    )
    rt = Runtime(cfg)
    rt.register_action("ping", lambda ctx, target, i: None)

    def sender(ctx):
        ctx.charge("send", 1e-6)
        ctx.send_parcel(Parcel(action="ping", target=1, args=(0,), size_bytes=64))

    rt.enqueue_task(Task(fn=sender, op_class="send"), 0)
    with pytest.raises(TransportError) as ei:
        rt.run()
    cp = ei.value.checkpoint
    assert cp.label == "abort"
    assert rt.stats()["transport"]["suspended"] == 1  # parked, not dropped
    t_fail = rt.scheduler.now
    rt.restore(cp)
    with pytest.raises(TransportError) as ei2:
        rt.run()
    # the parked parcel resumed with a fresh budget and burned it again
    assert rt.scheduler.now > t_fail
    assert ei2.value.attempts == ei.value.attempts
    assert rt.stats()["transport"]["resumes"] == 1


def test_snapshot_copies_keep_global_addresses():
    """A GlobalAddress is a tuple, but not a container: a snapshot keeps
    it as it is rather than copying it into a plain tuple."""
    addr = GlobalAddress(1, 2)
    copied = copy_state({"at": [addr, (addr, 3)]})
    assert copied["at"][0] is addr and copied["at"][1][0] is addr
    assert type(copied["at"][1]) is tuple


def test_restore_rejects_foreign_runtime():
    rt_a = Runtime(RuntimeConfig(n_localities=1, workers_per_locality=1))
    rt_b = Runtime(RuntimeConfig(n_localities=1, workers_per_locality=1))
    cp = rt_a.checkpoint()
    with pytest.raises(ValueError, match="captured from"):
        rt_b.restore(cp)


def test_checkpoint_config_validation():
    with pytest.raises(ValueError, match="checkpoint_every"):
        RuntimeConfig(checkpoint_every=0.0)
    with pytest.raises(ValueError, match="hazard"):
        RuntimeConfig(checkpoint_every=1e-4, detect_hazards=True)
    rt = Runtime(RuntimeConfig(n_localities=1, workers_per_locality=1, detect_hazards=True))
    with pytest.raises(ValueError, match="hazard"):
        rt.checkpoint()


def test_restore_drops_later_checkpoints(laplace, laplace_factory, cloud):
    """Rewinding to checkpoint i invalidates checkpoints > i on the
    runtime (the resumed run records its own); earlier ones survive."""
    src, w, tgt = cloud
    ev = _evaluator(laplace, laplace_factory, checkpoint_every=3e-4)
    baseline = ev.evaluate(src, w, tgt)
    runtime = baseline.extras["runtime"]
    cps = list(baseline.extras["checkpoints"])
    assert len(cps) >= 2
    runtime.restore(cps[0])
    assert runtime.checkpoints == [cps[0]]
    runtime.run()
    assert runtime.checkpoints[0] is cps[0]
    assert len(runtime.checkpoints) == len(cps)
