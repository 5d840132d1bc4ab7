"""Reliable parcel transport: dedup, acks, retries, budgets, timers."""

import pytest

from repro.hpx import (
    FaultyNetwork,
    LCOError,
    Parcel,
    Runtime,
    RuntimeConfig,
    TransportError,
)
from repro.hpx.scheduler import Task
from repro.hpx.transport import ReliableTransport


def _runtime(net=None, reliable=True, **kw):
    cfg = RuntimeConfig(
        n_localities=2, workers_per_locality=1, progress_cost=0.0, reliable=reliable, **kw
    )
    if net is not None:
        cfg.network = net
    return Runtime(cfg)


def _send_pings(rt, count, size_bytes=256):
    """One task on locality 0 fires ``count`` remote pings at locality 1."""
    seen = []
    rt.register_action("ping", lambda ctx, target, i: seen.append(i))

    def sender(ctx):
        ctx.charge("send", 1e-6)
        for i in range(count):
            ctx.send_parcel(
                Parcel(action="ping", target=1, args=(i,), size_bytes=size_bytes)
            )

    rt.enqueue_task(Task(fn=sender, op_class="send"), 0)
    return seen


def test_reliable_over_clean_network_is_transparent():
    rt = _runtime()
    seen = _send_pings(rt, 10)
    rt.run()
    assert sorted(seen) == list(range(10))
    xp = rt.stats()["transport"]
    assert xp["retries"] == 0
    assert xp["acks_sent"] == 10
    assert xp["in_flight"] == 0


def test_drops_are_retried_until_delivered():
    rt = _runtime(net=FaultyNetwork(drop=0.4, seed=21))
    seen = _send_pings(rt, 20)
    rt.run()
    assert sorted(seen) == list(range(20))  # exactly once each
    xp = rt.stats()["transport"]
    assert xp["retries"] > 0
    assert xp["in_flight"] == 0


def test_duplicates_are_suppressed():
    rt = _runtime(net=FaultyNetwork(duplicate=1.0, seed=4))
    seen = _send_pings(rt, 8)
    rt.run()
    assert sorted(seen) == list(range(8))
    assert rt.stats()["transport"]["dups_suppressed"] >= 8


def test_direct_transport_delivers_duplicates_raw():
    rt = _runtime(net=FaultyNetwork(duplicate=1.0, seed=4), reliable=False)
    seen = _send_pings(rt, 8)
    rt.run()
    assert len(seen) == 16  # every parcel arrives twice
    assert "transport" not in rt.stats()


def test_direct_transport_loses_drops_silently():
    rt = _runtime(net=FaultyNetwork(drop=1.0, seed=2), reliable=False)
    seen = _send_pings(rt, 5)
    rt.run()
    assert seen == []


def test_retry_budget_exhaustion_raises_structured_error():
    rt = _runtime(
        net=FaultyNetwork(drop=1.0, seed=3), retry_limit=3, retry_timeout=1e-5
    )
    _send_pings(rt, 1)
    with pytest.raises(TransportError) as ei:
        rt.run()
    assert ei.value.attempts == 4  # initial send + 3 retries
    assert ei.value.parcel.action == "ping"


def test_backoff_spreads_retransmissions():
    """With everything dropped, successive retries land at geometric gaps."""
    rt = _runtime(
        net=FaultyNetwork(drop=1.0, seed=5),
        retry_limit=4,
        retry_timeout=1e-5,
        retry_backoff=2.0,
    )
    _send_pings(rt, 1, size_bytes=0)
    with pytest.raises(TransportError):
        rt.run()
    # 1 original + 4 retries hit the NIC (the runtime's private network
    # copy holds the counters; the config's instance stays untouched)
    assert rt.network.fault_stats()["dropped"] == 5


def test_acked_timers_do_not_inflate_makespan():
    """A clean reliable run must not wait out the (cancelled) retry timers."""
    slow = RuntimeConfig(
        n_localities=2,
        workers_per_locality=1,
        progress_cost=0.0,
        reliable=True,
        retry_timeout=10.0,  # absurdly long: would dominate t if not cancelled
    )
    rt = Runtime(slow)
    seen = _send_pings(rt, 3)
    t = rt.run()
    assert sorted(seen) == [0, 1, 2]
    assert t < 1.0  # clock stops at the last real event, not at +10s


def test_reorder_does_not_lose_or_duplicate():
    rt = _runtime(net=FaultyNetwork(reorder=1.0, reorder_jitter=20e-6, seed=6))
    seen = _send_pings(rt, 30)
    rt.run()
    assert sorted(seen) == list(range(30))


def test_outage_recovers_after_window():
    """Everything sent into a blackout is retried until the window lifts."""
    net = FaultyNetwork(outages=((1, 0.0, 2e-4),), seed=8)
    rt = _runtime(net=net, retry_timeout=5e-5, retry_limit=10)
    seen = _send_pings(rt, 5)
    t = rt.run()
    assert sorted(seen) == list(range(5))
    assert t >= 2e-4  # nothing could land before the outage lifted
    assert rt.stats()["transport"]["retries"] > 0


def test_memget_under_faults_with_reliable_transport():
    """The two-parcel memget round trip survives a lossy network."""
    rt = _runtime(net=FaultyNetwork(drop=0.3, duplicate=0.3, seed=12))
    box = rt.gas.alloc(1, "payload")
    got = []

    def starter(ctx):
        ctx.charge("go", 1e-6)
        fut = rt.memget(ctx, box)
        fut.on_trigger(lambda c: got.append(fut.value))

    rt.enqueue_task(Task(fn=starter, op_class="go"), 0)
    rt.run()
    assert got == ["payload"]


def test_retry_exhaustion_raises_exactly_once_with_failing_parcel():
    """Several doomed parcels: one structured abort, not an error storm.

    The first exhausted parcel wins; the scheduler quiesces after the
    current event, so the raised ``TransportError`` carries the failing
    parcel, the attempt/retry counters and a checkpoint of the
    still-consistent runtime state.
    """
    rt = _runtime(
        net=FaultyNetwork(drop=1.0, seed=3), retry_limit=3, retry_timeout=1e-5
    )
    _send_pings(rt, 3)
    with pytest.raises(TransportError) as ei:
        rt.run()
    exc = ei.value
    assert exc.parcel.action == "ping"
    assert exc.attempts == 4  # initial transmission + 3 retries
    assert exc.retries == 3  # and the two stay consistent
    assert "attempts=4" in str(exc) and "retries=3" in str(exc)
    # the abort path captured a checkpoint of the quiesced runtime
    assert exc.checkpoint is rt.checkpoints[-1]
    assert exc.checkpoint.label == "abort"
    # the scheduler handed the abort off cleanly (no sticky state)
    assert rt.scheduler.aborted is None


@pytest.mark.parametrize("fuzz", [17, 91])
def test_stale_and_duplicate_ack_accounting_under_fuzz(fuzz):
    """Fuzzed schedules + dup/reorder/drop faults: the pending/seen
    ledgers must balance - exactly-once delivery, zero in flight, and
    every duplicate or stale ack accounted rather than crashing."""
    runs = []
    for _ in range(2):  # identical seeds: accounting must be deterministic
        rt = _runtime(
            net=FaultyNetwork(drop=0.2, duplicate=0.5, reorder=0.5, seed=13),
            fuzz_schedule=fuzz,
        )
        seen = _send_pings(rt, 25)
        rt.run()
        assert sorted(seen) == list(range(25))
        xp = rt.stats()["transport"]
        assert xp["in_flight"] == 0
        assert xp["dups_suppressed"] > 0  # duplicates arrived and were eaten
        assert xp["stale_acks"] > 0  # dup/retransmit acks hit an empty slot
        assert xp["acks_sent"] >= 25  # one per delivery attempt that landed
        runs.append(xp)
    assert runs[0] == runs[1]


def test_outage_longer_than_retry_budget_suspends_and_resumes():
    """A blackout that outlives every retry no longer kills the run:
    exhausted parcels park until the outage window lifts, then resume
    with a fresh budget and deliver exactly once."""
    # budget: 1e-5 * (1+2+4) after the initial send - far less than 2e-3
    net = FaultyNetwork(outages=((1, 0.0, 2e-3),), seed=8)
    rt = _runtime(net=net, retry_timeout=1e-5, retry_limit=3)
    seen = _send_pings(rt, 5)
    t = rt.run()
    assert sorted(seen) == list(range(5))
    assert t >= 2e-3  # nothing could land before the window lifted
    xp = rt.stats()["transport"]
    assert xp["suspensions"] > 0
    assert xp["resumes"] == xp["suspensions"]  # every parked parcel resumed
    assert xp["suspended"] == 0
    assert xp["in_flight"] == 0


def test_exhaustion_outside_outage_still_aborts():
    """Suspension is outage-attributed: plain loss (no window covering
    the parcel's lifetime) keeps the hard structured-abort behaviour."""
    net = FaultyNetwork(drop=1.0, outages=((1, 5e-3, 6e-3),), seed=8)
    rt = _runtime(net=net, retry_timeout=1e-5, retry_limit=3)
    _send_pings(rt, 1)
    with pytest.raises(TransportError):
        rt.run()


def test_invalid_transport_configuration():
    with pytest.raises(ValueError):
        ReliableTransport(timeout=0.0)
    with pytest.raises(ValueError):
        ReliableTransport(backoff=0.5)
