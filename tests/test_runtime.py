"""Runtime facade: actions, parcels, progress accounting."""

import pytest

from repro.hpx import Parcel, Runtime, RuntimeConfig
from repro.hpx.network import InfiniteNetwork
from repro.hpx.scheduler import Task


def test_action_registration_and_dispatch():
    rt = Runtime(RuntimeConfig(n_localities=2, workers_per_locality=1))
    seen = []
    rt.register_action("ping", lambda ctx, target, v: seen.append((target, v)))
    rt.scheduler.post_parcel_arrival(Parcel(action="ping", target=1, args=(42,)), 0.0)
    rt.run()
    assert seen == [(1, 42)]


def test_duplicate_action_rejected():
    rt = Runtime(RuntimeConfig())
    rt.register_action("a", lambda ctx, t: None)
    with pytest.raises(ValueError):
        rt.register_action("a", lambda ctx, t: None)


def test_unregistered_action_raises():
    rt = Runtime(RuntimeConfig())
    rt.scheduler.post_parcel_arrival(Parcel(action="missing", target=0), 0.0)
    with pytest.raises(KeyError):
        rt.run()


def test_remote_parcel_takes_network_time():
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=1, progress_cost=0.0)
    rt = Runtime(cfg)
    times = []

    def sender(ctx):
        ctx.charge("send", 1e-6)
        ctx.send_parcel(Parcel(action="recv", target=1, size_bytes=6000, op_class="recv"))

    rt.register_action("recv", lambda ctx, t: times.append(ctx.time))
    rt.enqueue_task(Task(fn=sender, op_class="send"), 0)
    rt.run()
    # 1us task + 0.3us overhead + 6000B/6GBps = 1us + 1.5us latency
    assert times[0] == pytest.approx(1e-6 + 0.3e-6 + 1e-6 + 1.5e-6, rel=1e-6)


def test_local_parcel_is_immediate():
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=1, progress_cost=0.0)
    rt = Runtime(cfg)
    times = []

    def sender(ctx):
        ctx.charge("send", 1e-6)
        ctx.send_parcel(Parcel(action="recv", target=0, size_bytes=6000))

    rt.register_action("recv", lambda ctx, t: times.append(ctx.time))
    rt.enqueue_task(Task(fn=sender, op_class="send"), 0)
    rt.run()
    assert times[0] == pytest.approx(1e-6)


def test_progress_cost_charged_for_remote_only():
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=1, progress_cost=1e-6)
    rt = Runtime(cfg)

    def sender(ctx):
        ctx.charge("send", 1e-6)
        ctx.send_parcel(Parcel(action="recv", target=1, size_bytes=64))
        ctx.send_parcel(Parcel(action="recv", target=0, size_bytes=64))

    rt.register_action("recv", lambda ctx, t: None)
    rt.enqueue_task(Task(fn=sender, op_class="send"), 0)
    rt.run()
    assert rt.tracer.busy_time("_progress") == pytest.approx(1e-6)  # one remote


def test_stats_shape():
    rt = Runtime(RuntimeConfig(n_localities=2, workers_per_locality=4))
    rt.run()
    s = rt.stats()
    assert s["cores"] == 8
    assert set(s) >= {"time", "tasks_run", "steals", "parcels_sent", "remote_bytes"}


def test_memget_remote_round_trip_pays_two_parcels():
    """A remote get rides a request parcel out and a reply parcel home."""
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=1, progress_cost=0.0)
    rt = Runtime(cfg)
    box = rt.gas.alloc(1, "payload")
    got, when = [], []

    def starter(ctx):
        ctx.charge("go", 1e-6)
        fut = rt.memget(ctx, box, size_bytes=6000)
        fut.on_trigger(lambda c: (got.append(fut.value), when.append(c.time)))

    rt.enqueue_task(Task(fn=starter, op_class="go"), 0)
    rt.run()
    assert got == ["payload"]
    # request: 64B out; reply: 6000B back.  Each leg pays overhead +
    # transfer + latency, so the value cannot appear after one leg only.
    one_way = 0.3e-6 + 6000 / 6.0e9 + 1.5e-6
    assert when[0] >= 1e-6 + 2 * (0.3e-6 + 1.5e-6)
    assert when[0] >= 1e-6 + one_way  # the data leg alone
    assert rt.stats()["parcels_sent"] >= 2


def test_memget_reply_lands_on_requesting_locality():
    """_memget_reply resolves the future at its home, not the data's home."""
    cfg = RuntimeConfig(n_localities=3, workers_per_locality=1, progress_cost=0.0)
    rt = Runtime(cfg)
    box = rt.gas.alloc(2, {"k": 7})
    out = []

    def starter(ctx):
        ctx.charge("go", 1e-6)
        fut = rt.memget(ctx, box)
        assert fut.addr.locality == 0  # future lives with the requester
        fut.on_trigger(lambda c: out.append((c.locality, fut.value)))

    rt.enqueue_task(Task(fn=starter, op_class="go"), 0)
    rt.run()
    assert out == [(0, {"k": 7})]


def test_memget_local_skips_network():
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=1, progress_cost=0.0)
    rt = Runtime(cfg)
    box = rt.gas.alloc(0, "near")
    got = []

    def starter(ctx):
        ctx.charge("go", 1e-6)
        fut = rt.memget(ctx, box)
        fut.on_trigger(lambda c: got.append(fut.value))

    rt.enqueue_task(Task(fn=starter, op_class="go"), 0)
    rt.run()
    assert got == ["near"]
    assert rt.stats()["remote_bytes"] == 0


def test_runtimes_from_shared_config_do_not_share_network():
    """Two runtimes built from one config must not alias NIC state.

    Before the fix, both runtimes mutated the config's NetworkModel, so
    the second run inherited the first run's NIC busy-times (and a
    shared FaultyNetwork RNG), breaking reproducibility.
    """
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=1, progress_cost=0.0)

    def ping_time():
        rt = Runtime(cfg)
        times = []

        def sender(ctx):
            ctx.charge("send", 1e-6)
            ctx.send_parcel(
                Parcel(action="recv", target=1, size_bytes=6_000_000, op_class="recv")
            )

        rt.register_action("recv", lambda ctx, t: times.append(ctx.time))
        rt.enqueue_task(Task(fn=sender, op_class="send"), 0)
        rt.run()
        assert rt.network is not cfg.network
        return times[0]

    assert ping_time() == ping_time()  # identical, not serialized after the first
    assert cfg.network._nic_free == {}  # the config's instance was never touched
