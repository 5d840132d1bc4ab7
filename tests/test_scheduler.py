"""Discrete-event scheduler: virtual time, stealing, priorities, determinism."""

import numpy as np
import pytest

from repro.hpx.network import InfiniteNetwork, NetworkModel
from repro.hpx.scheduler import HIGH, LOW, ScheduleFuzzer, Scheduler, Task
from repro.hpx.tracing import Tracer


def make_sched(L=1, W=2, policy=None, seed=1):
    return Scheduler(
        n_localities=L,
        workers_per_locality=W,
        network=NetworkModel(),
        tracer=Tracer(enabled=True),
        policy=policy,
        steal_seed=seed,
    )


def noop(cost):
    def body(ctx):
        ctx.charge("work", cost)

    return body


def test_single_worker_serializes():
    s = make_sched(W=1)
    for _ in range(5):
        s.enqueue(Task(fn=noop(1e-3), op_class="work"), 0, 0.0)
    t = s.run()
    assert t == pytest.approx(5e-3)


def test_two_workers_halve_makespan():
    s = make_sched(W=2)
    for _ in range(6):
        s.enqueue(Task(fn=noop(1e-3), op_class="work"), 0, 0.0)
    t = s.run()
    assert t == pytest.approx(3e-3)


def test_stealing_balances_one_hot_queue():
    """All tasks land on one worker's deque; the other must steal."""
    s = make_sched(W=2)
    for _ in range(10):
        s.enqueue(Task(fn=noop(1e-3), op_class="work"), 0, 0.0, worker_hint=0)
    assert len(s.deques[0][LOW]) == 10
    t = s.run()
    assert t == pytest.approx(5e-3)
    assert s.steals > 0


def test_no_cross_locality_stealing():
    """Work on locality 0 cannot be stolen by locality 1's workers."""
    s = make_sched(L=2, W=1)
    for _ in range(4):
        s.enqueue(Task(fn=noop(1e-3), op_class="work"), 0, 0.0)
    t = s.run()
    assert t == pytest.approx(4e-3)  # serialized on locality 0's only worker


def test_priorities_order_execution():
    s = make_sched(W=1, policy="binary")
    order = []

    def tagged(tag):
        def body(ctx):
            ctx.charge("work", 1e-6)
            order.append(tag)

        return body

    s.enqueue(Task(fn=tagged("low1"), priority=LOW), 0, 0.0)
    s.enqueue(Task(fn=tagged("low2"), priority=LOW), 0, 0.0)
    s.enqueue(Task(fn=tagged("high"), priority=HIGH), 0, 0.0)
    s.run()
    assert order[0] == "high"


def test_priorities_ignored_when_disabled():
    s = make_sched(W=1)
    order = []

    def tagged(tag):
        def body(ctx):
            ctx.charge("work", 1e-6)
            order.append(tag)

        return body

    s.enqueue(Task(fn=tagged("a"), priority=LOW), 0, 0.0)
    s.enqueue(Task(fn=tagged("b"), priority=HIGH), 0, 0.0)
    s.run()
    # LIFO pop: last enqueued runs first, priority has no effect
    assert order == ["b", "a"]


def test_spawned_tasks_run():
    s = make_sched(W=2)
    done = []

    def parent(ctx):
        ctx.charge("work", 1e-6)
        ctx.spawn(Task(fn=lambda c: done.append(1), op_class="child", cost=1e-6))

    s.enqueue(Task(fn=parent, op_class="work"), 0, 0.0)
    s.run()
    assert done == [1]


def test_effects_release_at_completion_time():
    """A long task's spawn lands at its end, not its start."""
    s = make_sched(W=2)
    times = []

    def long_task(ctx):
        ctx.charge("work", 1e-2)
        ctx.spawn(Task(fn=lambda c: times.append(c.time), op_class="child", cost=0.0))

    s.enqueue(Task(fn=long_task), 0, 0.0)
    s.run()
    assert times[0] == pytest.approx(1e-2)


def test_task_static_cost_used_when_no_charges():
    s = make_sched(W=1)
    s.enqueue(Task(fn=lambda ctx: None, op_class="fixed", cost=2e-3), 0, 0.0)
    assert s.run() == pytest.approx(2e-3)


def test_trace_segments_recorded():
    s = make_sched(W=1)

    def multi(ctx):
        ctx.charge("a", 1e-3)
        ctx.charge("b", 2e-3)

    s.enqueue(Task(fn=multi), 0, 0.0)
    s.run()
    tr = s.tracer
    assert tr.classes == ["a", "b"]
    assert tr.busy_time("a") == pytest.approx(1e-3)
    assert tr.busy_time("b") == pytest.approx(2e-3)
    events = tr.events()
    # segments are contiguous within the task
    assert events[0].t_end == pytest.approx(events[1].t_start)


def test_negative_charge_rejected():
    s = make_sched(W=1)

    def bad(ctx):
        ctx.charge("x", -1.0)

    s.enqueue(Task(fn=bad), 0, 0.0)
    with pytest.raises(ValueError):
        s.run()


def test_determinism_across_runs():
    def build_and_run(seed):
        s = make_sched(L=2, W=4, seed=seed)
        rng = np.random.default_rng(0)

        def recursive(depth):
            def body(ctx):
                ctx.charge("w", 1e-6 * (depth + 1))
                if depth < 3:
                    for _ in range(2):
                        ctx.spawn(Task(fn=recursive(depth + 1), op_class="w"))

            return body

        for loc in range(2):
            for _ in range(8):
                s.enqueue(Task(fn=recursive(0), op_class="w"), loc, 0.0)
        return s.run()

    assert build_and_run(5) == build_and_run(5)


def test_idle_workers_wake_for_late_work():
    """A task arriving after quiescence is picked up on the next run."""
    s = make_sched(W=2)
    s.enqueue(Task(fn=noop(1e-3)), 0, 0.0)
    t1 = s.run()
    done = []
    s.enqueue(Task(fn=lambda ctx: done.append(ctx.time), cost=1e-3), 0, t1)
    s.run()
    assert done and done[0] >= t1


def test_run_until_keeps_over_horizon_event():
    """Pausing before a task's completion must not lose its done event."""
    s = make_sched(W=1)
    s.enqueue(Task(fn=noop(1e-3), op_class="work"), 0, 0.0)
    assert s.run(until=4e-4) == pytest.approx(4e-4)
    # the completion (and its buffered effects) fire on the resumed run
    assert s.run() == pytest.approx(1e-3)
    assert s.tasks_run == 1
    assert s.tracer.busy_time("work") == pytest.approx(1e-3)


def _recursive_workload(seed):
    s = make_sched(L=2, W=4, seed=seed)

    def recursive(depth):
        def body(ctx):
            ctx.charge("w", 1e-6 * (depth + 1))
            if depth < 3:
                for _ in range(2):
                    ctx.spawn(Task(fn=recursive(depth + 1), op_class="w"))

        return body

    for loc in range(2):
        for _ in range(8):
            s.enqueue(Task(fn=recursive(0), op_class="w"), loc, 0.0)
    return s


def test_pause_resume_bit_identical():
    """run(until) + run() must equal one uninterrupted run exactly."""
    a = _recursive_workload(5)
    t_end = a.run()

    b = _recursive_workload(5)
    b.run(until=t_end * 0.37)
    b.run(until=t_end * 0.81)
    assert b.run() == t_end
    assert b.steals == a.steals
    assert b.tasks_run == a.tasks_run
    assert b.tracer.events() == a.tracer.events()


def _assert_queue_counts(s) -> int:
    """Each worker's queue count is the length of its deques, and each
    locality's the sum of its workers'; returns the tasks queued."""
    assert s._queued == [sum(map(len, levels)) for levels in s.deques]
    assert s._loc_queued == [sum(s._queued[w] for w in ws) for ws in s.locality_workers]
    return sum(s._queued)


@pytest.mark.parametrize("policy", ["stock", "binary", "critical-path", "fuzzed"])
def test_queue_counts_match_the_deques(policy):
    """Checked at every pause of a run cut into 40 bounded pieces, under
    each ready-queue discipline and a fuzzed schedule: owner pops, steals
    and all three enqueue paths keep the per-worker and per-locality
    counts a thief reads exact."""

    def workload():
        s = make_sched(L=2, W=4, policy=None if policy == "fuzzed" else policy, seed=3)
        if policy == "fuzzed":
            s.schedule_driver = ScheduleFuzzer(seed=11)

        def recursive(depth):
            def body(ctx):
                ctx.charge("w", 1e-6 * (depth + 1))
                if depth < 4:
                    for i in range(2):
                        ctx.spawn(Task(fn=recursive(depth + 1), op_class="w", priority=(depth + i) % 3))

            return body

        for loc in range(2):
            for _ in range(6):
                s.enqueue(Task(fn=recursive(0), op_class="w"), loc, 0.0)
        return s

    t_end = workload().run()
    s = workload()
    queued = [_assert_queue_counts(s)]
    for k in range(1, 41):
        s.run(until=t_end * k / 40)
        queued.append(_assert_queue_counts(s))
    assert s.now == t_end and s.steals > 0
    assert max(queued) > 0 and queued[-1] == 0


def test_fuzzed_wakeup_preserves_idle_order():
    """The fuzzed wake drops stale/duplicate entries and keeps order."""
    s = make_sched(W=4)
    s.run()  # quiesce: all four workers park idle in worker order
    assert list(s._idle[0]) == [0, 1, 2, 3]
    # a stale duplicate (as a woken-but-not-removed entry would leave)
    s._idle[0].appendleft(2)
    s.schedule_driver = drv = ScheduleFuzzer(seed=3)
    s.enqueue(Task(fn=noop(1e-6), op_class="work"), 0, s.now)
    woken = next(v for k, v in reversed(drv.trace.decisions) if k == "wake")
    assert woken not in s._idle_set
    remaining = list(s._idle[0])
    assert remaining == [w for w in (2, 0, 1, 3) if w != woken]
    assert len(remaining) == len(set(remaining))  # deduplicated


def test_pooled_contexts_hold_nothing_after_run():
    """Contexts go back to the pool empty and unbound: a finished run
    does not pin its last tasks' LCOs, parcels or closures, and no pooled
    context points back up at the scheduler that pools it."""
    from repro.hpx.lco import AndLCO
    from repro.hpx.runtime import Runtime, RuntimeConfig

    rt = Runtime(RuntimeConfig(n_localities=1, workers_per_locality=2))
    lco = AndLCO(rt, 0, 4)
    for _ in range(4):
        rt.enqueue_task(Task(fn=lambda ctx: ctx.lco_set(lco), cost=1e-6), 0)
    rt.run()
    assert lco.triggered
    pool = rt.scheduler._ctx_pool
    assert pool
    for ctx in pool:
        assert ctx.effects == [] and ctx.charges == []
        assert ctx.scheduler is None and ctx.hb is None


def test_invalid_configuration():
    with pytest.raises(ValueError):
        Scheduler(0, 1, NetworkModel())
    with pytest.raises(ValueError):
        Scheduler(1, 0, NetworkModel())
