"""LCO semantics: predicates, continuations, late registration."""

import pytest

from repro.hpx import AndLCO, Future, LCOError, ReductionLCO, Runtime, RuntimeConfig
from repro.hpx.lco import CountingLCO
from repro.hpx.scheduler import Task


def _rt(**kw):
    return Runtime(RuntimeConfig(n_localities=1, workers_per_locality=2, **kw))


def _setter(rt, lco, value=None, at=0.0):
    rt.enqueue_task(
        Task(fn=lambda ctx: ctx.lco_set(lco, value), op_class="set", cost=1e-6), 0
    )


def test_future_triggers_once():
    rt = _rt()
    fut = Future(rt, 0)
    seen = []
    fut.on_trigger(lambda ctx: seen.append(fut.value))
    _setter(rt, fut, "hello")
    rt.run()
    assert fut.triggered
    assert seen == ["hello"]


def test_future_double_set_is_error():
    rt = _rt()
    fut = Future(rt, 0)
    fut.on_trigger(lambda ctx: None)
    _setter(rt, fut, 1)
    _setter(rt, fut, 2)
    with pytest.raises(RuntimeError):
        rt.run()


def test_and_lco_counts():
    rt = _rt()
    lco = AndLCO(rt, 0, n_inputs=3)
    seen = []
    lco.on_trigger(lambda ctx: seen.append("done"))
    for _ in range(3):
        _setter(rt, lco)
    rt.run()
    assert seen == ["done"]


def test_and_lco_not_triggered_early():
    rt = _rt()
    lco = AndLCO(rt, 0, n_inputs=3)
    lco.on_trigger(lambda ctx: None)
    _setter(rt, lco)
    _setter(rt, lco)
    rt.run()
    assert not lco.triggered


def test_reduction_sums_inputs():
    rt = _rt()
    red = ReductionLCO(rt, 0, 4, lambda a, b: a + b, 0)
    out = []
    red.on_trigger(lambda ctx: out.append(red.value))
    for v in (1, 2, 3, 4):
        _setter(rt, red, v)
    rt.run()
    assert out == [10]


def test_continuation_after_trigger_runs_immediately():
    rt = _rt()
    fut = Future(rt, 0)
    _setter(rt, fut, 99)
    rt.run()
    assert fut.triggered
    # register after trigger: must still run (Fig. 2 backfill semantics)
    late = []
    fut.on_trigger(lambda ctx: late.append(fut.value))
    rt.run()
    assert late == [99]


def test_multiple_continuations_all_run():
    rt = _rt()
    lco = AndLCO(rt, 0, 1)
    seen = []
    for i in range(5):
        lco.on_trigger(lambda ctx, i=i: seen.append(i))
    _setter(rt, lco)
    rt.run()
    assert sorted(seen) == [0, 1, 2, 3, 4]


def test_lco_lives_in_gas():
    rt = _rt()
    fut = Future(rt, 0)
    assert rt.gas.translate(fut.addr, 0) is fut


def test_invalid_input_counts():
    rt = _rt()
    with pytest.raises(ValueError):
        AndLCO(rt, 0, 0)
    with pytest.raises(ValueError):
        ReductionLCO(rt, 0, 0, lambda a, b: a, None)


def test_chained_dataflow():
    """LCO triggering spawns a task that sets the next LCO (a pipeline)."""
    rt = _rt()
    a = Future(rt, 0)
    b = Future(rt, 0)
    c = Future(rt, 0)

    def forward(dst):
        def body(ctx):
            ctx.charge("fwd", 1e-6)
            ctx.lco_set(dst, "token")

        return body

    a.on_trigger(forward(b), op_class="fwd")
    b.on_trigger(forward(c), op_class="fwd")
    _setter(rt, a, "token")
    t = rt.run()
    assert c.triggered
    assert t >= 3e-6  # three sequential microsecond tasks


# -- structured errors and keyed dedup ----------------------------------------


def test_double_set_raises_structured_lco_error():
    """The old bare-RuntimeError path now carries LCO class and address."""
    rt = _rt()
    fut = Future(rt, 0)
    _setter(rt, fut, 1)
    _setter(rt, fut, 2)
    with pytest.raises(LCOError) as ei:
        rt.run()
    err = ei.value
    assert isinstance(err, RuntimeError)  # existing except-clauses still catch
    assert err.lco_class == "Future"
    assert err.addr == fut.addr
    assert "Future" in str(err)


def test_keyed_duplicate_raises_without_dedup():
    rt = _rt()
    lco = AndLCO(rt, 0, n_inputs=2)
    for key in ("a", "a"):
        rt.enqueue_task(
            Task(
                fn=lambda ctx, k=key: ctx.lco_set(lco, None, key=k, op_class="M2L"),
                op_class="set",
                cost=1e-6,
            ),
            0,
        )
    with pytest.raises(LCOError) as ei:
        rt.run()
    assert ei.value.key == "a"
    assert ei.value.op_class == "M2L"
    assert ei.value.lco_class == "AndLCO"


def test_keyed_duplicate_suppressed_with_dedup():
    """Under the reliable transport a retried contribution folds once."""
    rt = _rt()
    rt.scheduler.lco_dedup = True
    lco = AndLCO(rt, 0, n_inputs=2)
    seen = []
    lco.on_trigger(lambda ctx: seen.append("done"))
    for key in ("a", "a", "b"):
        rt.enqueue_task(
            Task(
                fn=lambda ctx, k=key: ctx.lco_set(lco, None, key=k),
                op_class="set",
                cost=1e-6,
            ),
            0,
        )
    rt.run()
    assert seen == ["done"]  # triggered exactly once, by the two distinct keys
    assert rt.stats()["lco_dups_suppressed"] == 1


def test_future_tolerates_post_trigger_set_under_dedup():
    """Single-assignment futures are idempotent when dedup is on."""
    rt = _rt()
    rt.scheduler.lco_dedup = True
    fut = Future(rt, 0)
    _setter(rt, fut, "first")
    _setter(rt, fut, "second")
    rt.run()
    assert fut.triggered
    assert fut.value == "first"
    assert rt.stats()["lco_dups_suppressed"] == 1


def test_non_tolerant_lco_still_rejects_post_trigger_under_dedup():
    rt = _rt()
    rt.scheduler.lco_dedup = True
    lco = AndLCO(rt, 0, n_inputs=1)
    _setter(rt, lco)
    _setter(rt, lco)  # unkeyed late input: a real protocol bug, not a retry
    with pytest.raises(LCOError):
        rt.run()


# -- grouped count-down (the scheduler's "lco_sets" effect) -------------------


class _TolerantCounter(CountingLCO):
    tolerate_post_trigger = True


#: groups of (lco index, dedup key, op class) entries, one effect each
_REPEATED_KEY = ([2, 1], [[(0, 1, "M2L"), (1, 2, "L2L"), (0, 1, "S2L"), (0, 3, "M2M")]])
_AFTER_TRIGGER = (
    [1, 2],
    [[(0, 1, "S2M"), (1, 2, "M2M")], [(0, 1, "M2I"), (0, 4, "I2I"), (1, 5, "I2L")]],
)


def _count_groups(cls, n_inputs, groups, grouped, reliable, shared=False):
    """Feed ``groups`` from one task, as one ``lco_sets`` effect per group
    (a window over the entries of all groups as three columns) or one
    ``lco_set`` per entry; returns the error, the suppressed count,
    every LCO's ledger and, per continuation enqueued, every LCO's
    ``remaining`` at that moment.  ``shared`` gives the LCOs one dedup
    store, as a drain's LCOs have, instead of a key set each."""
    rt = _rt()
    sched = rt.scheduler
    sched.lco_dedup = reliable
    lcos = [cls(rt, 0, n) for n in n_inputs]
    store = bytearray(8) if shared else None
    for i, lco in enumerate(lcos):
        lco._store = store
        lco.on_trigger(lambda ctx: None, op_class=f"cont{i}")
    log = []
    enqueue = sched.enqueue

    def spy(task, locality, t, worker_hint=None):
        log.append((task.op_class, [lco.remaining for lco in lcos]))
        enqueue(task, locality, t, worker_hint)

    sched.enqueue = spy
    entries = [entry for group in groups for entry in group]
    columns = (
        [lcos[i] for i, _, _ in entries],
        [k for _, k, _ in entries],
        [op for _, _, op in entries],
    )

    def body(ctx):
        lo = 0
        for group in groups:
            hi = lo + len(group)
            if grouped:
                ctx.effects.append(("lco_sets", *columns, lo, hi))
            else:
                for i, key, op in group:
                    ctx.lco_set(lcos[i], None, key=key, op_class=op)
            lo = hi

    rt.enqueue_task(Task(fn=body, op_class="set", cost=1e-6), 0)
    try:
        rt.run()
        err = None
    except LCOError as exc:
        err = (str(exc), exc.key, exc.op_class, exc.lco_class)
    if shared:
        assert all(lco._seen_keys is None for lco in lcos)
        keys = [sorted({k for i, k, _ in entries if i == j and store[k]}) for j in range(len(lcos))]
    else:
        keys = [sorted(lco._seen_keys or ()) for lco in lcos]
    ledgers = [(lco.remaining, lco.triggered, k) for lco, k in zip(lcos, keys)]
    return err, sched.lco_dups_suppressed, ledgers, log


@pytest.mark.parametrize("reliable", [False, True])
@pytest.mark.parametrize("cls", [AndLCO, _TolerantCounter])
@pytest.mark.parametrize("case", [_REPEATED_KEY, _AFTER_TRIGGER], ids=["repeated-key", "after-trigger"])
def test_group_count_down_matches_per_input_sets(case, cls, reliable):
    """A group raises the same LCOError at the same entry, suppresses and
    counts the same inputs, and triggers in the same order as one
    ``lco_set`` per entry - with a key set per LCO and with one store
    shared by all, which must agree too."""
    n_inputs, groups = case
    grouped = _count_groups(cls, n_inputs, groups, True, reliable)
    assert grouped == _count_groups(cls, n_inputs, groups, False, reliable)
    for way in (True, False):
        assert _count_groups(cls, n_inputs, groups, way, reliable, shared=True) == grouped
    err, dups, _, _ = grouped
    if not reliable:
        # the repeated key itself: entry 3 of the one group, or the
        # triggered LCO's retransmission opening the second
        assert (err[1], err[2]) == ((1, "S2L") if case is _REPEATED_KEY else (1, "M2I"))
        assert "duplicate" in err[0] and dups == 0
    elif case is _REPEATED_KEY:
        assert err is None and dups == 1
    elif cls is AndLCO:
        # the retransmission is suppressed, the fresh input is fatal
        assert (err[1], err[2]) == (4, "I2I") and dups == 1
    else:
        assert err is None and dups == 2


def test_mid_group_trigger_enqueues_before_the_next_entry():
    for shared in (False, True):
        _, _, ledgers, log = _count_groups(
            AndLCO, [1, 1], [[(0, 1, "S2M"), (1, 2, "S2M")]], True, False, shared
        )
        # cont0 was enqueued while lco 1 still waited for its input
        assert log[1:] == [("cont0", [0, 1]), ("cont1", [0, 0])]
        assert ledgers == [(0, True, [1]), (0, True, [2])]
