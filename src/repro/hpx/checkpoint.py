"""Checkpoint/restore of a running simulated HPX-5 instance.

A :class:`RuntimeCheckpoint` captures the complete mutable execution
state of one :class:`~repro.hpx.runtime.Runtime` at a *quiescent
point* - between two events of the discrete-event loop, where no task
body is mid-flight and every heap/deque/LCO/transport invariant holds.
Periodic capture (``RuntimeConfig(checkpoint_every=...)``) pauses the
bounded event loop on the virtual clock; a structured scheduler abort
(:meth:`~repro.hpx.scheduler.Scheduler.abort`) quiesces to the same
kind of point before the error propagates, so even a failed run leaves
a restorable snapshot behind.

Design: in-place restore
------------------------
Scheduler-heap tasks are Python closures over live registrar and LCO
objects, so a pickled or cloned snapshot could never be resumed - the
clones would not be the objects the closures reference.  Instead the
checkpoint keeps every long-lived object (LCOs, tasks, parcels,
pending-transmission entries, timer events) *by reference* and records
only their mutable contents; :meth:`RuntimeCheckpoint.restore` writes
those contents back into the same object graph.  Restoring therefore
targets the runtime the checkpoint was captured from, and a restored
run is bit-identical - potentials *and* virtual clock - to one that
was never interrupted, because the rewound state is exactly the state
the uninterrupted run passed through.

What a snapshot contains:

* **scheduler** - the event heap (tuple entries by reference; ``done``
  events get their :class:`~repro.hpx.scheduler.TaskContext` charges
  and effects deep-captured, since contexts are pooled and recycled -
  an ``lco_sets`` window is kept by reference, its columns never
  change),
  per-worker deques (the per-worker and per-locality queue counts are
  recounted on restore),
  busy/idle bookkeeping, round-robin and burst
  counters, the monotonic event sequence number, the steal-RNG state
  and all statistics counters;
* **transport** - a reliable transport's own snapshot
  (:meth:`~repro.hpx.transport.ReliableTransport.checkpoint_state`: the
  pending/seen/seq ledger and its counters, per-parcel attempt counts
  and timer references, and the suspended-parcel table), and the
  cancelled flag of every scheduled ``call`` event;
* **network** - per-NIC injection clocks, and for a
  :class:`~repro.hpx.network.FaultyNetwork` the fault-RNG state and
  fault counters;
* **GAS** - the per-locality heap maps and allocation cursors (objects
  by reference);
* **LCOs** - every GAS-resident object exposing the
  ``checkpoint_state()`` / ``restore_state()`` protocol (the
  :class:`~repro.hpx.lco.LCO` base class implements it generically)
  has its mutable fields captured, with container and ndarray values
  copied;
* **schedule driver** - the fuzz-RNG state and trace length (the trace
  is truncated on restore), or the replayer cursor;
* **tracer** - the interval count (restored by truncation, so a
  resumed run does not double-record intervals);
* **participants** - any object registered (by weak reference) in
  ``Runtime.checkpoint_participants`` (e.g. the DASHMM registrar,
  whose lazy/deferred accumulators and result vector live outside the
  GAS) contributes an opaque state blob via the same protocol.

Restore invariants: the checkpoint must have been captured from the
same runtime instance; hazard detection must be off (vector-clock
state is not snapshotted); a checkpoint may be restored any number of
times (captured containers are copied again on every restore).
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np

from repro.hpx.scheduler import TaskContext


def copy_state(value: Any) -> Any:
    """Container-aware copy for snapshot values.

    Lists, dicts, sets and plain tuples are copied recursively and
    ndarrays are copied by value; everything else (tasks, parcels, LCO
    and tree references, named tuples such as a
    :class:`~repro.hpx.gas.GlobalAddress`, scalars) is shared by
    reference - identity of long-lived objects is exactly what in-place
    restore relies on.
    """
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [copy_state(v) for v in value]
    if type(value) is tuple:
        return tuple(copy_state(v) for v in value)
    if isinstance(value, dict):
        return {k: copy_state(v) for k, v in value.items()}
    if isinstance(value, set):
        return set(value)
    return value


def _copy_effects(effects) -> tuple:
    """:func:`copy_state` of a task's buffered effects, except that an
    ``lco_sets`` effect is kept by reference: it is a window over columns
    its sender never changes (a drain's compiled table), and copying
    them would copy the whole table once per pending task."""
    return tuple(e if e[0] == "lco_sets" else copy_state(e) for e in effects)


class RuntimeCheckpoint:
    """One quiescent-point snapshot of a :class:`Runtime`'s mutable state.

    Build via :meth:`capture` (or ``Runtime.checkpoint()``); apply via
    ``Runtime.restore(checkpoint)``.  Restoring rewinds the runtime's
    live object graph in place - see the module docstring.
    """

    __slots__ = (
        "_runtime",
        "time",
        "label",
        "_sched",
        "_heap",
        "_contexts",
        "_calls",
        "_transport",
        "_network",
        "_gas",
        "_lcos",
        "_driver",
        "_trace_len",
        "_participants",
    )

    # -- capture -----------------------------------------------------------------
    @classmethod
    def capture(cls, runtime, label: str = "periodic") -> "RuntimeCheckpoint":
        cp = cls.__new__(cls)
        # weak: the runtime keeps its checkpoints in Runtime.checkpoints
        cp._runtime = weakref.ref(runtime)
        cp.label = label
        sched = runtime.scheduler
        cp.time = sched.now

        # scheduler scalars + per-worker structures
        cp._sched = {
            "now": sched.now,
            "seq": sched._seq,
            "tasks_run": sched.tasks_run,
            "steals": sched.steals,
            "parcels_sent": sched.parcels_sent,
            "remote_bytes": sched.remote_bytes,
            "lco_dups_suppressed": sched.lco_dups_suppressed,
            "busy": list(sched.busy),
            "rr": list(sched._rr),
            "burst": list(sched._burst),
            "idle": tuple(tuple(d) for d in sched._idle),
            "idle_set": set(sched._idle_set),
            "deques": tuple(
                tuple(tuple(d) for d in levels) for levels in sched.deques
            ),
            "rng": sched._rng.getstate(),
        }

        # the event heap: entries are immutable tuples, kept by
        # reference.  "done" payloads hold pooled TaskContexts whose
        # lists are recycled after the event fires, so their contents
        # are captured by value (rebuilt as fresh contexts on restore);
        # "call" payloads are cancellable _Event objects whose
        # cancelled flag is captured here and rewound on restore.
        heap = tuple(sched._heap)
        cp._heap = heap
        contexts = {}
        calls = []
        for i, (_, _, _, kind, data) in enumerate(heap):
            if kind == "done":
                worker, ctx = data
                contexts[i] = (
                    worker,
                    ctx.time,
                    tuple(ctx.charges),
                    _copy_effects(ctx.effects),
                    ctx.hb,
                )
            elif kind == "call":
                calls.append((data, data.cancelled))
        cp._contexts = contexts
        cp._calls = calls

        # a reliable transport snapshots itself; a direct one holds no state
        transport = sched.transport
        cp._transport = transport.checkpoint_state() if transport.reliable else None

        # network model
        net = sched.network
        cp._network = {
            "nic_free": dict(net._nic_free),
            "rng": net._rng.getstate() if getattr(net, "_rng", None) else None,
            "counts": dict(net._counts) if getattr(net, "_counts", None) else None,
        }

        # GAS heaps (slot -> object reference) + allocation cursors,
        # and the mutable state of every checkpointable resident
        gas = runtime.gas
        cp._gas = {
            "heaps": [dict(h) for h in gas._heaps],
            "next": list(gas._next),
        }
        lcos = []
        for heap_map in gas._heaps:
            for obj in heap_map.values():
                snap = getattr(obj, "checkpoint_state", None)
                if snap is not None:
                    lcos.append((obj, snap()))
        cp._lcos = lcos

        # schedule driver: fuzzer records (rewound by truncating its
        # trace), replayer consumes (rewound by resetting its cursor)
        drv = sched.schedule_driver
        if drv is None:
            cp._driver = None
        elif hasattr(drv, "_rng"):
            cp._driver = ("fuzz", drv._rng.getstate(), len(drv.trace.decisions))
        else:
            cp._driver = ("replay", drv._i)

        cp._trace_len = len(runtime.tracer)

        # participants stay weak here too: a participant owns the runtime
        cp._participants = tuple(
            (ref, p.checkpoint_state())
            for ref in getattr(runtime, "checkpoint_participants", ())
            if (p := ref()) is not None
        )
        return cp

    # -- restore -----------------------------------------------------------------
    def restore(self, runtime) -> None:
        if runtime is not self._runtime():
            raise ValueError(
                "a RuntimeCheckpoint rewinds live object state in place "
                "and can only be restored onto the runtime it was "
                "captured from"
            )
        sched = runtime.scheduler
        st = self._sched
        sched.now = st["now"]
        sched._seq = st["seq"]
        sched.tasks_run = st["tasks_run"]
        sched.steals = st["steals"]
        sched.parcels_sent = st["parcels_sent"]
        sched.remote_bytes = st["remote_bytes"]
        sched.lco_dups_suppressed = st["lco_dups_suppressed"]
        sched.busy[:] = st["busy"]
        sched._rr[:] = st["rr"]
        sched._burst[:] = st["burst"]
        for d, items in zip(sched._idle, st["idle"]):
            d.clear()
            d.extend(items)
        sched._idle_set.clear()
        sched._idle_set.update(st["idle_set"])
        for levels, snap_levels in zip(sched.deques, st["deques"]):
            for d, items in zip(levels, snap_levels):
                d.clear()
                d.extend(items)
        queued = sched._queued
        queued[:] = [sum(map(len, levels)) for levels in sched.deques]
        sched._loc_queued[:] = [sum(queued[w] for w in ws) for ws in sched.locality_workers]
        sched._rng.setstate(st["rng"])
        sched._abort = None
        sched.aborted = None
        sched._ctx_pool.clear()

        # rebuild the heap in captured order (a valid heap layout):
        # "done" entries get fresh contexts populated from the snapshot
        contexts = self._contexts
        heap = []
        for i, entry in enumerate(self._heap):
            if i in contexts:
                worker, time, charges, effects, hb = contexts[i]
                ctx = TaskContext(worker, sched.worker_locality[worker], time)
                ctx.charges.extend(charges)
                ctx.effects.extend(_copy_effects(effects))
                ctx.hb = hb
                t, tie, seq, kind, _ = entry
                heap.append((t, tie, seq, kind, (worker, ctx)))
            else:
                heap.append(entry)
        sched._heap = heap
        for event, cancelled in self._calls:
            event.cancelled = cancelled

        if self._transport is not None:
            sched.transport.restore_state(self._transport)

        net = sched.network
        nst = self._network
        net._nic_free.clear()
        net._nic_free.update(nst["nic_free"])
        if nst["rng"] is not None:
            net._rng.setstate(nst["rng"])
        if nst["counts"] is not None:
            net._counts.clear()
            net._counts.update(nst["counts"])

        gas = runtime.gas
        for heap_map, snap in zip(gas._heaps, self._gas["heaps"]):
            heap_map.clear()
            heap_map.update(snap)
        gas._next[:] = self._gas["next"]
        for obj, state in self._lcos:
            obj.restore_state(state)

        drv = sched.schedule_driver
        if self._driver is not None:
            if self._driver[0] == "fuzz":
                _, rng_state, n = self._driver
                drv._rng.setstate(rng_state)
                del drv.trace.decisions[n:]
            else:
                drv._i = self._driver[1]

        tracer = runtime.tracer
        n = self._trace_len
        del tracer._worker[n:]
        del tracer._cls[n:]
        del tracer._t0[n:]
        del tracer._t1[n:]

        for ref, state in self._participants:
            participant = ref()
            if participant is not None:
                participant.restore_state(state)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<RuntimeCheckpoint t={self.time:.6g} label={self.label!r} "
            f"events={len(self._heap)} lcos={len(self._lcos)}>"
        )
