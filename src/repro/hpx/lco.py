"""Local control objects (LCOs): event-driven dataflow synchronization.

An LCO is a lightweight, globally addressable synchronization object
that co-locates data and control (Section III): it has *input slots*, a
*predicate* that decides when it is triggered, and *continuations*
(dependent tasks) that run once it triggers.  HPX-5 ships futures and
reductions and permits user-defined classes; DASHMM's expansion LCO
(:mod:`repro.dashmm.registrar`) is such a user-defined class.

Semantics mirrored here:

* inputs arrive through :meth:`TaskContext.lco_set` (applied when the
  setting task completes) and are folded in by :meth:`_fold`;
* after each input the :meth:`_predicate` is checked; on the first True
  the LCO triggers (:meth:`LCO._trigger`) and all registered
  continuations are spawned as lightweight threads on the LCO's home
  locality;
* continuations registered *after* triggering run immediately - that is
  what lets DASHMM backfill out-edges concurrently with execution.

A :class:`CountingLCO` discards its inputs and triggers when its count
reaches zero; its inputs may arrive a group at a time (:func:`count_down`,
the scheduler's ``"lco_sets"`` effect) with the per-input semantics.

Dedup keys are kept per LCO in a set, except where many LCOs draw their
keys from one dense range of ints - a drain's edge rows: there they
share one ``bytearray`` store (``_store``, one byte per key, set once
the key was folded), which the owner of the range allocates and
carries through its own checkpoints.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable

from repro.hpx.scheduler import Task


class LCOError(RuntimeError):
    """Structured LCO failure: which LCO, where, and which contribution.

    Replaces the bare ``RuntimeError`` the duplicate-set path used to
    raise, so a fault-injection failure (duplicated parcel replaying an
    edge with the reliable transport off) is diagnosable: the exception
    carries the LCO class, its GAS address, the op class of the
    offending contribution and its dedup key.
    """

    def __init__(
        self,
        message: str,
        *,
        lco: "LCO | None" = None,
        op_class: str | None = None,
        key: Any = None,
    ):
        self.lco_class = type(lco).__name__ if lco is not None else None
        self.addr = lco.addr if lco is not None else None
        self.op_class = op_class
        self.key = key
        super().__init__(
            f"{message} [lco={self.lco_class} addr={self.addr}"
            f" op={op_class} key={key}]"
        )


class LCO:
    """Base LCO.  Subclasses override ``_fold`` and ``_predicate``."""

    #: when the scheduler runs with LCO dedup on (reliable transport),
    #: a post-trigger set on a tolerant LCO is suppressed, not fatal -
    #: single-assignment futures are naturally idempotent
    tolerate_post_trigger = False

    #: declares whether folding two inputs in either order yields the
    #: same value.  The happens-before hazard detector
    #: (:mod:`repro.hpx.hazards`) flags concurrent contributions to an
    #: LCO whose fold is *not* commutative: their folded value would be
    #: schedule-dependent.  Subclasses with order-sensitive reductions
    #: must set this False (or take it as a constructor parameter, as
    #: :class:`ReductionLCO` does).
    fold_commutative = True

    #: a dedup store shared with other LCOs (see the module docstring),
    #: set per instance; None keeps this LCO's own key set
    _store: bytearray | None = None

    def __init__(self, runtime, locality: int):
        # weak: the runtime's GAS holds this LCO; read only to enqueue a
        # continuation registered after the trigger
        self._runtime = weakref.ref(runtime)
        self.locality = locality
        self.triggered = False
        self._continuations: list[Task] = []
        self._seen_keys: set | None = None
        self.addr = runtime.gas.alloc(locality, self)

    # -- protocol for subclasses ------------------------------------------------
    def _fold(self, value: Any, key: Any) -> None:
        """Accept one input (``key`` is its dedup key, already checked)."""
        raise NotImplementedError

    def _predicate(self) -> bool:
        raise NotImplementedError

    # -- runtime-facing ---------------------------------------------------------
    def _apply_set(
        self, value: Any, t: float, scheduler, key: Any = None, op_class=None
    ) -> None:
        """Fold one input in at time ``t``; trigger if the predicate holds.

        ``key`` identifies the logical contribution for dedup: a
        repeated key is counted and suppressed when ``scheduler.lco_dedup``
        is on (reliable transport - a retransmitted contribution must
        fold exactly once) and raises a structured :class:`LCOError`
        otherwise.
        """
        hz = scheduler.hazards
        if key is not None and not self._first(key):
            # a repeated dedup key is a transport-level duplicate
            # (retransmission), not a logic bug - never a hazard
            if scheduler.lco_dedup:
                scheduler.lco_dups_suppressed += 1
                return
            raise LCOError(
                "duplicate contribution at LCO",
                lco=self,
                op_class=op_class,
                key=key,
            )
        if self.triggered:
            if hz is not None:
                # a *fresh* contribution after the trigger is a logic
                # bug whether or not the runtime tolerates it below
                hz.on_post_trigger_set(self, t, op_class=op_class, key=key)
            if scheduler.lco_dedup and self.tolerate_post_trigger:
                scheduler.lco_dups_suppressed += 1
                return
            raise LCOError(
                "input arrived at an already-triggered LCO",
                lco=self,
                op_class=op_class,
                key=key,
            )
        if hz is not None:
            hz.on_lco_set(self, t, op_class=op_class)
        self._fold(value, key)
        if self._predicate():
            self._trigger(t, scheduler)

    def _first(self, key: Any) -> bool:
        """Record dedup key ``key``; False where it was recorded before."""
        store = self._store
        if store is not None:
            if store[key]:
                return False
            store[key] = 1
            return True
        seen = self._seen_keys
        if seen is None:
            seen = self._seen_keys = set()
        elif key in seen:
            return False
        seen.add(key)
        return True

    def _trigger(self, t: float, scheduler) -> None:
        """Mark the LCO triggered and enqueue its continuations at ``t``
        on its home locality."""
        self.triggered = True
        hz = scheduler.hazards
        if hz is not None:
            hz.on_lco_trigger(self, t)
            for task in self._continuations:
                if task.hb is None:
                    task.hb = hz.continuation_event(self, task.op_class, t)
        for task in self._continuations:
            scheduler.enqueue(task, self.locality, t)
        self._continuations.clear()

    def register_continuation(self, task: Task) -> None:
        """Attach a dependent task; runs at trigger (or now if triggered)."""
        if self.triggered:
            sched = self._runtime().scheduler
            hz = sched.hazards
            if hz is not None and task.hb is None:
                task.hb = hz.continuation_event(self, task.op_class, sched.now)
            sched.enqueue(task, self.locality, sched.now)
        else:
            self._continuations.append(task)

    def on_trigger(self, fn: Callable, *args, op_class: str = "continuation", cost: float | None = 0.0, priority: int = 1) -> None:
        """Convenience: register ``fn(ctx, *args)`` as a continuation."""
        self.register_continuation(
            Task(fn=fn, args=args, op_class=op_class, cost=cost, priority=priority)
        )

    # -- checkpoint/restore protocol (repro.hpx.checkpoint) ----------------------
    #: instance attributes excluded from the generic snapshot: fixed
    #: identity/wiring that never changes over an LCO's lifetime, and a
    #: shared dedup store, which its owner snapshots (a copy per LCO
    #: would not be shared; the store itself, kept by reference, would
    #: not be rewound)
    _checkpoint_skip = ("_runtime", "addr", "_store")

    def checkpoint_state(self) -> dict:
        """Snapshot of this LCO's mutable state (trigger flag, fold
        ledgers, buffered continuations).  Container and ndarray values
        are copied; object references (tasks, tree nodes) are shared -
        see :mod:`repro.hpx.checkpoint` on in-place restore.  Works for
        any subclass without ``__slots__``; subclasses with exotic
        state can override the pair."""
        from repro.hpx.checkpoint import copy_state

        skip = self._checkpoint_skip
        return {
            k: copy_state(v) for k, v in self.__dict__.items() if k not in skip
        }

    def restore_state(self, state: dict) -> None:
        """Write a :meth:`checkpoint_state` snapshot back in place (the
        snapshot is re-copied, so one checkpoint restores any number of
        times)."""
        from repro.hpx.checkpoint import copy_state

        for k, v in state.items():
            self.__dict__[k] = copy_state(v)


class Future(LCO):
    """Single-assignment LCO: triggers on its first (only) input.

    Duplicate-set tolerant under a reliable transport: a retransmitted
    reply re-setting an already-triggered future is suppressed (the
    first value stands) instead of crashing the run.
    """

    tolerate_post_trigger = True

    def __init__(self, runtime, locality: int):
        super().__init__(runtime, locality)
        self.value: Any = None
        self._set = False

    def _fold(self, value: Any, key: Any) -> None:
        self.value = value
        self._set = True

    def _predicate(self) -> bool:
        return self._set


class CountingLCO(LCO):
    """Counts ``n_inputs`` inputs down (values are discarded) and
    triggers when ``remaining`` reaches zero."""

    def __init__(self, runtime, locality: int, n_inputs: int):
        if n_inputs < 1:
            raise ValueError(f"{type(self).__name__} needs at least one input")
        super().__init__(runtime, locality)
        self.remaining = n_inputs

    def _fold(self, value: Any, key: Any) -> None:
        self.remaining -= 1

    def _predicate(self) -> bool:
        return self.remaining <= 0


def count_down(lcos, keys, op_classes, lo: int, hi: int, t: float, scheduler) -> None:
    """One input per entry ``i`` of ``lo:hi`` into the counting LCO
    ``lcos[i]`` under dedup key ``keys[i]`` (labelled ``op_classes[i]``),
    in entry order - a window over columns the caller owns and keeps
    unchanged, so a group costs no slices.

    Equivalent to one :meth:`LCO._apply_set` per entry - a trigger
    enqueues its continuations before the next entry is counted - which
    it calls for all but a fresh key of a shared store on an untriggered
    LCO with hazard detection off, so suppression, :class:`LCOError` and
    the hazard hooks stay there.
    """
    checked = scheduler.hazards is not None
    for i in range(lo, hi):
        lco, key = lcos[i], keys[i]
        store = lco._store
        if checked or store is None or lco.triggered or store[key]:
            lco._apply_set(None, t, scheduler, key=key, op_class=op_classes[i])
            continue
        store[key] = 1
        lco.remaining -= 1
        if lco.remaining <= 0:
            lco._trigger(t, scheduler)


class AndLCO(CountingLCO):
    """Triggers after a fixed number of inputs (values are discarded)."""


class ReductionLCO(LCO):
    """Folds ``n_inputs`` values with ``op`` starting from ``init``.

    ``commutative`` declares whether ``op`` is order-insensitive
    (addition, max, ...); pass ``False`` for order-sensitive folds
    (subtraction, concatenation, matrix products) so the hazard
    detector can flag concurrent contributions, whose fold order - and
    therefore the reduced value - would depend on the schedule.
    """

    def __init__(
        self,
        runtime,
        locality: int,
        n_inputs: int,
        op: Callable,
        init: Any,
        commutative: bool = True,
    ):
        if n_inputs < 1:
            raise ValueError("ReductionLCO needs at least one input")
        super().__init__(runtime, locality)
        self.remaining = n_inputs
        self.op = op
        self.value = init
        self.fold_commutative = commutative

    def _fold(self, value: Any, key: Any) -> None:
        self.value = self.op(self.value, value)
        self.remaining -= 1

    def _predicate(self) -> bool:
        return self.remaining == 0
