"""Happens-before hazard detection for the simulated HPX-5 runtime.

The paper's evaluation rests on schedule independence: randomized work
stealing, parcel coalescing and LCO dataflow may reorder work
arbitrarily, yet the result must not change.  A single execution can
certify that property for *all* schedules only if every pair of
conflicting operations is ordered by actual synchronization - the
happens-before (HB) relation - rather than by the accident of this
run's timing.  This module builds that relation online and flags the
three ways DASHMM-style programs break it:

* **set-after-trigger** - a *fresh* contribution (not a transport
  retransmission) arrives at an LCO that already fired.  Under the
  reliable transport a tolerant LCO silently drops it (a lost update);
  without dedup it raises ``LCOError``.  Either way it is a logic bug:
  the LCO's input count and the DAG disagree.
* **unordered non-commutative folds** - two contributions to one LCO
  are concurrent (neither happens-before the other) while the LCO's
  fold is declared non-commutative (``fold_commutative = False``): the
  folded value is schedule-dependent.
* **GAS races** - two writes, or a write and a read, of the same
  global address with no HB path between them (asynchronous
  ``memput``/``memget`` with no LCO synchronization in between).

Happens-before edges tracked
----------------------------
``spawn(parent task -> child task)``, ``LCO set -> LCO trigger ->
continuation task``, ``parcel send -> delivery task`` (shared by every
retransmitted copy), and ``bootstrap -> every root task`` (setup code
runs before the scheduler).  Deliberately *not* edges: same-worker
execution order and same-timestamp coincidences - those hold in this
schedule only, and using them would hide hazards the fuzzer could
expose in another schedule.

Implementation: Fidge/Mattern vector clocks over a greedy chain
decomposition.  Each task execution / LCO trigger is an event placed
on a chain (an event extends the chain of its first still-tip cause,
else starts a fresh chain), with a clock mapping ``chain -> position``.
``e1 happens-before e2`` is then the O(1) test
``e2.clock[e1.chain] >= e1.pos``.  Chain count tracks the DAG's width,
which keeps clocks small on dataflow-shaped programs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any

#: stop appending reports for one subject after this many (a single
#: systematic bug would otherwise bury the summary in repeats)
MAX_REPORTS_PER_SUBJECT = 10


@dataclass(frozen=True)
class HazardReport:
    """One detected concurrency hazard, with enough context to act on.

    ``kind`` is one of ``set-after-trigger``,
    ``unordered-noncommutative-fold``, ``gas-write-race``,
    ``gas-read-write-race``.  ``subject`` names the object (LCO class +
    GAS address, or bare GAS address); ``events`` the labels of the
    involved HB events; ``detail`` a human-readable explanation.
    """

    kind: str
    subject: str
    t: float
    detail: str
    events: tuple[str, ...] = ()

    def __str__(self) -> str:  # compact one-liner for logs/assertions
        ev = " vs ".join(self.events) if self.events else "-"
        return f"[{self.kind}] {self.subject} @t={self.t:.3e}: {self.detail} ({ev})"


class _HbEvent:
    """One node of the happens-before DAG (a task run or an LCO trigger)."""

    __slots__ = ("chain", "pos", "clock", "label", "t")

    def __init__(self, chain: int, pos: int, clock: dict, label: str, t: float):
        self.chain = chain
        self.pos = pos
        self.clock = clock  # chain -> highest position included
        self.label = label
        self.t = t

    def __repr__(self) -> str:
        return f"hb({self.label}@{self.chain}:{self.pos})"


def happens_before(e1: _HbEvent, e2: _HbEvent) -> bool:
    """True iff ``e1`` happens-before (or is) ``e2``."""
    return e2.clock.get(e1.chain, -1) >= e1.pos


def concurrent(e1: _HbEvent, e2: _HbEvent) -> bool:
    """True iff neither event happens-before the other."""
    return not happens_before(e1, e2) and not happens_before(e2, e1)


class HazardDetector:
    """Online vector-clock tracker + hazard reporter for one runtime.

    Installed by ``RuntimeConfig(detect_hazards=True)`` as
    ``scheduler.hazards`` and as the GAS ``monitor``.  All hooks are
    no-ops in terms of runtime semantics - the detector observes, it
    never alters the schedule, the virtual clock or any value.
    """

    def __init__(self, scheduler=None):
        #: weak: the scheduler holds this detector as ``hazards``; only
        #: used to timestamp GAS reports
        self._scheduler = None if scheduler is None else weakref.ref(scheduler)
        self._next_chain = 1
        self._tips: dict[int, int] = {0: 0}
        #: everything done before (and after) the scheduler loop is
        #: ordered against all tasks through the bootstrap event
        self.bootstrap = _HbEvent(0, 0, {0: 0}, "bootstrap", 0.0)
        #: HB event of the task currently executing (or releasing its
        #: effects); the single-threaded simulator makes this exact
        self.current: _HbEvent | None = None
        self.reports: list[HazardReport] = []
        #: transport-level duplicate deliveries observed (not hazards -
        #: retransmissions are the reliable protocol working as designed)
        self.transport_dups = 0
        #: address -> (concurrent-frontier writes, reads since them)
        self._gas: dict[Any, tuple[list, list]] = {}
        self._subject_counts: dict[str, int] = {}

    # -- event construction -------------------------------------------------------
    def derive(self, causes: tuple, label: str, t: float) -> _HbEvent:
        """New event caused by ``causes`` (greedy chain extension)."""
        clock: dict[int, int] = {}
        for c in causes:
            cc = c.clock
            if len(cc) > len(clock):
                clock, cc = dict(cc), clock  # merge smaller into larger
            for k, v in cc.items():
                if clock.get(k, -1) < v:
                    clock[k] = v
        chain = -1
        for c in causes:
            if self._tips.get(c.chain) == c.pos:
                chain = c.chain
                pos = c.pos + 1
                break
        if chain < 0:
            chain = self._next_chain
            self._next_chain += 1
            pos = 0
        self._tips[chain] = pos
        clock[chain] = pos
        return _HbEvent(chain, pos, clock, label, t)

    # -- task lifecycle (called by the scheduler) -----------------------------------
    def begin_task(self, task, t: float) -> _HbEvent:
        ev = task.hb
        if ev is None:
            ev = task.hb = self.derive(
                (self.bootstrap,), label=f"root:{task.op_class}", t=t
            )
        self.current = ev
        return ev

    def end_task(self) -> None:
        self.current = None

    def quiesce(self, t: float) -> None:
        """Join every chain: post-run code is ordered after all tasks."""
        clock = {chain: tip for chain, tip in self._tips.items()}
        chain = self._next_chain
        self._next_chain += 1
        pos = 0
        self._tips[chain] = pos
        clock[chain] = pos
        self.bootstrap = _HbEvent(chain, pos, clock, "quiescence", t)

    def _effective(self) -> _HbEvent:
        return self.current if self.current is not None else self.bootstrap

    # -- reporting ------------------------------------------------------------------
    def _report(self, kind: str, subject: str, t: float, detail: str, events) -> None:
        n = self._subject_counts.get(subject, 0)
        self._subject_counts[subject] = n + 1
        if n < MAX_REPORTS_PER_SUBJECT:
            self.reports.append(
                HazardReport(
                    kind=kind,
                    subject=subject,
                    t=t,
                    detail=detail,
                    events=tuple(e.label for e in events),
                )
            )

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.reports:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    # -- LCO hooks (called from repro.hpx.lco) ----------------------------------------
    def _lco_subject(self, lco) -> str:
        # LCOs bound to a DAG-IR node (repro.dag.schema) self-describe:
        # reports then name the node kind/tree/box instead of a bare
        # address.  Detection and per-subject capping are unchanged.
        subject = getattr(lco, "hazard_subject", None)
        if subject is not None:
            return subject
        return f"{type(lco).__name__}@{lco.addr!r}"

    def on_lco_set(self, lco, t: float, op_class=None) -> None:
        """A fresh contribution folded into a not-yet-triggered LCO."""
        sets = getattr(lco, "_hb_sets", None)
        if sets is None:
            sets = lco._hb_sets = []
        sets.append((self._effective(), op_class))

    def on_post_trigger_set(self, lco, t: float, op_class=None, key=None) -> None:
        """A fresh (non-duplicate-key) contribution after the trigger."""
        ev = self._effective()
        trig = getattr(lco, "_hb_trigger", None)
        self._report(
            "set-after-trigger",
            self._lco_subject(lco),
            t,
            f"fresh contribution (op={op_class} key={key!r}) arrived after "
            "the LCO fired; its value is lost or fatal depending on the "
            "transport - the input count and the DAG disagree",
            [ev] + ([trig] if trig is not None else []),
        )

    def on_lco_trigger(self, lco, t: float) -> None:
        """The LCO fired: close out its fold-order check, mint the
        trigger event that orders every continuation after every set."""
        sets = getattr(lco, "_hb_sets", None) or []
        if not getattr(lco, "fold_commutative", True) and len(sets) > 1:
            reported = 0
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    a, _ = sets[i]
                    b, _ = sets[j]
                    if concurrent(a, b):
                        self._report(
                            "unordered-noncommutative-fold",
                            self._lco_subject(lco),
                            t,
                            "two contributions are concurrent but the fold "
                            "is non-commutative: the folded value depends "
                            "on the schedule",
                            [a, b],
                        )
                        reported += 1
                if reported >= MAX_REPORTS_PER_SUBJECT:
                    break
        causes = tuple(e for e, _ in sets) or (self._effective(),)
        lco._hb_trigger = self.derive(
            causes, label=f"trigger:{type(lco).__name__}", t=t
        )
        lco._hb_sets = None  # sets are summarized by the trigger clock

    def continuation_event(self, lco, op_class: str, t: float) -> _HbEvent:
        """Event for a continuation task of a triggered LCO."""
        trig = getattr(lco, "_hb_trigger", None)
        causes = [trig] if trig is not None else []
        # registration after the trigger is also caused by the registrar
        if self.current is not None:
            causes.append(self.current)
        if not causes:
            causes = [self.bootstrap]
        return self.derive(tuple(causes), label=f"cont:{op_class}", t=t)

    # -- transport hook ---------------------------------------------------------------
    def note_transport_dup(self, parcel) -> None:
        """A retransmitted copy was suppressed by the reliable transport.

        Counted, never reported: exactly-once delivery absorbing a
        duplicate is the protocol working, not an application hazard.
        """
        self.transport_dups += 1

    # -- GAS monitor (called from repro.hpx.gas) ----------------------------------------
    def _now(self) -> float:
        sched = None if self._scheduler is None else self._scheduler()
        return sched.now if sched is not None else 0.0

    def on_gas_write(self, addr, t: float | None = None) -> None:
        if t is None:
            t = self._now()
        e = self._effective()
        entry = self._gas.get(addr)
        if entry is None:
            self._gas[addr] = ([e], [])
            return
        writes, reads = entry
        subject = f"{addr!r}"
        for w in writes:
            if concurrent(w, e):
                self._report(
                    "gas-write-race",
                    subject,
                    t,
                    "two unsynchronized writes to one global address: "
                    "the surviving value depends on the schedule",
                    [w, e],
                )
        for r in reads:
            if concurrent(r, e):
                self._report(
                    "gas-read-write-race",
                    subject,
                    t,
                    "a write races an unsynchronized read of the same "
                    "global address",
                    [r, e],
                )
        # keep only the concurrent frontier: accesses ordered before
        # this write can never race anything that races this write
        writes[:] = [w for w in writes if not happens_before(w, e)] + [e]
        reads[:] = [r for r in reads if not happens_before(r, e)]

    def on_gas_read(self, addr, t: float | None = None) -> None:
        if t is None:
            t = self._now()
        e = self._effective()
        entry = self._gas.get(addr)
        if entry is None:
            self._gas[addr] = ([], [e])
            return
        writes, reads = entry
        for w in writes:
            if concurrent(w, e):
                self._report(
                    "gas-read-write-race",
                    f"{addr!r}",
                    t,
                    "a read races an unsynchronized write of the same "
                    "global address",
                    [w, e],
                )
        reads[:] = [r for r in reads if not happens_before(r, e)] + [e]
