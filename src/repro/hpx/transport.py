"""Parcel transports: fire-and-forget vs. reliable delivery.

HPX-5's parcel layer (over Photon) presents exactly-once delivery to
the application; the DAG execution of the paper leans on that so hard
that a single lost or duplicated ``lco_set`` either hangs or corrupts
an evaluation.  This module separates the *routing* of remote parcels
from the scheduler so the delivery guarantee becomes a pluggable
policy:

* :class:`DirectTransport` - the seed behaviour: every copy the
  network model produces is delivered, nothing is retried.  Over a
  :class:`~repro.hpx.network.FaultyNetwork` the application sees drops
  and duplicates raw (the ablation / failure-demonstration mode).
* :class:`ReliableTransport` - a sequence-numbered, acknowledged,
  retry-with-backoff protocol run entirely as discrete events on the
  virtual clock: the sender stamps each remote parcel with a
  ``(src, seq)`` id and arms a timeout; the receiver suppresses
  duplicate ids and acks every copy (acks ride the same faulty
  network, charging the receiver's NIC); unacked parcels are
  retransmitted with exponential backoff up to a retry budget.  A
  budget exhaustion that overlaps a known
  :class:`~repro.hpx.network.FaultyNetwork` outage window *suspends*
  the parcel and resumes it once the window lifts; only a genuinely
  unreachable destination raises a structured :class:`TransportError`,
  and it does so through :meth:`~repro.hpx.scheduler.Scheduler.abort`
  so the error surfaces between events, at a quiescent,
  checkpointable point (see :mod:`repro.hpx.checkpoint`).

The reliable protocol makes delivery effectively exactly-once, so an
evaluation over a faulty network produces bit-identical results to the
fault-free run - only the virtual clock degrades (retries, backoff,
ack traffic).

Interplay with the concurrency tooling (:mod:`repro.hpx.hazards`,
schedule fuzzing): every transport timer, arrival and ack rides the
scheduler's event heap, so fuzzed tie-breaking reorders them at equal
virtual timestamps like any other event - retry/ack races are part of
the fuzzed schedule space.  A retransmitted parcel carries the
``hb`` stamp of its original send, so the delivered thread's causal
history is identical no matter which copy got through; duplicate
copies suppressed by the receiver are counted with the hazard detector
(:meth:`~repro.hpx.hazards.HazardDetector.note_transport_dup`) but
never reported - exactly-once delivery absorbing a duplicate is the
protocol working, not an application hazard.
"""

from __future__ import annotations

from typing import Any


class TransportError(RuntimeError):
    """A parcel exhausted its retry budget (destination unreachable).

    ``attempts`` counts *transmissions* (the initial send plus every
    retransmission); ``retries`` counts retransmissions only, matching
    the transport's ``retries`` counter - so ``attempts == retries + 1``
    always holds and the two are no longer conflated.
    """

    def __init__(
        self,
        message: str,
        *,
        parcel=None,
        attempts: int | None = None,
        retries: int | None = None,
    ):
        self.parcel = parcel
        self.attempts = attempts
        if retries is None and attempts is not None:
            retries = attempts - 1
        self.retries = retries
        detail = ""
        if parcel is not None:
            detail = (
                f" [action={parcel.action!r} target={parcel.target!r}"
                f" seq={parcel.seq!r} attempts={attempts} retries={retries}]"
            )
        super().__init__(message + detail)


class Framing:
    """Sequence stamping, pending-until-ack and receiver dedup.

    The exactly-once bookkeeping shared by every framed channel: the
    simulated :class:`ReliableTransport` (retries over a lossy virtual
    network) and the real-parallel queue channel
    (:mod:`repro.hpx.parallel`), where OS queues are lossless but the
    same pending/ack ledger provides the quiescence signal ("all my
    frames were processed") and guards against duplicates.  One
    instance serves both directions of one endpoint: it stamps and
    tracks outgoing frames and dedups incoming ones ((src, seq) ids
    never collide across endpoints).
    """

    __slots__ = ("_seq", "_pending", "_seen", "acks_sent", "dups_suppressed", "stale_acks")

    def __init__(self):
        # plain int (not itertools.count) so checkpoints can capture
        # and rewind the stamp stream; see repro.hpx.checkpoint
        self._seq = 0
        self._pending: dict[Any, Any] = {}
        self._seen: set[Any] = set()
        self.acks_sent = 0
        self.dups_suppressed = 0
        self.stale_acks = 0

    # -- sender side -------------------------------------------------------------
    def stamp(self, src) -> tuple:
        """A fresh (src, seq) frame id."""
        seq = self._seq
        self._seq = seq + 1
        return (src, seq)

    def track(self, seq, state) -> None:
        """Remember sender-side state until the frame is acked."""
        self._pending[seq] = state

    def pending(self, seq):
        """The tracked state of an unacked frame (None once acked)."""
        return self._pending.get(seq)

    def ack(self, seq):
        """Process an incoming ack; returns the tracked state (None if
        stale - a duplicate ack or the ack of a retransmission)."""
        state = self._pending.pop(seq, None)
        if state is None:
            self.stale_acks += 1
        return state

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    # -- receiver side -----------------------------------------------------------
    def receive(self, seq) -> bool:
        """Dedup one arriving frame; True when it is fresh."""
        if seq in self._seen:
            self.dups_suppressed += 1
            return False
        self._seen.add(seq)
        return True

    def stats(self) -> dict:
        return {
            "acks_sent": self.acks_sent,
            "dups_suppressed": self.dups_suppressed,
            "stale_acks": self.stale_acks,
            "in_flight": len(self._pending),
        }


class _Event:
    """A cancellable scheduled callback (retry timers, arrivals, acks).

    The scheduler fires it as ``fn(scheduler, t)``.  A transport is owned
    by the scheduler whose heap holds its events, so neither keeps a
    reference to the scheduler: it is passed in at every entry point.
    """

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False


class DirectTransport:
    """Fire-and-forget routing: deliver whatever copies the network yields."""

    reliable = False

    def send(self, sched, parcel, src: int, dst: int, t: float) -> None:
        for ta in sched.network.delivery_times(src, dst, t, parcel.size_bytes):
            sched._push_event(ta, "parcel", parcel)

    def stats(self) -> dict:
        return {}


class _Pending:
    """Sender-side state of one unacknowledged parcel."""

    __slots__ = ("parcel", "src", "dst", "attempts", "timer", "last_send")

    def __init__(self, parcel, src: int, dst: int):
        self.parcel = parcel
        self.src = src
        self.dst = dst
        self.attempts = 0
        self.timer: _Event | None = None
        #: virtual time of the most recent transmission - used to decide
        #: whether a retry-budget exhaustion overlapped an outage window
        self.last_send = 0.0


class ReliableTransport:
    """Sequence numbers + receiver dedup + acks + bounded backoff retry.

    Every entry point takes the scheduler that owns this transport (see
    :class:`_Event`); timers and resumes name their parcel by frame id,
    so no event holds its own pending entry.
    """

    reliable = True

    def __init__(
        self,
        timeout: float = 50e-6,
        backoff: float = 2.0,
        retry_limit: int = 10,
        ack_bytes: int = 32,
    ):
        if timeout <= 0 or backoff < 1.0 or retry_limit < 0:
            raise ValueError("invalid reliable-transport configuration")
        self.timeout = timeout
        self.backoff = backoff
        self.retry_limit = retry_limit
        self.ack_bytes = ack_bytes
        self.framing = Framing()
        self.retries = 0
        #: parcels parked across a FaultyNetwork outage window, keyed by
        #: frame id: a retry-budget exhaustion attributable to a known
        #: outage suspends the parcel until the window lifts instead of
        #: aborting the run (fail-safe fault handling)
        self._suspended: dict[Any, _Pending] = {}
        self.suspensions = 0
        self.resumes = 0

    # -- sender side -------------------------------------------------------------
    def send(self, sched, parcel, src: int, dst: int, t: float) -> None:
        parcel.seq = self.framing.stamp(src)
        entry = _Pending(parcel, src, dst)
        self.framing.track(parcel.seq, entry)
        self._transmit(sched, entry, t)

    def _transmit(self, sched, entry: _Pending, t: float) -> None:
        parcel = entry.parcel
        entry.last_send = t
        arrivals = sched.network.delivery_times(
            entry.src, entry.dst, t, parcel.size_bytes
        )
        for ta in arrivals:
            arrive = _Event(lambda s, ta, p=parcel: s.transport._on_receive(s, p, ta))
            sched._push_event(ta, "call", arrive)
        timer = _Event(lambda s, tt, q=parcel.seq: s.transport._on_timeout(s, q, tt))
        entry.timer = timer
        # the retry clock starts from the copy's scheduled arrival (which
        # includes NIC-serialization queueing - think of a congestion
        # estimate a real transport derives from its send completions),
        # not the send instant: a parcel stuck behind a deep NIC backlog
        # (e.g. the post-outage resume burst) is queued, not lost, and
        # must not burn its retry budget while it drains.  A dropped
        # send has no arrival; its timer runs from the send time.
        base = max(arrivals) if arrivals else t
        sched._push_event(base + self._timeout_for(sched, entry), "call", timer)

    def _timeout_for(self, sched, entry: _Pending) -> float:
        # base timeout plus the transfer time of the payload itself, so
        # big coalesced parcels are not declared lost mid-injection
        bandwidth = getattr(sched.network, "bandwidth", 0.0)
        transfer = entry.parcel.size_bytes / bandwidth if bandwidth else 0.0
        return (self.timeout + 2.0 * transfer) * (self.backoff**entry.attempts)

    def _on_timeout(self, sched, seq, t: float) -> None:
        entry = self.framing.pending(seq)
        if entry is None:
            return  # acked between timer creation and firing
        if entry.attempts >= self.retry_limit:
            resume_at = self._outage_resume_time(sched, entry, t)
            if resume_at is not None:
                # the exhaustion is explained by a known outage window:
                # park the parcel and try again once the window lifts,
                # instead of losing the whole evaluation
                self._suspend(sched, entry, resume_at)
                return
            # genuinely unreachable: park the parcel anyway - the abort
            # checkpoint then holds it in the suspended table with an
            # immediate resume event, so a restored run re-drives it
            # with a fresh budget once the environment is fixed - and
            # route the failure through the structured scheduler abort
            # so the run loop raises *between* events with every
            # heap/LCO/transport invariant intact
            self._suspend(sched, entry, t)
            sched.abort(
                TransportError(
                    "parcel exhausted its retry budget",
                    parcel=entry.parcel,
                    attempts=entry.attempts + 1,
                    retries=entry.attempts,
                )
            )
            return
        entry.attempts += 1
        self.retries += 1
        self._transmit(sched, entry, t)

    def _outage_resume_time(self, sched, entry: _Pending, t: float) -> float | None:
        """When (if ever) the outage blocking ``entry`` lifts.

        Returns the virtual time to reattempt delivery, or None when no
        known outage window involving the endpoints overlaps the failed
        retry period ``[entry.last_send, t]`` - in which case the
        destination is treated as genuinely unreachable.
        """
        clear_fn = getattr(sched.network, "outage_clear", None)
        if clear_fn is None:
            return None
        clear = clear_fn((entry.src, entry.dst), entry.last_send, t)
        if clear is None:
            return None
        return max(clear, t)

    def _suspend(self, sched, entry: _Pending, resume_at: float) -> None:
        self.suspensions += 1
        entry.timer = None
        seq = entry.parcel.seq
        self._suspended[seq] = entry
        resume = _Event(lambda s, tt, q=seq: s.transport._on_resume(s, q, tt))
        sched._push_event(resume_at, "call", resume)

    def _on_resume(self, sched, seq, t: float) -> None:
        self._suspended.pop(seq, None)
        entry = self.framing.pending(seq)
        if entry is None:
            return  # a straggler copy got through while suspended
        self.resumes += 1
        # the outage explains every failed transmission so far: restart
        # the retry budget for the post-outage reattempts
        entry.attempts = 0
        self._transmit(sched, entry, t)

    def _on_ack(self, seq, t: float) -> None:
        entry = self.framing.ack(seq)
        if entry is None:
            return  # duplicate ack, or ack of a retransmit (counted)
        if entry.timer is not None:
            entry.timer.cancelled = True

    # -- receiver side -----------------------------------------------------------
    def _on_receive(self, sched, parcel, t: float) -> None:
        seq = parcel.seq
        fresh = self.framing.receive(seq)
        if not fresh:
            hz = sched.hazards
            if hz is not None:
                hz.note_transport_dup(parcel)
        # always (re-)ack: the sender may have missed the previous ack
        self._send_ack(sched, parcel, t)
        if fresh:
            sched.deliver_parcel(parcel, t)

    def _send_ack(self, sched, parcel, t: float) -> None:
        self.framing.acks_sent += 1
        seq = parcel.seq
        for ta in sched.network.delivery_times(
            parcel.target_locality, parcel.origin, t, self.ack_bytes
        ):
            sched._push_event(
                ta, "call", _Event(lambda s, tt, q=seq: s.transport._on_ack(q, tt))
            )

    # -- introspection -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.framing.in_flight

    @property
    def acks_sent(self) -> int:
        return self.framing.acks_sent

    @property
    def dups_suppressed(self) -> int:
        return self.framing.dups_suppressed

    @property
    def stale_acks(self) -> int:
        return self.framing.stale_acks

    @property
    def suspended(self) -> int:
        return len(self._suspended)

    def stats(self) -> dict:
        return {
            "reliable": True,
            "retries": self.retries,
            "suspensions": self.suspensions,
            "resumes": self.resumes,
            "suspended": len(self._suspended),
            **self.framing.stats(),
        }
