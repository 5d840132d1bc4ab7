"""The runtime facade: configuration, action registry, main loop.

Ties together the GAS, the discrete-event scheduler, the network model
and tracing into the programming model DASHMM targets: register
actions, allocate LCOs, enqueue initial parcels/tasks, call
:meth:`Runtime.run`, read the virtual clock.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro.hpx.checkpoint import RuntimeCheckpoint
from repro.hpx.gas import GlobalAddressSpace
from repro.hpx.hazards import HazardDetector
from repro.hpx.network import NetworkModel
from repro.hpx.parcel import Parcel
from repro.hpx.scheduler import (
    ScheduleFuzzer,
    ScheduleReplayer,
    Scheduler,
    SchedulingPolicy,
    Task,
)
from repro.hpx.tracing import ScheduleTrace, Tracer
from repro.hpx.transport import ReliableTransport


def _run_parcel(ctx, fn, parcel: Parcel, progress: float) -> None:
    """Body of a delivered parcel's thread: the receive-side progress
    charge, then the action on the parcel's target."""
    if progress > 0:
        ctx.charge("_progress", progress)
    fn(ctx, parcel.target, *parcel.args)


@dataclass
class RuntimeConfig:
    """Knobs of the simulated cluster.

    ``policy`` selects the scheduling policy: ``"stock"`` (the default,
    matching stock HPX-5), ``"binary"`` (Section VI's high/low
    extension), ``"critical-path"`` (offline critical-path levels with
    near/far interleaving and eager parcel release), or a
    :class:`~repro.hpx.scheduler.SchedulingPolicy` instance.
    ``progress_cost`` models the time HPX-5's network progress charges
    on the receiving locality per remote parcel - the paper attributes
    a small part of the utilization deficit to it.

    ``reliable`` turns on the sequence-numbered, acknowledged,
    retry-with-backoff parcel transport (see
    :mod:`repro.hpx.transport`): required for correct execution over a
    :class:`~repro.hpx.network.FaultyNetwork`, a no-op cost-wise over a
    fault-free one except for ack traffic.  ``retry_timeout`` /
    ``retry_backoff`` / ``retry_limit`` shape the retransmission
    schedule; ``ack_bytes`` is the modelled wire size of an ack.

    Concurrency-correctness tooling (all off by default, and with all
    three off the schedule, virtual clock and results are bit-identical
    to a build without the tooling):

    * ``fuzz_schedule`` - seed for a dedicated schedule-fuzzing RNG
      (:class:`~repro.hpx.scheduler.ScheduleFuzzer`).  Perturbs steal
      victim selection, ready-queue tie-breaking at equal virtual
      timestamps, idle-worker wakeup, task placement and parcel
      coalescing order, driving one workload through a different legal
      schedule per seed.  Every decision is recorded; the trace is
      available as :attr:`Runtime.schedule_trace`.
    * ``replay_schedule`` - a recorded
      :class:`~repro.hpx.tracing.ScheduleTrace` (or a path to one saved
      with ``trace.save(path)``) to replay decision for decision;
      mutually exclusive with ``fuzz_schedule``.
    * ``detect_hazards`` - install the happens-before hazard detector
      (:mod:`repro.hpx.hazards`); reports are available as
      :attr:`Runtime.hazards`.

    Execution backend selection:

    * ``backend`` - ``"sim"`` (the default: the discrete-event
      simulator in this module) or ``"parallel"`` (real OS processes,
      one per locality, shared-memory GAS and framed queue parcels; see
      :mod:`repro.hpx.parallel`).  The parallel backend is driven
      through :class:`repro.dashmm.evaluator.DashmmEvaluator`, which
      dispatches on this field; constructing a :class:`Runtime`
      directly with ``backend="parallel"`` raises.
    * ``seed`` - base seed for per-locality worker RNGs: locality
      ``r`` seeds ``random``/NumPy with ``seed + r``, identical under
      every start method (seeding happens in the worker body, after
      the start method ran).
    * ``start_method`` - multiprocessing start method for the parallel
      backend.  The default ``"forkserver"`` keeps what ``spawn`` was
      chosen for: the server is a fresh interpreter, started with
      one-thread BLAS and the worker module imported, so workers forked
      from it inherit none of the parent's BLAS thread pools, operator
      caches or RNG state - and start in milliseconds, without
      importing numpy, scipy or this package again.  Caveat: a process
      has one fork server; if other code started it first (say with
      multithreaded BLAS), workers are forked from that one.
      ``"spawn"`` and ``"fork"`` give bit-identical potentials.
    """

    n_localities: int = 1
    workers_per_locality: int = 32
    network: NetworkModel = field(default_factory=NetworkModel)
    policy: "str | SchedulingPolicy | None" = None
    tracing: bool = True
    steal_seed: int = 12345
    progress_cost: float = 0.5e-6
    reliable: bool = False
    retry_timeout: float = 50e-6
    retry_backoff: float = 2.0
    retry_limit: int = 10
    ack_bytes: int = 32
    fuzz_schedule: int | None = None
    replay_schedule: "ScheduleTrace | str | None" = None
    detect_hazards: bool = False
    #: capture a RuntimeCheckpoint every this many seconds of virtual
    #: time (None disables periodic capture).  Checkpoints accumulate
    #: in :attr:`Runtime.checkpoints`; a run restored from any of them
    #: is bit-identical to an uninterrupted one.  Mutually exclusive
    #: with ``detect_hazards`` (vector clocks are not snapshotted).
    checkpoint_every: float | None = None
    backend: str = "sim"
    seed: int = 12345
    start_method: str = "forkserver"

    def __post_init__(self) -> None:
        if self.backend not in ("sim", "parallel"):
            raise ValueError(
                f"backend must be 'sim' or 'parallel', got {self.backend!r}"
            )
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise ValueError(f"unknown start method {self.start_method!r}")
        if self.checkpoint_every is not None:
            if self.checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            if self.detect_hazards:
                raise ValueError(
                    "checkpoint_every and detect_hazards are mutually "
                    "exclusive (hazard vector clocks are not snapshotted)"
                )

    @property
    def total_cores(self) -> int:
        return self.n_localities * self.workers_per_locality


class Runtime:
    """One simulated HPX-5 instance."""

    def __init__(self, config: RuntimeConfig | None = None):
        self.config = config or RuntimeConfig()
        if self.config.backend != "sim":
            raise ValueError(
                "Runtime is the simulator engine; backend="
                f"{self.config.backend!r} runs are dispatched by "
                "DashmmEvaluator to repro.dashmm.parallel.evaluate_parallel"
            )
        self.gas = GlobalAddressSpace(self.config.n_localities)
        self.tracer = Tracer(enabled=self.config.tracing)
        # private copy of the network model: two runtimes built from one
        # RuntimeConfig must not share NIC clocks (or fault RNG state) -
        # resetting a live sibling's network mid-run corrupted both
        self.network = copy.deepcopy(self.config.network)
        self.network.reset()
        self.scheduler = Scheduler(
            n_localities=self.config.n_localities,
            workers_per_locality=self.config.workers_per_locality,
            network=self.network,
            tracer=self.tracer,
            policy=self.config.policy,
            steal_seed=self.config.steal_seed,
        )
        if self.config.reliable:
            self.scheduler.transport = ReliableTransport(
                timeout=self.config.retry_timeout,
                backoff=self.config.retry_backoff,
                retry_limit=self.config.retry_limit,
                ack_bytes=self.config.ack_bytes,
            )
            self.scheduler.lco_dedup = True
        if self.config.replay_schedule is not None:
            if self.config.fuzz_schedule is not None:
                raise ValueError(
                    "fuzz_schedule and replay_schedule are mutually exclusive"
                )
            trace = self.config.replay_schedule
            if not isinstance(trace, ScheduleTrace):
                trace = ScheduleTrace.load(trace)
            self.scheduler.schedule_driver = ScheduleReplayer(trace)
        elif self.config.fuzz_schedule is not None:
            self.scheduler.schedule_driver = ScheduleFuzzer(
                self.config.fuzz_schedule
            )
        self.hazard_detector: HazardDetector | None = None
        if self.config.detect_hazards:
            self.hazard_detector = HazardDetector(self.scheduler)
            self.scheduler.hazards = self.hazard_detector
            self.gas.monitor = self.hazard_detector
        self._actions: dict[str, Callable] = {}
        #: weak references to objects with per-run mutable state outside
        #: the GAS (e.g. the DASHMM registrar, which owns this runtime);
        #: each contributes an opaque blob to every checkpoint via
        #: checkpoint_state()/restore_state()
        self.checkpoint_participants: list[weakref.ref] = []
        #: checkpoints captured so far (periodic and abort), oldest first
        self.checkpoints: list[RuntimeCheckpoint] = []

    # -- actions & parcels -------------------------------------------------------
    def register_action(self, name: str, fn: Callable) -> None:
        """Register an action callable ``fn(ctx, target, *args)``."""
        if name in self._actions:
            raise ValueError(f"action {name!r} already registered")
        self._actions[name] = fn

    def _deliver(self, parcel: Parcel, t: float) -> None:
        fn = self._actions.get(parcel.action)
        if fn is None:
            raise KeyError(f"unregistered action {parcel.action!r}")
        dst, origin = parcel.target_locality, parcel.origin
        progress = self.config.progress_cost if origin is not None and origin != dst else 0.0
        task = Task(_run_parcel, (fn, parcel, progress), parcel.op_class, None, parcel.priority)
        hz = self.scheduler.hazards
        if hz is not None and parcel.hb is not None:
            # parcel send happens-before the thread it spawns; each
            # delivered copy (faulty duplicates included) is its own
            # event with the same cause
            task.hb = hz.derive((parcel.hb,), label=f"parcel:{parcel.action}", t=t)
        self.scheduler.enqueue(task, dst, t)

    # -- asynchronous global memory access ------------------------------------------
    def memget(self, ctx, addr, size_bytes: int = 64):
        """Asynchronously fetch the object at a global address.

        Returns a :class:`repro.hpx.lco.Future` on the *calling*
        locality that will hold the value; the round trip rides on two
        parcels, so remote gets pay network latency both ways (Section
        III's memput/memget API).
        """
        from repro.hpx.lco import Future

        fut = Future(self, ctx.locality)
        self._ensure_mem_actions()
        ctx.send_parcel(
            Parcel(
                action="_memget",
                target=addr,
                args=(fut.addr, size_bytes),
                size_bytes=64,
                op_class="_memget",
            )
        )
        return fut

    def memput(self, ctx, addr, value, size_bytes: int = 64) -> None:
        """Asynchronously replace the object at a global address."""
        self._ensure_mem_actions()
        ctx.send_parcel(
            Parcel(
                action="_memput",
                target=addr,
                args=(value,),
                size_bytes=size_bytes,
                op_class="_memput",
            )
        )

    def _ensure_mem_actions(self) -> None:
        if "_memget" in self._actions:
            return

        # the action table is the runtime's own: the bodies close over
        # the GAS, not the runtime
        gas = self.gas

        def do_get(ctx, target, fut_addr, size_bytes):
            value = gas.translate(target, ctx.locality)
            fut = gas.translate(fut_addr, fut_addr.locality) if (
                fut_addr.locality == ctx.locality
            ) else None
            if fut is not None:
                ctx.lco_set(fut, value)
            else:
                # reply parcel carrying the data home
                ctx.send_parcel(
                    Parcel(
                        action="_memget_reply",
                        target=fut_addr,
                        args=(value,),
                        size_bytes=size_bytes,
                        op_class="_memget",
                    )
                )

        def do_reply(ctx, target, value):
            fut = gas.translate(target, ctx.locality)
            ctx.lco_set(fut, value)

        def do_put(ctx, target, value):
            gas.put_local(target, value, ctx.locality)

        self.register_action("_memget", do_get)
        self.register_action("_memget_reply", do_reply)
        self.register_action("_memput", do_put)

    # -- startup work --------------------------------------------------------------
    def enqueue_task(self, task: Task, locality: int) -> None:
        """Enqueue an initial task (before or between runs)."""
        self.scheduler.enqueue(task, locality, self.scheduler.now)

    def run(self, until: float | None = None) -> float:
        """Drive the simulation to quiescence; returns elapsed virtual time.

        With ``checkpoint_every`` set, the event loop pauses at each
        virtual-clock interval boundary and captures a
        :class:`~repro.hpx.checkpoint.RuntimeCheckpoint` (bounded runs
        resume bit-identically, so the pauses are invisible to the
        schedule).  A structured scheduler abort - e.g. transport retry
        exhaustion against an unreachable destination - quiesces first
        and attaches an abort checkpoint to the exception as
        ``exc.checkpoint`` before it propagates.
        """
        sched = self.scheduler
        every = self.config.checkpoint_every
        # bound for this span only: the scheduler sits below the runtime
        sched.deliver_parcel = self._deliver
        try:
            if every is not None:
                while True:
                    bound = sched.now + every
                    if until is not None and bound >= until:
                        t = sched.run(until=until)
                        break
                    t = sched.run(until=bound)
                    if not sched._heap:
                        break
                    self.checkpoint()
            else:
                t = sched.run(until=until)
        except Exception as exc:
            if sched.aborted is exc:
                # structured abort: the loop quiesced before raising,
                # so the state is checkpointable; hand the caller a
                # restore point along with the error
                sched.aborted = None
                exc.checkpoint = self.checkpoint(label="abort")
            raise
        finally:
            sched.deliver_parcel = None
        if self.hazard_detector is not None:
            # post-run code (result gathers, test assertions) is
            # ordered after every task - no false races against setup
            self.hazard_detector.quiesce(t)
        return t

    # -- checkpoint/restore ----------------------------------------------------------
    def checkpoint(self, label: str = "periodic") -> RuntimeCheckpoint:
        """Capture a restore point of the current quiescent state.

        Only meaningful between events - i.e. outside :meth:`run`, at a
        ``checkpoint_every`` boundary, or from the structured-abort
        path; never call it from inside a task body.
        """
        if self.hazard_detector is not None:
            raise ValueError(
                "checkpointing is not supported with detect_hazards "
                "(vector-clock state is not snapshotted)"
            )
        cp = RuntimeCheckpoint.capture(self, label=label)
        self.checkpoints.append(cp)
        return cp

    def restore(self, checkpoint: RuntimeCheckpoint) -> float:
        """Rewind this runtime to ``checkpoint``; returns its virtual time.

        The checkpoint must have been captured from this runtime (state
        is restored in place into the live object graph).  After
        restore, :meth:`run` resumes mid-DAG and the completed run is
        bit-identical - potentials and virtual clock - to one that was
        never interrupted.
        """
        checkpoint.restore(self)
        # checkpoints taken after the restore point describe a future
        # that has been rewound away; drop them so a re-run's periodic
        # captures do not interleave with stale ones
        self.checkpoints = [
            cp for cp in self.checkpoints if cp.time <= checkpoint.time
        ]
        return self.scheduler.now

    # -- introspection ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scheduler.now

    @property
    def schedule_trace(self) -> "ScheduleTrace | None":
        """The schedule decision trace (fuzzed or replayed runs only)."""
        drv = self.scheduler.schedule_driver
        return drv.trace if drv is not None else None

    @property
    def hazards(self) -> list:
        """Hazard reports collected so far (empty without the detector)."""
        det = self.hazard_detector
        return det.reports if det is not None else []

    def stats(self) -> dict:
        s = self.scheduler
        out = {
            "time": s.now,
            "tasks_run": s.tasks_run,
            "steals": s.steals,
            "parcels_sent": s.parcels_sent,
            "remote_bytes": s.remote_bytes,
            "cores": self.config.total_cores,
            "lco_dups_suppressed": s.lco_dups_suppressed,
            # heap events pushed: host seconds per event = run_s / events
            "events": s._seq,
            "policy": s.policy.name,
        }
        transport = s.transport.stats()
        if transport:
            out["transport"] = transport
        faults = self.network.fault_stats()
        if faults:
            out["network_faults"] = faults
        if self.hazard_detector is not None:
            out["hazards"] = self.hazard_detector.counts()
            out["hazard_reports"] = len(self.hazard_detector.reports)
        if s.schedule_driver is not None:
            out["schedule_decisions"] = len(s.schedule_driver.trace)
        if self.checkpoints:
            out["checkpoints"] = len(self.checkpoints)
        return out
