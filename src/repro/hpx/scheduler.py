"""Discrete-event scheduler: localities, workers, work stealing.

Models the paper's configuration - one HPX-5 scheduler thread per core,
per-worker task deques with *local randomized work stealing* (stealing
never crosses locality boundaries; remote work moves only via parcels).

Execution model
---------------
Tasks are real Python callables ``fn(ctx, *args)``.  When a worker
picks a task at virtual time ``t`` the body runs immediately (so all
state it reads reflects every effect applied up to ``t``) but its
*effects* - LCO sets, new task spawns, parcel sends - are buffered in
the :class:`TaskContext` and released at ``t + cost``, when the task
logically completes.  ``cost`` is the sum of the body's
``ctx.charge(op_class, dt)`` calls (or the task's static cost); each
charge also emits one trace interval, mirroring the paper's
begin/end event instrumentation.

One loop, :meth:`Scheduler.run`, is the engine: a ``pick`` event pops
or steals, runs the body and pushes the ``done`` event, which releases
the effects and falls through to the same pick.  The schedule driver,
hazard detector and tracer are consulted only when installed.  A group
of LCO count-downs is one ``("lco_sets", lcos, keys, op_classes)``
effect folded in entry order (:func:`repro.hpx.lco.count_down`), so
triggers - and the clock - are those of one ``lco_set`` per input.

Scheduling discipline
---------------------
Owner pops LIFO (work-first, depth-first into the DAG), thieves steal
FIFO from a random victim on the same locality - one drawn from the
workers whose queue count (tasks over all their levels) is nonzero.  The
ready-queue discipline beyond that is owned by a :class:`SchedulingPolicy`:

* ``stock`` - one effective ready level, matching stock HPX-5 (the
  measured configuration); the default.
* ``binary`` - each worker keeps a high- and a low-priority deque and
  always drains high first: exactly the "binary choice between low and
  high priority" extension the paper's Section VI proposes for HPX-5.
* ``critical-path`` - tasks carry a quantized critical-path level
  stamped offline (longest downstream path through the explicit DAG,
  see :func:`repro.analysis.critical_path.node_priorities`); the last
  level is reserved for near-field (P2P) work, which the policy
  interposes under far-field bursts every ``interleave`` picks, and
  parcel sends are released eagerly for comm/compute overlap.

RNG streams & seed plumbing
---------------------------
Three independent seeded streams touch a run; they are never shared,
so perturbing one cannot silently shift another:

* the **steal RNG** - ``random.Random(steal_seed)``, owned by the
  scheduler, consumed only for steal victim selection on the default
  (unfuzzed) path;
* the **fuzz RNG** - ``random.Random(fuzz_seed)`` inside a
  :class:`ScheduleFuzzer` installed as ``schedule_driver`` by
  ``RuntimeConfig(fuzz_schedule=seed)``.  When a driver is installed it
  *replaces* the steal RNG at every decision point (the steal RNG is
  not consumed at all), so fuzzed victim choices cannot advance or
  alias the baseline stream;
* the **fault RNG** - ``random.Random(seed)`` inside
  :class:`~repro.hpx.network.FaultyNetwork`, reseeded by ``reset()``
  per :class:`~repro.hpx.runtime.Runtime` (each runtime deep-copies
  its network), never visible to the scheduler.

Schedule fuzzing & deterministic replay
---------------------------------------
Every source of schedule freedom is funnelled through the installed
``schedule_driver``: ready-queue tie-breaking at equal virtual
timestamps (the second element of each heap entry), steal victim
selection, idle-worker wakeup, task placement, and - via
:mod:`repro.dashmm.registrar` - parcel coalescing order.  A
:class:`ScheduleFuzzer` draws each decision from its dedicated RNG and
appends it to a :class:`~repro.hpx.tracing.ScheduleTrace`; a
:class:`ScheduleReplayer` feeds a recorded trace back, raising
:class:`ReplayDivergence` on any mismatch.  With no driver installed
the tie-break key is a constant zero and every choice follows the
original deterministic rule, so the baseline schedule is bit-identical
to a build without this machinery.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.hpx.tracing import ScheduleTrace, Tracer
from repro.hpx.transport import DirectTransport

HIGH = 0
LOW = 1


class SchedulingPolicy:
    """Stock HPX-5 ready-queue discipline; base class for all policies.

    A policy owns every degree of freedom of the ready-queue discipline:

    * ``n_levels`` - how many priority deques each worker keeps (level
      0 drains first; thieves steal from the most critical non-empty
      level);
    * ``level_of(task)`` - the level a task's ``priority`` stamp maps
      to at enqueue time;
    * ``interleave`` - when nonzero, one task from the *last* (filler)
      level is interposed after every ``interleave`` consecutive picks
      from more critical levels (near/far pipelining);
    * ``eager_sends`` - release parcel sends at the point the task's
      charge accounting has reached instead of at task completion
      (comm/compute overlap);
    * ``prioritized`` / ``graded`` - whether the DASHMM registrar
      should split critical-chain work from leaf outputs, and whether
      it should stamp offline critical-path levels onto tasks.

    The stock policy keeps two levels but maps every task to the low
    one, which is bit-identical to the historical single-queue
    scheduler and keeps the ``deques[worker][HIGH/LOW]`` layout stable.
    """

    name = "stock"
    n_levels = 2
    interleave = 0
    eager_sends = False
    prioritized = False
    graded = False

    def level_of(self, task: "Task") -> int:
        return LOW

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<{type(self).__name__} {self.name!r} levels={self.n_levels}>"


class BinaryPriorityPolicy(SchedulingPolicy):
    """Section VI's binary high/low extension."""

    name = "binary"
    prioritized = True

    def level_of(self, task: "Task") -> int:
        return HIGH if task.priority <= HIGH else LOW


class CriticalPathPolicy(SchedulingPolicy):
    """Critical-path-weighted levels with near/far pipelining.

    Tasks carry a level stamped at registration time from the explicit
    DAG (:func:`repro.analysis.critical_path.node_priorities`: longest
    downstream path under the cost model, quantized; level 0 is most
    critical).  The last level is reserved for near-field (P2P) work -
    the ops in ``near_ops`` - which the scheduler interposes under
    far-field bursts every ``interleave`` picks so the abundant S->T
    stream drains while M2L waves monopolize the critical levels.
    ``eager_sends`` releases parcels at the charge point reached inside
    the sending task, overlapping communication with the remainder of
    the task's compute.
    """

    name = "critical-path"
    prioritized = True
    graded = True

    def __init__(
        self,
        levels: int = 4,
        interleave: int = 8,
        eager_sends: bool = True,
        near_ops: tuple = ("S2T",),
        far_ops: tuple = (),
    ):
        if levels < 2:
            raise ValueError("critical-path policy needs at least 2 levels")
        self.n_levels = levels
        self.interleave = interleave
        self.eager_sends = eager_sends
        self.near_ops = frozenset(near_ops)
        self.far_ops = frozenset(far_ops)

    def level_of(self, task: "Task") -> int:
        p = task.priority
        if p <= 0:
            return 0
        last = self.n_levels - 1
        return p if p < last else last


#: policy registry for the string spellings accepted by RuntimeConfig
POLICIES = {
    "stock": SchedulingPolicy,
    "binary": BinaryPriorityPolicy,
    "critical-path": CriticalPathPolicy,
}


def resolve_policy(policy: "SchedulingPolicy | str | None" = None) -> SchedulingPolicy:
    """Resolve a policy spec (instance, name, or None for stock)."""
    if policy is None:
        return SchedulingPolicy()
    if isinstance(policy, str):
        cls = POLICIES.get(policy)
        if cls is None:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: {sorted(POLICIES)}"
            )
        return cls()
    return policy


class ReplayDivergence(RuntimeError):
    """A replayed run made a decision its trace does not contain.

    Raised when the code under replay asks for a different decision
    kind than the trace recorded next, offers an option set that does
    not include the recorded choice, or outlives the trace.  Any of
    these means the program (or its inputs) changed since the trace was
    recorded - the trace is stale, not merely unlucky.
    """

    def __init__(self, message: str, *, index: int | None = None,
                 expected=None, got=None):
        self.index = index
        self.expected = expected
        self.got = got
        super().__init__(
            f"{message} [decision #{index} expected={expected!r} got={got!r}]"
        )


class ScheduleFuzzer:
    """Draws schedule decisions from a dedicated seeded RNG, recording all.

    One fuzzer drives one run; its :attr:`trace` is the complete,
    replayable decision record (see
    :class:`~repro.hpx.tracing.ScheduleTrace`).  The RNG is private to
    the fuzzer - the scheduler's steal RNG and any fault RNG keep their
    own streams untouched.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.trace = ScheduleTrace(meta={"fuzz_seed": seed})

    def tie(self) -> int:
        """Tie-break key for one event push (reorders same-time events)."""
        v = self._rng.getrandbits(20)
        self.trace.decisions.append(["tie", v])
        return v

    def choose(self, kind: str, options: list) -> int:
        """Pick one element of ``options`` (victim / wake / place)."""
        v = options[self._rng.randrange(len(options))]
        self.trace.decisions.append([kind, v])
        return v

    def permute(self, kind: str, seq: list) -> list:
        """A random permutation of ``seq`` (parcel coalescing order)."""
        out = list(seq)
        self._rng.shuffle(out)
        self.trace.decisions.append([kind, list(out)])
        return out


class ScheduleReplayer:
    """Feeds a recorded :class:`~repro.hpx.tracing.ScheduleTrace` back.

    Presents the same driver interface as :class:`ScheduleFuzzer` but
    consumes decisions instead of drawing them, validating each against
    the live option set so a stale trace fails loudly
    (:class:`ReplayDivergence`) instead of silently diverging.
    """

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        self._i = 0

    def _next(self, kind: str):
        i = self._i
        if i >= len(self.trace.decisions):
            raise ReplayDivergence(
                "trace exhausted", index=i, expected=kind, got=None
            )
        rec_kind, value = self.trace.decisions[i]
        if rec_kind != kind:
            raise ReplayDivergence(
                "decision kind mismatch", index=i, expected=rec_kind, got=kind
            )
        self._i = i + 1
        return value

    def tie(self) -> int:
        return self._next("tie")

    def choose(self, kind: str, options: list) -> int:
        v = self._next(kind)
        if v not in options:
            raise ReplayDivergence(
                "recorded choice not among live options",
                index=self._i - 1, expected=v, got=list(options),
            )
        return v

    def permute(self, kind: str, seq: list) -> list:
        v = self._next(kind)
        if sorted(v) != sorted(seq):
            raise ReplayDivergence(
                "recorded permutation does not match live key set",
                index=self._i - 1, expected=v, got=list(seq),
            )
        return list(v)

    @property
    def consumed(self) -> int:
        return self._i


@dataclass
class Task:
    """A lightweight thread to run on some locality."""

    fn: Callable
    args: tuple = ()
    op_class: str = "task"
    cost: float | None = None
    priority: int = LOW
    #: happens-before event assigned by the hazard detector at the
    #: causal site (spawn, LCO trigger, parcel delivery); None when
    #: detection is off or the task is an initial/root task
    hb: Any = None


class TaskContext:
    """Handed to every task body; collects charges and buffered effects.

    ``scheduler`` is bound only while the body runs: contexts are pooled
    by, and queued in the heap of, the scheduler they would point back
    to, so a context outside a body holds no reference up to it.
    """

    __slots__ = ("scheduler", "worker", "locality", "time", "charges", "effects", "hb")

    def __init__(self, worker: int, locality: int, time: float):
        self.scheduler: "Scheduler | None" = None
        self.worker = worker
        self.locality = locality
        self.time = time
        self.charges: list[tuple[str, float]] = []
        self.effects: list[tuple[str, Any]] = []
        #: the executing task's happens-before event (hazard detection)
        self.hb: Any = None

    # -- cost accounting ----------------------------------------------------
    def charge(self, op_class: str, dt: float) -> None:
        """Account ``dt`` seconds of ``op_class`` work to this task."""
        if dt < 0:
            raise ValueError("negative charge")
        if dt > 0:
            self.charges.append((op_class, dt))

    # -- buffered effects (released at task completion) ----------------------
    def spawn(self, task: Task, locality: int | None = None) -> None:
        """Spawn a task (on this locality unless stated otherwise)."""
        self.effects.append(("spawn", task, self.locality if locality is None else locality))

    def send_parcel(self, parcel) -> None:
        sch = self.scheduler
        if sch._eager_sends:
            # comm/compute overlap (critical-path policy): the parcel
            # leaves at the point the task's charge accounting has
            # reached, not at task completion.  Bodies run at pick time,
            # so this never schedules into the past, and the event ride
            # through _push_event keeps the freedom replayable.
            t_send = self.time + sum(dt for _, dt in self.charges)
            sch._push_event(t_send, "send", (self.worker, self.hb, parcel))
        else:
            self.effects.append(("parcel", parcel))

    def lco_set(self, lco, value=None, key=None, op_class=None) -> None:
        """Set an LCO input; the LCO must live on this locality.

        ``key`` is an optional per-LCO dedup key identifying the logical
        contribution (e.g. a DAG edge): a repeated key is suppressed
        when the runtime runs a reliable transport and rejected with a
        structured :class:`~repro.hpx.lco.LCOError` otherwise.
        ``op_class`` labels the contribution for diagnostics.
        """
        self.effects.append(("lco_set", lco, value, key, op_class))

    def call_at_completion(self, fn: Callable[[float], None]) -> None:
        """Run ``fn(t_end)`` when the task completes (bookkeeping hooks)."""
        self.effects.append(("call", fn))


class Scheduler:
    """Discrete-event engine over L localities x W workers."""

    def __init__(
        self,
        n_localities: int,
        workers_per_locality: int,
        network,
        tracer: Tracer | None = None,
        steal_seed: int = 12345,
        policy: "SchedulingPolicy | str | None" = None,
    ):
        if n_localities < 1 or workers_per_locality < 1:
            raise ValueError("need at least 1 locality and 1 worker")
        self.n_localities = n_localities
        self.workers_per_locality = workers_per_locality
        self.n_workers = n_localities * workers_per_locality
        self.network = network
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: the ready-queue discipline
        self.policy = resolve_policy(policy)
        self._rng = random.Random(steal_seed)

        self.worker_locality = [w // workers_per_locality for w in range(self.n_workers)]
        self.locality_workers = [
            list(range(l * workers_per_locality, (l + 1) * workers_per_locality))
            for l in range(n_localities)
        ]
        # deques[worker][level]; level 0 drains first
        n_levels = self.policy.n_levels
        self.deques: list[tuple[deque, ...]] = [
            tuple(deque() for _ in range(n_levels)) for _ in range(self.n_workers)
        ]
        #: tasks queued per worker, over all its levels, and per
        #: locality: a thief reads these instead of scanning every
        #: candidate's deques
        self._queued = [0] * self.n_workers
        self._loc_queued = [0] * n_localities
        # hot-path caches of the policy's knobs
        self._level_of = self.policy.level_of
        self._eager_sends = self.policy.eager_sends
        #: per worker: critical picks since the last filler pick
        self._burst = [0] * self.n_workers
        #: TaskContexts emptied at completion, reused with their lists
        self._ctx_pool: list[TaskContext] = []
        self.busy = [False] * self.n_workers
        self._idle: list[deque] = [deque() for _ in range(n_localities)]
        self._idle_set: set[int] = set()
        self._rr = [0] * n_localities

        self._heap: list = []
        # plain int (not itertools.count) so a RuntimeCheckpoint can
        # capture and rewind it; see repro.hpx.checkpoint
        self._seq = 0
        self.now = 0.0
        self.tasks_run = 0
        self.steals = 0
        self.parcels_sent = 0
        self.remote_bytes = 0
        #: parcel delivery handler; a Runtime binds its own for the span
        #: of Runtime.run() only (it owns this scheduler)
        self.deliver_parcel: Callable | None = None
        #: routes remote parcels; the runtime swaps in ReliableTransport
        self.transport = DirectTransport()
        #: when True (reliable transport), repeated LCO dedup keys are
        #: suppressed and counted instead of raising LCOError
        self.lco_dedup = False
        self.lco_dups_suppressed = 0
        #: schedule-decision driver: None (deterministic baseline),
        #: ScheduleFuzzer (perturb + record) or ScheduleReplayer
        #: (consume a recorded trace); installed by the runtime
        self.schedule_driver: ScheduleFuzzer | ScheduleReplayer | None = None
        #: happens-before hazard detector (repro.hpx.hazards), or None
        self.hazards = None
        #: structured-abort request (see :meth:`abort`): set mid-event,
        #: raised by the run loop after the current event completes
        self._abort: BaseException | None = None
        #: the exception the last structured abort raised (the runtime
        #: uses identity against this to tell a quiesced abort - heap
        #: and LCO state intact, checkpointable - from a stray failure)
        self.aborted: BaseException | None = None

    # -- public API -----------------------------------------------------------
    def enqueue(self, task: Task, locality: int, t: float, worker_hint: int | None = None) -> None:
        """Make a task runnable on ``locality`` at time ``t``: an idle
        worker of the locality is woken for it, otherwise it is placed."""
        idle = self._idle[locality]
        idle_set = self._idle_set
        drv = self.schedule_driver
        woken = -1
        if drv is not None and idle:
            # fuzzed wakeup: any idle worker may win the fresh task, not
            # just the longest-idle one (all are legal in real HPX-5).
            # Stale entries (workers already woken) and duplicates are
            # dropped exactly as the deterministic path skips them, and
            # the survivors keep their original relative order so the
            # idle queue never diverges from the unfuzzed layout.
            live: list[int] = []
            seen: set[int] = set()
            for w in idle:
                if w in idle_set and w not in seen:
                    live.append(w)
                    seen.add(w)
            idle.clear()
            if live:
                woken = drv.choose("wake", live)
                idle.extend(w for w in live if w != woken)
        else:
            while idle:
                w = idle.popleft()
                if w in idle_set:
                    woken = w
                    break
        if woken >= 0:
            idle_set.discard(woken)
            w = woken
        elif drv is not None:
            # fuzzed placement: ignore hint and round-robin position
            w = drv.choose("place", self.locality_workers[locality])
        elif worker_hint is not None and self.worker_locality[worker_hint] == locality:
            w = worker_hint
        else:
            w = self.locality_workers[locality][self._rr[locality] % self.workers_per_locality]
            self._rr[locality] += 1
        self.deques[w][self._level_of(task)].append(task)
        self._queued[w] += 1
        self._loc_queued[locality] += 1
        if woken >= 0:
            self._push_event(t, "pick", w)

    def abort(self, exc: BaseException) -> None:
        """Request a structured abort of the event loop.

        Called from *inside* an event (transport timers, task effects)
        instead of raising: the run loop finishes the current event
        cleanly, then raises ``exc`` between events - with the heap,
        deques, LCO and transport state all internally consistent, i.e.
        at a quiescent, checkpointable point.  The first request wins;
        later ones while an abort is already pending are dropped.
        """
        if self._abort is None:
            self._abort = exc

    def run(self, until: float | None = None) -> float:
        """Process events until quiescence (or ``until``); returns the time.

        A bounded run leaves every unprocessed event - including the
        first one past the horizon - on the heap, so a later ``run()``
        resumes exactly where this one stopped and the combined
        execution is bit-identical to one uninterrupted run.
        """
        from repro.hpx.lco import count_down  # LCOs sit above the scheduler

        heap = self._heap
        # kick workers that are neither busy nor parked idle so
        # initially enqueued tasks get picked.  Idle workers are always
        # woken by enqueue (an idle worker never coexists with
        # stealable work on its locality), and re-kicking them on a
        # resumed run would duplicate their idle-queue entries.
        idle_set = self._idle_set
        busy = self.busy
        kicks = [
            w for w in range(self.n_workers) if not busy[w] and w not in idle_set
        ]
        drv = self.schedule_driver
        if kicks:
            if drv is None and not heap:
                # bulk path: entries at one timestamp with increasing
                # seq form a sorted list, which is already a valid heap
                t0 = self.now
                base = self._seq
                heap.extend((t0, 0, base + i, "pick", w) for i, w in enumerate(kicks))
                self._seq = base + len(kicks)
            else:
                for w in kicks:
                    self._push_event(self.now, "pick", w)
        # hot loop: pre-bind everything touched per event
        heappop, heappush = heapq.heappop, heapq.heappush
        hz = self.hazards
        record = self.tracer.record if self.tracer.enabled else None
        deliver = self.deliver_parcel
        deques, pool, burst = self.deques, self._ctx_pool, self._burst
        queued, loc_queued = self._queued, self._loc_queued
        idle, worker_locality = self._idle, self.worker_locality
        locality_workers = self.locality_workers
        interleave = self.policy.interleave
        last = self.policy.n_levels - 1
        steal_choice = self._rng.choice
        bounded = until is not None
        while heap:
            if bounded and heap[0][0] > until:
                # cancelled timers past the horizon can never affect
                # state; discard them here so a run paused only by
                # checkpoint boundaries does not ratchet its clock to
                # the boundary when no real work remains beyond it
                if heap[0][3] == "call" and heap[0][4].cancelled:
                    heappop(heap)
                    continue
                # horizon reached: the over-horizon event stays queued
                # for the next run instead of being popped and lost
                self.now = until
                break
            t, _, _, kind, data = heappop(heap)
            if kind == "done" or kind == "pick":
                self.now = t
                if kind == "pick":
                    worker = data
                else:  # release the effects, then pick like a pick event
                    worker, ctx = data
                    if hz is not None:
                        # effects are released now; they are caused by this task
                        hz.current = ctx.hb
                    for eff in ctx.effects:
                        tag = eff[0]
                        if tag == "lco_sets":
                            count_down(eff[1], eff[2], eff[3], t, self)
                        elif tag == "lco_set":
                            _, lco, value, key, op_class = eff
                            lco._apply_set(value, t, self, key=key, op_class=op_class)
                        elif tag == "spawn":
                            _, task, locality = eff
                            if hz is not None and task.hb is None:
                                task.hb = hz.derive(
                                    (ctx.hb,), label=f"spawn:{task.op_class}", t=t
                                )
                            self.enqueue(task, locality, t, worker_hint=worker)
                        elif tag == "parcel":
                            self._release_parcel(worker, ctx.hb, eff[1], t)
                        elif tag == "call":
                            eff[1](t)
                    if hz is not None:
                        hz.current = None
                    busy[worker] = False
                    # emptied on release, not on reuse: a pooled context
                    # must not pin its last task's LCOs, parcels and closures
                    ctx.charges.clear()
                    ctx.effects.clear()
                    ctx.hb = None
                    pool.append(ctx)
                # a late wakeup of a busy worker: its work was stealable
                if not busy[worker]:
                    idle_set.discard(worker)
                    loc = worker_locality[worker]
                    mine = deques[worker]
                    task = None
                    if not interleave:
                        for d in mine:  # most critical non-empty level
                            if d:
                                task = d.pop()  # owner pops LIFO
                                break
                    else:
                        lvl = next((i for i, d in enumerate(mine) if d), -1)
                        if lvl >= 0 and lvl != last and mine[last]:
                            # one filler (near-field) pick after every
                            # `interleave` critical ones, or the driver's
                            if drv is not None:
                                lvl = drv.choose("interleave", [lvl, last])
                            elif burst[worker] + 1 >= interleave:
                                lvl, burst[worker] = last, 0
                            else:
                                burst[worker] += 1
                        if lvl >= 0:
                            task = mine[lvl].pop()
                    if task is not None:
                        queued[worker] -= 1
                        loc_queued[loc] -= 1
                    elif loc_queued[loc]:
                        # steal within the locality, FIFO end, most critical
                        # level first; a fuzzed victim never draws the steal RNG
                        victims = [w for w in locality_workers[loc] if queued[w]]
                        chosen = steal_choice(victims) if drv is None else drv.choose("victim", victims)
                        queued[chosen] -= 1
                        loc_queued[loc] -= 1
                        self.steals += 1
                        for d in deques[chosen]:
                            if d:
                                task = d.popleft()
                                break
                    if task is None:
                        idle_set.add(worker)
                        idle[loc].append(worker)
                    else:
                        busy[worker] = True
                        if pool:
                            ctx = pool.pop()
                            ctx.worker, ctx.locality, ctx.time = worker, loc, t
                        else:
                            ctx = TaskContext(worker, loc, t)
                        if hz is not None:
                            # minted at the causal site (spawn / trigger /
                            # parcel), or off the bootstrap for a root task
                            ctx.hb = hz.begin_task(task, t)
                        ctx.scheduler = self
                        task.fn(ctx, *task.args)
                        charges = ctx.charges
                        if not charges:
                            ctx.charge(task.op_class, task.cost if task.cost is not None else 0.0)
                        ctx.scheduler = None
                        if hz is not None:
                            hz.end_task()
                        self.tasks_run += 1
                        cursor = t  # same accumulation with or without the tracer
                        if record is None:
                            for _, dt in charges:
                                cursor += dt
                        else:
                            for op_class, dt in charges:
                                record(worker, op_class, cursor, cursor + dt)
                                cursor += dt
                        seq = self._seq
                        self._seq = seq + 1
                        heappush(heap, (cursor, 0 if drv is None else drv.tie(), seq, "done", (worker, ctx)))
            elif kind == "parcel":
                if deliver is None:
                    raise RuntimeError("no parcel delivery handler installed")
                self.now = t
                deliver(data, t)
            elif kind == "send":
                # eager parcel release (critical-path policy): the send
                # point inside the still-running task has been reached
                worker, hb, parcel = data
                self.now = t
                self._release_parcel(worker, hb, parcel, t)
            elif kind == "call":
                # transport machinery (arrivals, acks, retry timers); a
                # cancelled timer must not drag the clock forward
                if not data.cancelled:
                    self.now = t
                    data.fn(self, t)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind}")
            if self._abort is not None:
                # structured abort: the event that requested it has
                # completed; every queue/heap/LCO invariant holds, so
                # the caller may checkpoint before propagating
                exc = self._abort
                self._abort = None
                self.aborted = exc
                raise exc
        return self.now

    def post_parcel_arrival(self, parcel, t_arrival: float) -> None:
        self._push_event(t_arrival, "parcel", parcel)

    # -- internals --------------------------------------------------------------
    def _push_event(self, t: float, kind: str, data) -> None:
        # heap entries are (t, tie, seq, kind, data): the tie key is a
        # constant 0 on the deterministic path (so ordering degenerates
        # to the monotonic seq, bit-identical to the pre-fuzz layout)
        # and a driver-supplied jitter when fuzzing/replaying, which
        # reorders events at equal virtual timestamps - all such
        # orderings are legal schedules of logically concurrent events
        drv = self.schedule_driver
        tie = 0 if drv is None else drv.tie()
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (t, tie, seq, kind, data))

    def _release_parcel(self, worker: int, hb, parcel, t: float) -> None:
        """Hand one parcel to the transport (a released effect or a send event)."""
        self.parcels_sent += 1
        src = self.worker_locality[worker]
        parcel.origin = src
        if self.hazards is not None and parcel.hb is None:
            # the send event; every delivered copy (including
            # retransmissions) is caused by it
            parcel.hb = hb
        dst = parcel.target_locality
        if src == dst:
            # local sends are thread spawns; no network, no faults
            self.post_parcel_arrival(parcel, t)
        else:
            self.remote_bytes += parcel.size_bytes
            self.transport.send(self, parcel, src, dst, t)
