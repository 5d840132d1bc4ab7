"""Real-parallel execution backend: one OS process per locality.

The discrete-event scheduler (:mod:`repro.hpx.scheduler`) executes the
whole cluster inside one interpreter on a virtual clock.  This module
is the second backend (``RuntimeConfig(backend="parallel")``): each
locality becomes a real ``multiprocessing`` worker process, bulk data
lives in POSIX shared memory (:class:`repro.hpx.gas.ShmArena`), and
parcels travel over OS queues wrapped in the same
:class:`~repro.hpx.transport.Framing` seq/ack/dedup protocol the
simulated reliable transport uses.  The pieces here are generic
worker-side runtime machinery plus the parent's wait loop; the DASHMM
worker body that drives an evaluation DAG through them, and the one
parent-side fleet manager that spawns and respawns workers
(``PersistentParallelService`` - a one-shot ``evaluate()`` is a
one-round service), are in :mod:`repro.dashmm.parallel`.

Design points:

* **Same scheduling policy, same decision funnel.**  A worker's ready
  queue is a :class:`WorkerScheduler`: per-level deques identical to
  one simulator worker's, popped through the shared
  :func:`~repro.hpx.scheduler.pick_level` rule (critical levels first,
  near/far interleaving), with every schedule-freedom decision routed
  through the installed ``schedule_driver`` exactly like the
  simulator - fuzz certification carries over.
* **Reliable framing reuse.**  OS queues are lossless, but the
  pending-until-ack ledger is what gives each worker a precise "all my
  frames were processed" quiescence signal, and receiver dedup is a
  second belt under the LCO dedup keys.
* **Start method.**  ``spawn`` is the default (see
  :class:`~repro.hpx.runtime.RuntimeConfig`): fresh interpreters can't
  inherit BLAS pools, operator caches or RNG state, so runs are
  reproducible across platforms; ``fork``/``forkserver`` are accepted
  for experiments and produce identical results because every worker
  seeds its RNGs explicitly from ``config.seed + rank`` inside the
  worker body.
* **Thread hygiene.**  Worker processes are started with
  ``OPENBLAS/OMP/MKL/NUMEXPR_NUM_THREADS=1`` so ``n`` localities use
  ``n`` cores instead of oversubscribing every BLAS pool.
"""

from __future__ import annotations

import queue as _queue
import time
from collections import deque
from typing import Callable

from repro.hpx.scheduler import SchedulingPolicy, Task, pick_level
from repro.hpx.transport import Framing


class ParallelError(RuntimeError):
    """A worker process failed or the parallel run stalled."""


#: thread-pool environment caps applied to worker processes
_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerScheduler:
    """One locality's ready queue, driven by a :class:`SchedulingPolicy`.

    Implements the scheduler surface the LCO layer and the registrar
    touch (``enqueue`` / ``policy`` / ``schedule_driver`` /
    ``lco_dedup`` / ``hazards`` / ``now``) for a single real worker.
    Level layout and pop order follow the same
    :func:`~repro.hpx.scheduler.pick_level` rule as the simulator, so
    the backend drains work in the same policy order.
    """

    def __init__(self, rank: int, policy: SchedulingPolicy, schedule_driver=None):
        self.rank = rank
        self.policy = policy
        self.schedule_driver = schedule_driver
        self.queues: tuple[deque, ...] = tuple(
            deque() for _ in range(policy.n_levels)
        )
        self._level_of = policy.level_of
        self._burst = 0
        self.now = 0.0
        self.tasks_run = 0
        #: LCO-layer expectations (mirrors the simulated Scheduler)
        self.hazards = None
        self.lco_dedup = True
        self.lco_dups_suppressed = 0
        #: contributions applied through ctx.lco_set; the worker body
        #: compares this against the summed in-degree of its local LCOs
        #: for termination detection
        self.lco_sets_applied = 0

    def enqueue(self, task: Task, locality: int, t: float = 0.0, worker_hint=None) -> None:
        if locality != self.rank:
            raise ParallelError(
                f"task for locality {locality} enqueued on worker {self.rank}; "
                "remote work must travel as parcels"
            )
        self.queues[self._level_of(task)].append(task)

    def pop(self) -> Task | None:
        """The next task in policy order (owner pops LIFO), or None."""
        lvl, self._burst = pick_level(
            self.queues,
            self.policy.n_levels,
            self.policy.interleave,
            self._burst,
            self.schedule_driver,
        )
        if lvl < 0:
            return None
        self.tasks_run += 1
        return self.queues[lvl].pop()

    def has_ready(self) -> bool:
        return any(self.queues)


class QueueChannel:
    """Framed parcel channel over the worker queue mesh.

    ``inboxes[r]`` is worker ``r``'s (multi-producer) inbox queue.  All
    frames carry ``(src, seq)`` ids stamped by a :class:`Framing`
    instance, are acked by the receiver, and are deduplicated - the
    exact bookkeeping of the simulated reliable transport, minus
    retransmission (OS queues do not drop).
    """

    def __init__(self, rank: int, inboxes: list):
        self.rank = rank
        self.inboxes = inboxes
        self.framing = Framing()
        self.frames_sent = 0

    def send(self, dst: int, kind: str, payload) -> None:
        seq = self.framing.stamp(self.rank)
        self.framing.track(seq, (dst, kind))
        self.frames_sent += 1
        self.inboxes[dst].put(("frame", self.rank, seq, kind, payload))

    def handle_frame(self, src: int, seq, kind: str) -> bool:
        """Ack one arriving frame; True when it is fresh (deliver it)."""
        self.framing.acks_sent += 1
        self.inboxes[src].put(("ack", self.rank, seq))
        return self.framing.receive(seq)

    def handle_ack(self, seq) -> None:
        self.framing.ack(seq)

    @property
    def unacked(self) -> int:
        return self.framing.in_flight

    def stats(self) -> dict:
        return {"frames_sent": self.frames_sent, **self.framing.stats()}


class ParallelContext:
    """Task-context stand-in for real execution.

    Same surface as the simulator's :class:`TaskContext`, but effects
    apply immediately: on real cores there is no virtual completion
    time to defer to, and result bit-identity never depended on
    deferral - LCO folds happen in canonical dedup-key order and every
    batched flush groups canonically (see
    :mod:`repro.dashmm.registrar`), so application order is free.
    Charges are dropped (the wall clock is the cost model here).
    """

    __slots__ = ("scheduler", "worker", "locality", "time", "hb", "_on_parcel")

    def __init__(self, scheduler: WorkerScheduler, on_parcel: Callable):
        self.scheduler = scheduler
        self.worker = scheduler.rank
        self.locality = scheduler.rank
        self.time = 0.0
        self.hb = None
        self._on_parcel = on_parcel

    def charge(self, op_class: str, dt: float) -> None:
        if dt < 0:
            raise ValueError("negative charge")

    def spawn(self, task: Task, locality: int | None = None) -> None:
        self.scheduler.enqueue(
            task, self.locality if locality is None else locality
        )

    def send_parcel(self, parcel) -> None:
        self._on_parcel(parcel)

    def lco_set(self, lco, value=None, key=None, op_class=None) -> None:
        self.scheduler.lco_sets_applied += 1
        lco._apply_set(value, 0.0, self.scheduler, key=key, op_class=op_class)

    def call_at_completion(self, fn: Callable) -> None:
        fn(0.0)


class LocalityRuntime:
    """Worker-side runtime facade bound to one locality process.

    The subset of the :class:`~repro.hpx.runtime.Runtime` surface the
    registrar and the LCO layer use; remote work arrives as framed
    queue parcels handled by the worker loop, so ``enqueue_task``
    silently skips tasks addressed to other localities (each process
    enqueues its own).
    """

    def __init__(self, rank: int, n_localities: int, scheduler: WorkerScheduler):
        from repro.hpx.gas import GlobalAddressSpace

        self.rank = rank
        self.n_localities = n_localities
        self.scheduler = scheduler
        self.gas = GlobalAddressSpace(n_localities)
        self._actions: dict[str, Callable] = {}

    def register_action(self, name: str, fn: Callable) -> None:
        if name in self._actions:
            raise ValueError(f"action {name!r} already registered")
        self._actions[name] = fn

    def action(self, name: str) -> Callable:
        fn = self._actions.get(name)
        if fn is None:
            raise KeyError(f"unregistered action {name!r}")
        return fn

    def enqueue_task(self, task: Task, locality: int) -> None:
        if locality == self.rank:
            self.scheduler.enqueue(task, locality)


def seed_worker_rngs(base_seed: int, rank: int) -> None:
    """Deterministic per-locality RNG seeding (RNG hygiene).

    Called inside the worker body - after ``spawn``/``fork`` did
    whatever it did to inherited state - so locality ``rank`` always
    computes with ``random`` seeded ``base_seed + rank`` and NumPy's
    legacy global generator seeded ``(base_seed + rank) % 2**32``,
    independent of the start method.  The stock evaluation pipeline
    draws no randomness (results are schedule- and RNG-independent by
    construction); this guards user kernels and future samplers.
    """
    import random

    import numpy as np

    random.seed(base_seed + rank)
    np.random.seed((base_seed + rank) % (2**32))


def await_workers(parent_q, procs, n: int, expected: str, timeout: float) -> list:
    """Collect one ``expected`` message per worker, rank-ordered.

    The parent-side fleet manager
    (:class:`repro.dashmm.parallel.PersistentParallelService`) awaits
    READY once per spawn and a DONE per round with it.
    """
    got: dict[int, object] = {}
    deadline = time.monotonic() + timeout
    while len(got) < n:
        try:
            msg = parent_q.get(timeout=1.0)
        except _queue.Empty:
            dead = [r for r, p in enumerate(procs) if not p.is_alive()]
            if dead and not _drain_errors(parent_q):
                hint = ""
                if expected == "ready":
                    # the classic spawn trap: a script that calls
                    # evaluate() at module top level is re-imported
                    # by every worker, which tries to spawn again
                    hint = (
                        "; if this run was started from a script, make "
                        "sure the evaluate() call is under an "
                        "`if __name__ == \"__main__\":` guard (required "
                        "by the spawn start method)"
                    )
                raise ParallelError(
                    f"worker(s) {dead} died without reporting "
                    f"(while waiting for {expected!r}){hint}"
                )
            if time.monotonic() > deadline:
                raise ParallelError(
                    f"timed out waiting for {expected!r} "
                    f"({len(got)}/{n} received)"
                )
            continue
        if msg[0] == "error":
            raise ParallelError(
                f"worker {msg[1]} failed:\n{msg[2]}"
            )
        if msg[0] != expected:
            raise ParallelError(
                f"protocol violation: expected {expected!r}, got {msg[0]!r}"
            )
        got[msg[1]] = msg[2] if len(msg) > 2 else None
    return [got[r] for r in range(n)]


def _drain_errors(parent_q) -> bool:
    """Surface a queued error report, if any (raises); False if none."""
    try:
        while True:
            msg = parent_q.get_nowait()
            if msg[0] == "error":
                raise ParallelError(f"worker {msg[1]} failed:\n{msg[2]}")
    except _queue.Empty:
        return False
