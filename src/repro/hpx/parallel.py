"""Real-parallel execution backend: one OS process per locality.

The discrete-event scheduler (:mod:`repro.hpx.scheduler`) executes the
whole cluster inside one interpreter on a virtual clock.  This module
is the second backend (``RuntimeConfig(backend="parallel")``): each
locality becomes a real ``multiprocessing`` worker process, bulk data
lives in POSIX shared memory (:class:`repro.hpx.gas.ShmArena`), and
the expansions that cross localities travel over OS queues wrapped in
the same :class:`~repro.hpx.transport.Framing` seq/ack/dedup protocol
the simulated reliable transport uses.  The pieces here are generic
worker-side runtime machinery plus the parent's wait loop; the DASHMM
worker body that walks its rank's execution plan over them, and the one
parent-side fleet manager that spawns and respawns workers
(``PersistentParallelService`` - a one-shot ``evaluate()`` is a
one-round service), are in :mod:`repro.dashmm.parallel`.

Design points:

* **No scheduler in a worker.**  What a locality computes, and in which
  order, is the compiled execution plan of its rank
  (:mod:`repro.dashmm.flushplan`), walked stage by stage; a worker makes
  no schedule decision, so scheduling policies and schedule fuzzing
  belong to the simulator.  A worker's registrar has no runtime and no
  LCOs.
* **Reliable framing reuse.**  OS queues are lossless, but the
  pending-until-ack ledger is what tells a worker "all my frames were
  processed" before it reports a round done - which keeps round
  boundaries quiet - and receiver dedup is a second belt.
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


class QueueChannel:
    """Framed channel over the worker queue mesh.

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

    def send(self, dst: int, kind, payload) -> None:
        seq = self.framing.stamp(self.rank)
        self.framing.track(seq, (dst, kind))
        self.frames_sent += 1
        self.inboxes[dst].put(("frame", self.rank, seq, kind, payload))

    def handle_frame(self, src: int, seq) -> bool:
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
