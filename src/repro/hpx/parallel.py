"""Real-parallel execution backend: one OS process per locality.

The discrete-event scheduler (:mod:`repro.hpx.scheduler`) executes the
whole cluster inside one interpreter on a virtual clock.  This module
is the second backend (``RuntimeConfig(backend="parallel")``): each
locality becomes a real ``multiprocessing`` worker process, bulk data
lives in POSIX shared memory (:class:`repro.hpx.gas.ShmArena`), and
the expansions that cross localities are gathered into the sender's
shared-memory mailbox, announced by one-way frames over OS queues and
copied out by the receiver.  The pieces here are generic
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
* **Rows through mailboxes, frames through queues.**  Each worker owns
  one shared-memory *mailbox* (:class:`Mailbox`) and gathers every row
  block it sends straight into it; the frame that travels through the
  receiver's OS queue carries no row data, only ``(segment name,
  offset, ids, shape)`` per block.  The receiver attaches to a segment
  name once and copies each block out as it handles the frame, so it
  holds no view of a peer's mailbox past that.  Offsets restart at every
  round and grow within one, so blocks of one round never overlap, and
  reusing them is safe because the parent posts GO of round k+1 only
  after every rank's DONE of round k.  Posts that outgrow the mailbox
  continue in a new, larger segment under a new name; the sender closes
  the old one at round end and names it in its DONE statistics, and the
  parent unlinks it after the barrier, when every receiver has attached.
  Receivers close an attachment whose name no frame of a round named.
  Segment names sit under the parent arena's
  :attr:`~repro.hpx.gas.ShmArena.worker_prefix`, so the parent unlinks
  whatever a killed worker left - in ``close()`` and before a respawn.
  The inboxes are ``SimpleQueue`` s: every message is small, and
  ``put`` writes it to the pipe itself, where a ``Queue`` hands it to a
  feeder thread that waits for the sender's GIL while the sender
  computes.
* **One completion signal.**  Frames are one-way, like the paper's
  parcels: no sequence id, no acknowledgment.  OS queues neither drop
  nor duplicate a message, and every frame addressed to a rank is
  awaited by one of that rank's stages, so a rank's DONE means it
  consumed every frame of the round addressed to it, and the parent's
  all-DONE barrier - GO of the next round follows it - means every
  frame of the round was consumed.
* **Start method.**  ``forkserver`` is the default (see
  :class:`~repro.hpx.runtime.RuntimeConfig`).  The fork server is a
  fresh interpreter, started once per process by the first fleet
  (:func:`worker_context`) under :func:`worker_env` and importing the
  worker module before anything else runs in it: it holds no parent
  state - no BLAS pool of the parent's, no operator cache, no RNG state,
  which is what ``spawn`` was chosen for - and every worker it forks
  starts with that module imported instead of importing numpy, scipy
  and the package anew (0.7-0.8 s a worker on a 2-CPU host).  ``spawn`` and ``fork``
  are accepted and give identical potentials: every worker seeds its
  RNGs from ``config.seed + rank`` inside the worker body, and the
  operators come from the parent's fits in every case.  One caveat: a
  process has one fork server, so one that other code of the process
  started first - with multithreaded BLAS, or without the worker
  module - is the one workers are forked from.
* **Thread hygiene.**  Worker processes - and the fork server, whose
  environment and BLAS pools they inherit - are started with
  ``OPENBLAS/OMP/MKL/NUMEXPR_NUM_THREADS=1`` so ``n`` localities use
  ``n`` cores instead of oversubscribing every BLAS pool.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue as _queue
import time
from contextlib import contextmanager
from multiprocessing import forkserver
from pathlib import Path

import numpy as np

from repro.hpx.gas import _ALIGN, _suppress_tracker, unlink_segment


class ParallelError(RuntimeError):
    """A worker process failed or the parallel run stalled."""


#: thread-pool environment caps applied to worker processes
_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: the directory the package is imported from
_ROOT = str(Path(__file__).resolve().parents[2])


@contextmanager
def worker_env():
    """``os.environ`` as worker processes and the fork server are
    started under: every BLAS pool capped at one thread
    (:data:`_THREAD_ENV`), and the directory the package is imported
    from first on ``PYTHONPATH`` - a fork server preloads from the
    ``sys.path`` its own interpreter starts with, not the parent's, and
    skips a module it cannot import without a word."""
    path = os.environ.get("PYTHONPATH")
    changes = dict.fromkeys(_THREAD_ENV, "1")
    changes["PYTHONPATH"] = _ROOT if not path else os.pathsep.join((_ROOT, path))
    saved = {k: os.environ.get(k) for k in changes}
    os.environ.update(changes)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def worker_context(method: str, preload: str):
    """The multiprocessing context a fleet starts under.  For
    ``forkserver`` the process's fork server is started if none runs -
    under :func:`worker_env`, importing the module ``preload`` - and
    returned at once: the server imports while the caller goes on, and
    the first fork waits for it."""
    ctx = mp.get_context(method)
    if method == "forkserver":
        ctx.set_forkserver_preload([preload])
        with worker_env():
            forkserver.ensure_running()
    return ctx


#: what a mailbox holds: expansion coefficients and plane-wave rows
_ROW = np.dtype(complex)
#: the smallest mailbox segment, in bytes
MIN_MAILBOX = 1 << 20


class Mailbox:
    """The shared-memory segment a sending rank stacks its outgoing rows
    into (sender side; the receivers' side is :class:`QueueChannel`).

    :meth:`put` writes one block at the round's next free offset and
    returns where it lies; :meth:`settle` ends the round.  A block that
    does not fit continues the round in a new segment of at least twice
    the round's bytes so far, under a new name (``{prefix}_{n}``); the
    outgrown one is *retired*: closed when the round settles, and
    unlinked by the parent after the round's barrier.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._numbers = itertools.count()
        self._shm = None
        self._retired: list = []
        #: the next free byte of the current segment
        self.offset = 0
        #: bytes posted this round, over every segment
        self.used = 0

    @property
    def nbytes(self) -> int:
        """Size of the current segment (0 before the first post)."""
        return 0 if self._shm is None else self._shm.size

    def put(self, array: np.ndarray, rows: np.ndarray) -> tuple:
        """Gather ``array[rows]`` into one block; returns its ``(segment
        name, offset, shape)``."""
        shape = (len(rows), array.shape[1])
        size = shape[0] * shape[1] * _ROW.itemsize
        if self.offset + size > self.nbytes:
            self._grow(self.used + size)
        at = self.offset
        block = np.ndarray(shape, _ROW, buffer=self._shm.buf, offset=at)
        # ``rows`` are the caller's own row index, in range: "clip"
        # spares take's bounds-checked detour through a buffer
        np.take(array, rows, axis=0, out=block, mode="clip")
        step = -(-size // _ALIGN) * _ALIGN
        self.offset += step
        self.used += step
        return self._shm.name, at, shape

    def _grow(self, need: int) -> None:
        from multiprocessing import shared_memory

        if self._shm is not None:
            self._retired.append(self._shm)
        size = max(MIN_MAILBOX, 2 * need)
        with _suppress_tracker():
            self._shm = shared_memory.SharedMemory(
                name=f"{self.prefix}_{next(self._numbers)}", create=True, size=size
            )
        self.offset = 0

    def settle(self) -> list:
        """End a round: close the outgrown segments - receivers may not
        have attached yet, so their names stay - and return the names;
        the next round's blocks start at offset 0 again."""
        names = [shm.name for shm in self._retired]
        for shm in self._retired:
            shm.close()
        self._retired.clear()
        self.offset = self.used = 0
        return names

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        if self._shm is not None:
            self._retired.append(self._shm)
            self._shm = None
        for shm in self._retired:
            shm.close()
            unlink_segment(shm)
        self._retired.clear()


class QueueChannel:
    """One-way frames over the worker queue mesh and the ranks'
    mailboxes.

    ``inboxes[r]`` is worker ``r``'s (multi-producer) inbox queue.  A
    frame's row blocks are gathered into this rank's :class:`Mailbox`;
    the frame itself is ``("frame", src, stage, blocks)`` with ``(segment
    name, offset, ids, shape)`` per block.
    """

    def __init__(self, rank: int, inboxes: list, prefix: str):
        self.rank = rank
        self.inboxes = inboxes
        self.frames_sent = 0
        self.mailbox = Mailbox(f"{prefix}_{rank}")
        #: the mailbox segments the last round outgrew (closed, not unlinked)
        self.retired: list = []
        #: segment name -> attached peer mailbox
        self._attached: dict = {}
        #: names the frames of the current round named
        self._named: set = set()

    def send(self, dst: int, stage, blocks) -> None:
        """One frame to rank ``dst`` of ``(ids, array, rows)`` blocks, each
        the rows ``array[rows]`` of the nodes ``ids``."""
        payload = []
        for ids, array, rows in blocks:
            name, at, shape = self.mailbox.put(array, rows)
            payload.append((name, at, ids, shape))
        self.frames_sent += 1
        self.inboxes[dst].put(("frame", self.rank, stage, payload))

    def views(self, payload) -> list:
        """An arriving frame's ``(ids, rows)`` blocks, as views of the
        sender's mailbox, valid until the sender's next round."""
        return [(ids, self._view(name, at, shape)) for name, at, ids, shape in payload]

    def _view(self, name: str, at: int, shape) -> np.ndarray:
        shm = self._attached.get(name)
        if shm is None:
            from multiprocessing import shared_memory

            with _suppress_tracker():
                shm = self._attached[name] = shared_memory.SharedMemory(name=name)
        self._named.add(name)
        return np.ndarray(shape, _ROW, buffer=shm.buf, offset=at)

    def end_round(self) -> None:
        """Settle the mailbox (:attr:`retired` names what it outgrew) and
        close the attachments no frame of the round named."""
        self.retired = self.mailbox.settle()
        for name in set(self._attached) - self._named:
            self._attached.pop(name).close()
        self._named.clear()

    def close(self) -> None:
        """Unlink this rank's mailbox and close every attachment."""
        self.mailbox.close()
        for shm in self._attached.values():
            try:
                shm.close()
            except BufferError:  # a view held by a failed round's traceback
                pass
        self._attached.clear()

    def stats(self) -> dict:
        # acks_sent / dups_suppressed: no frame is acked or deduplicated;
        # the counters stay for the ledger's transport metrics
        return {
            "frames_sent": self.frames_sent,
            "acks_sent": 0,
            "dups_suppressed": 0,
            "mailbox_bytes": self.mailbox.nbytes,
            "retired": self.retired,
        }


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
                    # the classic spawn trap (forkserver shares it): a
                    # script that calls evaluate() at module top level
                    # is re-imported by every worker, which tries to
                    # start a fleet again
                    hint = (
                        "; if this run was started from a script, make "
                        "sure the evaluate() call is under an "
                        "`if __name__ == \"__main__\":` guard (required "
                        "by the forkserver and spawn start methods)"
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
