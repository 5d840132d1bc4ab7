"""Real-parallel DASHMM evaluation: the worker body and entry point.

``RuntimeConfig(backend="parallel")`` routes
:meth:`~repro.dashmm.evaluator.DashmmEvaluator.evaluate` here.  The
generic process/queue/shared-memory machinery lives in
:mod:`repro.hpx.parallel`; this module supplies the DASHMM-specific
pieces: what each locality process does, and how the evaluation DAG is
partitioned, executed and made to produce potentials **bit-identical**
to the simulator backend.

Execution model - *replicated metadata, partitioned execution*:

* Bulk data (source/target points, weights, the result vector) lives in
  shared memory; each worker maps the same pages.
* The parent builds the dual tree, interaction lists, DAG and
  distribution once - its *template* - and fits from it every operator
  the plan reads, on any rank (:func:`~repro.dashmm.registrar.fit_operators`).
  The fitted arrays go into the arena beside the inputs; a worker's
  factory adopts views of them and factorizes nothing.
* Every worker deterministically rebuilds the dual tree, interaction
  lists, DAG and distribution from the shared arrays - setup is a pure
  function of the inputs, so all ranks (and the parent) agree on node
  ids, edge order and localities without shipping the structures.
* Each worker holds the session's template store
  (:class:`~repro.dashmm.service.TemplateStore`): registrars with no
  runtime and no LCOs, restricted to its rank (``_rank``), whose
  expansion store holds *its* nodes.  It compiles the execution plan
  (:mod:`repro.dashmm.flushplan`) for that rank: the
  edges whose destination it owns, as one ordered stage list - leaf
  fits, the upward sweep level by level, the S->L / M->L folds, M->I,
  I->I, I->L, L->L level by level, leaf outputs
  (:meth:`~repro.dashmm.registrar.Registrar.eager_stages` +
  :meth:`~repro.dashmm.registrar.Registrar.flush_stages`) - with, per
  stage, the expansions it owes each peer (``sends``) and reads from
  each peer (``recvs``).  No task is enqueued and no LCO counts down.

GO carries nothing: the parent writes a submission's inputs into the
arena and posts a bare ``("go",)``, and every round is what a session's
submit is - ``advance -> reset -> stages`` - on each rank.  The store's
advance is idempotent, so the cold round (set up before GO, outside the
timed window), a charge-only round, a drift, a shape change and a
re-drive on respawned workers are all the same message.

The pipeline (:meth:`_WorkerBody._round`), per stage: *post* to every
peer in ``sends[stage]`` one frame with the rows that peer's stage
reads - stacked into this rank's shared-memory mailbox
(:class:`~repro.hpx.parallel.Mailbox`), the frame itself carrying only
``(segment name, offset, ids, shape)`` per block - *wait* for one frame
from every peer in ``recvs[stage]``, *run* the stage.  A receiver
attaches to a mailbox name once and puts views of the sender's block
into the registrar's ``expansions``, beside the rank's own rows - the
I->I stage's copy into its source-side matrix is the only copy an Is
row makes after its post.  A stage's read of a remote node no frame
delivered is a ``KeyError``.

* Every shipped value is final when it is sent: the stage order puts
  each producer before the stage its readers run, on every rank.  A
  frame that arrives early (a fast peer is stages ahead) therefore just
  waits in the store; there is no barrier between stages.
* Mailbox reuse: a rank's blocks start at offset 0 each round and
  follow each other without overlap, so nothing a sender posts later in
  a round reaches a block a peer may still read.  The next round
  rewrites them, which is safe because the parent posts GO of round k+1
  only after every rank's DONE of round k, and a rank drops its views
  of peer mailboxes before DONE.  A frame of round k+1 that overtakes
  this rank's GO points into a block already rewritten for round k+1;
  it is held, not read, until the round's state is in place.
* Deadlock rule: **a rank posts everything a stage's readers need
  before it waits for anything of that stage.**  All ranks walk the same
  stage names in the same order and posting never blocks, so by
  induction over the stages the rank furthest behind can always run:
  everything it waits for was posted by ranks that already reached that
  stage.
* Fill rule: while its inbox is empty, a waiting rank runs the outputs
  stage's next pending S->T group
  (:class:`~repro.dashmm.registrar.LeafOutputs`: the stage's
  preparation first, then one group at a time) - S->T reads points and
  charges only - and the outputs stage runs whatever is left.  It checks the inbox between groups, so a
  frame is handled at most one group late and the deadlock rule holds
  as written; every ``vals`` slot is written once and the add keeps
  its order, so the fill moves no bit.
* Acks are drained once, before DONE: when a rank reports, every frame
  it sent was processed and (``sends`` and ``recvs`` mirror each other)
  every frame addressed to it was awaited by some stage, so no message
  is in flight across a round boundary - except a peer's first frame of
  the *next* round overtaking this rank's GO, which is held until the
  round's state is in place.  A receiver acks a frame after it has
  attached to its segments, so once its frames are acked a rank may
  unlink a mailbox it outgrew.

Why the result is bit-identical to the simulator:

* A drain only decides *when* an edge runs; every edge executes at its
  destination's locality, folds are in canonical key order and every
  GEMM group key ends in the executing locality.  A rank's folds, S->L
  groups, GEMM groups and I->I rows are therefore row subsets of the
  full plan's, operand for operand - the plan a one-process session
  runs, which agrees with the drained ``evaluate()`` bit for bit.
* What crosses ranks is copied, never recomputed, and a node nothing
  contributed to crosses as exactly that (``None``, the zero expansion).

Nothing in a worker consults a priority or makes a schedule decision:
``RuntimeConfig.policy`` shapes the simulator's virtual clock only (any
value is accepted and ignored here), and ``fuzz_schedule`` /
``replay_schedule`` are rejected - fuzz the simulator.
"""

from __future__ import annotations

import os
import resource
import time
import traceback

import numpy as np

from repro.dashmm.service import TemplateStore, check_plan_only, same_points
from repro.hpx.parallel import ParallelError, QueueChannel, seed_worker_rngs

#: the process that imported this module: a worker forked from the
#: preloaded fork server (or from a parent) did not import it itself
_IMPORT_PID = os.getpid()


#: one object per key of the workers' round statistics (see _shared_keys)
_KEYS: dict = {}


def _shared_keys(stats: dict) -> dict:
    """A DONE message's statistics with every key - stage names and
    counter names, which arrive unpickled as fresh objects each round -
    replaced by one shared object: ``round_stats`` keeps an entry per
    round for the life of a session."""
    key = _KEYS.setdefault
    return {
        key(k, k): _shared_keys(v) if isinstance(v, dict) else v for k, v in stats.items()
    }


class _Stop(Exception):
    """STOP arrived inside a round: the parent is tearing the fleet down."""


class _WorkerBody:
    """The evaluation loop of one locality process."""

    def __init__(self, rank: int, spec: dict, manifest: dict, inboxes, parent_q):
        self.rank = rank
        self.spec = spec
        self.inbox = inboxes[rank]
        self.parent_q = parent_q
        #: (stage, peer) of every frame delivered this round
        self._arrived: set = set()
        #: messages that overtook this rank's GO
        self._held: list = []
        self._recvs: dict = {}
        #: the round's outputs stage's ``step`` - its preparation, then
        #: one S->T group per call - while any part is pending, else None
        self._fill = None
        #: plan edges executed, all rounds; this round's seconds per
        #: stage, and of its advance, reset, fill and GO-to-DONE span
        self.tasks_run = 0
        self.stage_s: dict = {}
        self.wait_s: dict = {}
        self.round_s: dict = {}
        self._build(manifest)
        self.channel = QueueChannel(rank, inboxes, self.arena.worker_prefix)

    # -- deterministic setup (untimed) -----------------------------------------
    def _build(self, manifest) -> None:
        from repro.dashmm.evaluator import DashmmEvaluator
        from repro.hpx.gas import ShmArena
        from repro.kernels.fitops import OperatorFactory

        spec = self.spec
        seed_worker_rngs(spec["config"].seed, self.rank)
        self.arena = ShmArena.attach(manifest)
        self._inputs = tuple(self.arena.get(k) for k in ("sources", "weights", "targets"))

        factory = OperatorFactory.shared(spec["kernel"], eps=spec["eps"])
        # the parent's fits, as views of the arena
        factory.adopt({label: self.arena.get(label) for label in manifest["blocks"]})
        self.factory = factory
        #: the factory's counters when this process took it over (a
        #: forked worker inherits a parent's shared factory)
        self._counters0 = self._counters()
        ev = DashmmEvaluator(
            spec["kernel"],
            method=spec["method"],
            threshold=spec["threshold"],
            policy=spec["policy"],
            runtime_config=spec["config"],
            mode="numeric",
            cost_model=spec["cost_model"],
            size_model=spec["size_model"],
            theta=spec["theta"],
            eps=spec["eps"],
            factory=factory,
        )
        # a session pins the root cube so trees of every round live in
        # one coordinate frame (None - the bounding cube - for a
        # one-shot evaluate); all ranks share the one result vector, and
        # each writes only the target-box slices of its own T nodes
        self.store = TemplateStore(
            ev,
            spec["domain"],
            spec["max_templates"],
            rank=self.rank,
            result=self.arena.get("result"),
        )
        # the cold round's tree, DAG and distribution, outside the timed
        # window; its GO then finds the inputs unchanged
        self.store.advance(*self._inputs)

    # -- frames ----------------------------------------------------------------
    def _post(self, stage, owed: dict) -> None:
        """One frame per reading peer: the final rows of the nodes it
        reads in ``stage``, as ``(ids, rows)`` blocks - one per row
        width, i.e. one unless the bridge levels differ in width -
        stacked into this rank's mailbox.  Nodes nothing contributed to
        are left out; the receiver knows which ids to expect."""
        exp = self.reg.expansions
        for dst in sorted(owed):
            blocks: dict[int, tuple[list, list]] = {}
            for nid in owed[dst]:
                row = exp[nid]
                if row is not None:
                    ids, rows = blocks.setdefault(len(row), ([], []))
                    ids.append(nid)
                    rows.append(row)
            self.channel.send(dst, stage, list(blocks.values()))

    def _handle(self, msg) -> None:
        """One inbox message of a round in progress."""
        tag = msg[0]
        if tag == "frame":
            _, src, seq, stage, payload = msg
            blocks = self.channel.handle_frame(src, seq, payload)
            if blocks is not None:
                exp = self.reg.expansions
                exp.update(dict.fromkeys(self._recvs[stage][src]))
                for ids, rows in blocks:
                    exp.update(zip(ids, rows))
                self._arrived.add((stage, src))
        elif tag == "ack":
            self.channel.handle_ack(msg[2])
        elif tag == "stop":
            raise _Stop
        else:  # pragma: no cover - defensive
            raise ParallelError(f"unexpected message {tag!r}")

    def _pump(self, done) -> None:
        """Handle inbox messages until ``done()`` holds.  While the inbox
        is empty, run the round's pending S->T groups one at a time (the
        fill), so a frame waits for at most one group; with none left,
        block on the inbox."""
        inbox = self.inbox
        while not done():
            if self._fill is not None and inbox.empty():
                t = time.perf_counter()
                if not self._fill():
                    self._fill = None
                self.round_s["fill_s"] += time.perf_counter() - t
            else:
                self._handle(inbox.get())

    # -- one round -------------------------------------------------------------
    def _round(self) -> None:
        """Advance the template store to the arena's inputs, reset the
        expansions (the parent zeroes the shared result), then walk the
        rank's stage list as a send-when-final / wait-when-needed
        pipeline (module docstring)."""
        t = time.perf_counter()
        reg = self.reg = self.store.advance(*self._inputs)
        t_reset = time.perf_counter()
        reg.reset(zero_result=False)
        t_run = time.perf_counter()
        round_s = self.round_s = {
            "advance_s": t_reset - t,
            "reset_s": t_run - t_reset,
            "fill_s": 0.0,
        }
        self._arrived.clear()
        eager, flush = reg.eager_plan(), reg.flush_plan()
        sends = {**eager.sends, **flush.sends}
        self._recvs = {**eager.recvs, **flush.recvs}
        for msg in self._held:
            self._handle(msg)
        self._held.clear()
        stages = reg.eager_stages() + reg.flush_stages()
        self._fill = dict(stages)["outputs"].step
        arrived = self._arrived
        stage_s = self.stage_s = {}
        wait_s = self.wait_s = {}
        t = time.perf_counter()
        for name, stage in stages:
            self._post(name, sends.get(name, {}))
            need = {(name, peer) for peer in self._recvs.get(name, ())}
            filled = round_s["fill_s"]
            self._pump(lambda: need <= arrived)
            t_run = time.perf_counter()
            stage()
            wait_s[name] = t_run - t - (round_s["fill_s"] - filled)
            t = time.perf_counter()
            stage_s[name] = t - t_run
        self._fill = None  # the outputs stage ran whatever was left
        self._pump(lambda: not self.channel.unacked)
        # the peers' rows are views of their mailboxes, which the next
        # round rewrites: none outlives this one
        exp = reg.expansions
        for stage, src in arrived:
            for nid in self._recvs[stage][src]:
                exp.pop(nid, None)
        self.channel.end_round()
        self.tasks_run += eager.n_edges + flush.n_edges

    # -- protocol --------------------------------------------------------------
    def run(self) -> None:
        """READY, then rounds of GO -> evaluate -> DONE until STOP.

        GO is a bare ``("go",)``: the round's inputs are whatever the
        arena holds, and the store's advance to them is idempotent, so
        the cold round, every later submission and a re-drive on
        respawned workers are one message.  A one-shot evaluate is the
        cold round followed by STOP.  Anything else that arrives between
        rounds is a peer's frame that overtook this rank's GO (the
        parent posts GO inbox by inbox); it is held and handled once
        the advance and reset have put the round's state in place.
        """
        self.parent_q.put(("ready", self.rank))
        try:
            while True:
                msg = self.inbox.get()
                if msg[0] == "go":
                    t_go = time.perf_counter()
                    self._round()
                    self.round_s["span_s"] = time.perf_counter() - t_go
                    self.parent_q.put(("done", self.rank, self.stats()))
                elif msg[0] == "stop":
                    break
                else:
                    self._held.append(msg)
        except _Stop:
            pass
        finally:
            self.channel.close()
            self.arena.close()

    def _counters(self) -> dict:
        stats = self.factory.cache_stats()
        return {k: stats[k] for k in ("factorizations", "hits", "misses")}

    def stats(self) -> dict:
        """Cumulative counters plus the last round's seconds: per stage
        ``stage_s`` running it and ``wait_s`` posting its frames and
        waiting for the peers' (both keyed by stage name, the wait
        without the fill), and ``advance_s``, ``reset_s``, ``fill_s``
        (S->T groups run inside the waits) and ``span_s`` (GO handled
        to DONE posted).  ``factory`` holds this process's operator
        factory counters, ``peak_rss_mb`` its own peak resident set (a
        worker forked by the fork server is not the parent's child, so
        the parent's ``RUSAGE_CHILDREN`` never sees it) and
        ``preloaded`` whether it started with this module imported."""
        return {
            "rank": self.rank,
            "tasks_run": self.tasks_run,
            "stage_s": self.stage_s,
            "wait_s": self.wait_s,
            **self.round_s,
            **self.channel.stats(),
            "factory": {k: v - self._counters0[k] for k, v in self._counters().items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "preloaded": _IMPORT_PID != os.getpid(),
        }


def _worker_main(rank: int, spec: dict, manifest: dict, inboxes, parent_q) -> None:
    """Process entry point (module-level, so a spawned or forkserver
    worker can unpickle it)."""
    try:
        _WorkerBody(rank, spec, manifest, inboxes, parent_q).run()
    except BaseException:
        try:
            parent_q.put(("error", rank, traceback.format_exc()))
        finally:
            raise


def _validate(evaluator, **prebuilt) -> None:
    check_plan_only(evaluator, "backend='parallel'")
    for name, value in prebuilt.items():
        if value is not None:
            raise ValueError(
                f"backend='parallel' cannot consume a prebuilt {name}=: "
                "every worker rebuilds the setup from the raw arrays; "
                "drop the argument or evaluate on backend='sim'"
            )


def evaluate_parallel(evaluator, sources, weights, targets, **prebuilt):
    """Run one evaluation on real cores; returns an EvaluationReport.

    A one-shot evaluate is a one-round :class:`PersistentParallelService`:
    start, cold round, teardown - including the service's respawn and
    re-drive if a worker dies mid-round.  Setup (the parent's template
    and operator fits, the workers' trees and DAGs) is excluded from
    the timed window, which spans GO to the last worker's DONE; the
    report's DAG, tree and lists are the parent's template.
    ``prebuilt`` (``dual=`` / ``lists=`` / ``dag=``) cannot reach the
    workers and is rejected rather than silently ignored.
    """
    from repro.dashmm.evaluator import EvaluationReport
    from repro.hpx.tracing import Tracer

    _validate(evaluator, **prebuilt)
    cfg = evaluator.runtime_config
    service = PersistentParallelService(evaluator, domain=None)
    try:
        potentials, info = service.start(sources, weights, targets)
    finally:
        service.close()

    dag, lists = info["template"]
    cold = service.round_stats[0]
    stats = {
        "backend": "parallel",
        "n_localities": cfg.n_localities,
        "start_method": cfg.start_method,
        "wall_time": cold["wall_time"],
        "tasks": sum(w["tasks_run"] for w in cold["workers"]),
        "workers": cold["workers"],
    }
    return EvaluationReport(
        potentials=potentials,
        time=cold["wall_time"],
        runtime_stats=stats,
        tracer=Tracer(enabled=False),
        dag=dag,
        dual=service._dual,
        lists=lists,
        extras={"backend": "parallel"},
    )


class PersistentParallelService:
    """Parent half of the parallel backend: the one worker-fleet manager.

    Keeps the worker processes, their attached shared-memory arena and
    each worker's template store (trees, DAGs, registrars with their
    plans and geometry caches) and operator factory alive across
    submissions.  A warm
    round costs one in-place array overwrite, one GO/DONE handshake and
    the numeric work - no process spawn, no operator refit, no tree
    carve.
    :func:`evaluate_parallel` is the degenerate case: :meth:`start`,
    then :meth:`close`.

    :meth:`start` builds the parent's template - dual tree, lists, DAG
    and distribution, what every worker derives too - and fits the
    operators of its plan into the evaluator's factory while the fork
    server, which it starts first, imports the worker module.  The
    fitted arrays are in the arena from the first spawn on, so a
    respawned fleet maps them too.  After the cold round the parent
    keeps only the template's tree (updated incrementally, like every
    worker's), purely for the inverse permutation that unsorts the
    shared result vector.  Drive through
    :class:`repro.dashmm.service.EvaluatorSession`, which owns the
    shape/statistics bookkeeping.
    """

    def __init__(
        self, evaluator, domain, timeout: float = 600.0, max_respawns: int = 1
    ):
        _validate(evaluator)
        self.evaluator = evaluator
        self.domain = domain
        self.timeout = timeout
        self.max_respawns = max_respawns
        self.n = evaluator.runtime_config.n_localities
        #: each worker's template LRU capacity (a session sets its own)
        self.max_templates = 1
        self.rounds = 0
        self.respawns = 0
        self.round_stats: list = []
        self._arena = None
        self._procs: list = []
        self._inboxes: list = []
        self._parent_q = None
        self._dual = None
        self._n_src = self._n_tgt = None
        #: the schema fingerprint of the method the workers run
        self._schema = None
        # per-round re-drive state: the worker spec and arena manifest
        # are kept for the life of the service so a failed round can be
        # re-driven on respawned workers (they rebuild deterministically
        # from the live arena arrays and adopt the same operators)
        self._spec = None
        self._manifest = None
        self._failed: BaseException | None = None

    def compatible(self, n_src: int, n_tgt: int) -> bool:
        """Shm blocks are fixed-size and the workers were spawned with
        one method: a changed N or method needs a respawn."""
        return (self._n_src, self._n_tgt, self._schema) == (
            n_src,
            n_tgt,
            self.evaluator.schema.fingerprint(),
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self, sources, weights, targets):
        """Build the parent's template and fit its operators, spawn
        workers and run the cold round.  The cold round's info carries
        the template's ``(dag, lists)`` under ``"template"``."""
        from repro.dashmm.registrar import fit_operators
        from repro.hpx.gas import ShmArena
        from repro.tree.dualtree import build_dual_tree, checked_weights

        ev = self.evaluator
        sources = np.ascontiguousarray(sources, dtype=np.float64)
        # not a bare cast: that would drop an imaginary part unseen
        weights = np.ascontiguousarray(checked_weights(weights, len(sources)))
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        # a fork server imports the worker module while this process
        # builds and fits
        self._context()
        self._n_src, self._n_tgt = len(sources), len(targets)
        self._dual = build_dual_tree(
            sources,
            targets,
            ev.threshold,
            source_weights=weights,
            domain=self.domain,
        )
        dag, lists = ev.build_dag(self._dual)
        ev.policy.assign(dag, self._dual, self.n)
        fit_operators(ev.factory, dag, self._dual.domain)

        arena = ShmArena()
        try:
            self._spec = self._worker_spec()
            self._schema = ev.schema.fingerprint()
            arena.put("sources", sources)
            arena.put("weights", weights)
            arena.put("targets", targets)
            arena.alloc("result", (self._n_tgt,), np.float64)
            arena.put_many(ev.factory.operators())
            self._manifest = arena.manifest()
            self._arena = arena
            self._spawn_workers()
        except BaseException:
            self._arena = arena
            self.close()
            raise
        out = self._round()
        info = self._round_info({"source": "built", "target": "built"})
        info["template"] = dag, lists
        return out, info

    def _worker_spec(self) -> dict:
        """Everything a worker needs besides the shared arrays (pickled
        to every rank; the key set is pinned by tests/test_api_surface.py)."""
        ev = self.evaluator
        return {
            "kernel": ev.kernel,
            "method": ev.method,
            "threshold": ev.threshold,
            "policy": ev.policy,
            "config": ev.runtime_config,
            "cost_model": ev.cost_model,
            "size_model": ev.size_model,
            "theta": ev.theta,
            "eps": ev.eps,
            "domain": self.domain,
            "max_templates": self.max_templates,
        }

    def _context(self):
        """The fleet's multiprocessing context; under ``forkserver`` the
        server runs (it is started if it does not)."""
        from repro.hpx.parallel import worker_context

        return worker_context(self.evaluator.runtime_config.start_method, __name__)

    def _spawn_workers(self) -> None:
        """Bring up a fresh worker fleet from the retained spec/manifest.

        Used for the cold start and again by :meth:`_respawn` after a
        mid-round fault.  Fresh inboxes and parent queue are created
        each time so stale messages from a failed round (a DONE from a
        rank that finished before a sibling died, or a queued error
        report) can never be mistaken for this fleet's traffic.
        """
        from repro.hpx.parallel import await_workers, worker_env

        ctx = self._context()
        # an inbox carries small messages (GO, frames naming mailbox
        # blocks, acks): a SimpleQueue writes them to the pipe inside
        # put(), where a Queue's feeder thread would wait for the
        # sender's GIL while it computes
        self._inboxes = [ctx.SimpleQueue() for _ in range(self.n)]
        self._parent_q = ctx.Queue()
        self._procs = []
        with worker_env():
            for rank in range(self.n):
                p = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        self._spec,
                        self._manifest,
                        self._inboxes,
                        self._parent_q,
                    ),
                    daemon=True,
                )
                p.start()
                self._procs.append(p)
        await_workers(self._parent_q, self._procs, self.n, "ready", self.timeout)

    def _respawn(self) -> None:
        """Kill any surviving workers, unlink the mailboxes they leave
        (a killed worker unlinks nothing) and spawn a replacement fleet."""
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=5.0)
        self._arena.unlink_worker_segments()
        self._spawn_workers()
        self.respawns += 1

    def close(self) -> None:
        """Stop workers and release the arena - with whatever mailbox a
        killed worker left under its prefix (idempotent)."""
        for q in self._inboxes:
            try:
                q.put(("stop",))
            except Exception:
                pass
        for p in self._procs:
            p.join(timeout=10.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        self._procs = []
        self._inboxes = []
        if self._arena is not None:
            self._arena.destroy()
            self._arena = None

    # -- rounds ------------------------------------------------------------------
    def submit(self, sources, weights, targets):
        """One warm round: overwrite inputs in place, GO, read result."""
        from repro.tree.dualtree import checked_weights
        from repro.tree.incremental import update_dual_tree

        self._check_usable()
        sources = np.ascontiguousarray(sources, dtype=np.float64)
        weights = np.ascontiguousarray(checked_weights(weights, len(sources)))
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        if not self.compatible(len(sources), len(targets)):
            raise ValueError("a running service cannot change its point counts")
        # the tree layer validates the inputs (shapes, finiteness) before
        # a byte reaches the arena: a rejected submit leaves the shared
        # arrays, the tree replica and the fleet as they were
        if same_points(self._dual, sources, targets):
            info = {"source": "unchanged", "target": "unchanged"}
        else:
            self._dual, info = update_dual_tree(
                self._dual, sources, targets, source_weights=weights
            )
        # workers are blocked on their inboxes between rounds, so the
        # parent owns the arena here and in-place writes are race-free
        for name, array in (("sources", sources), ("weights", weights), ("targets", targets)):
            self._arena.get(name)[:] = array
        out = self._round()
        return out, self._round_info(info)

    def _check_usable(self) -> None:
        from repro.hpx.parallel import ParallelError

        if self._failed is not None:
            raise ParallelError(
                "parallel service already failed and was shut down "
                f"({self._failed}); start a new session"
            )
        if self._arena is None:
            raise ParallelError(
                "parallel service is not started (or already closed)"
            )

    def _round(self) -> np.ndarray:
        from repro.hpx.parallel import ParallelError, await_workers

        self._check_usable()
        t0 = time.perf_counter()
        attempts = 0
        while True:
            result = self._arena.get("result")
            result[:] = 0.0  # flushes accumulate with +=
            try:
                for q in self._inboxes:
                    q.put(("go",))
                stats = await_workers(
                    self._parent_q, self._procs, self.n, "done", self.timeout
                )
                break
            except ParallelError as exc:
                # a worker died (or wedged) mid-round.  The session is
                # still a valid basis for a re-drive: the arena already
                # holds this round's inputs, the parent's tree replica
                # was updated before _round ran, and survivors are
                # killed with the casualty.  Respawned workers rebuild
                # their metadata from the live arrays, so the same GO
                # re-drives the identical round.
                attempts += 1
                if attempts > self.max_respawns:
                    self._failed = exc
                    self.close()
                    raise
                try:
                    self._respawn()
                except BaseException as spawn_exc:
                    self._failed = spawn_exc
                    self.close()
                    raise
            except BaseException as exc:
                # anything non-recoverable (KeyboardInterrupt, ...):
                # mirror start()'s handling - tear the fleet down so
                # workers are never left alive and blocked on inboxes
                self._failed = exc
                self.close()
                raise
        wall = time.perf_counter() - t0
        self.rounds += 1
        stat = {"wall_time": wall, "workers": [_shared_keys(w) for w in stats]}
        if attempts:
            stat["respawns"] = attempts
        self.round_stats.append(stat)
        potentials = np.empty(self._n_tgt)
        potentials[self._dual.target.perm] = result
        return potentials

    def _round_info(self, tree_info: dict) -> dict:
        from repro.tree.fingerprint import dual_shape_fingerprint

        return {
            "tree": tree_info,
            "shape": dual_shape_fingerprint(self._dual),
            "wall_time": self.round_stats[-1]["wall_time"],
        }
