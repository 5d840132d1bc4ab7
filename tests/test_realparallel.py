"""Bit-identity oracle for the real-parallel backend.

``backend="parallel"`` must reproduce the simulator backend's
potentials *bit for bit* for the same configuration: folds happen in
canonical dedup-key order and every batched stage groups by a
locality-including canonical key, so the floating-point reduction
order is a function of the DAG and the distribution alone - never of
which backend (or how many real processes) executed it.

The tests that spawn worker processes carry the ``parallel`` marker,
which keeps them out of the default lane (select with ``pytest -m
parallel``); the configuration checks fail before any process exists,
the worker-protocol test runs its bodies on threads, and both run
everywhere.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import queue
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.dashmm.evaluator import DashmmEvaluator
from repro.hpx.gas import ShmArena
from repro.hpx.runtime import Runtime, RuntimeConfig

parallel = pytest.mark.parallel

N_LOCALITIES = 2
THRESHOLD = 40


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(1234)
    n = 500
    return (
        rng.uniform(0.0, 1.0, size=(n, 3)),
        rng.normal(size=n),
        rng.uniform(0.0, 1.0, size=(n, 3)),
    )


def _pair(kernel, method, factory, backend, n_localities=N_LOCALITIES, **cfg_kw):
    return DashmmEvaluator(
        kernel,
        method=method,
        threshold=THRESHOLD,
        runtime_config=RuntimeConfig(
            n_localities=n_localities,
            policy="critical-path",
            backend=backend,
            **cfg_kw,
        ),
        factory=factory,
    )


@parallel
@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
@pytest.mark.parametrize("kname", ["laplace", "yukawa"])
def test_bit_identical_to_simulator(kname, method, cloud, request):
    kernel = request.getfixturevalue(kname)
    factory = request.getfixturevalue(f"{kname}_factory")
    src, w, tgt = cloud
    ref = _pair(kernel, method, factory, "sim").evaluate(src, w, tgt)
    par = _pair(kernel, method, factory, "parallel").evaluate(src, w, tgt)
    assert par.potentials is not None
    assert np.array_equal(ref.potentials, par.potentials), (
        f"{kname}/{method}: parallel backend diverged from simulator "
        f"(max |d|={np.max(np.abs(ref.potentials - par.potentials)):.3e})"
    )
    assert par.runtime_stats["backend"] == "parallel"
    assert len(par.runtime_stats["workers"]) == N_LOCALITIES


@parallel
def test_single_worker_matches_single_locality_sim(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    ref = _pair(laplace, "fmm", laplace_factory, "sim", n_localities=1).evaluate(
        src, w, tgt
    )
    par = _pair(laplace, "fmm", laplace_factory, "parallel", n_localities=1).evaluate(
        src, w, tgt
    )
    assert np.array_equal(ref.potentials, par.potentials)


def test_bit_identity_under_schedule_fuzz(laplace, laplace_factory, cloud):
    """A worker walks its compiled plan and makes no schedule decision,
    so there is nothing to fuzz: the flag is refused like a replay
    trace, not accepted to certify nothing.  (Bit-identity under fuzzed
    schedules is the simulator's certificate, test_schedule_fuzz.py;
    a scheduling policy, which only shapes the virtual clock, is
    accepted - see ``_pair``.)"""
    from repro.dashmm.service import EvaluatorSession
    from repro.hpx.tracing import ScheduleTrace

    src, w, tgt = cloud
    for flag, value in (("fuzz_schedule", 99), ("replay_schedule", ScheduleTrace())):
        ev = _pair(laplace, "fmm", laplace_factory, "parallel", **{flag: value})
        with pytest.raises(ValueError, match="backend='sim'|simulator"):
            ev.evaluate(src, w, tgt)
        with pytest.raises(ValueError, match="sim"):
            EvaluatorSession(ev)
    assert multiprocessing.active_children() == []


class _ThreadFleet:
    """The worker side of a ``PersistentParallelService`` without the
    processes: one ``_WorkerBody`` per rank on a thread of this process,
    plain ``queue.Queue`` inboxes, the arena owned here."""

    def __init__(self, evaluator, sources, weights, targets, max_templates=1):
        from repro.dashmm.parallel import PersistentParallelService, _WorkerBody

        self.n = evaluator.runtime_config.n_localities
        self.arena = ShmArena()
        for name, array in (("sources", sources), ("weights", weights), ("targets", targets)):
            self.arena.put(name, np.ascontiguousarray(array, dtype=np.float64))
        self.result = self.arena.alloc("result", (len(targets),), np.float64)
        self.inboxes = [queue.Queue() for _ in range(self.n)]
        self.parent_q = queue.Queue()
        service = PersistentParallelService(evaluator, domain=None)
        service.max_templates = max_templates
        spec = service._worker_spec()
        self.bodies = [
            _WorkerBody(r, spec, self.arena.manifest(), self.inboxes, self.parent_q)
            for r in range(self.n)
        ]
        self.threads = [threading.Thread(target=b.run, daemon=True) for b in self.bodies]
        for t in self.threads:
            t.start()
        self.await_all("ready")

    def await_all(self, tag: str) -> None:
        got = [self.parent_q.get(timeout=60.0) for _ in range(self.n)]
        assert sorted(msg[:2] for msg in got) == [(tag, r) for r in range(self.n)]

    def go(self, sources, weights) -> np.ndarray:
        """One round over new inputs (targets = sources): write the
        arena, GO every rank, await DONE, unsort the result."""
        for name in ("sources", "targets"):
            self.arena.get(name)[:] = sources
        self.arena.get("weights")[:] = weights
        self.result[:] = 0.0
        for q in self.inboxes:
            q.put(("go",))
        self.await_all("done")
        return self.potentials()

    def potentials(self) -> np.ndarray:
        out = np.empty(len(self.result))
        out[self.bodies[0].store.current.dual.target.perm] = self.result
        return out

    def close(self) -> None:
        for q in self.inboxes:
            q.put(("stop",))
        for t in self.threads:
            t.join(timeout=60.0)
        alive = [t for t in self.threads if t.is_alive()]
        self.arena.destroy()
        assert not alive


def test_frame_that_overtakes_go_waits_for_the_round(laplace, cloud):
    """The parent posts GO inbox by inbox, so rank 0's first frame can
    reach rank 1 before rank 1's GO does.  Handled on arrival it would
    land in an expansion store the round's reset is about to clear; it
    must be held and delivered once the round's state is in place."""
    from repro.kernels.fitops import OperatorFactory

    src, w, _ = cloud
    # workers take OperatorFactory.shared: the reference must fit the same
    factory = OperatorFactory.shared(laplace, eps=1e-4)
    sim = _pair(laplace, "fmm", factory, "sim")
    fleet = _ThreadFleet(_pair(laplace, "fmm", factory, "parallel"), src, w, src)
    try:
        assert np.array_equal(fleet.go(src, w), sim.evaluate(src, w, src).potentials)

        w2 = w[::-1].copy()
        fleet.arena.get("weights")[:] = w2
        fleet.result[:] = 0.0
        go = ("go",)
        fleet.inboxes[0].put(go)
        late = fleet.bodies[1]
        deadline = time.monotonic() + 60.0
        while not late._held and time.monotonic() < deadline:
            time.sleep(0.001)
        assert [msg[0] for msg in late._held] == ["frame"] * len(late._held) != []
        # a frame carries no row data: where in the sender's mailbox its
        # blocks lie, which nodes they hold and their shape
        prefix = fleet.arena.worker_prefix + "_0_"
        for _, _, _, _, payload in late._held:
            for name, offset, ids, shape in payload:
                assert name.startswith(prefix) and offset >= 0
                assert len(ids) == shape[0] > 0
        fleet.inboxes[1].put(go)
        fleet.await_all("done")
        assert late._held == []
        assert np.array_equal(fleet.potentials(), sim.evaluate(src, w2, src).potentials)
    finally:
        fleet.close()
    assert ShmArena.leaked(f"hmmgas_{os.getpid()}_") == []


def test_worker_returning_to_a_shape_reuses_its_template(laplace, cloud):
    """A worker keeps an LRU of templates like a session: shape A, then
    B, then A again assembles two DAGs per rank, not three, and every
    round equals a sim session driven through the same sequence."""
    import repro.dashmm.dag as dag_mod
    from repro.dashmm.service import EvaluatorSession
    from repro.kernels.fitops import OperatorFactory

    src, w, _ = cloud
    shrunk = 0.4 * src + 0.1  # denser cells refine deeper: a new shape
    factory = OperatorFactory.shared(laplace, eps=1e-4)
    shapes = (src, shrunk, src)
    with EvaluatorSession(_pair(laplace, "fmm", factory, "sim")) as sim:
        expected = [sim.submit(points, w) for points in shapes]
        assert sim.stats["template_misses"] == 2
    builds = dag_mod.COUNTERS["assemblies"]
    fleet = _ThreadFleet(_pair(laplace, "fmm", factory, "parallel"), src, w, src, 2)
    try:
        for points, want in zip(shapes, expected):
            assert np.array_equal(fleet.go(points, w), want)
        assert dag_mod.COUNTERS["assemblies"] - builds == 2 * N_LOCALITIES
    finally:
        fleet.close()
    assert ShmArena.leaked(f"hmmgas_{os.getpid()}_") == []


def test_s2t_fills_a_wait_and_moves_no_bit(laplace, cloud, monkeypatch):
    """A rank waiting for a peer's rows runs the outputs stage's S->T
    groups inside its wait: with rank 0's M->I delayed, rank 1 waits for
    its plane waves in front of I->I and fills, and every round still
    equals a sim session's bit for bit."""
    from repro.dashmm.registrar import Registrar
    from repro.dashmm.service import EvaluatorSession
    from repro.kernels.fitops import OperatorFactory

    src, w, _ = cloud
    factory = OperatorFactory.shared(laplace, eps=1e-4)
    charges = (w, w[::-1].copy())
    with EvaluatorSession(_pair(laplace, "fmm", factory, "sim")) as sim:
        expected = [sim.submit(src, q) for q in charges]
    m2i = Registrar._flush_m2i

    def late_m2i(self, plan):
        if self._rank == 0:
            time.sleep(0.05)
        m2i(self, plan)

    monkeypatch.setattr(Registrar, "_flush_m2i", late_m2i)
    fleet = _ThreadFleet(_pair(laplace, "fmm", factory, "parallel"), src, w, src)
    try:
        for q, want in zip(charges, expected):
            assert np.array_equal(fleet.go(src, q), want)
            waiting = fleet.bodies[1].stats()
            assert waiting["fill_s"] > 0.0
            assert waiting["wait_s"]["i2i"] > 0.0
    finally:
        fleet.close()
    assert ShmArena.leaked(f"hmmgas_{os.getpid()}_") == []


def _mailboxes(service) -> list[str]:
    return ShmArena.leaked(service._arena.worker_prefix + "_")


@parallel
def test_a_killed_workers_mailbox_is_unlinked(laplace, laplace_factory, cloud):
    """SIGKILL runs no cleanup in the worker: the parent unlinks the
    mailbox it leaves before the respawn (the new rank names its mailbox
    the same, which would fail on a leftover), the round is re-driven
    bit for bit, and close() leaves nothing under this process's pid."""
    import signal

    from repro.dashmm.service import EvaluatorSession

    src, w, _ = cloud
    with EvaluatorSession(_pair(laplace, "fmm", laplace_factory, "parallel")) as sess:
        cold = sess.submit(src, w)
        svc = sess._parallel
        assert len(_mailboxes(svc)) == N_LOCALITIES
        victim = svc._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert np.array_equal(sess.submit(src, w), cold)
        assert svc.respawns == 1
        assert len(_mailboxes(svc)) == N_LOCALITIES
    assert ShmArena.leaked(f"hmmgas_{os.getpid()}_") == []
    assert multiprocessing.active_children() == []


@parallel
def test_an_outgrown_mailbox_is_replaced(laplace, laplace_factory, cloud):
    """Three workers: a shape change posts more than a rank's mailbox
    holds, so its rows continue in a larger segment under a new name and
    the old one goes; changing back reuses it.  Every round equals a sim
    session's, and between rounds exactly one mailbox per rank exists."""
    from repro.dashmm.service import EvaluatorSession

    src, w, _ = cloud
    # a thin sheet (two corners pin the cloud's cube as the domain): its
    # ranks post a fraction of the bytes the cloud's do
    sheet = src * [1.0, 1.0, 0.01]
    sheet[:2] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    shapes = (sheet, src, sheet)
    sim = _pair(laplace, "fmm", laplace_factory, "sim", n_localities=3)
    par = _pair(laplace, "fmm", laplace_factory, "parallel", n_localities=3)
    sizes = []
    with EvaluatorSession(sim) as a, EvaluatorSession(par) as b:
        for points in shapes:
            assert np.array_equal(b.submit(points, w), a.submit(points, w))
            svc = b._parallel
            names = _mailboxes(svc)
            assert sorted({name.split("_")[-2] for name in names}) == ["0", "1", "2"]
            assert len(names) == 3
            sizes.append([rank["mailbox_bytes"] for rank in svc.round_stats[-1]["workers"]])
        assert svc.respawns == 0
    grown = [r for r in range(3) if sizes[1][r] > sizes[0][r]]
    assert grown, sizes
    assert sizes[2] == sizes[1]
    assert ShmArena.leaked(f"hmmgas_{os.getpid()}_") == []


def _operator_snapshot_dirs() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "hmmops_*")))


@parallel
def test_parallel_run_leaves_no_segments(laplace, laplace_factory, cloud, monkeypatch):
    """A one-shot evaluate is a one-round service: when it returns - or
    raises - no shm segment, worker process or operator snapshot
    directory of its fleet is left."""
    from repro.dashmm.parallel import PersistentParallelService
    from repro.hpx.parallel import ParallelError

    src, w, tgt = cloud
    ev = _pair(laplace, "bh", laplace_factory, "parallel")
    dirs_before = _operator_snapshot_dirs()

    def assert_nothing_left():
        assert ShmArena.leaked() == []
        assert multiprocessing.active_children() == []
        assert _operator_snapshot_dirs() == dirs_before

    ev.evaluate(src, w, tgt)
    assert_nothing_left()

    # start() raising with the fleet already up: the workers are idle on
    # their inboxes and only evaluate_parallel's teardown can stop them
    def failing_round(self):
        assert len(multiprocessing.active_children()) == N_LOCALITIES
        raise ParallelError("injected cold-round failure")

    monkeypatch.setattr(PersistentParallelService, "_round", failing_round)
    with pytest.raises(ParallelError, match="injected"):
        ev.evaluate(src, w, tgt)
    assert_nothing_left()


def _problem(name: str):
    """A kernel with a fresh, unshared operator factory, points and
    charges: the ledger's stratified slab, smaller, or a sphere surface
    (adaptive: leaves at several levels), on the per-level Yukawa."""
    from repro.kernels.fitops import OperatorFactory
    from repro.kernels.laplace import LaplaceKernel
    from repro.kernels.yukawa import YukawaKernel
    from repro.workloads.distributions import sphere_points

    rng = np.random.default_rng(21)
    if name == "slab":
        kernel = LaplaceKernel(4)
        cells = np.indices((8, 8, 2)).reshape(3, -1).T
        points = ((cells[:, None, :] + rng.random((len(cells), 12, 3))) / 8.0).reshape(-1, 3)
        points[:, 2] *= 0.96
    else:
        kernel = YukawaKernel(4, lam=2.0)
        points = sphere_points(1500, 21)
    return OperatorFactory(kernel, eps=1e-4), points, rng.uniform(-1.0, 1.0, len(points))


def _session_rounds(factory, points, w, **cfg_kw):
    """A cold, a charge-only, a drift and a kill-and-respawn round of one
    parallel session: their potentials and the session's round stats."""
    import signal

    from repro.dashmm.service import EvaluatorSession

    ev = DashmmEvaluator(
        factory.kernel,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(backend="parallel", n_localities=N_LOCALITIES, **cfg_kw),
        factory=factory,
    )
    drift = points.copy()
    drift[::97] = np.clip(drift[::97] + 1e-3, points.min(axis=0), points.max(axis=0))
    with EvaluatorSession(ev) as sess:
        outs = [sess.submit(points, w), sess.submit(points, w[::-1].copy())]
        outs.append(sess.submit(drift, w))
        svc = sess._parallel
        victim = svc._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        outs.append(sess.submit(drift, w[::-1].copy()))
        assert svc.respawns == 1
    return outs, svc.round_stats


@parallel
@pytest.mark.parametrize("problem", ["slab", "sphere"])
def test_default_start_matches_spawn_and_workers_factorize_nothing(problem):
    """The default start method forks workers from a preloaded server
    and hands them the parent's operator fits through the arena: every
    round - cold, charge-only, drift, re-driven on a respawned fleet -
    equals a spawned fleet's bit for bit, no worker factorizes, and
    nothing is left behind."""
    assert RuntimeConfig().start_method == "forkserver"
    dirs_before = _operator_snapshot_dirs()
    factory, points, w = _problem(problem)
    want, _ = _session_rounds(factory, points, w, start_method="spawn")
    factory, points, w = _problem(problem)
    got, rounds = _session_rounds(factory, points, w)
    assert factory.cache_stats()["factorizations"] > 0  # the parent fitted
    for a, b in zip(want, got):
        assert np.array_equal(a, b)
    for stats in rounds:
        for worker in stats["workers"]:
            assert worker["factory"]["factorizations"] == 0
            assert worker["preloaded"]
            assert worker["peak_rss_mb"] > 0
    assert ShmArena.leaked(f"hmmgas_{os.getpid()}_") == []
    assert multiprocessing.active_children() == []
    assert _operator_snapshot_dirs() == dirs_before


@parallel
def test_fork_server_preloads_without_pythonpath():
    """A fork server imports its preload from the sys.path its own
    interpreter starts with, not from the parent's, and skips a module
    it cannot find without a word.  A fresh interpreter without
    PYTHONPATH that puts the package on sys.path itself - as the
    performance ledger's entry point does - must still fork both of two
    fleets in turn from a server that imported the worker module."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.hpx.parallel import _THREAD_ENV

    script = f"""
import json, sys
sys.path.insert(0, {str(Path(repro.__file__).resolve().parents[1])!r})
import numpy as np
from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.laplace import LaplaceKernel

points = np.random.default_rng(3).random((300, 3))
ev = DashmmEvaluator(
    LaplaceKernel(3), threshold=20,
    runtime_config=RuntimeConfig(backend="parallel", n_localities=2),
)
fleets = []
for _ in range(2):
    with EvaluatorSession(ev) as sess:
        sess.submit(points, np.ones(len(points)))
        fleets.append([w["preloaded"] for w in sess._parallel.round_stats[0]["workers"]])
print(json.dumps(fleets))
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(_THREAD_ENV, "1"))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [[True, True], [True, True]]


def test_parallel_rejects_prebuilt_structures(laplace, laplace_factory, cloud):
    """Workers rebuild the setup from the raw arrays, so ``dual=`` /
    ``lists=`` / ``dag=`` cannot reach them: refused by name, not
    silently dropped (an injected oracle would otherwise be vacuous)."""
    from repro.tree.dualtree import build_dual_tree

    src, w, tgt = cloud
    ev = _pair(laplace, "fmm", laplace_factory, "parallel")
    dual = build_dual_tree(src, tgt, THRESHOLD, source_weights=w)
    dag, lists = ev.build_dag(dual)
    for name, value in (("dual", dual), ("lists", lists), ("dag", dag)):
        with pytest.raises(ValueError, match=f"prebuilt {name}="):
            ev.evaluate(src, w, tgt, **{name: value})
    assert multiprocessing.active_children() == []


def test_runtime_rejects_parallel_backend_directly():
    with pytest.raises(ValueError, match="simulator engine"):
        Runtime(RuntimeConfig(backend="parallel"))


def test_invalid_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        RuntimeConfig(backend="mpi")


def test_parallel_rejects_simulator_only_modes(laplace, laplace_factory, cloud):
    src, w, tgt = cloud
    ev = _pair(laplace, "fmm", laplace_factory, "parallel", detect_hazards=True)
    with pytest.raises(ValueError, match="hazard"):
        ev.evaluate(src, w, tgt)
    for flag in ("sequential_edges", "coalesce"):
        ev = DashmmEvaluator(
            laplace,
            method="fmm",
            threshold=THRESHOLD,
            runtime_config=RuntimeConfig(backend="parallel"),
            factory=laplace_factory,
            **{flag: False},
        )
        with pytest.raises(ValueError, match=f"requires {flag}=True"):
            ev.evaluate(src, w, tgt)
    ev = DashmmEvaluator(
        laplace,
        method="fmm",
        threshold=THRESHOLD,
        runtime_config=RuntimeConfig(backend="parallel"),
        mode="phantom",
    )
    with pytest.raises(ValueError, match="phantom"):
        ev.evaluate(src, w, tgt)
