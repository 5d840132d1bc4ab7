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
        spec = service._worker_spec(None)
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
