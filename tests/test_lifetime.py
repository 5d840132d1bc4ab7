"""Object lifetime: an evaluation is freed by reference counting alone.

Ownership points one way - report -> registrar -> runtime -> scheduler,
GAS, transport -> LCOs and tasks - so dropping a report frees its whole
object graph at once, and ``evaluate()`` can hold CPython's cyclic
collector off for its whole span (DESIGN.md "Object lifetime").  Checked
here over every runtime mode, both execution modes and all methods: no
cyclic garbage after ``del report``, no collector pass inside
``evaluate()``, and a steady tracked-object count over a long loop of
checkpointed evaluations that never collects.  The DAG's nodes and
edges are columns: no evaluate, resume, session submit or worker plan
compile makes a per-node or per-edge object.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, EvaluatorSession, FmmPolicy
from repro.dashmm.dag import AUX_KINDS, DagNode, Edge
from repro.dashmm.registrar import Registrar
from repro.hpx import FaultyNetwork, RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.sim.costmodel import CostModel
from repro.tree.box import Box
from repro.workloads.distributions import cube_points, random_charges, sphere_points

RUNTIME_MODES = {
    "default": {},
    "tracing-off": {"tracing": False},
    "critical-path": {"policy": "critical-path"},
    "reliable": {
        "reliable": True,
        "network": FaultyNetwork(drop=0.05, duplicate=0.05, reorder=0.5, seed=5),
    },
    "fuzz": {"fuzz_schedule": 17},
    "replay": {"replay_schedule": "recorded"},
    "checkpoint": {"checkpoint_every": 2e-4},
    "hazards": {"detect_hazards": True},
}


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(25)
    n = 300
    return rng.uniform(0, 1, (n, 3)), rng.normal(size=n), rng.uniform(0, 1, (n, 3))


def _evaluator(laplace, laplace_factory, mode, method, **cfg):
    return DashmmEvaluator(
        laplace,
        method=method,
        threshold=20,
        mode=mode,
        factory=laplace_factory if mode == "numeric" else None,
        runtime_config=RuntimeConfig(n_localities=2, workers_per_locality=2, **cfg),
    )


def cyclic_garbage(fn) -> list[str]:
    """Type names of the objects only a collection could free after ``fn()``."""
    gc.collect()  # unrelated garbage made before fn() must not count
    fn()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class PassCounter:
    """Counts cyclic-collector passes through ``gc.callbacks``."""

    def __init__(self):
        self.passes = 0

    def __call__(self, phase, info):
        if phase == "start":
            self.passes += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        # no allocation before the removal: the young pass a paused
        # evaluate defers belongs to the caller's next allocation
        gc.callbacks.remove(self)


@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
@pytest.mark.parametrize("mode", ["numeric", "phantom"])
@pytest.mark.parametrize("runtime_mode", list(RUNTIME_MODES))
def test_evaluation_is_freed_by_refcount(
    runtime_mode, mode, method, laplace, laplace_factory, cloud
):
    cfg = dict(RUNTIME_MODES[runtime_mode])
    if cfg.get("replay_schedule") == "recorded":
        recorder = _evaluator(laplace, laplace_factory, mode, method, fuzz_schedule=17)
        cfg["replay_schedule"] = recorder.evaluate(*cloud).extras["schedule_trace"]
    ev = _evaluator(laplace, laplace_factory, mode, method, **cfg)
    ev.evaluate(*cloud)  # first-use imports and operator fits

    refs = []

    def evaluate_and_drop():
        with PassCounter() as counter:
            report = ev.evaluate(*cloud)
        assert counter.passes == 0
        assert gc.isenabled()
        assert report.extras["untriggered"] == 0
        # the drain's compiled tables go when the drain ends
        assert report.extras["registrar"]._drain is None
        if runtime_mode == "checkpoint":
            assert report.extras["checkpoints"]
        refs.extend(
            weakref.ref(report.extras[k]) for k in ("runtime", "registrar")
        )
        del report

    assert cyclic_garbage(evaluate_and_drop) == []
    # dead before any collection ran: freed by reference counting
    assert [r() for r in refs] == [None, None]


def test_checkpointed_loop_holds_steady_without_collecting(cloud):
    """30 back-to-back checkpointed evaluates, the collector never run
    explicitly: each drops the previous report and ends where the first
    did."""
    ev = DashmmEvaluator(
        LaplaceKernel(4),
        threshold=20,
        mode="phantom",
        runtime_config=RuntimeConfig(
            n_localities=2, workers_per_locality=2, checkpoint_every=2e-4
        ),
    )
    report = ev.evaluate(*cloud)
    assert report.extras["checkpoints"]
    tracked = len(gc.get_objects())
    for _ in range(29):
        report = ev.evaluate(*cloud)
    assert abs(len(gc.get_objects()) - tracked) <= 0.01 * tracked


def test_resume_is_freed_by_refcount_too(laplace, laplace_factory, cloud):
    ev = _evaluator(laplace, laplace_factory, "numeric", "fmm", checkpoint_every=2e-4)
    baseline = ev.evaluate(*cloud)
    cp = baseline.extras["checkpoints"][0]

    def resume_and_drop():
        with PassCounter() as counter:
            resumed = ev.resume(baseline, cp)
        assert counter.passes == 0
        assert np.array_equal(resumed.potentials, baseline.potentials)

    assert cyclic_garbage(resume_and_drop) == []


def test_resume_recompiles_the_drain_tables(laplace, laplace_factory, cloud, monkeypatch):
    """A checkpoint holds no drain table: every resume compiles its own
    on first use and drops it when its drain ends."""
    compiled = []
    compile_drain = Registrar._compile_drain

    def counted(reg):
        compiled.append(reg)
        return compile_drain(reg)

    monkeypatch.setattr(Registrar, "_compile_drain", counted)
    ev = _evaluator(laplace, laplace_factory, "numeric", "fmm", checkpoint_every=2e-4)
    baseline = ev.evaluate(*cloud)
    reg = baseline.extras["registrar"]
    checkpoints = baseline.extras["checkpoints"]
    assert compiled == [reg] and len(checkpoints) > 1
    for i, cp in enumerate(checkpoints):
        resumed = ev.resume(baseline, cp)
        assert np.array_equal(resumed.potentials, baseline.potentials)
        assert compiled == [reg] * (i + 2)
        assert reg._drain is None


def test_collector_setting_is_restored(laplace, laplace_factory, cloud):
    ev = _evaluator(laplace, laplace_factory, "phantom", "fmm")
    gc.disable()
    try:
        ev.evaluate(*cloud)
        assert not gc.isenabled()
    finally:
        gc.enable()
    src, w, tgt = cloud
    bad = tgt.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ev.evaluate(src, w, bad)
    assert gc.isenabled()


@pytest.fixture
def edges_made(monkeypatch) -> list:
    """Grows by one per ``Edge`` record constructed while the test runs."""
    return _count_records(monkeypatch, Edge)


@pytest.fixture
def nodes_made(monkeypatch) -> list:
    """Grows by one per ``DagNode`` record constructed while the test runs."""
    return _count_records(monkeypatch, DagNode)


def _count_records(monkeypatch, cls) -> list:
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_no_edge_object_on_an_evaluate_or_session_path(
    laplace, laplace_factory, cloud, edges_made, nodes_made
):
    """Phantom and numeric evaluates, a resume, and a session's cold,
    warm and drift submits read only the node and edge columns: no
    ``Edge`` or ``DagNode`` is made and no DAG's view is materialised."""
    dags = []
    for mode in ("phantom", "numeric"):
        ev = _evaluator(laplace, laplace_factory, mode, "fmm", checkpoint_every=2e-4)
        report = ev.evaluate(*cloud)
        resumed = ev.resume(report, report.extras["checkpoints"][0])
        assert resumed.time == report.time
        dags.append(report.dag)
    src, w, _ = cloud
    rng = np.random.default_rng(4)
    drifted = src.copy()
    drifted[:5] = np.clip(drifted[:5] + rng.normal(scale=1e-3, size=(5, 3)), src.min(), src.max())
    with EvaluatorSession(_evaluator(laplace, laplace_factory, "numeric", "fmm")) as session:
        session.submit(src, w)
        session.submit(src, rng.normal(size=len(w)))
        session.submit(drifted, w)
        assert session.stats["template_hits"] == 2
        dags.append(session._store.current.dag)
    assert edges_made == [] and nodes_made == []
    assert all(dag._view is None for dag in dags)


def test_no_edge_object_in_a_worker_plan_compile(
    laplace, laplace_factory, cloud, edges_made, nodes_made
):
    """What a real-parallel worker does before its first round -
    assemble, distribute, allocate its rank's expansion store, compile both plan
    sections - checked in process, as in test_flush_paths."""
    from repro.tree.dualtree import build_dual_tree

    src, w, _ = cloud
    ev = _evaluator(laplace, laplace_factory, "numeric", "fmm")
    dual = build_dual_tree(src, src, ev.threshold, source_weights=w)
    dag, _ = ev.build_dag(dual)
    ev.policy.assign(dag, dual, 2)
    for rank in range(2):
        reg = Registrar(None, dag, dual, laplace, laplace_factory)
        reg._rank = rank
        reg.reset()
        assert reg.locate(np.flatnonzero(reg.plan().holder >= 0)) and reg.stages()
        assert reg.plan().n_edges > 0
    assert edges_made == [] and nodes_made == []
    assert dag._view is None


def test_no_box_on_an_evaluate_or_session_path(laplace, laplace_factory, cloud, monkeypatch):
    """Trees are columns: cold fmm and bh evaluates, with and without
    gradients, and a session's cold, charge-only, spliced, recarved and
    count-change submits (the charge-only, spliced and count-change ones
    with gradients) never make a ``Box`` (the per-box view is for the
    tests and the setup benchmarks)."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Box was built")

    monkeypatch.setattr(Box, "__init__", refuse)
    src, w, tgt = cloud
    for method in ("fmm", "bh"):
        ev = _evaluator(laplace, laplace_factory, "numeric", method)
        ev.evaluate(src, w, tgt)
        ev.evaluate(src, w, tgt, gradients=True)
    rng = np.random.default_rng(7)
    nudged = src.copy()
    nudged[:5] = np.clip(nudged[:5] + rng.normal(scale=1e-3, size=(5, 3)), 0.0, 1.0)
    scattered = nudged.copy()
    scattered[::3] = rng.uniform(0, 1, scattered[::3].shape)
    with EvaluatorSession(_evaluator(laplace, laplace_factory, "numeric", "fmm")) as session:
        session.submit(src, w)
        session.submit(src, rng.normal(size=len(w)), gradients=True)
        session.submit(nudged, w, gradients=True)
        session.submit(scattered, w)
        session.submit(scattered[:-10], w[:-10], gradients=True)
        updates = [u["source"] for u in session.stats["tree_updates"]]
    assert updates == ["rebuilt", "unchanged", "spliced", "recarved", "rebuilt"]


def test_phantom_evaluate_tracks_a_fraction_of_an_edge_per_edge_dag():
    """GC-tracked objects one phantom evaluate of a sphere leaves alive,
    against what a DAG storing its edges as objects would add on top: per
    edge an ``Edge`` record and its ``(src, pos)`` dedup key, per I->I
    edge a ``(direction, delta)`` pair and its delta tuple, per M->L edge
    a delta tuple, per node an out-edge list.  The evaluate must be at
    most a quarter of that DAG's total."""
    n = 3000
    ev = DashmmEvaluator(
        LaplaceKernel(9),
        threshold=60,
        mode="phantom",
        cost_model=CostModel.for_kernel("laplace"),
        policy=FmmPolicy(balance="work"),
        runtime_config=RuntimeConfig(n_localities=4, workers_per_locality=8, tracing=False),
    )
    sphere = (sphere_points(n, 1), random_charges(n, 3), sphere_points(n, 2))
    ev.evaluate(*sphere)  # first-use imports; the report is dropped at once
    gc.disable()
    try:
        before = len(gc.get_objects())
        report = ev.evaluate(*sphere)
        alive = len(gc.get_objects()) - before
    finally:
        gc.enable()
    dag = report.dag
    aux = np.bincount(dag.edge_columns().aux_kind, minlength=len(AUX_KINDS))
    per_edge_objects = (
        2 * dag.n_edges
        + 2 * aux[AUX_KINDS.index("dir_delta")]
        + aux[AUX_KINDS.index("delta")]
        + len(dag.nodes)
    )
    assert aux[AUX_KINDS.index("dir_delta")] > 0
    assert 0 < alive <= 0.25 * (alive + per_edge_objects)


def test_a_drain_retains_few_bytes_per_edge():
    """What a phantom evaluate's report keeps alive once its drain is
    over, on top of the tree, lists and DAG it was handed: per DAG edge
    at most 80 B under ``tracemalloc`` (tracing off, 16 x 32 cores).
    The drain's exactly-once dedup is one byte per edge in one store;
    a key set per LCO kept the edge rows as ints, above 140 B."""
    n = 8000
    src, w, tgt = cube_points(n, seed=1), random_charges(n, seed=3), cube_points(n, seed=2)
    ev = DashmmEvaluator(
        LaplaceKernel(9),
        mode="phantom",
        runtime_config=RuntimeConfig(n_localities=16, workers_per_locality=32, tracing=False),
    )
    first = ev.evaluate(src, w, tgt)
    built = {"dual": first.dual, "lists": first.lists, "dag": first.dag}
    edges = first.dag.n_edges
    del first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = ev.evaluate(src, w, tgt, **built)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.extras["untriggered"] == 0
    assert edges > 50_000
    assert retained <= 80 * edges, retained / edges
