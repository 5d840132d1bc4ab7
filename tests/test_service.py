"""EvaluatorSession: the persistent evaluation layer.

The correctness bar is *bit-identity*: every ``submit()`` must return
exactly the floats a cold-start evaluation of the same inputs would -
on the warm repeat-shape path, after weights-only updates, after an
incremental tree splice, and after a shape change.  On top of that the
warm path must provably do zero structural work: the module counters in
``repro.tree.dualtree``/``repro.tree.lists``/``repro.dashmm.dag``
record every tree carve, interaction-list build and DAG assembly.
"""

from __future__ import annotations

import weakref
import zlib

import numpy as np
import pytest

import repro.dashmm.dag as dag_mod
import repro.tree.dualtree as dualtree_mod
import repro.tree.lists as lists_mod
from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import RuntimeConfig
from repro.hpx.tracing import ScheduleTrace
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.tree.box import Domain
from repro.tree.dualtree import build_dual_tree
from repro.tree.fingerprint import dual_shape_fingerprint
from tests.crc_forge import neutral_flips
from tests.test_lifetime import cyclic_garbage


@pytest.fixture(scope="module")
def kernel():
    return LaplaceKernel(5)


@pytest.fixture(scope="module")
def factory(kernel):
    return OperatorFactory(kernel, eps=1e-4)


@pytest.fixture()
def evaluator(kernel, factory):
    return DashmmEvaluator(
        kernel,
        method="fmm",
        threshold=25,
        runtime_config=RuntimeConfig(n_localities=3),
        factory=factory,
    )


@pytest.fixture()
def cloud():
    rng = np.random.default_rng(5)
    n = 700
    return rng, rng.uniform(0, 1, (n, 3)), rng.normal(size=n)


def _counters():
    return (
        dict(dualtree_mod.COUNTERS),
        dict(lists_mod.COUNTERS),
        dict(dag_mod.COUNTERS),
    )


def test_first_submit_matches_cold_evaluate(evaluator, cloud):
    rng, pts, w = cloud
    cold = evaluator.evaluate(pts, w, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        assert np.array_equal(sess.submit(pts, w), cold)


def test_warm_repeat_zero_structural_work(evaluator, cloud):
    rng, pts, w = cloud
    cold = evaluator.evaluate(pts, w, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        first = sess.submit(pts, w)
        trees, lists, dags = _counters()  # snapshot AFTER the cold paths
        for _ in range(3):
            warm = sess.submit(pts, w)
            assert np.array_equal(warm, cold)
        assert np.array_equal(first, cold)
        # zero tree carving, zero list builds, zero DAG assemblies
        assert _counters() == (trees, lists, dags)
        assert sess.stats["template_hits"] == 3
        assert sess.stats["template_misses"] == 1


def test_weights_only_update(evaluator, cloud):
    rng, pts, w = cloud
    w2 = rng.normal(size=len(w))
    cold = evaluator.evaluate(pts, w2, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        trees, lists, dags = _counters()
        assert np.array_equal(sess.submit(pts, w2), cold)
        assert _counters() == (trees, lists, dags)
        assert sess.stats["tree_updates"][-1]["source"] == "unchanged"


def _sorted_crc(dual) -> int:
    """CRC-32 over the tree-sorted coordinates of both trees."""
    return zlib.crc32(dual.target.points.tobytes(), zlib.crc32(dual.source.points.tobytes()))


def _crc_collision(pts, threshold, domain):
    """``pts`` with some of 36 low mantissa bits (the 12 lowest of three
    sorted coordinates) flipped so that :func:`_sorted_crc` is
    unchanged (:func:`crc_forge.neutral_flips`)."""
    dual = build_dual_tree(pts, pts, threshold, domain=domain)
    base = dual.source.points.tobytes() + dual.target.points.tobytes()
    half = len(base) // 2
    # (index into the flattened sorted coordinates, mantissa bit):
    # y of the first point, z of the second, x of the fourth
    bits = [(index, k) for index in (1, 5, 9) for k in range(12)]
    subset = neutral_flips(
        base,
        [[(8 * index + k // 8, k % 8), (half + 8 * index + k // 8, k % 8)] for index, k in bits],
    )
    raw = pts.copy()
    ints = raw.view(np.int64)
    for i, (index, k) in enumerate(bits):
        if subset >> i & 1:
            pos, coord = divmod(index, 3)
            ints[dual.source.perm[pos], coord] ^= 1 << k
    forged = build_dual_tree(raw, raw, threshold, domain=domain)
    assert _sorted_crc(forged) == _sorted_crc(dual) and not np.array_equal(raw, pts)
    return raw


def test_charge_only_detection_is_exact(evaluator, cloud):
    """Points that differ only in low mantissa bits, chosen so that a
    checksum over the sorted coordinates collides, are a drift, not a
    charge-only submit: the session serves the new points bit for bit."""
    rng, pts, w = cloud
    with EvaluatorSession(evaluator) as sess:
        first = sess.submit(pts, w)
        sess.submit(pts, w)
        forged = _crc_collision(pts, evaluator.threshold, sess.domain)
        out = sess.submit(forged, w)
        with EvaluatorSession(evaluator, domain=sess.domain) as cold_sess:
            cold = cold_sess.submit(forged, w)
    assert not np.array_equal(cold, first)
    assert np.array_equal(out, cold)


def test_incremental_move_bit_identical(evaluator, cloud):
    rng, pts, w = cloud
    # move <=1% of the points slightly, staying inside the pinned domain
    pts2 = pts.copy()
    idx = rng.choice(len(pts), size=len(pts) // 100, replace=False)
    pts2[idx] = np.clip(
        pts2[idx] + rng.normal(scale=1e-3, size=(len(idx), 3)), pts.min(), pts.max()
    )
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        warm = sess.submit(pts2, w)
        info = sess.stats["tree_updates"][-1]
        assert info["source"] in ("unchanged", "spliced")
        # a cold-start session over the same pinned frame is the reference
        with EvaluatorSession(evaluator, domain=sess.domain) as cold_sess:
            assert np.array_equal(warm, cold_sess.submit(pts2, w))


def test_shape_change_then_return_hits_template(evaluator, cloud):
    rng, pts, w = cloud
    # shrink the cloud into a subcube: denser cells force deeper
    # refinement, so the tree *shape* changes (uniform jitter would not)
    pts2 = 0.4 * pts + 0.1
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        misses0 = sess.stats["template_misses"]
        out2 = sess.submit(pts2, w)
        assert sess.stats["template_misses"] == misses0 + 1
        with EvaluatorSession(evaluator, domain=sess.domain) as cold_sess:
            assert np.array_equal(out2, cold_sess.submit(pts2, w))
        # returning to the original geometry re-hits the cached template
        hits0 = sess.stats["template_hits"]
        sess.submit(pts, w)
        assert sess.stats["template_hits"] == hits0 + 1
        assert sess.stats["template_misses"] == misses0 + 1


@pytest.mark.parametrize("backend", ["sim", pytest.param("parallel", marks=pytest.mark.parallel)])
def test_point_count_change_keeps_the_shape_apart(kernel, factory, backend):
    """Uniform clouds of 700, 500 and 701 points carve the same box keys
    and leaves at threshold 25, so a shape key alone would hand one
    count's template to another (on sim the rebind then failed to
    broadcast 500 values into a 700-point result).  Every submit of
    700 -> 500 -> 700 -> 500 -> 701 -> 700 equals a cold session over
    the same domain."""
    ev = DashmmEvaluator(
        kernel,
        threshold=25,
        runtime_config=RuntimeConfig(n_localities=2, backend=backend),
        factory=factory,
    )
    cold_ev = DashmmEvaluator(
        kernel, threshold=25, runtime_config=RuntimeConfig(n_localities=2), factory=factory
    )
    rng = np.random.default_rng(3)
    clouds = {n: (rng.uniform(0, 1, (n, 3)), rng.normal(size=n)) for n in (700, 500, 701)}
    domain = Domain.bounding(*(pts for pts, _ in clouds.values()))
    duals = [build_dual_tree(pts, pts, 25, domain=domain) for pts, _ in clouds.values()]
    assert len({dual_shape_fingerprint(dual) for dual in duals}) == 1
    with EvaluatorSession(ev, domain=domain) as sess:
        for n in (700, 500, 700, 500, 701, 700):
            pts, w = clouds[n]
            with EvaluatorSession(cold_ev, domain=domain) as cold:
                assert np.array_equal(sess.submit(pts, w), cold.submit(pts, w)), n
    if backend == "sim":
        assert sess.stats["template_misses"] == 3
        assert sess.stats["template_hits"] == 3


def test_factory_stats_accumulate_across_submits(evaluator, cloud):
    rng, pts, w = cloud
    factory = evaluator.factory
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        stats1 = factory.cache_stats()
        sess.submit(pts, w)
        sess.submit(pts, rng.normal(size=len(w)))
        stats2 = factory.cache_stats()
        # persistent across submits: hits keep growing, never reset...
        assert stats2["hits"] > stats1["hits"]
        # ...and the warm path refits nothing
        assert stats2["misses"] == stats1["misses"]
        # a shape change re-fits at most the operators of genuinely new
        # (op, geometry) signatures - and the *template* misses exactly once
        misses_before = sess.stats["template_misses"]
        pts2 = 0.4 * pts + 0.1  # shrink: forces a genuine shape change
        sess.submit(pts2, w)
        assert sess.stats["template_misses"] == misses_before + 1
        sess.submit(pts2, w)
        assert sess.stats["template_misses"] == misses_before + 1


def test_submit_many_coalesces_and_preserves_order(evaluator, cloud):
    rng, pts, w = cloud
    ptsB = rng.uniform(0, 1, pts.shape)
    w2 = rng.normal(size=len(w))
    with EvaluatorSession(evaluator) as sess:
        refA1 = sess.submit(pts, w)
        refB = sess.submit(ptsB, w)
        refA2 = sess.submit(pts, w2)
    with EvaluatorSession(evaluator) as sess:
        # interleaved geometries: the batcher groups A, A then B
        out = sess.submit_many([(pts, w), (ptsB, w), (pts, w2)])
        assert np.array_equal(out[0], refA1)
        assert np.array_equal(out[2], refA2)
        assert np.allclose(out[1], refB)


@pytest.mark.parametrize("backend", ["sim", pytest.param("parallel", marks=pytest.mark.parallel)])
def test_template_key_includes_schema_fingerprint(evaluator, cloud, backend):
    """The template LRU keys on (declared-schema fingerprint, tree
    shape): a repeated shape under the same schema hits, swapping the
    method - same points, same shape - misses instead of replaying the
    other method's graph, and the results stay bit-identical to cold
    evaluation per method.  A parallel session respawns its fleet, which
    was spawned with one method, so swapping back misses there: the new
    workers rebuild the first method's template."""
    rng, pts, w = cloud
    cold_basic = DashmmEvaluator(
        evaluator.kernel,
        method="fmm-basic",
        threshold=evaluator.threshold,
        runtime_config=evaluator.runtime_config,
        factory=evaluator.factory,
    ).evaluate(pts, w, pts).potentials
    evaluator.runtime_config = RuntimeConfig(n_localities=3, backend=backend)
    with EvaluatorSession(evaluator) as sess:
        first = sess.submit(pts, w)
        hits0, misses0 = sess.stats["template_hits"], sess.stats["template_misses"]
        # same schema, same shape: hit
        sess.submit(pts, w)
        assert sess.stats["template_hits"] == hits0 + 1
        # schema change (method swap), same points hence same shape: miss
        evaluator.method = "fmm-basic"
        out_basic = sess.submit(pts, w)
        assert sess.stats["template_misses"] == misses0 + 1
        assert np.array_equal(out_basic, cold_basic)
        # both templates stay cached under their own schema token
        evaluator.method = "fmm"
        hits1 = sess.stats["template_hits"]
        assert np.array_equal(sess.submit(pts, w), first)
        if backend == "sim":
            assert sess.stats["template_hits"] == hits1 + 1
            assert sess.stats["template_misses"] == misses0 + 1
        else:
            assert sess.stats["template_hits"] == hits1
            assert sess.stats["template_misses"] == misses0 + 2


@pytest.mark.parametrize("max_templates", [1, 4])
@pytest.mark.parametrize("backend", ["sim", pytest.param("parallel", marks=pytest.mark.parallel)])
def test_stats_match_the_sim_session(kernel, factory, cloud, backend, max_templates):
    """A session's statistics are those of the template store it
    advanced, on both backends: shapes A, B, A report the tree updates,
    hits and misses a sim session reports - with a capacity of one, A
    is rebuilt on its return, as every worker rebuilds it."""
    rng, pts, w = cloud
    shapes = (pts, 0.4 * pts + 0.1, pts)  # the shrunk cloud refines deeper
    stats = {}
    for name in ("sim", backend):
        ev = DashmmEvaluator(
            kernel,
            threshold=25,
            runtime_config=RuntimeConfig(n_localities=2, backend=name),
            factory=factory,
        )
        with EvaluatorSession(ev, max_templates=max_templates) as sess:
            for points in shapes:
                sess.submit(points, w)
            stats[name] = sess.stats
    assert stats[backend] == stats["sim"]
    assert stats["sim"]["template_misses"] == (3 if max_templates == 1 else 2)


def test_barnes_hut_session(kernel, factory, cloud):
    rng, pts, w = cloud
    ev = DashmmEvaluator(
        kernel,
        method="bh",
        threshold=25,
        theta=0.5,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=factory,
    )
    cold = ev.evaluate(pts, w, pts).potentials
    with EvaluatorSession(ev) as sess:
        assert np.array_equal(sess.submit(pts, w), cold)
        assert np.array_equal(sess.submit(pts, w), cold)


def test_submits_never_compile_a_drain(evaluator, cloud, monkeypatch):
    """A session runs the plan in place of a drain: its cold, warm,
    charge-only and drift submits never pay for the drain's tables."""

    def no_drain(reg):
        raise AssertionError("a session submit compiled a drain table")

    monkeypatch.setattr(Registrar, "_compile_drain", no_drain)
    rng, pts, w = cloud
    drifted = pts.copy()
    drifted[:7] = np.clip(drifted[:7] + rng.normal(scale=1e-3, size=(7, 3)), pts.min(), pts.max())
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        sess.submit(pts, w)
        sess.submit(pts, rng.normal(size=len(w)))
        sess.submit(drifted, w)
        assert sess.stats["template_hits"] == 3
        assert sess._store.current._drain is None


def test_sessions_are_freed_by_refcount(evaluator):
    """A template owns its registrar through the same one-way chain as
    an evaluation: closing a session, or evicting a template from its
    LRU, frees everything without a cyclic-collector pass."""
    rng = np.random.default_rng(8)
    pts, w = rng.uniform(0, 1, (600, 3)), rng.normal(size=600)

    def two_submits_then_close():
        sess = EvaluatorSession(evaluator)
        sess.submit(pts, w)
        sess.submit(pts, rng.normal(size=600))
        sess.close()

    two_submits_then_close()  # first-use imports and operator fits
    assert cyclic_garbage(two_submits_then_close) == []

    with EvaluatorSession(evaluator, max_templates=1) as sess:
        sess.submit(pts, w)
        first = weakref.ref(sess._store.current)
        sess.submit(0.4 * pts + 0.1, w)  # a new shape evicts the first
        assert sess.stats["template_misses"] == 2
        assert first() is None


def test_session_rejects_phantom_mode(kernel):
    ev = DashmmEvaluator(kernel, mode="phantom")
    with pytest.raises(ValueError):
        EvaluatorSession(ev)


@pytest.mark.parametrize("bad", [0, -2, "3", 2.5, True])
def test_session_rejects_a_bad_template_capacity(evaluator, bad):
    """The store is an LRU of at most ``max_templates`` templates: a
    capacity that is no positive int is refused at construction, not
    clamped to one or tripped over inside the first submit."""
    with pytest.raises(ValueError, match="max_templates"):
        EvaluatorSession(evaluator, max_templates=bad)


@pytest.mark.parametrize(
    "option, value",
    [("fuzz_schedule", 0), ("replay_schedule", ScheduleTrace()), ("detect_hazards", True)],
)
def test_session_rejects_schedule_instruments(kernel, factory, option, value):
    """A session runs the plan, not a drain: a schedule option would
    have nothing to act on, so it is refused, not ignored."""
    ev = DashmmEvaluator(kernel, runtime_config=RuntimeConfig(**{option: value}), factory=factory)
    with pytest.raises(ValueError, match=option):
        EvaluatorSession(ev)


def test_session_template_computes_no_priorities(kernel, factory, cloud, monkeypatch):
    """Priorities shape a drain's schedule and a session runs none: its
    templates never grade the DAG, and serve the bits a drained
    critical-path evaluate computes."""
    import repro.analysis.critical_path as critical_path

    graded = []
    node_priorities = critical_path.node_priorities

    def counted(*args, **kwargs):
        graded.append(args)
        return node_priorities(*args, **kwargs)

    monkeypatch.setattr(critical_path, "node_priorities", counted)
    rng, pts, w = cloud
    ev = DashmmEvaluator(
        kernel,
        threshold=25,
        runtime_config=RuntimeConfig(n_localities=3, policy="critical-path"),
        factory=factory,
    )
    cold = ev.evaluate(pts, w, pts).potentials
    assert graded  # the drain's LCOs carry critical-path levels
    drained = len(graded)
    with EvaluatorSession(ev) as sess:
        assert np.array_equal(sess.submit(pts, w), cold)
        sess.submit(0.4 * pts + 0.1, w)  # a second template
        assert sess.stats["template_misses"] == 2
    assert len(graded) == drained


def _hostile(pts, w):
    """(points, charges) pairs a tree must refuse: non-finite, misshapen
    or (the plane-wave rule carries half its terms) not real."""
    nan_pts, inf_w, complex_w = pts.copy(), w.copy(), w.astype(complex)
    nan_pts[3, 1] = np.nan
    inf_w[5] = np.inf
    complex_w[7] += 0.5j
    return [(nan_pts, w), (pts, inf_w), (pts[:, :2], w), (pts, w[:-1]), (pts, complex_w)]


def test_hostile_input_is_rejected_before_anything_is_pinned(evaluator, cloud):
    rng, pts, w = cloud
    for bad_pts, bad_w in _hostile(pts, w):
        with pytest.raises(ValueError, match="must"):
            evaluator.evaluate(bad_pts, bad_w, pts)
    with pytest.raises(ValueError, match="points must be finite"):
        evaluator.evaluate(pts, w, _hostile(pts, w)[0][0])  # NaN target
    with pytest.raises(ValueError, match="weights must be real"):
        evaluator.evaluate(*_hostile(pts, w)[-1], pts)
    with EvaluatorSession(evaluator) as fresh:
        good = fresh.submit(pts, w)
        with pytest.raises(ValueError, match="weights must be real"):
            fresh.submit(*_hostile(pts, w)[-1])
        # a complex dtype alone is not an imaginary part
        assert np.array_equal(fresh.submit(pts, w.astype(complex)), good)
    with EvaluatorSession(evaluator) as sess:
        for bad_pts, bad_w in _hostile(pts, w):
            with pytest.raises(ValueError, match="must"):
                sess.submit(bad_pts, bad_w)
            # a rejected first submit pins no frame
            assert sess.domain is None and sess.stats["submits"] == 0
        assert np.array_equal(sess.submit(pts, w), good)
        # ... and a rejected later one leaves the warm state intact
        domain, trees = sess.domain, _counters()
        for bad_pts, bad_w in _hostile(pts, w):
            with pytest.raises(ValueError, match="must"):
                sess.submit(bad_pts, bad_w)
        assert sess.domain is domain
        assert np.array_equal(sess.submit(pts, w), good)
        assert _counters() == trees


@pytest.mark.parallel
def test_parallel_session_bit_identical():
    rng = np.random.default_rng(7)
    n = 350
    pts = rng.random((n, 3))
    w = rng.random(n)
    kern = LaplaceKernel(4)
    fac = OperatorFactory(kern, eps=1e-4)
    ev_par = DashmmEvaluator(
        kern,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(
            backend="parallel", n_localities=2, start_method="spawn"
        ),
        factory=fac,
    )
    ev_sim = DashmmEvaluator(
        kern,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=fac,
    )
    cold = ev_par.evaluate(pts, w, pts).potentials
    with EvaluatorSession(ev_par) as sess, EvaluatorSession(ev_sim) as sim:
        # cold + warm repeat: workers persist, result matches a cold run
        assert np.array_equal(sess.submit(pts, w), cold)
        assert np.array_equal(sess.submit(pts, w), cold)
        assert np.array_equal(sim.submit(pts, w), cold)
        # weights-only and incremental-move rounds against the sim session
        w2 = rng.random(n)
        assert np.array_equal(sess.submit(pts, w2), sim.submit(pts, w2))
        pts2 = pts.copy()
        idx = rng.choice(n, size=4, replace=False)
        pts2[idx] = np.clip(
            pts2[idx] + rng.normal(scale=1e-3, size=(4, 3)), pts.min(), pts.max()
        )
        assert np.array_equal(sess.submit(pts2, w2), sim.submit(pts2, w2))


def _parallel_evaluator(n_localities=2, threshold=20):
    kern = LaplaceKernel(4)
    return DashmmEvaluator(
        kern,
        method="fmm",
        threshold=threshold,
        runtime_config=RuntimeConfig(
            backend="parallel", n_localities=n_localities, start_method="spawn"
        ),
        factory=OperatorFactory(kern, eps=1e-4),
    )


@pytest.mark.parallel
def test_two_live_parallel_sessions():
    """Two sessions of one process each own a shm arena: their segment
    names must not collide, and each serves its own inputs."""
    rng = np.random.default_rng(13)
    n = 300
    pts_a, pts_b = rng.random((n, 3)), rng.random((n, 3))
    w = rng.random(n)
    ev = _parallel_evaluator()
    with EvaluatorSession(ev) as a, EvaluatorSession(ev) as b:
        out_a = a.submit(pts_a, w)
        out_b = b.submit(pts_b, w)  # FileExistsError with per-arena numbering
        assert np.array_equal(a.submit(pts_a, w), out_a)
    assert np.array_equal(out_a, ev.evaluate(pts_a, w, pts_a).potentials)
    assert np.array_equal(out_b, ev.evaluate(pts_b, w, pts_b).potentials)


@pytest.mark.parallel
def test_round_survives_worker_kill():
    """A worker killed between rounds: respawn + re-drive, same bits."""
    rng = np.random.default_rng(11)
    n = 300
    pts = rng.random((n, 3))
    w = rng.random(n)
    with EvaluatorSession(_parallel_evaluator()) as sess:
        cold = sess.submit(pts, w)
        svc = sess._parallel
        victim = svc._procs[0]
        victim.terminate()
        victim.join(timeout=10.0)
        # the next round detects the casualty, respawns the fleet from
        # the retained spec/manifest and re-drives - bit-identically
        out = sess.submit(pts, w)
        assert np.array_equal(out, cold)
        assert svc.respawns == 1
        assert sess._parallel is svc  # same service, recovered in place
        assert svc.round_stats[-1]["respawns"] == 1
        # the recovered fleet keeps serving warm rounds
        w2 = rng.random(n)
        assert np.array_equal(sess.submit(pts, w2), sess.submit(pts, w2))


@pytest.mark.parallel
def test_worker_kill_without_respawn_budget_fails_cleanly():
    """Exhausted respawn budget: tear down, raise once, raise clearly after."""
    from repro.hpx.gas import ShmArena
    from repro.hpx.parallel import ParallelError

    rng = np.random.default_rng(12)
    n = 300
    pts = rng.random((n, 3))
    w = rng.random(n)
    with EvaluatorSession(_parallel_evaluator()) as sess:
        cold = sess.submit(pts, w)
        svc = sess._parallel
        svc.max_respawns = 0
        svc._procs[1].terminate()
        svc._procs[1].join(timeout=10.0)
        with pytest.raises(ParallelError):
            sess.submit(pts, w)
        # no workers left alive and blocked on inboxes, no arena leak
        assert svc._procs == []
        assert svc._arena is None
        # the failed service raises clearly instead of hanging
        with pytest.raises(ParallelError, match="failed"):
            svc.submit(pts, w, pts)
        # the session dropped the dead service and recovers with a
        # fresh fleet on the next submit
        assert sess._parallel is None
        assert np.array_equal(sess.submit(pts, w), cold)
    assert ShmArena.leaked() == []


@pytest.mark.parallel
def test_rejected_submit_keeps_one_fleet_and_close_reaps_it():
    """A submit refused for its arguments is not a service failure: the
    fleet stays (one fleet, not a second one beside an orphan), the shared
    arrays are untouched, and close() leaves no process, segment or
    temp dir."""
    import glob
    import multiprocessing
    import os
    import tempfile

    from repro.hpx.gas import ShmArena

    def op_dirs():
        return set(glob.glob(os.path.join(tempfile.gettempdir(), "hmmops_*")))

    rng = np.random.default_rng(14)
    n = 300
    pts = rng.random((n, 3))
    w = rng.random(n)
    dirs_before = op_dirs()
    with EvaluatorSession(_parallel_evaluator()) as sess:
        good = sess.submit(pts, w)
        svc = sess._parallel
        children = multiprocessing.active_children()
        assert len(children) == 2
        arena = {name: svc._arena.get(name).copy() for name in ("sources", "weights", "targets")}
        for bad_pts, bad_w in _hostile(pts, w):
            with pytest.raises(ValueError, match="must"):
                sess.submit(bad_pts, bad_w)
            # the service itself refuses before a byte reaches the arena
            with pytest.raises(ValueError):
                svc.submit(bad_pts, bad_w, bad_pts)
        with pytest.raises(ValueError, match="weights must have shape"):
            svc.submit(pts, w[:-1], pts)
        assert sess._parallel is svc and svc._failed is None
        assert multiprocessing.active_children() == children
        for name, kept in arena.items():
            assert np.array_equal(svc._arena.get(name), kept)
        assert np.array_equal(sess.submit(pts, w), good)
        assert svc.respawns == 0
    assert multiprocessing.active_children() == []
    assert ShmArena.leaked() == []
    assert op_dirs() == dirs_before
