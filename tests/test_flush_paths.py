"""One execution plan, every path.

Both plan sections - the eager classes (S->M, M->M, S->L, M->L) and the
flush stages (M->I, I->I, I->L, L->L, leaf outputs) - are compiled once
from the DAG and the node localities and executed after a cold
``evaluate()``'s drain, by every submit of a session and after a
checkpoint restore alike.  All of them must return the same bits, and
so must the per-edge ablation, whose drain schedules differently but
carries no values either; a worker's rank-restricted plan is a slice of
the full one, and the ranks' slices, walked stage by stage with only the
rows their ``sends`` name crossing, reproduce it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, EvaluatorSession, FmmPolicy
from repro.dashmm.distribution import DistributionPolicy, RandomPolicy
from repro.dashmm.flushplan import compile_flush_plan
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.yukawa import YukawaKernel
from repro.methods.direct import direct_potentials
from repro.tree.box import Domain
from repro.tree.dualtree import build_dual_tree

THRESHOLD = 20
N = 420


@pytest.fixture(scope="module")
def factories():
    kernels = {"laplace": LaplaceKernel(4), "yukawa": YukawaKernel(4, lam=2.0)}
    return {name: OperatorFactory(k, eps=1e-3) for name, k in kernels.items()}


@pytest.fixture(scope="module")
def cloud():
    """One point set for every test: Yukawa operators are fitted per
    box size, so a second domain would refit them all."""
    rng = np.random.default_rng(17)
    return rng.random((N, 3)), rng.normal(size=N), rng.normal(size=N)


class _SwitchPolicy(DistributionPolicy):
    """The paper's policy until ``moved`` is set, a random scatter of the
    internal nodes after: a reassignment under a live registrar that
    changes the composition of every locality-keyed group."""

    name = "switch"

    def __init__(self):
        super().__init__()
        self.moved = False
        self._before, self._after = FmmPolicy(), RandomPolicy(seed=3)

    def assign(self, dag, dual, n_localities):
        (self._after if self.moved else self._before).assign(dag, dual, n_localities)


def _evaluator(factory, method, policy=None, **kw):
    cfg = kw.pop("config", RuntimeConfig(n_localities=2, workers_per_locality=2))
    return DashmmEvaluator(
        factory.kernel,
        method=method,
        threshold=THRESHOLD,
        eps=1e-3,
        factory=factory,
        policy=policy,
        runtime_config=cfg,
        **kw,
    )


def _idle(runtime) -> bool:
    """No task was ever enqueued on (let alone run by) ``runtime``."""
    s = runtime.scheduler
    return s.tasks_run == 0 and not s._heap and not any(q for qs in s.deques for q in qs)


def _sibling_hop(dual, points):
    """``points`` with one point moved into a sibling leaf: per-leaf
    counts change (so the session re-runs the distribution policy), no
    box count crosses the threshold (so the tree shape is preserved)."""
    tree = dual.source
    for parent in tree.boxes:
        kids = [tree.box(k) for k in parent.children]
        leaves = [b for b in kids if b.is_leaf and b.count > 1]
        if len(leaves) < 2:
            continue
        donor, taker = leaves[0], min(leaves[1:], key=lambda b: b.count)
        if taker.count >= THRESHOLD:
            continue
        moved = points.copy()
        # sorted position -> original index of one donor point; it lands
        # next to a point of the taker
        moved[tree.perm[donor.start]] = points[tree.perm[taker.start]] + 1e-9
        return moved
    raise AssertionError("no sibling leaves to hop between")


@pytest.mark.parametrize("kname", ["laplace", "yukawa"])
@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_every_path_gives_the_same_bits(factories, cloud, kname, method):
    factory = factories[kname]
    pts, w, w2 = cloud
    drifted = pts.copy()
    step = np.random.default_rng(18).normal(scale=1e-3, size=(25, 3))
    drifted[:25] = np.clip(drifted[:25] + step, 0.0, 1.0)

    policy = _SwitchPolicy()
    ev = _evaluator(factory, method, policy)
    cold = ev.evaluate(pts, w, pts)
    # the drain only schedules: both plan sections computed the numbers
    # after it, and its tables went with it
    assert cold.extras["registrar"]._eager is not None
    assert cold.extras["registrar"]._drain is None
    cold_w2 = ev.evaluate(pts, w2, pts).potentials
    with EvaluatorSession(ev) as session:
        assert np.array_equal(session.submit(pts, w), cold.potentials)  # cold submit
        domain = session.domain
        # ... and a session runs the same plan from its first submit,
        # without a drain
        first = session._current.registrar
        assert first._eager is not None
        assert _idle(first.runtime)
        assert np.array_equal(session.submit(pts, w), cold.potentials)  # warm resubmit
        assert np.array_equal(session.submit(pts, w2), cold_w2)  # fresh charges
        session.submit(drifted, w2)  # drift ...
        assert np.array_equal(session.submit(pts, w2), cold_w2)  # ... and return

        # nodes move under the live registrar: the flush plan must be
        # rebuilt (a stale one stacks the old localities' groups)
        hopped = _sibling_hop(cold.dual, pts)
        hits = session.stats["template_hits"]
        before = session._current.registrar.flush_plan()
        policy.moved = True
        out = session.submit(hopped, w2)
        assert session.stats["template_hits"] == hits + 1  # same shape, same registrar
        assert session._current.registrar.flush_plan() is not before
        assert _idle(first.runtime) and _idle(session._current.registrar.runtime)
    with EvaluatorSession(ev, domain=domain) as fresh:
        assert np.array_equal(out, fresh.submit(hopped, w2))


@pytest.mark.parametrize("kname", ["laplace", "yukawa"])
@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_resume_before_the_flush_and_per_edge_ablations(factories, cloud, kname, method):
    factory = factories[kname]
    src, w, _ = cloud
    tgt = src

    cfg = RuntimeConfig(n_localities=2, workers_per_locality=2, checkpoint_every=2e-4)
    ev = _evaluator(factory, method, config=cfg)
    baseline = ev.evaluate(src, w, tgt)
    checkpoints = baseline.extras["checkpoints"]
    assert checkpoints  # every one of them precedes flush_deferred
    for cp in (checkpoints[0], checkpoints[-1]):
        resumed = ev.resume(baseline, cp)
        assert np.array_equal(resumed.potentials, baseline.potentials)
        assert resumed.time == baseline.time

    rep = _evaluator(factory, method, sequential_edges=False).evaluate(src, w, tgt)
    assert np.array_equal(rep.potentials, baseline.potentials)


def _corner_problem(cloud):
    """A cloud filling one corner of a pinned domain, as a session sees
    it after its points contracted: the coarse L nodes have no list-2
    sources and no parent, i.e. no inputs at all."""
    pts, w, _ = cloud
    corner = 0.4 * pts + 0.1
    return corner, w, Domain.bounding(pts, pts)


@pytest.mark.parametrize("sequential_edges", [True, False])
def test_expansions_without_inputs_still_release_their_children(factories, cloud, sequential_edges):
    factory = factories["laplace"]
    corner, w, domain = _corner_problem(cloud)
    dual = build_dual_tree(corner, corner, THRESHOLD, source_weights=w, domain=domain)
    ev = _evaluator(factory, "fmm", sequential_edges=sequential_edges)
    rep = ev.evaluate(corner, w, corner, dual=dual)
    assert any(
        n.kind == "L" and rep.dag.in_degree[n.id] == 0 and rep.dag.out_edges[n.id]
        for n in rep.dag.nodes
    )
    assert rep.extras["untriggered"] == 0
    exact = direct_potentials(factory.kernel, corner, corner, w)
    assert np.linalg.norm(rep.potentials - exact) < 2e-3 * np.linalg.norm(exact)
    if not sequential_edges:
        # a session has no virtual clock for the ablation to move
        with pytest.raises(ValueError, match="requires sequential_edges=True"):
            EvaluatorSession(ev, domain=domain)
        return
    with EvaluatorSession(ev, domain=domain) as session:
        assert np.array_equal(session.submit(corner, w), rep.potentials)
        assert np.array_equal(session.submit(corner, w), rep.potentials)


@pytest.mark.parallel
@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_workers_run_their_slice_of_the_plan(factories, cloud, workers):
    """Mirrored plane-wave rows and input-less expansions cross ranks;
    with three workers a stage waits for two peers."""
    factory = factories["laplace"]
    corner, w, domain = _corner_problem(cloud)
    sim = _evaluator(factory, "fmm", config=RuntimeConfig(n_localities=workers))
    par = _evaluator(
        factory, "fmm", config=RuntimeConfig(backend="parallel", n_localities=workers)
    )
    pts = cloud[0]
    cold = par.evaluate(pts, w, pts)
    assert np.array_equal(cold.potentials, sim.evaluate(pts, w, pts).potentials)
    with EvaluatorSession(par, domain=domain) as a, EvaluatorSession(sim, domain=domain) as b:
        assert np.array_equal(a.submit(pts, w), b.submit(pts, w))
        assert np.array_equal(a.submit(corner, w), b.submit(corner, w))
        reg = b._current.registrar
        names = [name for name, _ in reg.eager_stages() + reg.flush_stages()]
        edges = sum(len(out) for out in reg.dag.out_edges)
        first, last = (r["workers"] for r in a._parallel.round_stats[-2:])
    # what a rank reports per round: the seconds of every stage it walked
    # and of the wait in front of it, the plan edges it executed (all
    # rounds so far), and a frame count bounded by stages x peers - acked
    # one for one before DONE
    for rank in last:
        assert list(rank["stage_s"]) == list(rank["wait_s"]) == names
        assert rank["in_flight"] == 0
    assert sum(r["tasks_run"] for r in last) - sum(r["tasks_run"] for r in first) == edges
    frames = sum(r["frames_sent"] for r in last) - sum(r["frames_sent"] for r in first)
    assert 0 < frames <= len(names) * workers * (workers - 1)
    assert sum(r["acks_sent"] for r in last) == sum(r["frames_sent"] for r in last)
    assert all(r["tasks_run"] > 0 for r in cold.runtime_stats["workers"])


def _groups(plan) -> dict:
    """Every stage's groups with plan-relative rows resolved to node ids,
    so a rank's groups compare equal to the full plan's."""
    out: dict = {"dirs": {}, "m2i": [], "i2i": [], "i2l": []}
    for b in plan.bridge:
        is_ids, it_ids = np.array(b.is_ids), np.array(b.it_ids)
        out["dirs"][b.level] = b.dirs
        out["m2i"] += [(b.level, tuple(b.is_ids[lo : lo + len(m)]), tuple(m)) for lo, m in b.m2i]
        # one entry per (target, direction): its sources per axial
        # offset, in CSR order, with both ends' transverse coordinates
        for g in b.i2i:
            src = [(int(i), tuple(uv)) for i, uv in zip(is_ids[g.src_rows], g.src_uv.tolist())]
            n_t = len(g.tgt_rows)
            for j, (t, uv) in enumerate(zip(it_ids[g.tgt_rows].tolist(), g.tgt_uv.tolist())):
                lists = tuple(
                    tuple(src[c] for c in g.indices[g.indptr[r] : g.indptr[r + 1]])
                    for r in range(j, len(g.offsets) * n_t, n_t)
                )
                out["i2i"].append((b.level, g.direction, t, tuple(uv), tuple(g.offsets), lists))
        out["i2l"] += [(b.level, tuple(it_ids[rows]), tuple(ls)) for rows, ls in b.i2l]
    for level, groups in plan.l2l:
        out["l2l", level] = [(o, tuple(ps), tuple(cs)) for o, ps, cs in groups]
    out["outputs"] = [
        (
            g.op,
            g.sub,
            g.loc,
            tuple(plan.out_src[g.lo : g.hi]),
            tuple(plan.out_sbox[g.lo : g.hi]),
            tuple(plan.out_tbox[g.lo : g.hi]),
        )
        for g in plan.outputs
    ]
    return out


@pytest.mark.parametrize("n_localities", [2, 3])
@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_rank_plans_partition_the_full_plan(factories, cloud, method, n_localities):
    """What every worker compiles, checked without spawning one - under
    a random scatter of *all* nodes of a four-level tree, so every
    stage has edges crossing ranks (no shipped policy splits a leaf's
    L from its T)."""
    from repro.dashmm.parallel import ParallelRegistrar

    factory = factories["laplace"]
    pts, w, domain = _corner_problem(cloud)
    cfg = RuntimeConfig(n_localities=n_localities)
    dual = build_dual_tree(pts, pts, THRESHOLD, source_weights=w, domain=domain)
    dag, _ = _evaluator(factory, method).build_dag(dual)
    loc = np.random.default_rng(3).integers(0, n_localities, len(dag.nodes)).tolist()
    for node, rank in zip(dag.nodes, loc):
        node.locality = rank
    ranks = range(n_localities)

    full = compile_flush_plan(dag, dual)
    plans = [compile_flush_plan(dag, dual, r) for r in ranks]
    assert full.sends == {}

    # the ranks' groups partition the full plan's, stage by stage; leaf
    # outputs also keep the full plan's accumulation order
    whole = _groups(full)
    parts = [_groups(p) for p in plans]
    assert all(set(part) == set(whole) for part in parts)
    # the column blocks of a level are a fact of the DAG, not of the rank
    dirs = whole.pop("dirs")
    assert all(part.pop("dirs").items() <= dirs.items() for part in parts)
    for stage, groups in whole.items():
        assert len(set(groups)) == len(groups)
        assert sorted(g for part in parts for g in part[stage]) == sorted(groups)
    for r in ranks:
        assert parts[r]["outputs"] == [g for g in whole["outputs"] if g[2] == r]

    # one stage sequence on every rank, so the frames line up
    def stage_names(reg):
        return [name for name, _ in reg.flush_stages()]

    names = stage_names(Registrar(Runtime(cfg), dag, dual, factory.kernel, factory))
    assert names[:3] == ["m2i", "i2i", "i2l"] and names[-1] == "outputs"
    assert names[3:-1] == [("l2l", level) for level, _ in full.l2l]
    exchanged = [n for n in names if n != "m2i"]
    for r in ranks:
        reg = ParallelRegistrar(r, Runtime(cfg), dag, dual, factory.kernel, factory)
        assert stage_names(reg) == names
        assert sorted(plans[r].sends, key=str) == sorted(exchanged, key=str)

    # rank r ships to dst exactly the r-owned nodes dst's stage reads
    # from its mirror: foreign plane-wave rows, remote L->L parents and
    # the local expansions under remote L->T edges
    def reads(dst: int) -> dict:
        plan = plans[dst]
        need = {
            "i2i": {i for b in plan.bridge for i in b.is_ids[b.n_is_local :]},
            "i2l": {i for b in plan.bridge for i in b.it_ids[b.n_it_local :]},
            "outputs": {
                i for g in plan.outputs if g.op == "L2T" for i in plan.out_src[g.lo : g.hi]
            },
        }
        for level, groups in plan.l2l:
            need["l2l", level] = {p for _, parents, _ in groups for p in parents}
        return need

    crossing = dict.fromkeys(exchanged, 0)
    for dst in ranks:
        for stage, ids in reads(dst).items():
            for r in ranks:
                owed = sorted(i for i in ids if loc[i] == r) if r != dst else []
                assert plans[r].sends[stage].get(dst, []) == owed
                crossing[stage] += len(owed)
    if method != "bh":  # Barnes-Hut has no expansion a flush stage completes
        assert crossing["outputs"]
        assert any(n for stage, n in crossing.items() if stage[0] == "l2l")
    if method == "fmm":
        assert crossing["i2i"] and crossing["i2l"]


UNIT = Domain(origin=np.zeros(3), size=1.0)


def _stratified(cells, per_cell, scale, offset=0.0, seed=5):
    """``per_cell`` uniform points in each cell of a ``cells`` grid of
    edge ``scale``: the leaves of the tree, whatever the seed."""
    rng = np.random.default_rng(seed)
    grid = np.indices(cells).reshape(3, -1).T
    pts = (grid[:, None, :] + rng.uniform(0.05, 0.95, (len(grid), per_cell, 3))) * scale
    return pts.reshape(-1, 3) + offset


_ALL_SIX = {"+x", "-x", "+y", "-y", "+z", "-z"}
_FLAT = {"+x", "-x", "+y", "-y"}
#: name -> (points, threshold, kernels, {level: directions of its I->I edges})
TRANSLATION_PROBLEMS = {
    # 8 x 8 x 8 leaves at level 3: every direction at both levels
    "cube": (_stratified((8, 8, 8), 3, 1 / 8), 5, ("laplace",), {2: _ALL_SIX, 3: _ALL_SIX}),
    # the ledger's slab, 8 x 8 x 2 leaves: nothing translates up or down
    "slab": (_stratified((8, 8, 2), 4, 1 / 8), 8, ("laplace", "yukawa"), {2: _FLAT, 3: _FLAT}),
    # 8 x 8 x 8 leaves at level 6 in the far corner of the domain, one
    # point in each other octant: lattice coordinates 56..63
    "deep": (
        np.vstack(
            [
                _stratified((8, 8, 8), 2, 1 / 64, offset=7 / 8),
                0.5 * np.indices((2, 2, 2)).reshape(3, -1).T[:-1] + 0.1,
            ]
        ),
        3,
        ("laplace",),
        {5: _ALL_SIX, 6: _ALL_SIX},
    ),
}


@pytest.mark.parametrize(
    "problem, kname",
    [(name, k) for name, spec in TRANSLATION_PROBLEMS.items() for k in spec[2]],
)
def test_i2i_factored_equals_per_edge(factories, problem, kname):
    """phase * 0/1-sparse sum * phase against the sum it factors: every
    edge's source block times ``factory.i2i`` at the edge's own offset."""
    from repro.dashmm.flushplan import FULL_DIRS

    factory = factories[kname]
    pts, threshold, _, directions = TRANSLATION_PROBLEMS[problem]
    w = np.random.default_rng(6).normal(size=len(pts))
    ev = DashmmEvaluator(
        factory.kernel, method="fmm", threshold=threshold, eps=1e-3, factory=factory
    )
    with EvaluatorSession(ev, domain=UNIT) as session:
        session.submit(pts, w)
        reg = session._current.registrar
    dag, plan = reg.dag, reg.flush_plan()
    assert {b.level: {FULL_DIRS[d] for d in b.dirs} for b in plan.bridge} == directions
    if kname == "yukawa":
        assert len({factory.kernel.level_key(UNIT.box_size(b.level)) for b in plan.bridge}) == 2

    for b in plan.bridge:
        h = UNIT.box_size(b.level)
        nt = factory.quadrature(h).nterms
        block = {FULL_DIRS[d]: slice(i * nt, (i + 1) * nt) for i, d in enumerate(b.dirs)}
        expected = {t: np.zeros(len(b.dirs) * nt, dtype=complex) for t in b.it_ids}
        for s in b.is_ids:
            W = reg.lcos[s].data
            assert W.shape == (len(b.dirs) * nt,)  # unused directions are not carried
            for e in dag.out_edges[s]:
                d, delta = e.aux
                expected[e.dst][block[d]] += W[block[d]] * factory.i2i(d, delta, h)
        got = np.stack([reg.lcos[t].data for t in b.it_ids])
        want = np.stack([expected[t] for t in b.it_ids])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if problem == "deep":
        coords = np.concatenate([np.abs(g.tgt_uv).ravel() for g in plan.bridge[-1].i2i])
        assert plan.bridge[-1].level == 6 and coords.max() == 63


def test_rank_translations_reproduce_the_full_plans_rows(factories, cloud):
    """A 4-rank partition under a random scatter: each rank runs M->I
    and I->I of its own plan - other row sets, other matrix shapes - and
    its It rows come out bit-identical to the full plan's."""
    from types import SimpleNamespace

    factory = factories["laplace"]
    pts, w, domain = _corner_problem(cloud)
    cfg = RuntimeConfig(n_localities=4)
    ev = _evaluator(factory, "fmm", RandomPolicy(seed=3), config=cfg)
    with EvaluatorSession(ev, domain=domain) as session:
        session.submit(pts, w)
        full = session._current.registrar
    kinds = {"M", "Is", "It"}
    data = {nid: lco.data.copy() for nid, lco in full.lcos.items() if lco.node.kind in kinds}
    written = 0
    for rank in range(4):
        reg = Registrar(Runtime(cfg), full.dag, full.dual, factory.kernel, factory)
        reg._rank = rank
        # the rank reads everyone's multipoles and source-side rows from
        # its mirror; it must produce the target-side rows itself
        reg.lcos = {
            nid: SimpleNamespace(data=None if full.lcos[nid].node.kind == "It" else v)
            for nid, v in data.items()
        }
        plan = reg.flush_plan()
        reg._flush_m2i(plan)
        reg._flush_i2i(plan)
        for b in plan.bridge:
            for t in b.it_ids[: b.n_it_local]:
                assert full.dag.nodes[t].locality == rank
                assert np.array_equal(reg.lcos[t].data, data[t])
                written += 1
    assert written == sum(full.lcos[nid].node.kind == "It" for nid in data)


class _ScatterPolicy(DistributionPolicy):
    """Every node on a random rank - leaf data included, which no shipped
    policy does - so every stage of both plan sections reads across
    ranks."""

    name = "scatter"

    def assign(self, dag, dual, n_localities):
        ranks = np.random.default_rng(3).integers(0, n_localities, len(dag.nodes))
        for node, rank in zip(dag.nodes, ranks.tolist()):
            node.locality = rank


def _fold_lists(plan) -> tuple[dict, dict, list]:
    """The eager section as {node: its fold's edge rows} and the S->L
    groups' rows."""

    def by_node(folds):
        b, rows = folds.bounds, folds.rows.tolist()
        return {dst: rows[b[i] : b[i + 1]] for i, dst in enumerate(folds.dst)}

    m = {dst: rows for _, folds in plan.m_folds for dst, rows in by_node(folds).items()}
    return m, by_node(plan.l_folds), sorted(plan.s2l_groups)


@pytest.mark.parametrize("partition", ["contiguous-2", "scatter-4"])
@pytest.mark.parametrize(
    "problem, method", [("cube", "fmm"), ("cube", "fmm-basic"), ("cube", "bh"), ("slab", "fmm")]
)
def test_rank_stage_lists_reproduce_the_full_plan(factories, cloud, problem, method, partition):
    """A worker's round without the worker: rank-restricted registrars
    walk the one stage list, and before each stage every rank hands each
    peer exactly the rows its ``sends`` name (a dict assignment, no
    queue).  Expansions and potentials must equal the full plan's and a
    drained ``evaluate()``'s bit for bit."""
    from repro.dashmm.parallel import ParallelRegistrar
    from repro.hpx.parallel import LocalityRuntime

    factory = factories["laplace"]
    if problem == "cube":
        # four levels, and coarse local expansions nothing contributes to
        (pts, w, domain), threshold = _corner_problem(cloud), THRESHOLD
    else:
        (pts, threshold), domain = TRANSLATION_PROBLEMS["slab"][:2], UNIT
        w = np.random.default_rng(6).normal(size=len(pts))
    policy, n = {"contiguous-2": (None, 2), "scatter-4": (_ScatterPolicy(), 4)}[partition]
    ev = DashmmEvaluator(
        factory.kernel,
        method=method,
        threshold=threshold,
        eps=1e-3,
        factory=factory,
        policy=policy,
        runtime_config=RuntimeConfig(n_localities=n),
    )
    dual = build_dual_tree(pts, pts, threshold, source_weights=w, domain=domain)
    drained = ev.evaluate(pts, w, pts, dual=dual).potentials
    with EvaluatorSession(ev, domain=domain) as session:
        assert np.array_equal(session.submit(pts, w), drained)
        full = session._current.registrar
    dag, dual = full.dag, full.dual
    ranks = range(n)
    result = np.zeros(len(pts))
    regs = []
    for r in ranks:
        reg = ParallelRegistrar(r, LocalityRuntime(n), dag, dual, factory.kernel, factory)
        reg.result = result  # disjoint target boxes, as in the shared arena
        reg.allocate()
        regs.append(reg)
    sections = [(full.eager_plan(), [reg.eager_plan() for reg in regs])]
    sections.append((full.flush_plan(), [reg.flush_plan() for reg in regs]))

    # (a) the ranks' folds and S->L groups partition the full eager
    # plan's, each fold list identical, every fold at its owner
    whole, parts = sections[0]
    m, l, s2l = _fold_lists(whole)
    rank_lists = [_fold_lists(p) for p in parts]
    for r, (rm, rl, _) in enumerate(rank_lists):
        assert all(dag.nodes[dst].locality == r for dst in [*rm, *rl])
        assert rm.items() <= m.items() and rl.items() <= l.items()
    assert sum(len(rm) for rm, _, _ in rank_lists) == len(m)
    assert sum(len(rl) for _, rl, _ in rank_lists) == len(l)
    assert sorted(g for _, _, groups in rank_lists for g in groups) == s2l
    for whole, parts in sections:
        assert sum(p.n_edges for p in parts) == whole.n_edges
    assert sum(whole.n_edges for whole, _ in sections) == sum(len(out) for out in dag.out_edges)

    # (b) what a sends b is what b awaits from a, under the same stage
    # name, and the sender owns every id; one stage sequence everywhere
    stage_lists = [reg.eager_stages() + reg.flush_stages() for reg in regs]
    names = [name for name, _ in full.eager_stages() + full.flush_stages()]
    assert all([name for name, _ in stages] == names for stages in stage_lists)
    sends = [{**e.sends, **f.sends} for e, f in zip(sections[0][1], sections[1][1])]
    recvs = [{**e.recvs, **f.recvs} for e, f in zip(sections[0][1], sections[1][1])]
    assert sections[0][0].sends == sections[0][0].recvs == sections[1][0].recvs == {}
    crossing = dict.fromkeys(sends[0], 0)
    for a in ranks:
        assert set(sends[a]) == set(recvs[a]) == set(crossing) <= set(names)
        for stage in crossing:
            for b in ranks:
                ids = sends[a][stage].get(b, [])
                assert ids == recvs[b][stage].get(a, [])
                assert a != b or not ids
                assert all(dag.nodes[i].locality == a for i in ids)
                crossing[stage] += len(ids)
    if partition == "scatter-4":
        expected = {"fmm": {"m2l", "i2i", "i2l", "outputs"}, "fmm-basic": {"m2l", "outputs"}}
        for stage in expected.get(method, {"m2l"}):
            assert crossing[stage]
        assert any(n_ids for stage, n_ids in crossing.items() if stage[0] == "m2m")
        if method != "bh":
            assert any(n_ids for stage, n_ids in crossing.items() if stage[0] == "l2l")

    # (c) the walk: post what the stage's readers need, then run it
    zeros = 0  # expansions that cross as None, the zero expansion
    for i, name in enumerate(names):
        for a in ranks:
            for b, ids in sends[a].get(name, {}).items():
                regs[b]._mirror.update((nid, regs[a]._data_of(nid)) for nid in ids)
                zeros += sum(regs[b]._mirror[nid] is None for nid in ids)
        for stages in stage_lists:
            stages[i][1]()
    assert bool(zeros) == (problem == "cube" and method != "bh")
    for reg in regs:
        for nid, lco in reg.lcos.items():
            if lco.node.kind in ("M", "L"):
                want = full.lcos[nid].data
                assert (lco.data is None) == (want is None)
                assert want is None or np.array_equal(lco.data, want)
    assert sum(len(reg.lcos) for reg in regs) == len(full.lcos)
    out = np.empty(len(pts))
    out[dual.target.perm] = result
    assert np.array_equal(out, drained)
