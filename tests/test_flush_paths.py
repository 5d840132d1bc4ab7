"""One flush plan, every path.

The batched numeric stages (M->I, I->I, I->L, L->L, leaf outputs) are
compiled once from the DAG and the node localities and executed by a
cold ``evaluate()``, by every submit of a session and after a
checkpoint restore alike, so all of them must return the same bits.
The per-edge ablations compute the same sums in another order and agree
to roundoff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, EvaluatorSession, FmmPolicy
from repro.dashmm.distribution import DistributionPolicy, RandomPolicy
from repro.hpx.runtime import RuntimeConfig
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
    cold_w2 = ev.evaluate(pts, w2, pts).potentials
    with EvaluatorSession(ev) as session:
        assert np.array_equal(session.submit(pts, w), cold.potentials)  # cold submit
        domain = session.domain
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

    scale = np.abs(baseline.potentials).max()
    for ablation in ({"batch_edges": False}, {"sequential_edges": False}):
        rep = _evaluator(factory, method, **ablation).evaluate(src, w, tgt)
        assert np.abs(rep.potentials - baseline.potentials).max() < 1e-10 * scale


def _corner_problem(cloud):
    """A cloud filling one corner of a pinned domain, as a session sees
    it after its points contracted: the coarse L nodes have no list-2
    sources and no parent, i.e. no inputs at all."""
    pts, w, _ = cloud
    corner = 0.4 * pts + 0.1
    return corner, w, Domain.bounding(pts, pts)


@pytest.mark.parametrize("batch_edges", [True, False])
def test_expansions_without_inputs_still_release_their_children(factories, cloud, batch_edges):
    factory = factories["laplace"]
    corner, w, domain = _corner_problem(cloud)
    dual = build_dual_tree(corner, corner, THRESHOLD, source_weights=w, domain=domain)
    ev = _evaluator(factory, "fmm", batch_edges=batch_edges)
    rep = ev.evaluate(corner, w, corner, dual=dual)
    assert any(
        n.kind == "L" and rep.dag.in_degree[n.id] == 0 and rep.dag.out_edges[n.id]
        for n in rep.dag.nodes
    )
    assert rep.extras["untriggered"] == 0
    exact = direct_potentials(factory.kernel, corner, corner, w)
    assert np.linalg.norm(rep.potentials - exact) < 2e-3 * np.linalg.norm(exact)
    with EvaluatorSession(ev, domain=domain) as session:
        assert np.array_equal(session.submit(corner, w), rep.potentials)
        assert np.array_equal(session.submit(corner, w), rep.potentials)


@pytest.mark.parallel
def test_parallel_workers_run_their_slice_of_the_plan(factories, cloud):
    """Mirrored plane-wave rows and input-less expansions cross ranks."""
    factory = factories["laplace"]
    corner, w, domain = _corner_problem(cloud)
    sim = _evaluator(factory, "fmm")
    par = _evaluator(
        factory, "fmm", config=RuntimeConfig(backend="parallel", n_localities=2)
    )
    pts = cloud[0]
    assert np.array_equal(
        par.evaluate(pts, w, pts).potentials, sim.evaluate(pts, w, pts).potentials
    )
    with EvaluatorSession(par, domain=domain) as a, EvaluatorSession(sim, domain=domain) as b:
        assert np.array_equal(a.submit(pts, w), b.submit(pts, w))
        assert np.array_equal(a.submit(corner, w), b.submit(corner, w))
