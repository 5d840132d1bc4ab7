"""Distribution policies: data-distribution constraint, balance, It placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dashmm.dag import build_fmm_dag
from repro.dashmm.distribution import (
    BlockPolicy,
    FmmPolicy,
    RandomPolicy,
    _point_work_cumsum,
    partition_points,
)
from repro.sim.costmodel import CostModel
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists
from tests.reference_chain import box_owner


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(20)
    src = rng.uniform(0, 1, (4000, 3))
    tgt = rng.uniform(0, 1, (4000, 3))
    w = rng.normal(size=4000)
    dual = build_dual_tree(src, tgt, 30, source_weights=w)
    lists = build_lists(dual)
    dag = build_fmm_dag(dual, lists, advanced=True)
    return dual, lists, dag


def test_partition_points_covers_everything():
    b = partition_points(100, 7)
    assert b[0] == 0 and b[-1] == 100
    assert np.all(np.diff(b) >= 0)


def test_box_owner_respects_bounds():
    bounds = np.array([0, 50, 100])

    class B:
        start, stop, count = 10, 20, 10

    assert box_owner(B(), bounds) == 0

    class C:
        start, stop, count = 60, 80, 20

    assert box_owner(C(), bounds) == 1


@pytest.mark.parametrize("policy_cls", [FmmPolicy, BlockPolicy, RandomPolicy])
def test_all_nodes_assigned(setup, policy_cls):
    dual, lists, dag = setup
    policy_cls().assign(dag, dual, 4)
    for n in dag.nodes:
        assert 0 <= n.locality < 4


@pytest.mark.parametrize("policy_cls", [FmmPolicy, BlockPolicy, RandomPolicy])
def test_leaf_data_constraint(setup, policy_cls):
    """S/T nodes (and leaf M/L) must match the a-priori data split."""
    dual, lists, dag = setup
    policy_cls().assign(dag, dual, 4)
    sb = partition_points(dual.source.n_points, 4)
    tb = partition_points(dual.target.n_points, 4)
    for n in dag.nodes:
        if n.kind == "S":
            assert n.locality == box_owner(dual.source.boxes[n.box_index], sb)
        if n.kind == "T":
            assert n.locality == box_owner(dual.target.boxes[n.box_index], tb)


def test_fmm_policy_it_majority(setup):
    """It nodes sit where most of their incoming I2I bytes originate."""
    dual, lists, dag = setup
    FmmPolicy().assign(dag, dual, 4)
    incoming = {}
    for edges in dag.out_edges:
        for e in edges:
            if e.op == "I2I":
                incoming.setdefault(e.dst, []).append(dag.nodes[e.src].locality)
    for nid, locs in incoming.items():
        it = dag.nodes[nid]
        best = max(set(locs), key=locs.count)
        assert locs.count(it.locality) >= locs.count(best) or it.locality == best


def test_work_balance_beats_count_balance(setup):
    dual, lists, dag = setup
    cm = CostModel()

    def imbalance(policy):
        policy.assign(dag, dual, 8)
        work = np.zeros(8)
        for edges in dag.out_edges:
            for e in edges:
                s, t = dag.nodes[e.src], dag.nodes[e.dst]
                c = cm.edge_cost(e.op, n_src=max(s.n_points, 1), n_tgt=max(t.n_points, 1))
                if e.op in ("S2M", "M2M", "M2I", "I2I"):
                    work[s.locality] += c
                else:
                    work[t.locality] += c
        return work.max() / work.mean()

    count_imb = imbalance(FmmPolicy(balance="count"))
    work_imb = imbalance(FmmPolicy(balance="work"))
    assert work_imb < count_imb


def test_random_policy_deterministic(setup):
    dual, lists, dag = setup
    RandomPolicy(seed=3).assign(dag, dual, 4)
    locs1 = [n.locality for n in dag.nodes]
    RandomPolicy(seed=3).assign(dag, dual, 4)
    assert locs1 == [n.locality for n in dag.nodes]


def test_invalid_balance():
    with pytest.raises(ValueError):
        FmmPolicy(balance="nope")


def test_single_locality(setup):
    dual, lists, dag = setup
    FmmPolicy().assign(dag, dual, 1)
    assert all(n.locality == 0 for n in dag.nodes)


def _reference_point_work_cumsum(tree, box_work):
    """The per-box loop the array pass replaces."""
    pt = np.zeros(tree.n_points)
    for b in tree.boxes:
        if b.count > 0 and box_work[b.index] > 0:
            pt[b.start : b.stop] += box_work[b.index] / b.count
    return np.cumsum(pt)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    n=st.integers(8, 400),
    clusters=st.integers(1, 4),
    threshold=st.integers(3, 30),
    localities=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_array_owners_match_the_per_box_rule(n, clusters, threshold, localities, seed):
    """On random adaptive trees, every node a policy pins to its box's
    owner sits where the per-box :func:`box_owner` puts it, for both
    balances; and the per-point work the ``"work"`` cuts split is the
    per-box loop's, bit for bit."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, (clusters, 3))
    pts = centers[rng.integers(clusters, size=n)] + rng.normal(scale=0.05, size=(n, 3))
    tgt = pts[rng.permutation(n)[: max(1, n // 2)]] + 1e-3
    dual = build_dual_tree(pts, tgt, threshold, source_weights=rng.normal(size=n))
    dag = build_fmm_dag(dual, build_lists(dual), advanced=True)
    for balance in ("count", "work"):
        for policy in (FmmPolicy(balance=balance), BlockPolicy(balance=balance), RandomPolicy(balance=balance)):
            policy.assign(dag, dual, localities)
            if balance == "count":
                bounds = {
                    "source": partition_points(dual.source.n_points, localities),
                    "target": partition_points(dual.target.n_points, localities),
                }
            else:
                bounds = dict(zip(("source", "target"), policy._work_bounds(dag, dual, localities)))
            for node in dag.nodes:
                tree = dual.source if node.tree == "source" else dual.target
                box = tree.boxes[node.box_index]
                pinned = node.kind in ("S", "T") or (node.kind in ("M", "L") and box.is_leaf)
                if isinstance(policy, BlockPolicy) or (isinstance(policy, FmmPolicy) and node.kind != "It"):
                    pinned = True
                if pinned:
                    assert node.locality == box_owner(box, bounds[node.tree])
    for tree in (dual.source, dual.target):
        work = rng.exponential(size=len(tree.boxes)) * (rng.random(len(tree.boxes)) < 0.7)
        assert np.array_equal(
            _point_work_cumsum(tree, work), _reference_point_work_cumsum(tree, work)
        )
