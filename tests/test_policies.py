"""Scheduling policies: resolution, critical-path grading, near/far pipelining.

Certifies the policy layer's contracts (see DESIGN.md, "Scheduling
policies"):

* the stock policy is bit-identical to the historical scheduler -
  same virtual clock, same potentials, same trace;
* ``policy="binary"`` is the paper's Section VI high/low split;
* critical-path levels from the offline DAG analysis are monotone
  along every edge, so draining low levels first always advances the
  critical path;
* interleaving interposes near-field filler under critical bursts and
  eager sends release parcels at the charge point, not task end;
* the graded policy reduces the virtual makespan of an M2L-heavy FMM
  DAG against stock (the paper's Section VI proposal).
"""

import numpy as np
import pytest

from repro.analysis.critical_path import node_priorities
from repro.dashmm.evaluator import DashmmEvaluator
from repro.hpx.network import NetworkModel
from repro.hpx.parcel import Parcel
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.hpx.scheduler import (
    HIGH,
    LOW,
    BinaryPriorityPolicy,
    CriticalPathPolicy,
    Scheduler,
    SchedulingPolicy,
    Task,
    resolve_policy,
)
from repro.kernels.laplace import LaplaceKernel
from repro.sim.costmodel import CostModel


@pytest.fixture(scope="module")
def kernel():
    return LaplaceKernel(5)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(7)
    return rng.random((300, 3)), rng.random(300), rng.random((200, 3))


def _evaluate(kernel, cloud, mode="numeric", **cfg_kwargs):
    sources, weights, targets = cloud
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=2, **cfg_kwargs)
    ev = DashmmEvaluator(
        kernel, method="fmm", threshold=30, mode=mode, runtime_config=cfg
    )
    return ev.evaluate(sources, weights, targets)


# -- resolution ------------------------------------------------------------------


def test_resolve_policy_spellings():
    assert type(resolve_policy(None)) is SchedulingPolicy
    assert type(resolve_policy("stock")) is SchedulingPolicy
    assert type(resolve_policy("binary")) is BinaryPriorityPolicy
    assert type(resolve_policy("critical-path")) is CriticalPathPolicy
    inst = CriticalPathPolicy(levels=6)
    assert resolve_policy(inst) is inst


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown scheduling policy"):
        resolve_policy("fifo")


def test_critical_path_policy_needs_two_levels():
    with pytest.raises(ValueError):
        CriticalPathPolicy(levels=1)


def test_level_mapping():
    stock, cp = SchedulingPolicy(), CriticalPathPolicy(levels=4)
    assert stock.level_of(Task(fn=None, priority=HIGH)) == LOW
    assert cp.level_of(Task(fn=None, priority=0)) == 0
    assert cp.level_of(Task(fn=None, priority=2)) == 2
    assert cp.level_of(Task(fn=None, priority=99)) == 3  # clamped to last


def test_policy_name_in_runtime_stats(kernel, cloud):
    rep = _evaluate(kernel, cloud, mode="phantom", policy="critical-path")
    assert rep.runtime_stats["policy"] == "critical-path"
    assert _evaluate(kernel, cloud, mode="phantom").runtime_stats["policy"] == "stock"


# -- offline critical-path grading -----------------------------------------------


@pytest.mark.parametrize("weighted", [False, True])
def test_node_priorities_monotone_along_edges(kernel, cloud, weighted):
    sources, weights, targets = cloud
    ev = DashmmEvaluator(kernel, method="fmm", threshold=30, mode="phantom")
    from repro.tree.dualtree import build_dual_tree

    dual = build_dual_tree(sources, targets, 30, source_weights=weights)
    dag, _ = ev.build_dag(dual)
    cm = CostModel() if weighted else None
    levels = node_priorities(dag, cost_model=cm, levels=5)
    assert len(levels) == len(dag.nodes)
    assert min(levels) == 0 and max(levels) <= 4
    for edges in dag.out_edges:
        for e in edges:
            assert levels[e.src] <= levels[e.dst]
    # degenerate bucket counts collapse to a single level
    assert node_priorities(dag, levels=1) == [0] * len(dag.nodes)


# -- default-path bit-identity ----------------------------------------------------


def test_stock_policy_bit_identical_to_default(kernel, cloud):
    plain = _evaluate(kernel, cloud)
    stock = _evaluate(kernel, cloud, policy="stock")
    assert stock.time == plain.time
    assert np.array_equal(stock.potentials, plain.potentials)
    assert stock.tracer.events() == plain.tracer.events()
    assert stock.runtime_stats["steals"] == plain.runtime_stats["steals"]


def test_priority_policies_preserve_potentials(kernel, cloud):
    plain = _evaluate(kernel, cloud)
    for policy in ("binary", "critical-path"):
        rep = _evaluate(kernel, cloud, policy=policy)
        assert np.array_equal(rep.potentials, plain.potentials), policy


# -- near/far pipelining ----------------------------------------------------------


def test_interleave_pattern_single_worker():
    """One filler pick is interposed after every k-1 critical picks."""
    pol = CriticalPathPolicy(levels=3, interleave=3, eager_sends=False)
    s = Scheduler(1, 1, NetworkModel(), policy=pol)
    order = []

    def tagged(tag):
        def body(ctx):
            ctx.charge("w", 1e-6)
            order.append(tag)

        return body

    for i in range(4):
        s.enqueue(Task(fn=tagged("C"), priority=0), 0, 0.0)
    for i in range(2):
        s.enqueue(Task(fn=tagged("F"), priority=9), 0, 0.0)
    s.run()
    assert order == ["C", "C", "F", "C", "C", "F"]


def test_interleave_off_drains_critical_first():
    pol = CriticalPathPolicy(levels=3, interleave=0, eager_sends=False)
    s = Scheduler(1, 1, NetworkModel(), policy=pol)
    order = []

    def tagged(tag):
        def body(ctx):
            ctx.charge("w", 1e-6)
            order.append(tag)

        return body

    s.enqueue(Task(fn=tagged("F"), priority=9), 0, 0.0)
    for i in range(3):
        s.enqueue(Task(fn=tagged("C"), priority=0), 0, 0.0)
    s.run()
    assert order == ["C", "C", "C", "F"]


@pytest.mark.parametrize("eager", [False, True])
def test_send_release_point(eager):
    """Eager sends leave at the charge point, lazy sends at task end."""
    pol = CriticalPathPolicy(eager_sends=eager)
    s = Scheduler(1, 1, NetworkModel(), policy=pol)
    arrivals = []
    s.deliver_parcel = lambda parcel, t: arrivals.append(t)

    def body(ctx):
        ctx.charge("a", 1e-3)
        ctx.send_parcel(Parcel(action="x", target=0))
        ctx.charge("b", 2e-3)

    s.enqueue(Task(fn=body, op_class="w"), 0, 0.0)
    t = s.run()
    assert t == pytest.approx(3e-3)
    assert arrivals == [pytest.approx(1e-3 if eager else 3e-3)]


# -- the point of it all ----------------------------------------------------------


def test_critical_path_reduces_phantom_makespan(kernel):
    """Graded priorities beat stock on an M2L-heavy FMM DAG."""
    rng = np.random.default_rng(7)
    big = rng.random((4000, 3)), rng.random(4000), rng.random((3000, 3))
    times = {}
    for policy in ("stock", "critical-path"):
        cfg = RuntimeConfig(
            n_localities=8, workers_per_locality=4, policy=policy
        )
        ev = DashmmEvaluator(
            kernel, method="fmm", threshold=40, mode="phantom", runtime_config=cfg
        )
        times[policy] = ev.evaluate(*big).time
    assert times["critical-path"] < times["stock"], times
