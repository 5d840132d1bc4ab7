"""Knob budget: the option surface of the public entry points, pinned.

Every independently settable option doubles the configurations tests
and benchmarks have to cover, so the parameter lists below are spelled
out: a new option (or a removed one) has to edit this file, where a
reviewer sees it next to the count it changes.  Names only - defaults
and semantics are the business of the functional tests.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import repro
import repro.dashmm.flushplan
import repro.dashmm.parallel
import repro.dashmm.service
import repro.hpx.parallel
import repro.methods
import repro.tree.fingerprint
from repro.dashmm.evaluator import DashmmEvaluator
from repro.dashmm.parallel import PersistentParallelService
from repro.dashmm.registrar import Registrar
from repro.dashmm.service import EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.methods.barneshut import mac_pairs
from repro.tree.dualtree import build_dual_tree
from repro.tree.lists import build_lists

SIGNATURES = {
    DashmmEvaluator.__init__: (
        "kernel",
        "method",
        "threshold",
        "policy",
        "runtime_config",
        "mode",
        "cost_model",
        "size_model",
        "coalesce",
        "sequential_edges",
        "theta",
        "eps",
        "factory",
    ),
    DashmmEvaluator.evaluate: (
        "sources",
        "weights",
        "targets",
        "dual",
        "lists",
        "dag",
        "gradients",
    ),
    EvaluatorSession.submit: ("points", "charges", "targets", "gradients"),
    Registrar.__init__: (
        "runtime",
        "dag",
        "dual",
        "kernel",
        "factory",
        "mode",
        "cost_model",
        "size_model",
        "coalesce",
        "sequential_edges",
    ),
    PersistentParallelService.__init__: ("evaluator", "domain", "timeout", "max_respawns"),
    build_dual_tree: ("sources", "targets", "threshold", "source_weights", "domain"),
    build_lists: ("dual",),
    mac_pairs: ("dual", "theta"),
}

RUNTIME_CONFIG_FIELDS = (
    "n_localities",
    "workers_per_locality",
    "network",
    "policy",
    "tracing",
    "steal_seed",
    "progress_cost",
    "reliable",
    "retry_timeout",
    "retry_backoff",
    "retry_limit",
    "ack_bytes",
    "fuzz_schedule",
    "replay_schedule",
    "detect_hazards",
    "checkpoint_every",
    "backend",
    "seed",
    "start_method",
)

WORKER_SPEC_KEYS = {"evaluator", "domain", "max_templates"}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_parameter_names_are_pinned(fn):
    names = tuple(p for p in inspect.signature(fn).parameters if p != "self")
    assert names == SIGNATURES[fn]


def test_runtime_config_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(RuntimeConfig)) == RUNTIME_CONFIG_FIELDS


def test_worker_spec_keys_are_pinned():
    ev = DashmmEvaluator(
        LaplaceKernel(2), runtime_config=RuntimeConfig(backend="parallel"), factory=None
    )
    spec = PersistentParallelService(ev, domain=None)._worker_spec()
    assert set(spec) == WORKER_SPEC_KEYS
    # a worker's factory adopts the arena's fits: none travels through the pipe
    assert spec["evaluator"].factory is None and ev.factory is not None


def test_one_fleet_manager():
    """The persistent service is the only parent-side spawner."""
    assert not hasattr(repro.hpx.parallel, "ParallelRuntime")


def test_one_plan_model():
    """Sessions and workers run the compiled plan
    (:mod:`repro.dashmm.flushplan`) on one registrar class with no
    runtime: no private runtime facade, captured replay or registrar
    subclass, no second stage walker, no separate eager entry point -
    and the plan is one :class:`~repro.dashmm.flushplan.Plan` walked as
    one :meth:`Registrar.stages` list, with no per-edge S->L path."""
    service = vars(repro.dashmm.service)
    assert not [name for name in service if name.startswith(("_Direct", "_ReplayPlan"))]
    assert "Runtime" not in service
    assert "_stage_plan" not in vars(repro.dashmm.parallel)
    assert not hasattr(repro.hpx.parallel, "LocalityRuntime")
    assert not hasattr(repro.dashmm.parallel, "ParallelRegistrar")
    assert not hasattr(Registrar, "run_eager")
    for name in ("eager_stages", "flush_stages", "eager_plan", "flush_plan", "_eager_value"):
        assert not hasattr(Registrar, name), name
    for name in ("EagerPlan", "FlushPlan", "compile_eager_plan", "compile_flush_plan"):
        assert not hasattr(repro.dashmm.flushplan, name), name


def test_one_template_store():
    """Sessions and workers carry their per-shape state in one
    ``TemplateStore``: the worker builds no registrar of its own, and no
    coordinate checksum stands in for the exact charge-only check."""
    assert "Registrar" not in vars(repro.dashmm.parallel)
    assert "_Template" not in vars(repro.dashmm.service)
    assert not hasattr(repro.tree.fingerprint, "geometry_token")


def test_one_evaluator_per_method():
    """``DashmmEvaluator`` is the one class that computes potentials or
    gradients: no per-method evaluator is exported, and no class of
    :mod:`repro.methods` has an ``evaluate``."""
    for module in (repro, repro.methods):
        for name in ("FmmEvaluator", "BarnesHutEvaluator"):
            assert not hasattr(module, name), (module.__name__, name)
    for info in pkgutil.iter_modules(repro.methods.__path__, "repro.methods."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                assert not hasattr(obj, "evaluate"), f"{info.name}.{name}"
