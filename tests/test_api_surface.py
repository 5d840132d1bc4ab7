"""Knob budget: the option surface of the public entry points, pinned.

Every independently settable option doubles the configurations tests
and benchmarks have to cover, so the parameter lists below are spelled
out: a new option (or a removed one) has to edit this file, where a
reviewer sees it next to the count it changes.  Names only - defaults
and semantics are the business of the functional tests.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.dashmm.parallel
import repro.dashmm.service
import repro.hpx.parallel
from repro.dashmm.evaluator import DashmmEvaluator
from repro.dashmm.parallel import PersistentParallelService
from repro.dashmm.registrar import Registrar
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
        "validate_dag",
    ),
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
        "centers",
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

WORKER_SPEC_KEYS = {
    "kernel",
    "method",
    "threshold",
    "policy",
    "config",
    "cost_model",
    "size_model",
    "theta",
    "eps",
    "factory_path",
    "domain",
}


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
    spec = PersistentParallelService(ev, domain=None)._worker_spec(factory_path=None)
    assert set(spec) == WORKER_SPEC_KEYS


def test_one_fleet_manager():
    """The persistent service is the only parent-side spawner."""
    assert not hasattr(repro.hpx.parallel, "ParallelRuntime")


def test_one_plan_model():
    """Sessions run the compiled plan (:mod:`repro.dashmm.flushplan`):
    no private runtime facade or captured replay in the service, no second
    stage walker in the worker."""
    service = vars(repro.dashmm.service)
    assert not [name for name in service if name.startswith(("_Direct", "_ReplayPlan"))]
    assert "_stage_plan" not in vars(repro.dashmm.parallel)
