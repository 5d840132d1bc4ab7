"""Bit-identity oracle for the real-parallel backend.

``backend="parallel"`` must reproduce the simulator backend's
potentials *bit for bit* for the same configuration: LCO folds happen
in canonical dedup-key order and every batched flush groups by a
locality-including canonical key, so the floating-point reduction
order is a function of the DAG and the distribution alone - never of
which backend (or how many real processes) executed it.

The tests that spawn worker processes carry the ``parallel`` marker,
which keeps them out of the default lane (select with ``pytest -m
parallel``); the configuration checks fail before any process exists
and run everywhere.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import tempfile

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


@parallel
def test_bit_identity_under_schedule_fuzz(laplace, laplace_factory, cloud):
    """Fuzzed per-worker schedule decisions must not move a single bit."""
    src, w, tgt = cloud
    ref = _pair(laplace, "fmm", laplace_factory, "sim").evaluate(src, w, tgt)
    par = _pair(
        laplace, "fmm", laplace_factory, "parallel", fuzz_schedule=99
    ).evaluate(src, w, tgt)
    assert np.array_equal(ref.potentials, par.potentials)


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
    def failing_round(self, update):
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
