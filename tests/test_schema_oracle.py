"""Cross-chain oracle: the production setup vs the per-box reference chain.

Production reaches one setup chain (array tree carve -> array lists /
MAC descent -> :class:`repro.dag.DagBuilder`).  The per-box reference
loops it is held against are plain functions; here they are strung
together (``tests/reference_chain.py``) and *executed* through the
evaluator's injection point ``evaluate(dual=, lists=, dag=)``.  Across
methods x kernels the two chains must produce ``diff``-empty graphs and
*bit-identical executed output* - potentials AND virtual clock AND
runtime stats - and the identity must survive fuzzed schedules (the
fuzz-sweep machinery of ``tests/test_schedule_fuzz.py`` re-used with
the production chain against the reference baseline).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.schedules import fuzz_sweep
from repro.dag import diff_dags, validate_dag
from repro.dashmm.evaluator import DashmmEvaluator
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.yukawa import YukawaKernel
from tests.reference_chain import reference_setup

METHODS = ("fmm", "fmm-basic", "bh")


@pytest.fixture(scope="module")
def kernels():
    return {"laplace": LaplaceKernel(4), "yukawa": YukawaKernel(4)}


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(23)
    return rng.random((300, 3)), rng.random(300), rng.random((200, 3))


def _evaluate(kernel, cloud, method, chain, **cfg_kwargs):
    """Evaluate over the ``"declarative"`` (production) chain, or over
    structures built by the ``"reference"`` loops and injected."""
    sources, weights, targets = cloud
    cfg = RuntimeConfig(n_localities=2, workers_per_locality=2, **cfg_kwargs)
    ev = DashmmEvaluator(kernel, method=method, threshold=30, runtime_config=cfg)
    if chain == "declarative":
        report = ev.evaluate(sources, weights, targets)
        validate_dag(ev.schema, report.dag)
        return report
    assert chain == "reference"
    prebuilt = reference_setup(method, sources, weights, targets, 30, theta=ev.theta)
    return ev.evaluate(sources, weights, targets, **prebuilt)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kernel_name", ("laplace", "yukawa"))
def test_assemblies_bit_identical(kernels, cloud, method, kernel_name):
    kernel = kernels[kernel_name]
    ref = _evaluate(kernel, cloud, method, "reference")
    decl = _evaluate(kernel, cloud, method, "declarative")
    assert diff_dags(ref.dag, decl.dag).empty
    assert np.array_equal(ref.potentials, decl.potentials)
    assert ref.time == decl.time
    assert ref.runtime_stats == decl.runtime_stats


@pytest.mark.parametrize("method", METHODS)
def test_declarative_fuzz_sweep_vs_legacy_baseline(kernels, cloud, method):
    """Fuzzed production runs reproduce the *reference-chain* unfuzzed
    baseline bit for bit: setup chain and schedule are both irrelevant."""
    kernel = kernels["laplace"]

    def run(seed):
        return _evaluate(
            kernel,
            cloud,
            method,
            "declarative",
            fuzz_schedule=seed,
            detect_hazards=True,
        )

    baseline = _evaluate(kernel, cloud, method, "reference")
    result = fuzz_sweep(run, seeds=range(3), baseline=baseline)
    assert result.all_bit_identical, result.summary()
    assert result.total_hazards == 0, result.summary()
    assert result.distinct_makespans > 1, result.summary()


def test_fuzzed_trace_replays_across_assemblies(kernels, cloud, tmp_path):
    """A schedule recorded over the reference chain replays over the
    production one: same graph fingerprint, same decisions, same clock
    and potentials."""
    kernel = kernels["laplace"]
    fuzzed = _evaluate(kernel, cloud, "fmm", "reference", fuzz_schedule=13)
    trace = fuzzed.extras["schedule_trace"]
    assert "graph_fingerprint" in trace.meta
    path = tmp_path / "trace.json"
    trace.save(path)
    replayed = _evaluate(
        kernel, cloud, "fmm", "declarative", replay_schedule=str(path)
    )
    assert replayed.time == fuzzed.time
    assert np.array_equal(replayed.potentials, fuzzed.potentials)


def test_replay_against_wrong_graph_diverges(kernels, cloud):
    from repro.hpx.scheduler import ReplayDivergence

    kernel = kernels["laplace"]
    fuzzed = _evaluate(kernel, cloud, "fmm", "declarative", fuzz_schedule=5)
    trace = fuzzed.extras["schedule_trace"]
    with pytest.raises(ReplayDivergence, match="different DAG"):
        _evaluate(
            kernel, cloud, "fmm-basic", "declarative", replay_schedule=trace
        )


@pytest.mark.fuzz
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kernel_name", ("laplace", "yukawa"))
def test_oracle_full_sweep(kernels, cloud, method, kernel_name):
    """The -m fuzz lane: a wider seed range per method x kernel cell."""
    kernel = kernels[kernel_name]

    def run(seed):
        return _evaluate(
            kernel,
            cloud,
            method,
            "declarative",
            fuzz_schedule=seed,
            detect_hazards=True,
        )

    baseline = _evaluate(kernel, cloud, method, "reference")
    result = fuzz_sweep(run, seeds=range(25), baseline=baseline)
    assert result.all_bit_identical, result.summary()
    assert result.total_hazards == 0, result.summary()
