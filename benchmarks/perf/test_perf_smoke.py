"""Smoke test of the performance ledger (run it by path; about a minute).

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

Runs all four workloads at ``--smoke`` size, end to end and traced, and
checks the shape of what comes out against ``BENCHMARK.json``: not the
numbers.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: layers a workload never enters: their metrics must be listed as not
#: applicable (and read 0), everything else must be measured
NOT_ENTERED = {
    "cold-sim": ("tree.update", "tree.fingerprint", "dashmm.service", "dashmm.parallel",
                 "hpx.transport", "hpx.gas", "dashmm.registrar.reset", "dashmm.registrar.rebind"),
    "phantom-sphere": ("tree.update", "tree.fingerprint", "dashmm.service", "dashmm.parallel",
                       "hpx.transport", "hpx.gas", "dashmm.registrar.reset",
                       "dashmm.registrar.rebind", "dashmm.registrar.flush", "kernels.fit",
                       "kernels.cache_hit_ratio", "kernels.rel_err_l2"),
    "serve-sim": ("tree.lists", "tree.list_pairs", "dag.", "dashmm.distribution",
                  "dashmm.registrar.allocate", "dashmm.registrar.initial_tasks",
                  "dashmm.registrar.lcos", "hpx.runtime", "hpx.scheduler", "hpx.network",
                  "hpx.tracer", "analysis.", "dashmm.parallel", "hpx.transport", "hpx.gas"),
    "serve-par2": ("tree.lists", "tree.list_pairs", "dag.", "dashmm.distribution",
                   "dashmm.registrar", "hpx.runtime", "hpx.scheduler", "hpx.network",
                   "hpx.tracer", "analysis.", "kernels.fit", "kernels.cache_hit_ratio"),
}


def run_all(out: Path, trace: int) -> list[dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"]
    subprocess.run(cmd + ["--trace", str(trace), "--out", str(out)], check=True)
    return json.loads(out.read_text())["records"]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    return {
        "end_to_end": run_all(out / "e2e.json", trace=0),
        "per_layer": run_all(out / "layers.json", trace=1),
        "dir": out,
    }


def test_catalog_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_workload_reports_every_metric_with_its_unit(results, kind):
    records = {r["workload"]: r for r in results[kind]}
    assert list(records) == WORKLOADS
    for record in records.values():
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert {n: m["unit"] for n, m in record["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }
        assert {"cpu_count", "python", "numpy", "blas", "thread_env", "git_commit"} <= set(
            record["host"]
        )


def test_end_to_end_metrics_are_never_zero(results):
    for record in results["end_to_end"]:
        assert record["not_applicable"] == []
        assert all(m["value"] > 0 for m in record["metrics"].values())
        assert record["detail"]["op_s"]["samples"] >= 2


def test_absent_is_not_confused_with_zero(results):
    for record in results["per_layer"]:
        absent = set(record["not_applicable"])
        expected = {
            name
            for name in record["metrics"]
            if name.startswith(NOT_ENTERED[record["workload"]])
        }
        assert absent == expected
        assert all(record["metrics"][name]["value"] == 0.0 for name in absent)


def test_spans_nest_and_self_times_sum_to_the_root(results):
    for workload in WORKLOADS:
        trace = json.loads((results["dir"] / f"trace_{workload}.json").read_text())
        spans = {e["args"]["id"]: e for e in trace["traceEvents"]}
        assert spans
        self_time = {i: e["dur"] for i, e in spans.items()}
        root_of = {}
        for i, e in spans.items():
            parent = e["args"]["parent"]
            if parent is None:
                root_of[i] = i
                continue
            outer = spans[parent]
            assert outer["ts"] <= e["ts"] and e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-3
            assert e["args"]["op"] == outer["args"]["op"]
            self_time[parent] -= e["dur"]
            root_of[i] = root_of[parent]
        for root in set(root_of.values()):
            total = sum(t for i, t in self_time.items() if root_of[i] == root)
            assert total == pytest.approx(spans[root]["dur"], rel=1e-9, abs=1e-3)
        assert all(t >= -1e-3 for t in self_time.values())


def test_single_workload_prints_the_contract_line():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "phantom-sphere"]
    done = subprocess.run(
        cmd + ["--seed", "4", "--seconds", "1", "--trace", "0", "--smoke"],
        check=True, capture_output=True, text=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_no_process_outlives_a_run():
    """The parallel backend's workers and multiprocessing's resource tracker
    have ended by the time the benchmark's process has."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "serve-par2"]
    run = subprocess.Popen(
        cmd + ["--seed", "4", "--seconds", "1", "--trace", "0", "--smoke"],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert run.wait() == 0
    left = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid pgrp session ...
        if int(stat.rpartition(")")[2].split()[3]) == run.pid:
            left.append(stat)
    assert not left
