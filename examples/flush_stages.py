#!/usr/bin/env python
"""Where a warm submit spends its time, stage by stage.

A session's submit is ``reset -> run_eager -> flush_deferred``: the one
stage list ``Registrar.eager_stages() + Registrar.flush_stages()``.  This
script times each of those thunks on the canonical problem of the
performance ledger (4 096 points in the slab [0,1]^2 x [0,0.24], Laplace
p=6, threshold 60, eps 1e-4, four simulated localities) after the
session is warm, and prints the median milliseconds per stage.  With
``--workers N`` it then serves the same submits from N worker processes,
which walk the same list rank by rank, and prints each rank's medians
from the round statistics: ``run`` inside the stage, ``wait`` posting its
frames and waiting for the peers'.  With ``--cold`` it first splits a
cold ``evaluate()`` of the same problem the same way: tree, DAG,
distribution, LCO allocation, the drain's compile (its tables and
time-zero tasks) and run, the compile of the plan the drain owes, then
every eager and flush stage of it, and prints the drain's tasks, the
events its loop handled and the tasks it ran per host second.  It is a
diagnostic, not a ledger metric: compare two commits only from
interleaved runs.

Run:  python examples/flush_stages.py [--repeats 15] [--seed 1] [--workers 2] [--cold]
"""

import argparse
import gc
import time

import numpy as np

from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.kernels import LaplaceKernel
from repro.kernels.fitops import OperatorFactory
from repro.tree.dualtree import build_dual_tree


def slab_problem(seed: int, per_leaf: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """``per_leaf`` uniform points in each cell of an 8 x 8 x 2 grid: the
    level-3 leaves of the tree, so the seed never changes its shape."""
    rng = np.random.default_rng(seed)
    cells = np.indices((8, 8, 2)).reshape(3, -1).T
    points = ((cells[:, None, :] + rng.random((len(cells), per_leaf, 3))) / 8.0).reshape(-1, 3)
    points[:, 2] *= 0.96
    return points, rng.uniform(-1.0, 1.0, len(points))


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def stage_key(name) -> str:
    """The sweeps are one stage per level; report each as one line."""
    return name if isinstance(name, str) else name[0]


def canonical_evaluator(config: RuntimeConfig) -> DashmmEvaluator:
    kernel = LaplaceKernel(6)
    return DashmmEvaluator(
        kernel,
        method="fmm",
        threshold=60,
        eps=1e-4,
        factory=OperatorFactory(kernel, eps=1e-4),
        runtime_config=config,
    )


def print_medians(title: str, samples: dict, repeats: int) -> None:
    """Median milliseconds per key over ``repeats`` (per-level stages
    of one repeat summed first)."""
    per_repeat = {k: np.reshape(v, (repeats, -1)).sum(axis=1) for k, v in samples.items()}
    total = sum(np.median(v) for v in per_repeat.values())
    print(f"{title}, median of {repeats} repeats")
    for name, v in per_repeat.items():
        ms = 1e3 * np.median(v)
        print(f"  {name:<13s} {ms:7.2f} ms  {100 * ms / (1e3 * total):5.1f} %")
    print(f"  {'total':<13s} {1e3 * total:7.2f} ms")


def cold_split(points, charges, repeats: int) -> None:
    """Median seconds of each phase of a cold ``evaluate()``, staged the
    way ``DashmmEvaluator.evaluate`` runs it (collector paused)."""
    config = RuntimeConfig(n_localities=4, workers_per_locality=8, tracing=False)
    ev = canonical_evaluator(config)
    expected = ev.evaluate(points, charges, points).potentials  # fit the operators
    samples: dict = {}

    def phase(name, fn):
        t0 = time.perf_counter()
        out = fn()
        samples.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            dual = phase(
                "tree",
                lambda: build_dual_tree(points, points, ev.threshold, source_weights=charges),
            )
            dag, _ = phase("dag", lambda: ev.build_dag(dual))
            phase("assign", lambda: ev.policy.assign(dag, dual, config.n_localities))
            runtime = Runtime(config)

            def allocate():
                reg = Registrar(
                    runtime, dag, dual, ev.kernel, ev.factory,
                    cost_model=ev.cost_model, size_model=ev.size_model,
                )
                reg.allocate()
                return reg

            reg = phase("allocate", allocate)
            phase("drain compile", reg.initial_tasks)
            # every event is pushed under the next sequence number, and
            # the drain ends with an empty heap
            seq = runtime.scheduler._seq
            phase("drain run", runtime.run)
            events = runtime.scheduler._seq - seq
            stages = phase("plan compile", lambda: reg.eager_stages() + reg.flush_stages())
            for name, stage in stages:
                phase(stage_key(name), stage)
        finally:
            gc.enable()
        out = np.empty(len(points))
        out[dual.target.perm] = reg.result
        assert np.array_equal(out, expected), "staged evaluate differs from evaluate()"
    edges = dag.n_edges
    print_medians(f"cold evaluate(), {len(points)} points, {edges} DAG edges", samples, repeats)
    tasks = runtime.scheduler.tasks_run
    rate = tasks / np.median(samples["drain run"])
    print(f"  drain run: {tasks} tasks, {events} heap events, {rate:,.0f} tasks per host second")
    print()


def worker_split(points, charges, expected, workers: int, repeats: int) -> None:
    """Median per-rank stage and wait times of ``repeats`` warm rounds."""
    evaluator = canonical_evaluator(RuntimeConfig(backend="parallel", n_localities=workers))
    with EvaluatorSession(evaluator) as session:
        for _ in range(2 + repeats):
            out = session.submit(points, charges)
        rounds = session._parallel.round_stats[2:]
    # bit-identical only at equal locality counts (the ledger's sim
    # session runs four): agreement to roundoff is all this checks
    assert np.allclose(out, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max())
    wall = 1e3 * np.median([r["wall_time"] for r in rounds])
    print(f"\n{workers} workers, median of {repeats} warm rounds: {wall:.2f} ms GO to last DONE")
    names = list(rounds[0]["workers"][0]["stage_s"])
    keys = [stage_key(name) for name in names]
    for rank in range(workers):
        stats = [r["workers"][rank] for r in rounds]
        # seconds by (round, stage, run | wait)
        t = np.array([[(w["stage_s"][n], w["wait_s"][n]) for n in names] for w in stats])
        med = {
            key: 1e3 * np.median(t[:, [k == key for k in keys]].sum(axis=1), axis=0)
            for key in dict.fromkeys(keys)
        }
        run, wait = sum(med.values())
        print(f"  rank {rank}: run {run:.2f} ms, wait {wait:.2f} ms")
        for key, (run, wait) in med.items():
            print(f"    {key:<8s} run {run:6.2f}  wait {wait:6.2f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", type=int, default=0, help="also split a round of this many worker processes")
    ap.add_argument("--cold", action="store_true", help="first split a cold evaluate() of the problem")
    args = ap.parse_args()

    points, charges = slab_problem(args.seed)
    if args.cold:
        cold_split(points, charges, args.repeats)
    evaluator = canonical_evaluator(RuntimeConfig(n_localities=4, workers_per_locality=8))
    samples: dict = {}
    with EvaluatorSession(evaluator) as session:
        for _ in range(2):  # fit the operators, fill the geometry cache
            expected = session.submit(points, charges)
        reg = session._current.registrar
        for _ in range(args.repeats):
            samples.setdefault("reset", []).append(timed(reg.reset))
            for name, stage in reg.eager_stages() + reg.flush_stages():
                samples.setdefault(stage_key(name), []).append(timed(stage))
        out = np.empty(len(points))
        out[reg.dual.target.perm] = reg.result
        assert np.array_equal(out, expected), "staged run differs from submit()"

    edges = reg.dag.n_edges
    print_medians(f"warm submit, {len(points)} points, {edges} DAG edges", samples, args.repeats)
    if args.workers:
        worker_split(points, charges, expected, args.workers, args.repeats)


if __name__ == "__main__":
    main()
