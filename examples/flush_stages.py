#!/usr/bin/env python
"""Where a warm submit spends its time: the flush, stage by stage.

A session's submit is ``reset -> run_eager -> flush_deferred``, and the
flush is the stage list ``Registrar.flush_stages()``.  This script times
each of those thunks on the canonical problem of the performance ledger
(4 096 points in the slab [0,1]^2 x [0,0.24], Laplace p=6, threshold 60,
eps 1e-4, four simulated localities) after the session is warm, and
prints the median milliseconds per stage.  It is a diagnostic, not a
ledger metric: compare two commits only from interleaved runs.

Run:  python examples/flush_stages.py [--repeats 15] [--seed 1]
"""

import argparse
import time

import numpy as np

from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels import LaplaceKernel
from repro.kernels.fitops import OperatorFactory


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    points, charges = slab_problem(args.seed)
    kernel = LaplaceKernel(6)
    evaluator = DashmmEvaluator(
        kernel,
        method="fmm",
        threshold=60,
        eps=1e-4,
        factory=OperatorFactory(kernel, eps=1e-4),
        runtime_config=RuntimeConfig(n_localities=4, workers_per_locality=8),
    )
    samples: dict = {}
    with EvaluatorSession(evaluator) as session:
        for _ in range(2):  # fit the operators, fill the geometry cache
            expected = session.submit(points, charges)
        reg = session._current.registrar
        for _ in range(args.repeats):
            samples.setdefault("reset", []).append(timed(reg.reset))
            samples.setdefault("eager", []).append(timed(reg.run_eager))
            for name, stage in reg.flush_stages():
                # the downward shift is one stage per level; report their sum
                key = name if isinstance(name, str) else name[0]
                samples.setdefault(key, []).append(timed(stage))
        out = np.empty(len(points))
        out[reg.dual.target.perm] = reg.result
        assert np.array_equal(out, expected), "staged run differs from submit()"

    per_repeat = {k: np.reshape(v, (args.repeats, -1)).sum(axis=1) for k, v in samples.items()}
    total = sum(np.median(v) for v in per_repeat.values())
    edges = sum(len(out) for out in reg.dag.out_edges)
    print(f"warm submit, {len(points)} points, {edges} DAG edges, "
          f"median of {args.repeats} repeats")
    for name, v in per_repeat.items():
        ms = 1e3 * np.median(v)
        print(f"  {name:<8s} {ms:7.2f} ms  {100 * ms / (1e3 * total):5.1f} %")
    print(f"  {'total':<8s} {1e3 * total:7.2f} ms")


if __name__ == "__main__":
    main()
