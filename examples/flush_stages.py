#!/usr/bin/env python
"""Where a warm submit spends its time, stage by stage.

A session's submit is ``reset -> flush_deferred``: a reset, then a walk
of the one stage list ``Registrar.stages()``.
This script times the reset and each of those thunks on the canonical
problem of the performance ledger (4 096 points in the slab [0,1]^2 x
[0,0.24], Laplace p=6, threshold 60, eps 1e-4, four simulated
localities) after the session is warm, and prints the median
milliseconds per stage.  With
``--workers N`` it then serves the same submits from N worker processes,
which walk the same list rank by rank, and prints each rank's medians
from the round statistics: ``run`` inside the stage, ``wait`` posting its
frames and waiting for the peers' (less the S->T groups the rank ran
while it waited), then the rest of the round - the advance, the reset,
the ``fill`` (those S->T groups) and the ``span`` from GO handled to
DONE posted - and the parent's hop overhead, the round's wall time less
the largest span.  With ``--cold`` it first splits a
cold ``evaluate()`` of the same problem the same way: tree, DAG,
distribution, LCO allocation, the drain's compile (its tables and
time-zero tasks) and run, the compile of the plan the drain owes, then
every stage of it, and prints the drain's tasks, the
events its loop handled and the tasks it ran per host second.  With
``--drift`` it first splits drift submits - 50 points moved, as in the
ledger's ``serve-sim`` alt op - into the phases of the template store's
advance: the tree update, the registrar's rebind (the diff of the old
tree against the new one) and the rest (the exact charge-only check,
the shape lookup, node sizes and distribution only when a leaf count
moved); then the reset and every stage.  It prints how many positions
moved per tree and how much of the geometry cache the stages
recomputed against how much they reused, and splits the cache's patch
(inside the ``s2m`` and ``outputs`` stages) into the layout rebuild,
the block and page re-lays, the recompute and the scatter, with how
many blocks and pages a drift that moved a leaf count re-laid.  It is
a diagnostic, not a ledger metric: compare two commits only from
interleaved runs.

Run:  python examples/flush_stages.py [--repeats 15] [--seed 1] [--workers 2] [--cold] [--drift]
"""

import argparse
import gc
import time

import numpy as np

import repro.dashmm.geomcache as geomcache
import repro.dashmm.registrar as registrar
import repro.dashmm.service as service
from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.kernels import LaplaceKernel
from repro.kernels.fitops import OperatorFactory
from repro.tree.dualtree import build_dual_tree
from repro.tree.incremental import point_moves


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


def timing(fn, name: str, spent: dict):
    """``fn`` adding the seconds of each call to ``spent[name]`` and
    counting its calls in ``spent["calls", name]``."""

    def call(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
        spent["calls", name] = spent.get(("calls", name), 0) + 1
        return out

    return call


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


def print_medians(title: str, samples: dict, repeats: int, stat=np.median) -> None:
    """Median (or ``stat``) milliseconds per key over ``repeats``
    (per-level stages of one repeat summed first)."""
    per_repeat = {k: np.reshape(v, (repeats, -1)).sum(axis=1) for k, v in samples.items()}
    total = sum(stat(v) for v in per_repeat.values())
    print(f"{title}, {stat.__name__} of {repeats} repeats")
    for name, v in per_repeat.items():
        ms = 1e3 * stat(v)
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
            stages = phase("plan compile", reg.stages)
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


def counting(fn, rows, tally: dict, name: str):
    """``fn`` adding the rows (entries) it computes to ``tally[name]``."""

    def counted(*args):
        tally[name] = tally.get(name, 0) + rows(args[0])
        return fn(*args)

    return counted


def cached_rows(cache) -> dict:
    """Entries of the greens blocks and rows of the expansion matrices
    held in a geometry cache's pages."""
    greens = [] if cache.greens is None else cache.greens.blocks
    rows = [pages for pages in (cache.p2m, cache.rows) if pages is not None]
    return {
        "greens": sum(block.size for block in greens),
        "rows": sum(int(pages.heights.sum()) for pages in rows),
    }


def drift_split(points, charges, repeats: int, seed: int) -> None:
    """Median seconds of each phase of a drift submit - 50 points moved
    by N(0, 1e-3), as in the ledger's ``serve-sim`` alt op - and what the
    geometry cache recomputed of what it holds."""
    evaluator = canonical_evaluator(RuntimeConfig(n_localities=4, workers_per_locality=8))
    kernel, rng = evaluator.kernel, np.random.default_rng(seed + 2)
    lo, hi = points.min(axis=0), points.max(axis=0)
    samples: dict = {}
    moved_at: dict = {"source": [], "target": []}
    tally: dict = {}
    held = {"greens": 0, "rows": 0}
    patch_samples: dict = {}
    relaid: list = []
    patched = 0
    with EvaluatorSession(evaluator) as session:
        for _ in range(2):  # fit the operators, fill the geometry cache
            session.submit(points, charges)
        kernel.greens = counting(kernel.greens, np.size, tally, "greens")
        for name in ("p2m_matrix", "m2t_matrix", "l2t_matrix"):
            setattr(kernel, name, counting(getattr(kernel, name), len, tally, "rows"))
        # the store's advance split by timing its two phases inside it,
        # the patch (inside the s2m and outputs stages) by timing its own
        store, spent, patch = session._store, {}, {}
        wrapped = [
            (service, "update_dual_tree", "tree update", spent),
            (Registrar, "rebind", "rebind/diff", spent),
            (registrar, "compile_leaf_layout", "layout rebuild", patch),
            (geomcache.Pages, "relay_block", "block re-lay", patch),
            (geomcache.Pages, "relay_page", "page re-lay", patch),
            (geomcache, "paired_distances", "recompute", patch),
            (kernel, "greens", "recompute", patch),
            (geomcache, "expansion_rows", "recompute", patch),
            (geomcache.Pages, "put", "scatter", patch),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in wrapped]
        for owner, attr, name, into in wrapped:
            setattr(owner, attr, timing(getattr(owner, attr), name, into))
        try:
            while patched < repeats:
                pick = rng.choice(len(points), 50, replace=False)
                points = points.copy()
                points[pick] = np.clip(points[pick] + rng.normal(scale=1e-3, size=(50, 3)), lo, hi)
                before = store.current
                old = before.dual
                spent.clear()
                t_advance = timed(lambda: store.advance(points, charges, points))
                reg = store.current
                if reg is not before:
                    # a new shape builds a template, it patches nothing;
                    # its first reuse allocates its cache
                    counted = dict(tally)
                    reg.reset()
                    reg.flush_deferred()
                    session.submit(points, charges)
                    tally.clear()
                    tally.update(counted)
                    continue
                for side, n in moved_at.items():
                    moves = point_moves(getattr(old, side), getattr(reg.dual, side))
                    n.append(np.count_nonzero(moves.moved))
                for name in ("tree update", "rebind/diff"):
                    samples.setdefault(name, []).append(spent[name])
                samples.setdefault("refresh/assign", []).append(
                    t_advance - spent["tree update"] - spent["rebind/diff"]
                )
                samples.setdefault("reset", []).append(timed(reg.reset))
                patch.clear()
                for name, stage in reg.stages():
                    samples.setdefault(stage_key(name), []).append(timed(stage))
                for name in ("layout rebuild", "block re-lay", "page re-lay", "recompute", "scatter"):
                    patch_samples.setdefault(name, []).append(patch.get(name, 0.0))
                relaid.append((patch.get(("calls", "block re-lay"), 0), patch.get(("calls", "page re-lay"), 0)))
                for k, v in cached_rows(reg.geom_cache).items():
                    held[k] += v
                pages = sum(
                    len(p.pages)
                    for p in (reg.geom_cache.p2m, reg.geom_cache.greens, reg.geom_cache.rows)
                    if p is not None
                )
                patched += 1
        finally:
            for owner, attr, fn in originals:
                if owner is kernel:
                    delattr(kernel, attr)
                else:
                    setattr(owner, attr, fn)
        out = np.empty(len(points))
        out[reg.dual.target.perm] = reg.result
        for name in ("p2m_matrix", "m2t_matrix", "l2t_matrix"):
            delattr(kernel, name)
        with EvaluatorSession(evaluator, domain=session.domain) as cold:
            cold_out = cold.submit(points, charges)
        assert np.array_equal(out, cold_out), "patched drift differs from a cold submit"
    print_medians(f"drift submit, 50 of {len(points)} points moved", samples, repeats)
    for side, n in moved_at.items():
        print(f"  moved positions, {side} tree: median {np.median(n):.0f} of {len(points)}")
    for k in ("greens", "rows"):
        what = "greens entries" if k == "greens" else "expansion rows"
        done = tally.get(k, 0)
        done, reused = done / repeats, (held[k] - done) / repeats
        print(f"  {what:<15s} recomputed {done:9.0f}  reused {reused:9.0f} per submit")
    # a page is re-laid only on a drift that moves a leaf count: the mean
    # shows what that costs on average
    print_medians("of which the geometry-cache patch (in s2m, outputs)", patch_samples, repeats, np.mean)
    blocks, pages_relaid = np.array(relaid).T
    some = blocks + pages_relaid > 0
    print(
        f"  re-laid per submit that moved a leaf count ({np.count_nonzero(some)} of {repeats}):"
        f" {np.mean(blocks[some]) if some.any() else 0:.1f} blocks in their room,"
        f" {np.mean(pages_relaid[some]) if some.any() else 0:.1f} of {pages} pages"
    )
    print()


#: what a rank's DONE reports of its round besides the stages, in seconds
ROUND_KEYS = ("advance", "reset", "fill", "span")


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
        rest = {key: 1e3 * np.median([w[key + "_s"] for w in stats]) for key in ROUND_KEYS}
        print("    " + "  ".join(f"{key} {ms:.2f}" for key, ms in rest.items()) + " ms")
    hop = 1e3 * np.median([r["wall_time"] - max(w["span_s"] for w in r["workers"]) for r in rounds])
    print(f"  parent hop overhead (wall - largest span): {hop:.2f} ms")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", type=int, default=0, help="also split a round of this many worker processes")
    ap.add_argument("--cold", action="store_true", help="first split a cold evaluate() of the problem")
    ap.add_argument("--drift", action="store_true", help="first split drift submits of the problem")
    args = ap.parse_args()

    points, charges = slab_problem(args.seed)
    if args.cold:
        cold_split(points, charges, args.repeats)
    if args.drift:
        drift_split(points, charges, args.repeats, args.seed)
    evaluator = canonical_evaluator(RuntimeConfig(n_localities=4, workers_per_locality=8))
    samples: dict = {}
    with EvaluatorSession(evaluator) as session:
        for _ in range(2):  # fit the operators, fill the geometry cache
            expected = session.submit(points, charges)
        reg = session._store.current
        for _ in range(args.repeats):
            samples.setdefault("reset", []).append(timed(reg.reset))
            for name, stage in reg.stages():
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
