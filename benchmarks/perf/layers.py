"""The traced run: per-layer metrics of one workload.

A layer is a module of ``src/repro``; its metrics are named
``<module>.<what>``.  Times come from spans recorded here, around calls
into each layer's public functions:

* ``cold-sim`` and ``phantom-sphere`` replay ``evaluate()`` as the staged
  sequence of the same public calls it makes (:func:`staged_evaluate`)
  and check that potentials and virtual clock equal ``evaluate()``'s bit
  for bit;
* ``serve-*`` wrap ``submit`` and, on the simulator, the registrar's
  public ``reset`` / ``rebind`` / ``flush_deferred`` while it runs, and
  replay ``build_dual_tree`` / ``update_dual_tree`` /
  ``dual_shape_fingerprint`` standalone on the drift inputs.

Each function returns ``(metrics, ops attempted, failures)`` with the
metrics that are defined on its workload; ``run.py`` reports the others as 0 and lists
them as not applicable.
"""

from __future__ import annotations

import gc
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from benchmarks.perf.clock import cpu_seconds, drift_ratio, timed
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.workloads import (
    BLOCK,
    THRESHOLD,
    EvaluateWorkload,
    ServeWorkload,
    leaked_segments,
    rel_err_l2,
)
from repro.analysis.critical_path import dag_critical_path
from repro.analysis.utilization import total_utilization
from repro.dashmm import EvaluatorSession
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime
from repro.tree.dualtree import build_dual_tree
from repro.tree.fingerprint import dual_shape_fingerprint
from repro.tree.incremental import update_dual_tree
from repro.tree.lists import build_lists

#: edge operators of the advanced FMM (lists 1-4): the classes of the
#: DAG edge counts and of the simulator's busy intervals
EDGE_OPS = ("S2M", "M2M", "M2I", "I2I", "I2L", "L2L", "L2T", "S2T", "S2L", "M2T")
UPDATE_KINDS = ("unchanged", "spliced", "recarved", "rebuilt")
KERNEL_POINTS = 2048


def kernel_rates(kernel, rec: SpanRecorder) -> dict[str, float]:
    """Throughput of the particle-side kernels on fixed-size inputs."""
    rng = np.random.default_rng(0)
    a, b = rng.random((KERNEL_POINTS, 3)), rng.random((KERNEL_POINTS, 3))
    q = rng.random(KERNEL_POINTS)
    rel = rng.random((KERNEL_POINTS, 3)) - 0.5
    rows = rng.random((KERNEL_POINTS, kernel.size))
    for _ in range(5):
        with rec.span("kernels.direct"):
            kernel.direct(a, b, q)
        with rec.span("kernels.l2t"):
            kernel.l2t_rows(rows, rel, 1.0)
        with rec.span("kernels.p2m"):
            kernel.p2m_matrix(rel, 1.0)
    return {
        "kernels.direct_pairs_per_s": KERNEL_POINTS**2 / median(rec.durations("kernels.direct")),
        "kernels.l2t_points_per_s": KERNEL_POINTS / median(rec.durations("kernels.l2t")),
        "kernels.p2m_points_per_s": KERNEL_POINTS / median(rec.durations("kernels.p2m")),
    }


def tree_shape(dual) -> dict[str, float]:
    return {
        "tree.boxes": len(dual.source.boxes) + len(dual.target.boxes),
        "tree.depth": max(dual.source.depth, dual.target.depth),
    }


def factory_metrics(factory, fit_s: float, misses_after_first: int) -> dict[str, float]:
    stats = factory.cache_stats()
    return {
        "kernels.fit_s": fit_s,
        "kernels.fit_misses": misses_after_first,
        "kernels.cache_hit_ratio": stats["hits"] / (stats["hits"] + stats["misses"]),
    }


def staged_evaluate(ev, src, w, tgt, rec: SpanRecorder) -> dict:
    """``DashmmEvaluator.evaluate()`` on the simulator, one span per public call."""
    cfg = ev.runtime_config
    with rec.span("evaluate.staged"):
        with rec.span("tree.build"):
            dual = build_dual_tree(src, tgt, ev.threshold, source_weights=w)
        with rec.span("tree.lists"):
            lists = build_lists(dual)
        with rec.span("dag.build"):
            dag, lists = ev.build_dag(dual, lists)
        with rec.span("dashmm.distribution.assign"):
            ev.policy.assign(dag, dual, cfg.n_localities)
        with rec.span("hpx.runtime.create"):
            runtime = Runtime(cfg)
        with rec.span("dashmm.registrar.allocate"):
            reg = Registrar(
                runtime,
                dag,
                dual,
                ev.kernel,
                ev.factory,
                mode=ev.mode,
                cost_model=ev.cost_model,
                size_model=ev.size_model,
            )
            reg.allocate()
        with rec.span("dashmm.registrar.initial_tasks"):
            reg.initial_tasks()
        with rec.span("hpx.runtime.run"):
            clock = runtime.run()
        potentials = None
        if ev.mode == "numeric":
            with rec.span("dashmm.registrar.flush"):
                reg.flush_deferred()
            with rec.span("unsort"):
                potentials = np.empty(dual.target.n_points)
                potentials[dual.target.perm] = reg.result
    return {
        "potentials": potentials,
        "clock": clock,
        "dual": dual,
        "lists": lists,
        "dag": dag,
        "registrar": reg,
        "runtime": runtime,
    }


def trace_evaluate(wl: EvaluateWorkload, seconds: float, rec: SpanRecorder):
    """Per-layer metrics of ``cold-sim`` / ``phantom-sphere``."""
    staging_ends = perf_counter() + 0.7 * seconds
    failures: list[str] = []
    with rec.span("workloads.generate"):
        wl.generate()
    first_op_s, _ = timed(wl.start)
    ev = wl.ev
    misses = ev.factory.cache_stats()["misses"] if wl.numeric else 0

    # untraced and staged ops alternate, so a slow minute of the host
    # falls on both sides of the ratios between them
    wall0, cpu0 = perf_counter(), cpu_seconds()
    untraced: list[float] = []
    staged = None
    while staged is None or perf_counter() < staging_ends:
        untraced.append(timed(wl.prepare("op"))[0])
        reference = wl.reports["op"]
        gc.collect()
        staged = staged_evaluate(ev, wl.src, wl.w, wl.tgt, rec)
        same_clock = staged["clock"] == reference.time
        same_values = not wl.numeric or np.array_equal(staged["potentials"], reference.potentials)
        if not (same_clock and same_values):
            failures.append(f"{wl.name}: staged op differs from evaluate()")
            break
    cpu_over_wall = (cpu_seconds() - cpu0) / (perf_counter() - wall0)
    steady_s = median(untraced)
    stage_s = {name: median(ts) for name, ts in rec.children("evaluate.staged").items()}

    dual, dag = staged["dual"], staged["dag"]
    stats = staged["runtime"].stats()
    edge_counts = {op: entry["count"] for op, entry in dag.edge_stats().items()}
    remote_edges = sum(
        dag.nodes[e.src].locality != dag.nodes[e.dst].locality
        for edges in dag.out_edges
        for e in edges
    )
    m = {
        "workloads.generate_s": rec.durations("workloads.generate")[0],
        **tree_shape(dual),
        "tree.build_s": stage_s["tree.build"],
        "tree.lists_s": stage_s["tree.lists"],
        "tree.list_pairs": sum(staged["lists"].counts().values()),
        "dag.build_s": stage_s["dag.build"],
        "dag.nodes": len(dag.nodes),
        "dag.edges": dag.n_edges,
        **{f"dag.edges.{op}": edge_counts.get(op, 0) for op in EDGE_OPS},
        "dashmm.distribution.assign_s": stage_s["dashmm.distribution.assign"],
        "dashmm.distribution.remote_edge_frac": remote_edges / dag.n_edges,
        "dashmm.registrar.allocate_s": stage_s["dashmm.registrar.allocate"],
        "dashmm.registrar.initial_tasks_s": stage_s["dashmm.registrar.initial_tasks"],
        "dashmm.registrar.lcos": len(staged["registrar"].lcos),
        "hpx.runtime.run_s": stage_s["hpx.runtime.run"],
        "hpx.runtime.virtual_makespan_s": staged["clock"],
        "hpx.scheduler.tasks_run": stats["tasks_run"],
        "hpx.scheduler.steals": stats["steals"],
        "hpx.scheduler.tasks_per_host_s": stats["tasks_run"] / stage_s["hpx.runtime.run"],
        "hpx.network.parcels_sent": stats["parcels_sent"],
        "hpx.network.remote_bytes": stats["remote_bytes"],
        "driver.cpu_over_wall": cpu_over_wall,
        "driver.drift_ratio": drift_ratio(untraced),
        "trace.unattributed_frac": 1.0 - sum(stage_s.values()) / steady_s,
        "trace.overhead_frac": median(rec.durations("evaluate.staged")) / steady_s - 1.0,
    }
    if wl.numeric:
        m["dashmm.registrar.flush_s"] = stage_s["dashmm.registrar.flush"]
        m["kernels.rel_err_l2"] = rel_err_l2(ev.kernel, wl.src, wl.w, reference.potentials)
        m.update(factory_metrics(ev.factory, max(first_op_s - steady_s, 0.0), misses))

    # one op with the simulator's own tracer on: virtual busy time per
    # operator class, utilization, and what that tracer costs the host
    traced_ev = wl.evaluator(wl.machine, tracing=True)
    traced_runs = [timed(lambda: traced_ev.evaluate(wl.src, wl.w, wl.tgt)) for _ in range(3)]
    traced_s, report = median(dt for dt, _ in traced_runs), traced_runs[-1][1]
    busy = dict.fromkeys(EDGE_OPS + ("runtime",), 0.0)
    for event in report.tracer.events():
        busy[event.op_class if event.op_class in EDGE_OPS else "runtime"] += (
            event.t_end - event.t_start
        )
    m.update({f"hpx.tracer.busy_virtual_s.{cls}": t for cls, t in busy.items()})
    cores = ev.runtime_config.total_cores
    m["hpx.tracer.overhead_frac"] = traced_s / steady_s - 1.0
    m["analysis.utilization.mean"] = float(
        total_utilization(report.tracer, cores, report.time).mean()
    )
    m["analysis.critical_path_s"] = dag_critical_path(dag, ev.cost_model)["seconds"]
    baseline = wl.evaluator(wl.baseline)
    m["analysis.sim_efficiency"] = (
        baseline.runtime_config.total_cores * baseline.evaluate(wl.src, wl.w, wl.tgt).time
    ) / (cores * reference.time)
    m.update(kernel_rates(ev.kernel, rec))
    attempted = 1 + 2 * len(untraced) + len(traced_runs) + 1
    return m, attempted, failures


def run_block(wl: ServeWorkload, rec: SpanRecorder | None, log: list) -> None:
    """One block of submits, as spans when ``rec`` is given.

    Appends ``(traced, kind, seconds)`` per submit to ``log``.
    """
    for kind in BLOCK:
        call = wl.prepare(kind)
        if rec is None:
            dt, _ = timed(call)
        else:
            gc.collect()
            with rec.span("submit.warm" if kind == "op" else "submit.drift") as span:
                call()
            dt = span.duration
        log.append((rec is not None, kind, dt))


def trace_serve(wl: ServeWorkload, seconds: float, rec: SpanRecorder):
    """Per-layer metrics of ``serve-sim`` / ``serve-par2``."""
    with rec.span("workloads.generate"):
        wl.generate()
    first_points, first_w = wl.points, wl.w
    cold_s, _ = timed(wl.start)
    ev, session = wl.ev, wl.session
    parallel = session.backend == "parallel"
    misses = ev.factory.cache_stats()["misses"]

    # untraced and traced blocks alternate, so a slow minute of the host
    # falls on both sides of the ratios between them
    log: list = []
    moves = []
    wall0, cpu0 = perf_counter(), cpu_seconds()
    deadline = wall0 + 2 * seconds / 3
    while not moves or perf_counter() < deadline:
        run_block(wl, None, log)
        before = wl.points
        with (
            rec.wrapping(Registrar, "reset", "dashmm.registrar.reset"),
            rec.wrapping(Registrar, "rebind", "dashmm.registrar.rebind"),
            rec.wrapping(Registrar, "flush_deferred", "dashmm.registrar.flush"),
        ):
            run_block(wl, rec, log)
        moves.append((before, wl.points, wl.w))
    cpu_over_wall = (cpu_seconds() - cpu0) / (perf_counter() - wall0)
    warm = [dt for traced, kind, dt in log if kind == "op" and not traced]
    warm_s = median(warm)
    drift_s = median(dt for traced, kind, dt in log if kind == "alt" and not traced)
    traced_warm_s = median(dt for traced, kind, dt in log if kind == "op" and traced)

    # the tree layer on its own, replayed on the drift inputs
    for before, after, w in moves[-5:]:
        with rec.span("tree.build"):
            dual = build_dual_tree(
                before, before, THRESHOLD, source_weights=w, domain=session.domain
            )
        with rec.span("tree.update"):
            dual, _ = update_dual_tree(dual, after, after, source_weights=w)
        with rec.span("tree.fingerprint"):
            dual_shape_fingerprint(dual)

    # the first entry is the cold build, not an update
    updates = session.stats["tree_updates"][1:]
    update_kinds = [kind for info in updates for kind in info.values()]
    hits, missed = session.stats["template_hits"], session.stats["template_misses"]
    m = {
        "workloads.generate_s": rec.durations("workloads.generate")[0],
        **tree_shape(dual),
        "tree.build_s": median(rec.durations("tree.build")),
        "tree.update_s": median(rec.durations("tree.update")),
        "tree.fingerprint_s": median(rec.durations("tree.fingerprint")),
        **{f"tree.update_kinds.{k}": update_kinds.count(k) for k in UPDATE_KINDS},
        "dashmm.service.cold_submit_s": cold_s,
        "dashmm.service.warm_s_p50": warm_s,
        "dashmm.service.drift_s_p50": drift_s,
        "dashmm.service.warm_over_cold": warm_s / cold_s,
        "dashmm.service.drift_over_warm": drift_s / warm_s,
        "dashmm.service.template_hits": hits,
        "dashmm.service.template_misses": missed,
        "dashmm.service.template_hit_ratio": hits / (hits + missed),
        "kernels.rel_err_l2": rel_err_l2(ev.kernel, *wl.last["op"]),
        "driver.cpu_over_wall": cpu_over_wall,
        "driver.drift_ratio": drift_ratio(warm),
        "trace.overhead_frac": traced_warm_s / warm_s - 1.0,
    }
    if parallel:
        m.update(parallel_metrics(session, log, cold_s))
    else:
        in_warm = rec.children("submit.warm")
        in_drift = rec.children("submit.drift")
        m["dashmm.registrar.flush_s"] = median(in_warm["dashmm.registrar.flush"])
        m["dashmm.registrar.reset_s"] = median(in_warm["dashmm.registrar.reset"])
        m["dashmm.registrar.rebind_s"] = median(in_drift["dashmm.registrar.rebind"])
        m["trace.unattributed_frac"] = 1.0 - sum(
            sum(ts) for ts in in_warm.values()
        ) / sum(rec.durations("submit.warm"))
        # what the fits cost: the cold submit against one whose factory is warm
        with EvaluatorSession(ev, domain=session.domain) as refit:
            fitted_cold_s, _ = timed(lambda: refit.submit(first_points, first_w))
        m.update(factory_metrics(ev.factory, max(cold_s - fitted_cold_s, 0.0), misses))
    m.update(kernel_rates(ev.kernel, rec))
    wl.teardown()
    if parallel:
        m["hpx.gas.leaked_segments"] = len(leaked_segments())
    return m, session.stats["submits"], []


def parallel_metrics(session, log: list, cold_s: float) -> dict:
    """Counters of the real-parallel backend over the submits in ``log``.

    The service is the session's private handle; its ``round_stats`` -
    one entry per submit, the cold one first, with cumulative per-rank
    transport counters - are the only view the parent has of what the
    workers did.
    """
    service = session._parallel
    rounds = service.round_stats[1:]
    warm = [
        (dt, r["wall_time"]) for (_, kind, dt), r in zip(log, rounds) if kind == "op"
    ]
    round_wall_s = median(inner for _, inner in warm)
    tasks = [rank["tasks_run"] for rank in rounds[-1]["workers"]]

    def per_round(key: str) -> int:
        last, previous = (sum(rank[key] for rank in r["workers"]) for r in rounds[-1:-3:-1])
        return last - previous

    return {
        "dashmm.parallel.start_s": cold_s,
        "dashmm.parallel.round_wall_s": round_wall_s,
        "dashmm.parallel.parent_overhead_s": median(submit - inner for submit, inner in warm),
        "dashmm.parallel.rank_imbalance": max(tasks) / (sum(tasks) / len(tasks)),
        "dashmm.parallel.respawns": service.respawns,
        "hpx.transport.frames_sent": per_round("frames_sent"),
        "hpx.transport.acks_sent": per_round("acks_sent"),
        "hpx.transport.dups_suppressed": sum(
            rank["dups_suppressed"] for rank in rounds[-1]["workers"]
        ),
        "hpx.gas.shm_bytes": sum(
            (Path("/dev/shm") / name).stat().st_size for name in leaked_segments()
        ),
        "trace.unattributed_frac": 1.0 - round_wall_s / median(submit for submit, _ in warm),
    }
