"""DASHMM's public evaluator: the runtime-independent user interface.

Mirrors the framework's design objectives (Section I): the concrete
method and interaction kernel are parameters, and no knowledge of the
underlying runtime is required.  One call chain:

    ev = DashmmEvaluator(LaplaceKernel(p=10), method="fmm")
    report = ev.evaluate(sources, weights, targets)
    report.potentials      # numeric results (numeric mode)
    report.gradients       # (n, 3) field gradients, with gradients=True
    report.time            # virtual evaluation time on the simulated cluster
    report.runtime_stats   # tasks, steals, parcels, remote bytes
    report.tracer          # per-operation event trace (Figs. 4/5)

``mode="phantom"`` runs the same DAG through the same runtime with the
cost model only (no numerics), enabling paper-scale scaling studies.
The drain is the same in both modes - it never carries a value - so
``mode`` decides only whether the compiled plan computes the numbers
after it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.dashmm.dag import DAG
from repro.dashmm.distribution import DistributionPolicy, FmmPolicy
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.hpx.tracing import Tracer
from repro.kernels.base import Kernel
from repro.kernels.fitops import OperatorFactory
from repro.methods.barneshut import mac_pairs
from repro.sim.costmodel import CostModel, SizeModel
from repro.tree.dualtree import DualTree, build_dual_tree
from repro.tree.lists import InteractionLists, build_lists

METHODS = ("fmm", "fmm-basic", "bh")


def check_gradients(evaluator) -> None:
    """Refuse a gradient request that no compiled plan of ``evaluator``
    would serve: gradients are numeric, and computed on the simulator
    backend only (a parallel round returns potentials)."""
    if evaluator.mode != "numeric":
        raise ValueError("gradients need mode='numeric': a phantom run computes no numbers")
    if evaluator.runtime_config.backend == "parallel":
        raise ValueError(
            "gradients are computed on backend='sim' only: the parallel "
            "backend's rounds return potentials"
        )


class _CollectorPaused:
    """Hold CPython's cyclic collector off for one simulated evaluation.

    An evaluation keeps some 2 * 10^4 tracked objects alive (LCOs,
    tasks and the drain's tables; the tree and the DAG are array
    columns) that the generational collector would otherwise re-walk
    several times per run without ever finding garbage:
    ownership points one way (report -> registrar -> runtime -> scheduler
    -> LCOs, see DESIGN.md "Object lifetime"), so a dropped evaluation is
    freed by reference counting alone.  Restores the caller's setting;
    ``__exit__`` allocates nothing, so the young-generation pass the
    pause defers runs at the caller's next allocation, not in here.
    """

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb):
        if self.enabled:
            gc.enable()


@dataclass
class EvaluationReport:
    """Everything one evaluation produced."""

    potentials: np.ndarray | None
    time: float
    runtime_stats: dict[str, Any]
    tracer: Tracer
    dag: DAG
    dual: DualTree
    lists: InteractionLists | None = None
    #: (n, 3) field gradients at the targets, asked for with
    #: ``gradients=True``; None otherwise
    gradients: np.ndarray | None = None
    extras: dict[str, Any] = field(default_factory=dict)


class DashmmEvaluator:
    """Generic HMM evaluation on the asynchronous many-tasking runtime.

    Parameters
    ----------
    kernel:
        Interaction kernel (Laplace, Yukawa, or user-defined).
    method:
        ``"fmm"`` (advanced, merge-and-shift), ``"fmm-basic"`` (eight
        operators, direct M->L), or ``"bh"`` (Barnes-Hut).
    threshold:
        Tree refinement threshold (paper: 60).
    policy:
        Distribution policy for DAG nodes (default: the paper's).
    runtime_config:
        Simulated-cluster configuration (localities, cores, network,
        priorities ...).
    mode:
        ``"numeric"`` computes real potentials; ``"phantom"`` simulates
        cost/communication only.
    theta:
        Barnes-Hut opening angle, in (0, 1) (ignored for FMM).
    """

    def __init__(
        self,
        kernel: Kernel,
        method: str = "fmm",
        threshold: int = 60,
        policy: DistributionPolicy | None = None,
        runtime_config: RuntimeConfig | None = None,
        mode: str = "numeric",
        cost_model: CostModel | None = None,
        size_model: SizeModel | None = None,
        coalesce: bool = True,
        sequential_edges: bool = True,
        theta: float = 0.5,
        eps: float = 1e-4,
        factory: OperatorFactory | None = None,
    ):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta!r}")
        self.kernel = kernel
        self.method = method
        self.threshold = threshold
        self.policy = policy or FmmPolicy()
        self.runtime_config = runtime_config or RuntimeConfig()
        self.mode = mode
        self.cost_model = cost_model or CostModel.for_kernel(kernel.name)
        self.size_model = size_model or SizeModel()
        self.coalesce = coalesce
        self.sequential_edges = sequential_edges
        self.theta = theta
        self.eps = eps
        # the shared factory fits each translation operator at most once
        # per process, no matter how many evaluators are constructed
        self.factory = factory or (
            OperatorFactory.shared(kernel, eps=eps) if mode == "numeric" else None
        )

    # -- DAG construction -------------------------------------------------------
    @property
    def schema(self):
        """The method's declared DAG schema (:class:`repro.dag.MethodSchema`)."""
        from repro.dag import method_schema

        return method_schema(self.method)

    def build_dag(
        self,
        dual: DualTree,
        lists: InteractionLists | None = None,
    ) -> tuple[DAG, InteractionLists | None]:
        from repro.dag import DagBuilder

        builder = DagBuilder(self.schema)
        if self.method == "bh":
            return builder.build(dual, mac_pairs=mac_pairs(dual, self.theta)), None
        if lists is None:
            lists = build_lists(dual)
        return builder.build(dual, lists=lists), lists

    def _resolved_config(self) -> RuntimeConfig:
        """The runtime config with method-aware policy resolution.

        The ``"critical-path"`` policy string is resolved here rather
        than in the scheduler so the near/far operator split matches the
        method actually being evaluated (FMM vs Barnes-Hut); the hpx
        layer never imports method modules.
        """
        cfg = self.runtime_config
        if cfg.policy == "critical-path":
            from repro.hpx.scheduler import CriticalPathPolicy

            if self.method == "bh":
                from repro.methods.barneshut import FAR_FIELD_OPS, NEAR_FIELD_OPS
            else:
                from repro.methods.fmm import FAR_FIELD_OPS, NEAR_FIELD_OPS
            return replace(
                cfg,
                policy=CriticalPathPolicy(
                    near_ops=NEAR_FIELD_OPS, far_ops=FAR_FIELD_OPS
                ),
            )
        return cfg

    # -- evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        sources: np.ndarray,
        weights: np.ndarray,
        targets: np.ndarray,
        dual: DualTree | None = None,
        lists: InteractionLists | None = None,
        dag: DAG | None = None,
        gradients: bool = False,
    ) -> EvaluationReport:
        """Evaluate potentials at ``targets`` due to weighted ``sources``.

        Prebuilt trees/lists/DAGs may be passed to amortize setup over
        repeated evaluations (the iterative use case of Section IV).
        With ``gradients=True`` the outputs stage also sums the field
        gradient at every target into ``report.gradients``, shape (N, 3)
        - the negated force per unit weight; the potentials are the same
        bits either way.
        """
        if gradients:
            check_gradients(self)
        if self.runtime_config.backend == "parallel":
            # real-core execution: every worker process rebuilds the
            # setup deterministically from the raw arrays, so prebuilt
            # structures cannot be consumed there and are rejected
            from repro.dashmm.parallel import evaluate_parallel

            return evaluate_parallel(
                self, sources, weights, targets, dual=dual, lists=lists, dag=dag
            )
        with _CollectorPaused():
            return self._evaluate_sim(sources, weights, targets, dual, lists, dag, gradients)

    def _evaluate_sim(
        self, sources, weights, targets, dual, lists, dag, gradients
    ) -> EvaluationReport:
        if dual is None:
            dual = build_dual_tree(
                sources, targets, self.threshold, source_weights=weights
            )
        elif self.mode == "numeric" and dual.source.weights is None:
            raise ValueError("prebuilt dual tree must carry source weights")
        if dag is None:
            dag, lists = self.build_dag(dual, lists)
        self.policy.assign(dag, dual, self.runtime_config.n_localities)

        runtime = Runtime(self._resolved_config())
        replay_trace = runtime.schedule_trace
        if self.runtime_config.replay_schedule is not None and replay_trace is not None:
            # the IR anchors replays: a trace recorded against a different
            # graph is a structured divergence, not a silent hang
            want = replay_trace.meta.get("graph_fingerprint")
            if want is not None:
                from repro.dag import dag_fingerprint
                from repro.hpx.scheduler import ReplayDivergence

                have = dag_fingerprint(dag)
                if have != want:
                    raise ReplayDivergence(
                        "replayed trace was recorded against a different DAG "
                        f"(trace graph {want[:16]}..., built graph {have[:16]}...)"
                    )
        reg = Registrar(
            runtime,
            dag,
            dual,
            self.kernel,
            self.factory,
            mode=self.mode,
            cost_model=self.cost_model,
            size_model=self.size_model,
            coalesce=self.coalesce,
            sequential_edges=self.sequential_edges,
        )
        if gradients:
            reg.gradient = np.zeros((dual.target.n_points, 3))
        reg.allocate()
        reg.initial_tasks()
        return self._drive(runtime, reg, lists)

    def _drive(self, runtime, reg, lists, **extras) -> EvaluationReport:
        """Run ``runtime`` to completion, flush and report: the shared
        tail of :meth:`evaluate` and :meth:`resume`.  The drain only
        schedules; in numeric mode the plan it owes computes the
        expansions and potentials afterwards."""
        t = runtime.run()
        dag, dual = reg.dag, reg.dual
        reg.flush_deferred()
        potentials = grads = None
        if self.mode == "numeric":
            potentials = np.empty(dual.target.n_points)
            potentials[dual.target.perm] = reg.result
        if reg.gradient is not None:
            grads = np.empty_like(reg.gradient)
            grads[dual.target.perm] = reg.gradient
        extras.update(
            untriggered=sum(1 for l in reg.lcos.values() if not l.triggered),
            # the live runtime and registrar, so a checkpointed
            # evaluation can be rewound and resumed (see resume())
            runtime=runtime,
            registrar=reg,
        )
        if runtime.checkpoints:
            extras["checkpoints"] = runtime.checkpoints
        if runtime.hazard_detector is not None:
            extras["hazards"] = runtime.hazards
        trace = runtime.schedule_trace
        if trace is not None:
            from repro.dag import dag_fingerprint

            trace.meta.setdefault("method", self.method)
            trace.meta.setdefault("graph_fingerprint", dag_fingerprint(dag))
            extras["schedule_trace"] = trace
        return EvaluationReport(
            potentials=potentials,
            time=t,
            runtime_stats=runtime.stats(),
            tracer=runtime.tracer,
            dag=dag,
            dual=dual,
            lists=lists,
            gradients=grads,
            extras=extras,
        )

    def resume(self, report: EvaluationReport, checkpoint) -> EvaluationReport:
        """Rewind a checkpointed evaluation and drive it to completion.

        ``report`` must come from :meth:`evaluate` on the sim backend
        with ``RuntimeConfig(checkpoint_every=...)`` set (or with an
        abort checkpoint in hand); ``checkpoint`` is one of
        ``report.extras["checkpoints"]`` or the ``exc.checkpoint`` a
        structured abort attached.  The resumed evaluation is
        bit-identical - potentials and virtual clock - to one that was
        never interrupted, which is the fail-safe restart story: a run
        killed at any checkpoint loses only the work since the last
        capture, never its correctness.
        """
        runtime = report.extras["runtime"]
        with _CollectorPaused():
            runtime.restore(checkpoint)
            return self._drive(
                runtime, report.extras["registrar"], report.lists, resumed_from=checkpoint.time
            )
