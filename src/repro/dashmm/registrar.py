"""The implicit DAG: expansion LCOs, out-edge processing, coalescing.

This module realizes Section IV and Fig. 2 of the paper.  Every DAG
node with inputs becomes a user-defined *expansion LCO* storing both
the expansion data and the out-edge list.  During execution the LCO
continuously reduces arriving inputs into the stored expansion; when
the last input arrives it triggers and its single registered
continuation processes the out-edge list:

* *local* edges (target on the same locality) are transformed
  sequentially and set into their target LCOs, which may trigger
  further asynchronous evaluation;
* *remote* edges are coalesced: one active-message parcel per
  destination locality carries the expansion data and the relevant
  edges, which are then evaluated at the destination as normal
  (``coalesce=False`` sends one parcel per edge instead - the ablation
  of the paper's design choice).

Source (S) nodes have no inputs; an initial task per source leaf
processes their out-edges (S->M, S->T, S->L) at time zero, as does one
per expansion node no edge reaches.  Execution modes:

* ``numeric`` - edge transforms really compute (fitted operators,
  kernel evaluations); the result is numerically identical to the
  synchronous FMM up to summation order.
* ``phantom`` - transforms are skipped, only costs/messages are
  simulated; used for paper-scale scaling studies.

What the numeric stages stack, in which order, and what crosses ranks
is compiled by :mod:`repro.dashmm.flushplan`; this module executes it:
:meth:`Registrar.flush_stages` after a drain (``evaluate()``),
:meth:`Registrar.eager_stages` plus the same stages in place of one
(sessions, parallel workers).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from functools import partial

import numpy as np

from repro.dashmm.dag import DAG, DagNode
from repro.dashmm.flushplan import (
    FULL_DIRS,
    PLANNED_OPS,
    BridgeLevel,
    EagerPlan,
    FlushPlan,
    compile_eager_plan,
    compile_flush_plan,
)
from repro.hpx.lco import LCO
from repro.hpx.parcel import Parcel
from repro.hpx.runtime import Runtime
from repro.hpx.scheduler import HIGH, LOW, Task
from repro.kernels.base import Kernel, pair_distances
from repro.kernels.expo import i2i_tables
from repro.kernels.fitops import OperatorFactory
from repro.sim.costmodel import CostModel, SizeModel

#: With the binary priority extension on (Section VI), the expansion
#: pipeline - everything that unlocks downstream dataflow - outranks the
#: abundant leaf-output work (S->T, M->T, L->T), which any idle core can
#: do at any time.  The paper frames this as "early execution of the
#: most critical work up the source tree ... overlapped with other less
#: critical work"; simulation shows the whole critical chain (upward
#: plus bridge plus L->L) must be promoted for the starved region to
#: disappear.
CRITICAL_OPS = ("S2M", "M2M", "M2I", "I2I", "I2L", "M2L", "L2L", "S2L")
FILLER_OPS = ("S2T", "M2T", "L2T")


def _weak_method(method):
    """``method`` as a plain callable that holds its object weakly."""
    ref, fn = weakref.ref(method.__self__), method.__func__
    return lambda *args: fn(ref(), *args)


class ExpansionLCO(LCO):
    """User-defined LCO: expansion data + DAG out-edge list (Fig. 2).

    Contributions are buffered as they arrive and folded *at trigger
    time in canonical dedup-key order* (the key is the edge's position
    in the DAG, see :meth:`Registrar._edge_key`).  Arrival order over a
    network is timing- and fault-dependent; folding in key order makes
    the floating-point reduction - and therefore the evaluation result
    - bit-identical across schedules, which is what lets a faulty run
    under the reliable transport reproduce the fault-free potentials
    exactly.  Contributions without a key fold in arrival order, after
    all keyed ones.  A ``None`` contribution only counts down: phantom
    runs carry no values, and in batched numeric mode the value of every
    edge class in :data:`~repro.dashmm.flushplan.PLANNED_OPS` is
    computed after the drain by the flush plan.
    """

    def __init__(self, runtime, locality: int, node: DagNode, n_inputs: int):
        super().__init__(runtime, locality)
        self.node = node
        self.remaining = n_inputs
        self.data = None
        self._inbox: list = []
        self._unkeyed = 0

    @property
    def hazard_subject(self) -> str:
        """IR-derived identity for hazard reports: the DAG node, not an
        opaque GAS address, so a report names the offending graph
        element directly."""
        n = self.node
        return f"{n.kind}[{n.tree} box {n.box_index} L{n.level}]@{self.addr!r}"

    def _fold(self, value, key) -> None:
        self.remaining -= 1
        if value is None:
            return
        if key is None:
            # sort unkeyed contributions after all DAG edges (node ids
            # are >= 0), in arrival order
            key = (1 << 60, self._unkeyed)
            self._unkeyed += 1
        self._inbox.append((key, value))

    def _finalize(self) -> None:
        inbox = self._inbox
        inbox.sort(key=lambda kv: kv[0])
        reduce = self._reduce
        for _, value in inbox:
            reduce(value)
        self._inbox = []

    def _reduce(self, value) -> None:
        if self.node.kind == "It":
            # per-direction plane-wave accumulators (per-edge path)
            direction, amps = value
            if self.data is None:
                self.data = {}
            if direction in self.data:
                self.data[direction] = self.data[direction] + amps
            else:
                self.data[direction] = amps
        else:
            self.data = value if self.data is None else self.data + value

    def _predicate(self) -> bool:
        return self.remaining <= 0


class Registrar:
    """Builds and runs the implicit LCO network for one evaluation."""

    def __init__(
        self,
        runtime: Runtime,
        dag: DAG,
        dual,
        kernel,
        factory: OperatorFactory | None,
        mode: str = "numeric",
        cost_model: CostModel | None = None,
        size_model: SizeModel | None = None,
        coalesce: bool = True,
        sequential_edges: bool = True,
        centers: dict | None = None,
    ):
        if mode not in ("numeric", "phantom"):
            raise ValueError("mode must be 'numeric' or 'phantom'")
        if mode == "numeric" and factory is None:
            raise ValueError("numeric mode needs an operator factory")
        self.runtime = runtime
        self.dag = dag
        self.dual = dual
        self.kernel = kernel
        self.factory = factory
        self.mode = mode
        self.cost = cost_model or CostModel()
        self.sizes = size_model or SizeModel()
        self.coalesce = coalesce
        #: Section VI: "the sequential execution of out edges maximizes
        #: cache locality ... but sacrifices parallelism".  False spawns
        #: one task per local edge instead (the road not taken), whose
        #: tasks read expansions while the drain is still running - so
        #: they compute every edge one by one (the per-edge reference).
        self.sequential_edges = sequential_edges
        #: Batched numeric path: a node's S2L edges at one level run as
        #: one stacked operation, leaf multipoles are fitted level by
        #: level, and every edge class in PLANNED_OPS only counts down
        #: its target LCO during the drain - its numeric work runs
        #: afterwards, stage by stage, from the flush plan.  Virtual-clock
        #: charges and effect ordering are those of the per-edge loop
        #: (phantom mode runs exactly that loop); only wall-clock time
        #: changes.
        self._batched = sequential_edges and mode == "numeric"
        #: the compiled flush stages (see :mod:`repro.dashmm.flushplan`);
        #: built on the first numeric flush, so phantom runs never pay
        #: for it, and kept for every later flush of this registrar
        self._plan: FlushPlan | None = None
        #: level -> I->I phase tables and sparse matrices of ``_plan``
        self._i2i_ops: dict[int, tuple] = {}
        #: the compiled eager section; only :meth:`eager_stages` - a
        #: session, a worker - builds it, a drain computes those classes
        #: as dataflow
        self._eager: EagerPlan | None = None
        #: planned edges have run since the last flush
        self._flush_pending = False
        #: per-level dense (source-side, target-side) plane-wave
        #: matrices, alive between the bridge stages of one flush
        self._waves: dict[int, list] = {}
        #: source box index -> multipole, all leaves fitted in one
        #: stacked pass per level (batched path, built on first S->M)
        self._s2m: dict[int, np.ndarray] | None = None
        #: restrict LCO allocation and the stacked numeric passes (leaf
        #: multipoles, flush plan) to the nodes and edges of this
        #: locality (set by the parallel backend to the worker's own
        #: rank); None = all
        self._rank: int | None = None
        self.lcos: dict[int, ExpansionLCO] = {}
        self.result = np.zeros(dual.target.n_points) if dual is not None else None
        #: box centers are a pure function of the box keys and the
        #: domain - i.e. of the tree *shape* - so a persistent session
        #: hands the dict of a previous same-shape evaluation back in
        #: instead of recomputing the Python loop per submit
        self._centers = centers if centers is not None else {
            "source": np.array([dual.domain.box_center(b.key) for b in dual.source.boxes]),
            "target": np.array([dual.domain.box_center(b.key) for b in dual.target.boxes]),
        }
        #: optional cache of geometry-derived operator matrices (p2m
        #: basis rows, s2t greens chunks, m2t/l2t evaluation matrices),
        #: owned by the persistent session.  None (the default) disables
        #: caching entirely; when set, the stacked passes populate it and
        #: reuse entries on later warm runs.  Entries are keyed so a hit
        #: reproduces the cold stacked operands bit for bit; the session
        #: clears it when points move.
        self.geom_cache: dict | None = None
        # hot references resolved once (touched per edge in the runs)
        self._nodes = dag.nodes
        self._sboxes = dual.source.boxes if dual is not None else None
        self._tboxes = dual.target.boxes if dual is not None else None
        # scheduling-policy wiring: a prioritized policy splits the
        # critical chain from leaf outputs (binary HIGH/LOW or graded
        # levels); a graded one additionally stamps offline
        # critical-path levels onto continuations and parcels
        pol = runtime.scheduler.policy
        self.policy = pol
        self._split = pol.prioritized
        self._node_levels: list[int] | None = None
        self._near_ops: frozenset = frozenset()
        self._filler_level = LOW
        if pol.graded:
            # lazy import: repro.hpx must stay importable without the
            # analysis layer, and analysis imports repro.dashmm.dag
            from repro.analysis.critical_path import node_priorities

            # the last level is reserved for the near-field stream the
            # policy interposes; graded levels cover the rest
            self._near_ops = frozenset(getattr(pol, "near_ops", ("S2T",)))
            self._filler_level = pol.n_levels - 1
            stamp = getattr(dag, "priorities", None)
            if (
                stamp is not None
                and stamp.get("levels") == pol.n_levels - 1
                and stamp.get("cost") is self.cost
            ):
                # the declarative builder already graded this DAG
                # against the same cost model and resolution
                # (DagBuilder.stamp_priorities); reuse the stamp
                self._node_levels = stamp["values"]
            else:
                self._node_levels = node_priorities(
                    dag, cost_model=self.cost, levels=pol.n_levels - 1
                )
        # the runtime sits below the registrar in the ownership chain:
        # what is handed down into it - LCO continuations, time-zero and
        # spawned tasks, the parcel action, the checkpoint participant
        # slot - reaches the registrar by weak reference, so a dropped
        # evaluation is freed by reference counting, not by a
        # cyclic-collector pass
        self._continuation_task = _weak_method(self._continuation)
        self._process_edges_task = _weak_method(self._process_edges)
        self._run_edge_task = _weak_method(self._run_edge)
        runtime.register_action("dashmm_edges", _weak_method(self._edges_action))
        # per-evaluation mutable state outside the GAS (the stacked
        # multipoles, the pending-flush flag, the result vector) rides
        # checkpoints through the participant protocol
        participants = getattr(runtime, "checkpoint_participants", None)
        if participants is not None:
            participants.append(weakref.ref(self))

    # -- expansion-data access ----------------------------------------------------
    def _data_of(self, node_id: int):
        """Expansion data of a node, wherever it lives.

        In the simulator every LCO is in-process, so this is a plain
        lookup.  The real-parallel backend overrides it: data of a
        remote node comes from the mirror filled by the peers' stage
        frames (:mod:`repro.dashmm.parallel`).
        ``None`` stands for the zero expansion of a node nothing
        contributed to.
        """
        lco = self.lcos.get(node_id)
        return None if lco is None else lco.data

    def _stacked_data(self, node_ids) -> np.ndarray:
        """Row-stacked spherical expansions of ``node_ids``."""
        data_of = self._data_of
        zero = np.zeros(self.kernel.size, dtype=complex)
        return np.stack([zero if (d := data_of(i)) is None else d for i in node_ids])

    # -- allocation (Fig. 2, t0/t1) ------------------------------------------------
    def allocate(self) -> None:
        """Allocate an LCO per DAG node with inputs (of this rank, when
        restricted to one); register continuations."""
        only = self._rank
        for node in self.dag.nodes:
            n_in = self.dag.in_degree[node.id]
            if node.kind == "S" or n_in == 0:
                continue
            if only is not None and node.locality != only:
                continue
            lco = ExpansionLCO(self.runtime, node.locality, node, n_in)
            self.lcos[node.id] = lco
            self._arm(lco)

    def _arm(self, lco: ExpansionLCO) -> None:
        """Register the continuation that processes the node's out-edges."""
        node = lco.node
        lco.register_continuation(
            Task(
                fn=self._continuation_task,
                args=(node.id,),
                op_class=f"edges:{node.kind}",
                priority=self._node_priority(node),
            )
        )

    def initial_tasks(self) -> int:
        """Enqueue the time-zero tasks: the out-edges of every node
        without inputs.  Those are the S nodes and, in a tree that fills
        only a corner of its domain, coarse L nodes that no list reaches:
        their expansion is zero, but their children still count the
        L->L edge among their inputs."""
        count = 0
        in_degree = self.dag.in_degree
        for node in self.dag.nodes:
            if in_degree[node.id]:
                continue
            edges = self.dag.out_edges[node.id]
            if not edges:
                continue
            if self._split:
                # split critical-path work (S->M, S->L) from the near
                # field so the scheduler favours the expansion pipeline
                crit = [e for e in edges if e.op in CRITICAL_OPS]
                rest = [e for e in edges if e.op not in CRITICAL_OPS]
                groups = [
                    (g, self._edge_priority(g)) for g in (crit, rest) if g
                ]
            else:
                groups = [(edges, LOW)]
            for group, pr in groups:
                if not group:
                    continue
                self.runtime.enqueue_task(
                    Task(
                        fn=self._process_edges_task,
                        args=(node.id, group),
                        op_class=f"edges:{node.kind}",
                        priority=pr,
                    ),
                    node.locality,
                )
                count += 1
        return count

    # -- persistent-session support -------------------------------------------------
    def reset(self, zero_result: bool = True) -> None:
        """Rewind every LCO and all per-evaluation state for a warm re-run.

        After ``reset`` the registrar is observationally equivalent to a
        freshly allocated one over the same DAG: every LCO has its full
        input count outstanding, an empty inbox, no data, and its
        continuation re-registered; no flush is pending.  Static
        shape-derived state - the LCO objects themselves (and their GAS
        addresses), ``_centers`` and the flush plan - survives, which is
        the point: a same-shape resubmission skips allocation entirely.
        """
        in_degree = self.dag.in_degree
        for nid, lco in self.lcos.items():
            lco.remaining = in_degree[nid]
            # a re-run of the distribution policy may have moved the
            # node; keep the LCO's home in step so trigger tasks enqueue
            # where a cold allocation would put them
            lco.locality = lco.node.locality
            lco.triggered = False
            lco.data = None
            lco._inbox = []
            lco._unkeyed = 0
            lco._seen_keys = None
            lco._continuations.clear()
            self._arm(lco)
        self._s2m = None
        self._flush_pending = False
        if zero_result and self.result is not None:
            self.result[:] = 0.0

    def checkpoint_state(self) -> dict:
        """Mutable per-evaluation state for a runtime checkpoint.

        The registrar's LCOs live in the GAS and are snapshotted there
        (:mod:`repro.hpx.checkpoint`); this covers everything else that
        changes while an evaluation runs: the stacked-multipole cache,
        whether planned edges have run, and the result vector.  The
        flush plan is a function of the DAG and the localities, neither
        of which a restore rewinds, so it is not part of the snapshot.
        """
        return {
            "s2m": None if self._s2m is None else dict(self._s2m),
            "flush_pending": self._flush_pending,
            "result": None if self.result is None else self.result.copy(),
        }

    def restore_state(self, state: dict) -> None:
        """Write a :meth:`checkpoint_state` snapshot back in place."""
        self._s2m = None if state["s2m"] is None else dict(state["s2m"])
        self._flush_pending = state["flush_pending"]
        if state["result"] is not None:
            # in place: closures and the evaluator hold this array
            self.result[:] = state["result"]

    def flush_plan(self) -> FlushPlan:
        """The compiled flush stages, built on first use."""
        if self._plan is None:
            self._plan = compile_flush_plan(self.dag, self.dual, self._rank)
        return self._plan

    def eager_plan(self) -> EagerPlan:
        """The compiled eager section, built on first use."""
        if self._eager is None:
            self._eager = compile_eager_plan(self.dag, self._rank)
        return self._eager

    def invalidate_plans(self) -> None:
        """Drop both plan sections and the geometry cache.

        Required whenever node localities change under a live registrar:
        the plans bake the locality-keyed group compositions - hence the
        stacked operands - in, and geometry-cache entries are keyed by
        those groups.  The next use recompiles from the DAG.
        """
        self._plan = self._eager = None
        self._i2i_ops = {}
        if self.geom_cache:
            self.geom_cache.clear()

    def rebind(self, dual) -> None:
        """Point the registrar at a replacement dual tree of the *same shape*.

        A spliced tree keeps every box key, id and leaf flag but carries
        re-sorted points and updated start/stop/count tables; the DAG and
        the LCO network built over the old tree stay structurally valid.
        Box centers depend only on keys and domain, so ``_centers`` is
        untouched.  Callers must refresh the DAG's ``n_points`` (see
        :func:`repro.dashmm.dag.refresh_n_points`) and re-run the
        distribution policy themselves if counts shifted.
        """
        self.dual = dual
        self._sboxes = dual.source.boxes
        self._tboxes = dual.target.boxes

    def _node_priority(self, node: DagNode) -> int:
        """Expansion nodes drive the critical chain; leaf data does not.

        Graded policies use the node's offline critical-path level; the
        binary policy promotes every expansion node to HIGH.
        """
        if self._node_levels is not None:
            return self._node_levels[node.id]
        if not self._split:
            return LOW
        return HIGH if node.kind in ("M", "Is", "It", "L") else LOW

    # -- execution ---------------------------------------------------------------------
    def _continuation(self, ctx, node_id: int) -> None:
        node = self.dag.nodes[node_id]
        edges = self.dag.out_edges[node_id]
        if self._split and node.kind in ("M", "Is", "It", "L"):
            # run the critical chain inline at the node's priority,
            # defer the leaf-output edges (M->T, L->T) to a
            # lower-priority sibling
            crit = [e for e in edges if e.op in CRITICAL_OPS]
            rest = [e for e in edges if e.op not in CRITICAL_OPS]
            self._process_edges(ctx, node_id, crit)
            if rest:
                ctx.spawn(
                    Task(
                        fn=self._process_edges_task,
                        args=(node_id, rest),
                        op_class=f"edges:{node.kind}",
                        priority=self._edge_priority(rest),
                    )
                )
        else:
            self._process_edges(ctx, node_id, edges)
        if node.kind == "T" and self.mode == "numeric":
            box = self.dual.target.boxes[node.box_index]
            lco = self.lcos[node_id]
            if lco.data is not None:
                # per-edge path; batched leaf outputs land at the flush
                self.result[box.start : box.stop] = lco.data

    @staticmethod
    def _edge_key(e) -> tuple:
        """Canonical identity of one edge: (source node, out-list
        position) - the per-LCO dedup key, so a retried contribution
        folds exactly once; the position is also the parcel wire format."""
        return (e.src, e.pos)

    def _process_edges(self, ctx, node_id: int, edges) -> None:
        node = self.dag.nodes[node_id]
        by_loc: dict[int, list] = defaultdict(list)
        nodes = self._nodes
        for e in edges:
            by_loc[nodes[e.dst].locality].append(e)
        here = ctx.locality
        # destination order is schedule freedom: parcels to different
        # localities are unordered, so the fuzzer permutes the canonical
        # sorted order (edges *within* one parcel keep their dedup-key
        # fold order - reordering destinations must not change results)
        locs = sorted(by_loc)
        drv = self.runtime.scheduler.schedule_driver
        if drv is not None and len(locs) > 1:
            locs = drv.permute("coalesce", locs)
        for loc in locs:
            group = by_loc[loc]
            if loc == here:
                if self.sequential_edges:
                    self._run_edges(ctx, group)
                else:
                    for e in group:
                        ctx.spawn(
                            Task(
                                fn=self._run_edge_task,
                                args=(e,),
                                op_class=e.op,
                                priority=self._edge_priority([e]),
                            )
                        )
            elif self.coalesce:
                data_bytes = self.sizes.payload_bytes(
                    group[0].op, n_src_points=node.n_points
                )
                nbytes = self.sizes.parcel_bytes(data_bytes, len(group))
                ctx.charge("_runtime", self.cost.remote_handling_cost(len(group), nbytes))
                ctx.send_parcel(
                    Parcel(
                        action="dashmm_edges",
                        target=loc,
                        args=(node_id, tuple(e.pos for e in group)),
                        size_bytes=nbytes,
                        op_class="parcel:edges",
                        priority=self._edge_priority(group),
                    )
                )
            else:
                for e in group:
                    data_bytes = self.sizes.payload_bytes(e.op, n_src_points=node.n_points)
                    nb1 = self.sizes.parcel_bytes(data_bytes, 1)
                    ctx.charge("_runtime", self.cost.remote_handling_cost(1, nb1))
                    ctx.send_parcel(
                        Parcel(
                            action="dashmm_edges",
                            target=loc,
                            args=(node_id, (e.pos,)),
                            size_bytes=nb1,
                            op_class="parcel:edges",
                            priority=self._edge_priority([e]),
                        )
                    )

    def _edge_priority(self, edges) -> int:
        """Priority stamp for a task/parcel carrying this edge group.

        Graded: the most critical destination level in the group, except
        pure near-field (P2P) groups, which land on the reserved filler
        level the policy interposes under far-field bursts.  Binary:
        HIGH when any edge is on the critical chain.
        """
        levels = self._node_levels
        if levels is not None:
            if all(e.op in self._near_ops for e in edges):
                return self._filler_level
            return min(levels[e.dst] for e in edges)
        if not self._split:
            return LOW
        return HIGH if any(e.op in CRITICAL_OPS for e in edges) else LOW

    def _edges_action(self, ctx, target, node_id: int, edge_indices) -> None:
        """Parcel action: evaluate coalesced remote edges at the destination."""
        edges = self.dag.out_edges[node_id]
        self._run_edges(ctx, [edges[i] for i in edge_indices])

    # -- edge transforms ------------------------------------------------------------------
    def _charge_edge(self, ctx, e) -> None:
        """Account the virtual-clock cost of one edge (both exec paths)."""
        op = e.op
        nodes = self._nodes
        if op == "S2T":
            sbox = self._sboxes[nodes[e.src].box_index]
            tbox = self._tboxes[nodes[e.dst].box_index]
            ctx.charge(op, self.cost.edge_cost(op, n_src=sbox.count, n_tgt=tbox.count))
        elif op in ("S2M", "S2L"):
            sbox = self._sboxes[nodes[e.src].box_index]
            ctx.charge(op, self.cost.edge_cost(op, n_src=sbox.count))
        elif op in ("L2T", "M2T"):
            tbox = self._tboxes[nodes[e.dst].box_index]
            ctx.charge(op, self.cost.edge_cost(op, n_tgt=tbox.count))
        elif op in ("M2M", "M2L", "M2I", "I2I", "I2L", "L2L"):
            ctx.charge(op, self.cost.edge_cost(op))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown edge op {op}")

    def _edge_value(self, e):
        """Numeric value of one edge (per-edge reference path)."""
        src_node = self.dag.nodes[e.src]
        dst_node = self.dag.nodes[e.dst]
        op = e.op
        if op == "S2T":
            sbox = self.dual.source.boxes[src_node.box_index]
            tbox = self.dual.target.boxes[dst_node.box_index]
            return self.kernel.direct(
                self.dual.target.points[tbox.start : tbox.stop],
                self.dual.source.points[sbox.start : sbox.stop],
                self.dual.source.weights[sbox.start : sbox.stop],
            )
        if op == "S2M":
            sbox = self.dual.source.boxes[src_node.box_index]
            h = self.dual.domain.box_size(sbox.level)
            rel = (
                self.dual.source.points[sbox.start : sbox.stop]
                - self._centers["source"][sbox.index]
            ) / h
            return self.kernel.p2m(
                rel, self.dual.source.weights[sbox.start : sbox.stop], h
            )
        if op == "S2L":
            sbox = self.dual.source.boxes[src_node.box_index]
            tbox = self.dual.target.boxes[dst_node.box_index]
            h = self.dual.domain.box_size(tbox.level)
            rel = (
                self.dual.source.points[sbox.start : sbox.stop]
                - self._centers["target"][tbox.index]
            ) / h
            return self.kernel.p2l(
                rel, self.dual.source.weights[sbox.start : sbox.stop], h
            )
        if self._data_of(e.src) is None:
            return None  # the zero expansion contributes nothing
        if op == "M2M":
            h = self.dual.domain.box_size(src_node.level)
            return self.factory.m2m(e.aux, h) @ self._data_of(e.src)
        if op == "M2L":
            h = self.dual.domain.box_size(src_node.level)
            return self.factory.m2l(e.aux, h) @ self._data_of(e.src)
        if op == "M2I":
            h = self.dual.domain.box_size(src_node.level)
            dirs = {ee.aux[0] for ee in self.dag.out_edges[e.dst] if ee.op == "I2I"}
            M = self._data_of(e.src)
            return {d: self.factory.m2i(d, h) @ M for d in dirs}
        if op == "I2I":
            d, delta = e.aux
            h = self.dual.domain.box_size(src_node.level)
            W = self._data_of(e.src)[d]
            return (d, W * self.factory.i2i(d, delta, h))
        if op == "I2L":
            h = self.dual.domain.box_size(src_node.level)
            acc = None
            for d, V in sorted(self._data_of(e.src).items()):
                c = self.factory.i2l(d, h) @ V
                acc = c if acc is None else acc + c
            return acc
        if op == "L2L":
            h = self.dual.domain.box_size(src_node.level)
            return self.factory.l2l(e.aux, h) @ self._data_of(e.src)
        if op == "L2T":
            tbox = self.dual.target.boxes[dst_node.box_index]
            h = self.dual.domain.box_size(src_node.level)
            rel = (
                self.dual.target.points[tbox.start : tbox.stop]
                - self._centers["target"][src_node.box_index]
            ) / h
            return self.kernel.l2t(self._data_of(e.src), rel, h)
        if op == "M2T":
            sbox = self.dual.source.boxes[src_node.box_index]
            tbox = self.dual.target.boxes[dst_node.box_index]
            h = self.dual.domain.box_size(sbox.level)
            rel = (
                self.dual.target.points[tbox.start : tbox.stop]
                - self._centers["source"][sbox.index]
            ) / h
            return self.kernel.m2t(self._data_of(e.src), rel, h)
        raise ValueError(f"unknown edge op {op}")  # pragma: no cover - defensive

    def _run_edge(self, ctx, e) -> None:
        self._charge_edge(ctx, e)
        value = self._edge_value(e) if self.mode == "numeric" else None
        ctx.lco_set(self.lcos[e.dst], value, key=self._edge_key(e), op_class=e.op)

    # -- batched path: during the drain ---------------------------------------------------
    def _run_edges(self, ctx, edges) -> None:
        """Execute local edges of one node, batching compatible groups.

        Charges are emitted per edge in the original order and LCO sets
        are buffered per edge in the original order, so the virtual
        clock, the trace and the downstream trigger sequence are
        identical to the sequential per-edge path.  Planned edges set
        ``None``: their values come from :meth:`flush_deferred`.
        """
        if not self._batched:
            run = self._run_edge
            for e in edges:
                run(ctx, e)
            return
        if not edges:
            return
        charge = self._charge_edge
        for e in edges:
            charge(ctx, e)
        nodes = self._nodes
        values: dict[int, object] = {}
        # all out-edges being processed share the source node, so S2L
        # edges at one target level share the operator scale
        s2l: dict[int, list] = {}
        for e in edges:
            op = e.op
            if op in PLANNED_OPS:
                self._flush_pending = True
            elif op == "S2L":
                s2l.setdefault(nodes[e.dst].level, []).append(e)
            elif op == "S2M":
                if self._s2m is None:
                    self._s2m = self._leaf_multipoles()
                values[id(e)] = self._s2m[nodes[e.src].box_index]
            else:
                values[id(e)] = self._edge_value(e)
        for group in s2l.values():
            if len(group) == 1:
                values[id(group[0])] = self._edge_value(group[0])
            else:
                self._batch_values(group, values)
        lco_set = ctx.lco_set
        lcos = self.lcos
        value_of = values.get
        for e in edges:
            lco_set(lcos[e.dst], value_of(id(e)), key=(e.src, e.pos), op_class=e.op)

    def _leaf_multipoles(self) -> dict[int, np.ndarray]:
        """Multipoles of every source leaf, one stacked fit per level.

        The per-edge path builds one ``p2m`` matrix per leaf; here all
        leaves at a level share a single matrix build over their
        concatenated points, and per-leaf coefficients fall out of a
        segmented reduction of the charge-weighted rows.

        Batches are keyed by (level, locality of the leaf's M node) -
        the locality at which the S->M edge executes - so each batch is
        exactly what one parallel worker fits; ``_rank`` (set by the
        parallel backend) restricts fitting to the worker's own
        batches.  Leaves with no M node group under locality -1.
        """
        src = self.dual.source
        dom = self.dual.domain
        centers = self._centers["source"]
        m_index = self.dag.index.get("M", {})
        dnodes = self.dag.nodes
        only = self._rank
        by_level: dict[tuple, list] = {}
        for b in src.boxes:
            if b.is_leaf and b.count > 0:
                mid = m_index.get(b.index)
                loc = dnodes[mid].locality if mid is not None else -1
                if only is not None and loc != only:
                    continue
                by_level.setdefault((b.level, loc), []).append(b)
        cache = self.geom_cache
        out: dict[int, np.ndarray] = {}
        for (level, loc), boxes in by_level.items():
            h = dom.box_size(level)
            w = np.concatenate([src.weights[b.start : b.stop] for b in boxes])
            # the p2m basis matrix depends only on point geometry (and
            # scale), not on the charges: a weights-only resubmission
            # reuses it and pays one elementwise multiply.  Computed
            # chunk by chunk exactly like the uncached path, and the
            # elementwise product w[:, None] * P is chunking-invariant,
            # so a cache hit is bit-identical to a cold fit.
            ck = ("p2m", level, loc, len(w))
            P = cache.get(ck) if cache is not None else None
            if P is None:
                rel = (
                    np.concatenate(
                        [src.points[b.start : b.stop] - centers[b.index] for b in boxes]
                    )
                    / h
                )
                P = np.empty((len(rel), self.kernel.size), dtype=complex)
                for lo in range(0, len(rel), 2048):
                    hi = lo + 2048
                    P[lo:hi] = self.kernel.p2m_matrix(rel[lo:hi], h)
                if cache is not None:
                    cache[ck] = P
            rows = w[:, None] * P
            starts = np.zeros(len(boxes), dtype=np.intp)
            starts[1:] = np.cumsum([b.count for b in boxes])[:-1]
            coeffs = np.add.reduceat(rows, starts, axis=0)
            for b, c in zip(boxes, coeffs):
                out[b.index] = c
        return out

    def _batch_values(self, group, values: dict) -> None:
        """Stacked S2L values of one source leaf at one target level:
        one p2l matrix build for all the target boxes."""
        src_node = self.dag.nodes[group[0].src]
        tgt = self.dual.target
        tboxes = [tgt.boxes[self.dag.nodes[e.dst].box_index] for e in group]
        sbox = self.dual.source.boxes[src_node.box_index]
        spts = self.dual.source.points[sbox.start : sbox.stop]
        q = self.dual.source.weights[sbox.start : sbox.stop]
        h = self.dual.domain.box_size(tboxes[0].level)
        centers = np.stack([self._centers["target"][b.index] for b in tboxes])
        E, n = len(group), len(spts)
        # edge blocks keep the (block*n, size) matrix cache-resident
        blk = max(1, 2048 // max(n, 1))
        coeffs = np.empty((E, self.kernel.size), dtype=complex)
        for i in range(0, E, blk):
            j = min(i + blk, E)
            rel = (spts[None, :, :] - centers[i:j, None, :]) / h
            mat = self.kernel.p2l_matrix(rel.reshape(-1, 3), h)
            coeffs[i:j] = np.matmul(q, mat.reshape(j - i, n, -1))
        for e, c in zip(group, coeffs):
            values[id(e)] = c

    # -- batched path: in place of the drain ------------------------------------------------
    def eager_stages(self) -> list:
        """The eager classes as ``(name, thunk)`` stages that run ahead
        of :meth:`flush_stages`: the stacked leaf fits, the upward sweep
        level by level (deepest first, so every child multipole is
        complete before its parent folds it), then the local-expansion
        folds of S->L and M->L.  Sources are read through
        :meth:`_data_of`, so a worker running its rank's slice folds the
        multipoles its peers shipped.
        """
        plan = self.eager_plan()
        return [
            ("s2m", self._eager_s2m),
            *(
                (("m2m", level), partial(self._eager_m2m, folds))
                for level, folds in plan.m_folds
            ),
            ("m2l", partial(self._eager_m2l, plan)),
        ]

    def run_eager(self) -> None:
        """Compute the eager classes from the compiled fold lists.

        Leaves a freshly :meth:`reset` registrar in exactly the state a
        full task drain leaves it in - M/L expansions folded in
        canonical key order, a flush pending - without enqueuing a
        task, so :meth:`flush_deferred` finishes the evaluation
        bit-identically.  Sessions run every submit this way.
        """
        for _, stage in self.eager_stages():
            stage()
        # the bridge, downward shift and leaf outputs flush from here
        self._flush_pending = True

    def _eager_s2m(self) -> None:
        self._s2m = self._leaf_multipoles()

    def _eager_m2m(self, folds) -> None:
        """The multipoles of one level, each folding its leaf fit and its
        children's shifted multipoles in canonical order."""
        lcos, nodes, s2m, data_of = self.lcos, self._nodes, self._s2m, self._data_of
        m2m = self.factory.m2m
        dom = self.dual.domain
        for dst, es in folds:
            acc = None
            for e in es:
                if e.op == "S2M":
                    v = s2m[nodes[e.src].box_index]
                else:
                    v = m2m(e.aux, dom.box_size(nodes[e.src].level)) @ data_of(e.src)
                acc = v if acc is None else acc + v
            lcos[dst].data = acc

    def _eager_m2l(self, plan: EagerPlan) -> None:
        """List-X contributions in the drain's batch compositions, then
        every local expansion's S->L / M->L fold."""
        lcos = self.lcos
        values: dict[int, object] = {}
        for group in plan.s2l_groups:
            if len(group) == 1:
                values[id(group[0])] = self._edge_value(group[0])
            else:
                self._batch_values(group, values)
        for dst, es in plan.l_folds:
            acc = None
            for e in es:
                v = values[id(e)] if e.op == "S2L" else self._edge_value(e)
                acc = v if acc is None else acc + v
            lcos[dst].data = acc

    # -- batched path: the flush stages -----------------------------------------------------
    def flush_stages(self) -> list:
        """The numeric work of every planned edge as ``(name, thunk)``
        stages, in the one order they may run in.

        M->I, I->I, I->L, L->L level by level (coarse first, so every
        parent local expansion is complete before its children read it),
        then the leaf outputs, which read the final local expansions.
        The thunks execute the compiled :class:`FlushPlan`; a worker
        posts the plan's ``sends`` and awaits its ``recvs`` in front of
        each.
        """
        plan = self.flush_plan()
        return [
            ("m2i", partial(self._flush_m2i, plan)),
            ("i2i", partial(self._flush_i2i, plan)),
            ("i2l", partial(self._flush_i2l, plan)),
            *(
                (("l2l", level), partial(self._flush_l2l_level, level, groups))
                for level, groups in plan.l2l
            ),
            ("outputs", partial(self._flush_outputs, plan)),
        ]

    def flush_deferred(self) -> None:
        """Run :meth:`flush_stages`; a no-op when no planned edge has
        run since the last flush (phantom and per-edge runs never have
        one)."""
        if not self._flush_pending:
            return
        self._flush_pending = False
        for _, stage in self.flush_stages():
            stage()

    def _flush_m2i(self, plan: FlushPlan) -> None:
        """Outgoing plane waves of every source box: per (level,
        locality) group one ``(edges, size) @ (size, len(dirs) *
        nterms)`` product against the stack of the directions the level
        translates in, written straight into the rows of the level's
        dense source-side matrix.  The product reads the operator once
        for the whole group; of those directions, the ones a node does
        not radiate into are computed and never gathered.
        """
        dom, lcos, data_of = self.dual.domain, self.lcos, self._data_of
        self._waves = {}
        for b in plan.bridge:
            h = dom.box_size(b.level)
            width = len(b.dirs) * self.factory.quadrature(h).nterms
            src_side = np.empty((len(b.is_ids), width), dtype=complex)
            if b.m2i:
                stack = self.factory.m2i_stack(tuple(FULL_DIRS[d] for d in b.dirs), h)
            for lo, m_ids in b.m2i:
                src_side[lo : lo + len(m_ids)] = (
                    np.stack([data_of(m) for m in m_ids]) @ stack.T
                )
            for nid, row in zip(b.is_ids[: b.n_is_local], src_side):
                lcos[nid].data = row
            self._waves[b.level] = [src_side, None]

    def _i2i_operators(self, b: BridgeLevel) -> tuple:
        """The level's phase/decay tables and one 0/1 CSR matrix per
        :class:`~repro.dashmm.flushplan.Translation`, built on the first
        flush of a plan: functions of the plan and the quadrature alone,
        so they outlive every resubmission and drift."""
        ops = self._i2i_ops.get(b.level)
        if ops is None:
            # phantom and per-edge runs never get here, nor pay the import
            from scipy.sparse import csr_array

            quad = self.factory.quadrature(self.dual.domain.box_size(b.level))
            zmax = max((int(g.offsets[-1]) for g in b.i2i), default=0)
            x, y, z = i2i_tables(quad, (1 << b.level) - 1, zmax)
            mats = [
                csr_array(
                    (np.ones(len(g.indices)), g.indices, g.indptr),
                    shape=(len(g.offsets) * len(g.tgt_rows), len(g.src_rows)),
                )
                for g in b.i2i
            ]
            ops = self._i2i_ops[b.level] = (x, y, z, mats)
        return ops

    def _flush_i2i(self, plan: FlushPlan) -> None:
        """Translated plane waves, per (level, direction) as phase *
        sparse sum * phase: the source rows times their conjugate
        phases, one fused 0/1 sparse product on the float64 view that
        sums every target's sources per axial offset, the offsets'
        decays, the target phases - no per-edge multiply.  Each (target
        node, direction) slot is written by exactly one row of one
        translation; slots no translation reaches stay zero.
        """
        lcos, data_of = self.lcos, self._data_of
        for b in plan.bridge:
            waves = self._waves[b.level]
            src_side = waves[0]
            for nid, row in zip(b.is_ids[b.n_is_local :], src_side[b.n_is_local :]):
                row[:] = data_of(nid)
            nt = src_side.shape[1] // len(b.dirs)
            tgt_side = waves[1] = np.zeros((len(b.it_ids), src_side.shape[1]), dtype=complex)
            x, y, z, mats = self._i2i_operators(b)
            kmax = len(x) // 2
            for g, mat in zip(b.i2i, mats):
                lo = b.dirs.index(g.direction) * nt
                su, tu = kmax - g.src_uv, kmax + g.tgt_uv
                waves_d = src_side[g.src_rows, lo : lo + nt]
                waves_d *= x[su[:, 0]]
                waves_d *= y[su[:, 1]]
                sums = (mat @ waves_d.view(float)).view(complex).reshape(len(g.offsets), -1, nt)
                acc = sums[0]
                acc *= z[g.offsets[0]]
                for zi, part in zip(g.offsets[1:], sums[1:]):
                    part *= z[zi]
                    acc += part
                acc *= x[tu[:, 0]]
                acc *= y[tu[:, 1]]
                tgt_side[g.tgt_rows, lo : lo + nt] = acc
            for nid, row in zip(b.it_ids[: b.n_it_local], tgt_side):
                lcos[nid].data = row

    def _flush_i2l(self, plan: FlushPlan) -> None:
        """Local-expansion contributions of the incoming plane waves:
        per (level, locality) group one GEMM of the gathered target-side
        rows against the stack of the level's directions (those a node
        receives nothing from are zero columns, which contribute exactly
        nothing)."""
        dom, data_of = self.dual.domain, self._data_of
        for b in plan.bridge:
            tgt_side = self._waves[b.level][1]
            for nid, row in zip(b.it_ids[b.n_it_local :], tgt_side[b.n_it_local :]):
                row[:] = data_of(nid)
            if b.i2l:
                stack = self.factory.i2l_stack(
                    tuple(FULL_DIRS[d] for d in b.dirs), dom.box_size(b.level)
                )
            for it_rows, l_ids in b.i2l:
                self._accumulate(l_ids, tgt_side[it_rows] @ stack.T)
        self._waves = {}

    def _flush_l2l_level(self, level: int, groups) -> None:
        """One downward-shift level: one GEMM per (octant, locality)
        group.  A stage of its own so a worker can receive remote parent
        expansions between levels."""
        h = self.dual.domain.box_size(level)
        for octant, parents, children in groups:
            self._accumulate(children, self._stacked_data(parents) @ self.factory.l2l(octant, h).T)

    def _accumulate(self, node_ids, rows) -> None:
        """Add one contribution row into each node's local expansion."""
        lcos = self.lcos
        for nid, row in zip(node_ids, rows):
            dst = lcos[nid]
            dst.data = row if dst.data is None else dst.data + row

    def _flush_outputs(self, plan: FlushPlan) -> None:
        """Leaf outputs: one direct sum per source leaf over all its
        target points (S->T), one evaluation-matrix build per source
        level over the concatenated target points with each point dotted
        against its own edge's coefficient row (M->T, L->T).  Each
        per-point value is the dot product the per-edge path computes,
        so potentials agree to roundoff; contributions are added into
        the result in plan order, edge by edge.
        """
        if not plan.outputs:
            return
        dom = self.dual.domain
        src, tgt = self.dual.source, self.dual.target
        res, cache, kernel, data_of = self.result, self.geom_cache, self.kernel, self._data_of
        cached_direct = cache is not None and type(kernel).direct is Kernel.direct
        # target-point index of every (edge, point) pair, in plan order
        ta = tgt.arrays
        counts = ta.counts[plan.out_tbox]
        ends = np.cumsum(counts)
        point_idx = np.repeat(ta.starts[plan.out_tbox] - (ends - counts), counts)
        point_idx += np.arange(len(point_idx))
        for g in plan.outputs:
            p_lo = ends[g.lo] - counts[g.lo]
            idx = point_idx[p_lo : ends[g.hi - 1]]
            # the target points are gathered chunk by chunk, and only
            # where a chunk misses the geometry cache
            if g.op == "S2T":
                sbox = src.boxes[plan.out_sbox[g.lo]]
                spts = src.points[sbox.start : sbox.stop]
                sw = src.weights[sbox.start : sbox.stop]
                if not cached_direct:
                    out = kernel.direct(tgt.points[idx], spts, sw)
                else:
                    # Kernel.direct chunk for chunk, caching each
                    # chunk's greens matrix: it depends on the
                    # coordinates only, so a warm re-query pays one
                    # matvec against the fresh charges.  Identical
                    # chunking and per-chunk matvec operands make hit
                    # and miss bit-identical to the uncached direct sum.
                    out = np.zeros(len(idx))
                    for lo in range(0, len(idx), 2048):
                        ck = (g.op, g.sub, g.loc, lo)
                        G = cache.get(ck)
                        if G is None:
                            G = cache[ck] = kernel.greens(
                                pair_distances(tgt.points[idx[lo : lo + 2048]], spts)
                            )
                        out[lo : lo + 2048] = G @ sw
            else:
                h = dom.box_size(g.sub)
                side = "source" if g.op == "M2T" else "target"
                centers = self._centers[side][plan.out_sbox[g.lo : g.hi]]
                coeffs = self._stacked_data(plan.out_src[g.lo : g.hi])
                # which edge owns each concatenated point (the per-point
                # center/coefficient rows are gathered per chunk so
                # every temporary stays cache-resident)
                eidx = np.repeat(np.arange(g.hi - g.lo), counts[g.lo : g.hi])
                # per-chunk evaluation matrices depend on the target
                # points and box centers but not on the coefficients, so
                # a warm re-evaluation over unmoved points only pays the
                # row-dot - the same (matrix * rows).sum contraction as
                # m2t_rows / l2t_rows, hence bit-identical
                matf = kernel.m2t_matrix if g.op == "M2T" else kernel.l2t_matrix
                out = np.empty(len(idx))
                for lo in range(0, len(idx), 2048):
                    sel = eidx[lo : lo + 2048]
                    ck = (g.op, g.sub, g.loc, lo)
                    mat = cache.get(ck) if cache is not None else None
                    if mat is None:
                        mat = matf((tgt.points[idx[lo : lo + 2048]] - centers[sel]) / h, h)
                        if cache is not None:
                            cache[ck] = mat
                    out[lo : lo + 2048] = (mat * coeffs[sel]).sum(axis=1).real
            # sequential, like the per-box loop it replaces: a target
            # box may appear under several M->T edges of one group
            np.add.at(res, idx, out)
