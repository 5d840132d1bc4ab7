"""The implicit DAG: expansion LCOs, out-edge processing, coalescing.

This module realizes Section IV and Fig. 2 of the paper.  Every DAG
node with inputs becomes a user-defined *expansion LCO* that counts its
outstanding in-edges and holds the node's expansion; when the last
input arrives it triggers and its single registered continuation
processes the out-edge list:

* *local* edges (target on the same locality) are processed
  sequentially and set into their target LCOs, which may trigger
  further asynchronous evaluation;
* *remote* edges are coalesced: one active-message parcel per
  destination locality carries the expansion data and the relevant
  edges, which are then processed at the destination as normal
  (``coalesce=False`` sends one parcel per edge instead - the ablation
  of the paper's design choice).

Source (S) nodes have no inputs; an initial task per source leaf
processes their out-edges (S->M, S->T, S->L) at time zero, as does one
per expansion node no edge reaches.

The drain is a schedule only.  No edge carries a value: what an edge
charges, the parcel it rides in and the LCO it counts down depend on the
cost and size models and the DAG alone - the observation the paper's
phantom mode rests on.  So on its first drain the registrar compiles
every node's out-edges from the DAG's edge columns into contiguous
per-destination groups (:class:`DrainTable`), and a task extends its
context's charges and effects from them; the tables are dropped when
the drain ends.  ``mode`` decides only whether the numbers are computed:

* ``numeric`` - after the drain the compiled execution plan
  (:mod:`repro.dashmm.flushplan`) computes every expansion and
  potential, :meth:`Registrar.eager_stages` then
  :meth:`Registrar.flush_stages`; sessions and parallel workers run the
  same stages in place of a drain;
* ``phantom`` - costs and messages only; used for paper-scale scaling
  studies.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from repro.dashmm.dag import DAG, EDGE_OPS, OP_CODE, DagNode
from repro.dashmm.flushplan import (
    FULL_DIRS,
    BridgeLevel,
    EagerPlan,
    FlushPlan,
    Folds,
    compile_eager_plan,
    compile_flush_plan,
)
from repro.hpx.lco import CountingLCO
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
#: per op code: is the class on the critical chain
_CRITICAL = np.array([op in CRITICAL_OPS for op in EDGE_OPS])


def _weak_method(method):
    """``method`` as a plain callable that holds its object weakly."""
    ref, fn = weakref.ref(method.__self__), method.__func__
    return lambda *args: fn(ref(), *args)


class ExpansionLCO(CountingLCO):
    """User-defined LCO (Fig. 2): a node's outstanding in-edge count and
    its expansion.

    An input only counts down - the drain carries no values - and each
    dedup key (the edge's row in the DAG's edge columns, see
    :class:`DrainTable`) is folded at most once, so a retransmitted
    parcel cannot count an edge twice.  ``data`` is written by the plan's
    stages after (or in place of) a drain; ``None`` is the zero
    expansion of a node nothing contributed to.
    """

    def __init__(self, runtime, locality: int, node: DagNode, n_inputs: int):
        super().__init__(runtime, locality, n_inputs)
        self.node = node
        self.data = None

    @property
    def hazard_subject(self) -> str:
        """IR-derived identity for hazard reports: the DAG node, not an
        opaque GAS address, so a report names the offending graph
        element directly."""
        n = self.node
        return f"{n.kind}[{n.tree} box {n.box_index} L{n.level}]@{self.addr!r}"


class DrainTable:
    """Every node's out-edges compiled for one drain.

    One entry per edge, sorted by (source node, part, destination
    locality), edge-column row order within.  A *part* is what one task
    processes: under a prioritized policy a node's critical-chain edges
    (part 0) and its leaf outputs (part 1), otherwise all of them (part
    0).  A *group* is a part's run of entries to one destination
    locality, one entry per group where edges leave the node's locality
    and ``coalesce`` is off.  Part ``k = 2 * node + part`` owns groups
    ``part_ptr[k]:part_ptr[k + 1]``, group ``g`` entries ``bounds[g]:
    bounds[g + 1]``; a parcel names its group.  An edge's dedup key is
    its edge-column row, ``rows[i]``, and a group executed at its
    destination is one effect, its slices of ``lcos``, ``rows`` and
    ``ops``.

    The table is alive at the end of a drain, where an evaluation's heap
    peaks, so it holds no per-edge tuple: per-entry lists of ints, shared
    objects, charges and parcel headers interned by value.
    """

    __slots__ = (
        "part_ptr",  # per part: first group (CSR over groups)
        "part_priority",  # per part: priority of a task processing it alone
        "bounds",  # per group: first entry; one more entry, the edge count
        "loc",  # per group: destination locality
        #: per group: None where it executes at the node's locality, else
        #: the parcel that carries it off, as (sender-side "_runtime"
        #: charge or None, size in bytes, priority)
        "send",
        "lcos",  # per entry: the destination's LCO
        "ops",  # per entry: the op class
        "rows",  # per entry: the edge-column row, the edge's dedup key
        "charges",  # the positive (op, dt) charges of all entries, in order
        "cpos",  # per entry boundary: index into charges
    )


def _distinct_rows(*columns: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct rows of equal-length columns as tuples of Python
    scalars, and per row the index of its tuple."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        values, inverse = np.unique(col, return_inverse=True)
        key = key * len(values) + inverse
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    return list(zip(*(col[first].tolist() for col in columns))), which


def _interned(values: list, which: np.ndarray) -> np.ndarray:
    """``values[which]`` as an object array of shared references, built
    without a Python int per entry."""
    objs = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        objs[i] = v  # element by element: a tuple stays one element
    return objs[which]


def _permuted(driver, groups, loc) -> list:
    """``groups`` (ascending destination locality) with the destination
    order drawn by the schedule driver: parcels to different localities
    are unordered, while edges of one destination keep their order."""
    by_loc: dict[int, list] = {}
    for g in groups:
        by_loc.setdefault(loc[g], []).append(g)
    if len(by_loc) < 2:
        return list(groups)
    return [g for dst in driver.permute("coalesce", list(by_loc)) for g in by_loc[dst]]


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
        #: one task per local edge instead (the road not taken) - a
        #: schedule ablation: the numbers come from the plan either way
        self.sequential_edges = sequential_edges
        #: the drain's compiled out-edges, built on the first
        #: initial_tasks() (sessions and workers never drain, so never
        #: pay for it) and dropped when the drain ends
        self._drain: DrainTable | None = None
        #: the compiled flush stages (see :mod:`repro.dashmm.flushplan`);
        #: built on the first numeric flush, so phantom runs never pay
        #: for it, and kept for every later flush of this registrar
        self._plan: FlushPlan | None = None
        #: level -> I->I phase tables and sparse matrices of ``_plan``
        self._i2i_ops: dict[int, tuple] = {}
        #: the compiled eager section, built on first use
        self._eager: EagerPlan | None = None
        #: the plan owes a flush: set by a numeric drain and by run_eager()
        self._flush_pending = False
        #: the plan owes the eager section too: set by a numeric drain,
        #: cleared by run_eager(), reset() and flush_deferred()
        self._eager_owed = False
        #: per-level dense (source-side, target-side) plane-wave
        #: matrices, alive between the bridge stages of one flush
        self._waves: dict[int, list] = {}
        #: source box index -> multipole, all leaves fitted in one
        #: stacked pass per level by the eager section's first stage
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
        self._centers = centers if centers is not None else {
            "source": dual.domain.box_centers(dual.source.arrays.keys),
            "target": dual.domain.box_centers(dual.target.arrays.keys),
        }
        #: optional cache of geometry-derived operator matrices (p2m
        #: basis rows, s2t greens chunks, m2t/l2t evaluation matrices),
        #: owned by the persistent session.  None (the default) disables
        #: caching entirely; when set, the stacked passes populate it and
        #: reuse entries on later warm runs.  Entries are keyed so a hit
        #: reproduces the cold stacked operands bit for bit; the session
        #: clears it when points move.
        self.geom_cache: dict | None = None
        self._nodes = dag.nodes
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
        # per-evaluation mutable state outside the GAS (the pending-flush
        # flag, the result vector) rides checkpoints through the
        # participant protocol
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
        """Compile the drain and enqueue its time-zero tasks: the
        out-edges of every node without inputs.  Those are the S nodes
        and, in a tree that fills only a corner of its domain, coarse L
        nodes that no list reaches: their expansion is zero, but their
        children still count the L->L edge among their inputs.  A
        numeric drain owes the whole plan (:meth:`flush_deferred`)."""
        table = self._table()
        ptr, priority = table.part_ptr, table.part_priority
        in_degree = self.dag.in_degree
        count = 0
        for node in self.dag.nodes:
            if in_degree[node.id]:
                continue
            for k in (2 * node.id, 2 * node.id + 1):
                if ptr[k] == ptr[k + 1]:
                    continue
                self.runtime.enqueue_task(
                    Task(
                        fn=self._process_edges_task,
                        args=(node.id, k & 1),
                        op_class=f"edges:{node.kind}",
                        priority=priority[k],
                    ),
                    node.locality,
                )
                count += 1
        if self.mode == "numeric":
            self._flush_pending = self._eager_owed = True
        return count

    # -- persistent-session support -------------------------------------------------
    def reset(self, zero_result: bool = True) -> None:
        """Rewind every LCO and all per-evaluation state for a warm re-run.

        After ``reset`` the registrar is observationally equivalent to a
        freshly allocated one over the same DAG: every LCO has its full
        input count outstanding, no data, no dedup keys and its
        continuation re-registered; no flush is pending.  Static
        shape-derived state - the LCO objects themselves (and their GAS
        addresses), ``_centers`` and the plans - survives, which is the
        point: a same-shape resubmission skips allocation entirely.
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
            lco._seen_keys.clear()
            lco._continuations.clear()
            self._arm(lco)
        self._s2m = None
        self._flush_pending = self._eager_owed = False
        if zero_result and self.result is not None:
            self.result[:] = 0.0

    def checkpoint_state(self) -> dict:
        """Mutable per-evaluation state for a runtime checkpoint.

        The registrar's LCOs live in the GAS and are snapshotted there
        (:mod:`repro.hpx.checkpoint`).  A checkpoint is taken inside the
        drain, which carries no values, so all else it needs is whether
        the plan is owed and the result vector.  The plans and drain
        tables are functions of the DAG and the localities, neither of
        which a restore rewinds.
        """
        return {
            "flush_pending": self._flush_pending,
            "result": None if self.result is None else self.result.copy(),
        }

    def restore_state(self, state: dict) -> None:
        """Write a :meth:`checkpoint_state` snapshot back in place.

        The restored drain has computed nothing, so the whole plan is
        owed again, and its tables are recompiled on first use.
        """
        self._flush_pending = self._eager_owed = state["flush_pending"]
        self._s2m = None
        self._drain = None
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

    # -- the drain's compiled out-edges ----------------------------------------------------
    def _table(self) -> DrainTable:
        """This drain's :class:`DrainTable`, compiled on first use (a
        restored drain recompiles it lazily)."""
        table = self._drain
        if table is None:
            table = self._drain = self._compile_drain()
        return table

    def _priorities(self, bounds: np.ndarray, near, levels, critical) -> np.ndarray:
        """Priority stamp of a task or parcel carrying each run of rows
        starting at ``bounds``: under a graded policy the most critical
        destination level of the run, except pure near-field (P2P) runs,
        which land on the reserved filler level the policy interposes
        under far-field bursts; under the binary policy HIGH when any
        edge of the run is on the critical chain."""
        if levels is not None:
            return np.where(
                np.logical_and.reduceat(near, bounds),
                self._filler_level,
                np.minimum.reduceat(levels, bounds),
            )
        if self._split:
            return np.where(np.logical_or.reduceat(critical, bounds), HIGH, LOW)
        return np.full(len(bounds), LOW)

    def _compile_drain(self) -> DrainTable:
        """Every node's out-edges as a :class:`DrainTable`, in array
        passes over the DAG's edge columns.

        Charges are the cost model's per-edge costs of the leaf boxes'
        point counts (:meth:`CostModel.edge_costs`), a parcel's size and
        sender-side handling cost those of the size and cost models, so
        the virtual clock is that of a per-edge walk bit for bit.
        """
        dag, nodes = self.dag, self.dag.nodes
        n = len(nodes)
        cols = dag.edge_columns()
        loc = np.fromiter((nd.locality for nd in nodes), np.int64, n)
        box = np.fromiter((nd.box_index for nd in nodes), np.int64, n)
        on_source = np.fromiter((nd.tree == "source" for nd in nodes), bool, n)
        n_points = np.fromiter((nd.n_points for nd in nodes), np.int64, n)
        # points of each node's own box (S and T nodes are leaves)
        count = np.empty(n, dtype=np.int64)
        count[on_source] = self.dual.source.arrays.counts[box[on_source]]
        count[~on_source] = self.dual.target.arrays.counts[box[~on_source]]

        critical = _CRITICAL[cols.op]
        part = ~critical if self._split else np.zeros(len(critical), dtype=bool)
        order = np.lexsort((loc[cols.dst], part, cols.src))
        src, dst, op = cols.src[order], cols.dst[order], cols.op[order]
        part, critical = part[order], critical[order]
        m = len(order)
        dst_loc = loc[dst]
        remote = dst_loc != loc[src]
        new = np.ones(m, dtype=bool)
        new[1:] = (src[1:] != src[:-1]) | (part[1:] != part[:-1]) | (dst_loc[1:] != dst_loc[:-1])
        if not self.coalesce:
            new |= remote
        lo = np.flatnonzero(new)
        bounds = np.append(lo, m)
        part_of = 2 * src[lo] + part[lo]

        if self._node_levels is not None:
            levels = np.asarray(self._node_levels)[dst]
            near = np.isin(op, [OP_CODE[o] for o in self._near_ops if o in OP_CODE])
        else:
            levels = near = None

        t = DrainTable()
        t.part_ptr = np.searchsorted(part_of, np.arange(2 * n + 1)).tolist()
        part_priority = np.full(2 * n, LOW)
        if self._split and m:
            first = np.flatnonzero(np.r_[True, part_of[1:] != part_of[:-1]])
            part_priority[part_of[first]] = self._priorities(lo[first], near, levels, critical)
        t.part_priority = part_priority.tolist()
        t.bounds, t.loc = bounds.tolist(), dst_loc[lo].tolist()

        costs = self.cost.edge_costs(EDGE_OPS, op, count[src], count[dst])
        if (costs < 0).any():
            raise ValueError("negative charge")
        # zero charges are not charged at all (TaskContext.charge drops them)
        charged = costs > 0
        kinds, which = _distinct_rows(op[charged], costs[charged])
        t.charges = _interned([(EDGE_OPS[c], dt) for c, dt in kinds], which).tolist()
        t.cpos = range(m + 1) if charged.all() else np.r_[0, np.cumsum(charged)].tolist()

        # what a parcel to another locality costs its sender and carries
        sent = np.flatnonzero(remote[lo])
        first_row, n_edges = lo[sent], np.diff(bounds)[sent]
        payload = np.empty(len(sent), dtype=np.int64)
        for c in np.unique(op[first_row]).tolist():
            at = op[first_row] == c
            payload[at] = self.sizes.payload_bytes(
                EDGE_OPS[c], n_src_points=n_points[src[first_row[at]]]
            )
        priority = self._priorities(lo, near, levels, critical)[sent] if m else sent
        kinds, which = _distinct_rows(n_edges, self.sizes.parcel_bytes(payload, n_edges), priority)
        parcels = []
        for n_edge, nbytes, pr in kinds:
            dt = self.cost.remote_handling_cost(n_edge, nbytes)
            if dt < 0:
                raise ValueError("negative charge")
            parcels.append((("_runtime", dt) if dt > 0 else None, nbytes, pr))
        send = np.full(len(lo), None, dtype=object)
        send[sent] = _interned(parcels, which)
        t.send = send.tolist()

        lco_of = np.full(n, None, dtype=object)
        for nid, lco in self.lcos.items():
            lco_of[nid] = lco
        t.lcos = lco_of[dst].tolist()
        t.rows = order.tolist()
        t.ops = _interned(EDGE_OPS, op).tolist()
        return t

    # -- execution ---------------------------------------------------------------------
    def _continuation(self, ctx, node_id: int) -> None:
        self._process_edges(ctx, node_id, 0)
        if self._split:
            # the critical chain ran inline at the node's priority; the
            # leaf-output edges (M->T, L->T) go to a lower-priority sibling
            k = 2 * node_id + 1
            table = self._table()
            if table.part_ptr[k] < table.part_ptr[k + 1]:
                ctx.spawn(
                    Task(
                        fn=self._process_edges_task,
                        args=(node_id, 1),
                        op_class=f"edges:{self._nodes[node_id].kind}",
                        priority=table.part_priority[k],
                    )
                )

    def _process_edges(self, ctx, node_id: int, part: int) -> None:
        """One part of a node's out-edges: local groups charge and count
        down their LCOs here, the others leave as parcels."""
        t = self._table()
        k = 2 * node_id + part
        groups = range(t.part_ptr[k], t.part_ptr[k + 1])
        drv = self.runtime.scheduler.schedule_driver
        if drv is not None:
            # destination order is schedule freedom (edges within one
            # parcel keep their order)
            groups = _permuted(drv, groups, t.loc)
        for g in groups:
            send = t.send[g]
            if send is None:
                if self.sequential_edges:
                    self._run_group(ctx, t, g)
                else:
                    for i in range(t.bounds[g], t.bounds[g + 1]):
                        op_class = t.ops[i]
                        priority = self._edge_priority(op_class, t.lcos[i].node.id)
                        ctx.spawn(Task(self._run_edge_task, (i,), op_class, None, priority))
                continue
            charge, nbytes, priority = send
            if charge is not None:
                ctx.charges.append(charge)
            ctx.send_parcel(
                Parcel(
                    action="dashmm_edges",
                    target=t.loc[g],
                    args=(g,),
                    size_bytes=nbytes,
                    op_class="parcel:edges",
                    priority=priority,
                )
            )

    def _run_group(self, ctx, t: DrainTable, g: int) -> None:
        """Group ``g`` of the table executed here: its charges, then one
        ``("lco_sets", lcos, rows, ops)`` effect that counts the group's
        LCOs down in entry order, each under its edge's dedup key
        (:func:`repro.hpx.lco.count_down`)."""
        lo, hi = t.bounds[g], t.bounds[g + 1]
        ctx.charges.extend(t.charges[t.cpos[lo] : t.cpos[hi]])
        ctx.effects.append(("lco_sets", t.lcos[lo:hi], t.rows[lo:hi], t.ops[lo:hi]))

    def _edge_priority(self, op: str, dst: int) -> int:
        """:meth:`_priorities` of a run of one edge."""
        if self._node_levels is not None:
            return self._filler_level if op in self._near_ops else self._node_levels[dst]
        return HIGH if self._split and op in CRITICAL_OPS else LOW

    def _run_edge(self, ctx, i: int) -> None:
        """The one-edge task of ``sequential_edges=False``: entry ``i``
        of a local group."""
        t = self._table()
        ctx.charges.extend(t.charges[t.cpos[i] : t.cpos[i + 1]])
        ctx.lco_set(t.lcos[i], None, key=t.rows[i], op_class=t.ops[i])

    def _edges_action(self, ctx, target, g: int) -> None:
        """Parcel action: group ``g`` of the table, at its destination."""
        self._run_group(ctx, self._table(), g)

    # -- the plan: eager-section helpers ------------------------------------------------------
    def _eager_value(self, is_s2l: bool, src: int, dst: int, delta):
        """S->L or M->L (lattice offset ``delta``) contribution of one
        edge ``src -> dst`` (``None`` from a zero multipole)."""
        tbox = self.dual.target.boxes[self._nodes[dst].box_index]
        h = self.dual.domain.box_size(tbox.level)
        if is_s2l:
            tree = self.dual.source
            sbox = tree.boxes[self._nodes[src].box_index]
            rel = (tree.points[sbox.start : sbox.stop] - self._centers["target"][tbox.index]) / h
            return self.kernel.p2l(rel, tree.weights[sbox.start : sbox.stop], h)
        M = self._data_of(src)
        return None if M is None else self.factory.m2l(delta, h) @ M

    def _leaf_multipoles(self) -> dict[int, np.ndarray]:
        """Multipoles of every source leaf, one stacked fit per level.

        A per-edge evaluation builds one ``p2m`` matrix per leaf; here all
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

    def _batch_values(self, rows: list, values: dict) -> None:
        """Stacked S2L values of one source leaf at one target level:
        one p2l matrix build for all the target boxes; keyed by row."""
        cols = self.dag.edge_columns()
        src_node = self._nodes[int(cols.src[rows[0]])]
        tgt = self.dual.target
        tboxes = [tgt.boxes[self._nodes[d].box_index] for d in cols.dst[rows].tolist()]
        sbox = self.dual.source.boxes[src_node.box_index]
        spts = self.dual.source.points[sbox.start : sbox.stop]
        q = self.dual.source.weights[sbox.start : sbox.stop]
        h = self.dual.domain.box_size(tboxes[0].level)
        centers = np.stack([self._centers["target"][b.index] for b in tboxes])
        E, n = len(rows), len(spts)
        # edge blocks keep the (block*n, size) matrix cache-resident
        blk = max(1, 2048 // max(n, 1))
        coeffs = np.empty((E, self.kernel.size), dtype=complex)
        for i in range(0, E, blk):
            j = min(i + blk, E)
            rel = (spts[None, :, :] - centers[i:j, None, :]) / h
            mat = self.kernel.p2l_matrix(rel.reshape(-1, 3), h)
            coeffs[i:j] = np.matmul(q, mat.reshape(j - i, n, -1))
        for row, c in zip(rows, coeffs):
            values[row] = c

    # -- the plan: eager section ----------------------------------------------------------------
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

        Leaves the M/L expansions folded in canonical key order and a
        flush pending, without enqueuing a task, so
        :meth:`flush_deferred` finishes the evaluation.  Sessions run
        every submit as ``reset -> run_eager -> flush_deferred``.
        """
        for _, stage in self.eager_stages():
            stage()
        # the bridge, downward shift and leaf outputs flush from here
        self._flush_pending, self._eager_owed = True, False

    def _eager_s2m(self) -> None:
        self._s2m = self._leaf_multipoles()

    def _fold(self, folds: Folds, value) -> None:
        """Each fold's sum into its node's expansion: node ``folds.dst[i]``
        adds ``value(j)`` over its fold positions ``j``, in order."""
        lcos, bounds = self.lcos, folds.bounds
        for i, nid in enumerate(folds.dst):
            acc = None
            for j in range(bounds[i], bounds[i + 1]):
                v = value(j)
                acc = v if acc is None else acc + v
            lcos[nid].data = acc

    def _eager_m2m(self, folds: Folds) -> None:
        """The multipoles of one level, each folding its leaf fit and its
        children's shifted multipoles in canonical order."""
        cols = self.dag.edge_columns()
        src = cols.src[folds.rows].tolist()
        leaf = (cols.op[folds.rows] == OP_CODE["S2M"]).tolist()
        octant = cols.octant[folds.rows].tolist()
        nodes, s2m, data_of = self._nodes, self._s2m, self._data_of
        m2m, dom = self.factory.m2m, self.dual.domain

        def value(j):
            node = nodes[src[j]]
            if leaf[j]:
                return s2m[node.box_index]
            return m2m(octant[j], dom.box_size(node.level)) @ data_of(src[j])

        self._fold(folds, value)

    def _eager_m2l(self, plan: EagerPlan) -> None:
        """List-4 contributions in the plan's stacked compositions, then
        every local expansion's S->L / M->L fold."""
        cols = self.dag.edge_columns()
        values: dict[int, object] = {}
        for rows in plan.s2l_groups:
            if len(rows) == 1:
                row = rows[0]
                values[row] = self._eager_value(True, int(cols.src[row]), int(cols.dst[row]), None)
            else:
                self._batch_values(rows, values)
        folds = plan.l_folds
        rows = folds.rows.tolist()
        s2l = (cols.op[folds.rows] == OP_CODE["S2L"]).tolist()
        src, dst = cols.src[folds.rows].tolist(), cols.dst[folds.rows].tolist()
        delta = cols.delta[folds.rows].tolist()

        def value(j):
            if s2l[j]:
                return values[rows[j]]
            return self._eager_value(False, src[j], dst[j], delta[j])

        self._fold(folds, value)

    # -- the plan: flush stages -------------------------------------------------------------
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
        """Finish an evaluation: drop the drain tables - the drain is
        over - and run what the plan still owes: the eager section unless
        :meth:`run_eager` ran it since the drain or the last reset, then
        :meth:`flush_stages`.  Computes nothing when no plan is owed (a
        phantom drain, a registrar already flushed)."""
        self._drain = None
        if not self._flush_pending:
            return
        self._flush_pending = False
        stages = self.eager_stages() if self._eager_owed else []
        self._eager_owed = False
        for _, stage in stages + self.flush_stages():
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
