"""The implicit DAG: expansion LCOs, out-edge processing, coalescing.

This module realizes Section IV and Fig. 2 of the paper.  For a drain,
every DAG node with inputs becomes a user-defined *expansion LCO* that
counts its outstanding in-edges; when the last input arrives it
triggers and its single registered continuation processes the out-edge
list:

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

The expansions are not in the LCOs: the plan's stages write and read
one store, :attr:`Registrar.expansions`.  So the LCO network exists only
where a drain runs - :meth:`Registrar.allocate` builds it, and is the
one method that needs a runtime - and a session or a worker runs the
plan on a ``Registrar(None, ...)``.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import partial

import numpy as np

from repro.dashmm.dag import DAG, EDGE_OPS, KIND_CODE, NODE_KINDS, OP_CODE, TREES
from repro.dashmm.flushplan import (
    FULL_DIRS,
    BridgeLevel,
    EagerPlan,
    FlushPlan,
    Folds,
    LeafLayout,
    _runs,
    compile_eager_plan,
    compile_flush_plan,
    compile_leaf_layout,
)
from repro.dashmm.geomcache import CHUNK, GeometryCache, expansion_rows
from repro.hpx.lco import CountingLCO
from repro.hpx.parcel import Parcel
from repro.hpx.runtime import Runtime
from repro.hpx.scheduler import HIGH, LOW, Task
from repro.kernels.base import Kernel, pair_distances
from repro.kernels.expo import DIRECTIONS, i2i_tables
from repro.kernels.fitops import OperatorFactory
from repro.sim.costmodel import CostModel, SizeModel
from repro.tree.incremental import point_moves

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
#: per node kind code: does the node hold an expansion (S and T hold
#: points)
_EXPANSION = np.array([kind in ("M", "Is", "It", "L") for kind in NODE_KINDS])


def _weak_method(method):
    """``method`` as a plain callable that holds its object weakly."""
    ref, fn = weakref.ref(method.__self__), method.__func__
    return lambda *args: fn(ref(), *args)


class ExpansionLCO(CountingLCO):
    """User-defined LCO (Fig. 2): a node's outstanding in-edge count.

    An input only counts down - the drain carries no values - and each
    dedup key (the edge's row in the DAG's edge columns, see
    :class:`DrainTable`) is folded at most once, so a retransmitted
    parcel cannot count an edge twice.  The node's expansion is written
    by the plan's stages after the drain, into
    :attr:`Registrar.expansions`.
    """

    def __init__(self, runtime, locality: int, dag: DAG, node: int, n_inputs: int):
        super().__init__(runtime, locality, n_inputs)
        self.dag = dag
        self.node = node

    @property
    def hazard_subject(self) -> str:
        """IR-derived identity for hazard reports: the DAG node, not an
        opaque GAS address, so a report names the offending graph
        element directly."""
        d, i = self.dag, self.node
        return (
            f"{NODE_KINDS[d.kind[i]]}[{TREES[d.tree[i]]} box {d.box[i]} L{d.level[i]}]"
            f"@{self.addr!r}"
        )


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


def fit_operators(factory: OperatorFactory, dag: DAG, domain) -> None:
    """Fit every translation operator the plan of ``dag`` reads, on any
    rank: M->M and L->L per (octant, level), M->L per (offset, level),
    and M->I and I->L per (direction, level) of the I->I edges.  A
    registrar of ``dag`` (or of any rank's slice of it) then factorizes
    nothing; the stages assemble their operator stacks from these on
    first use."""
    cols, level, box_size = dag.edge_columns(), dag.level, domain.box_size

    def distinct(op: str, node: np.ndarray, *aux: np.ndarray) -> list:
        """The distinct (aux..., level of ``node``) rows of one class."""
        at = cols.op == OP_CODE[op]
        return _distinct_rows(*(a[at] for a in aux), level[node[at]])[0]

    for octant, lv in distinct("M2M", cols.src, cols.octant):
        factory.m2m(octant, box_size(lv))
    for octant, lv in distinct("L2L", cols.src, cols.octant):
        factory.l2l(octant, box_size(lv))
    delta = cols.delta.T
    for *d, lv in distinct("M2L", cols.dst, *delta):
        factory.m2l(d, box_size(lv))
    for k, lv in distinct("I2I", cols.src, cols.direction):
        factory.m2i(DIRECTIONS[k], box_size(lv))
        factory.i2l(DIRECTIONS[k], box_size(lv))


class Registrar:
    """One evaluation's expansions and the plan that computes them; over
    a runtime (:meth:`allocate`), also the LCO network whose drain
    schedules it.  ``runtime`` is None where the plan runs in place of a
    drain (sessions, parallel workers)."""

    def __init__(
        self,
        runtime: Runtime | None,
        dag: DAG,
        dual,
        kernel,
        factory: OperatorFactory | None,
        mode: str = "numeric",
        cost_model: CostModel | None = None,
        size_model: SizeModel | None = None,
        coalesce: bool = True,
        sequential_edges: bool = True,
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
        #: the whole plan is owed: set by a numeric drain and by reset(),
        #: cleared by flush_deferred()
        self._flush_pending = False
        #: per-level dense (source-side, target-side) plane-wave
        #: matrices, alive between the bridge stages of one flush
        self._waves: dict[int, list] = {}
        #: source box index -> multipole, all leaves fitted in one
        #: stacked pass per level by the eager section's first stage
        self._s2m: dict[int, np.ndarray] | None = None
        #: restrict the expansion store, the stacked leaf fits and both
        #: plan sections to the nodes and edges of this locality (a
        #: parallel worker sets its own rank before its first round);
        #: None = all
        self._rank: int | None = None
        #: node id -> expansion row, ``None`` the zero expansion of a
        #: node nothing contributed to: every expansion node of this
        #: rank, written by the plan's stages, plus in a worker the
        #: remote rows its peers' stage frames delivered.  A read of a
        #: remote node no frame delivered is a ``KeyError`` (a plan whose
        #: ``recvs`` miss a node one of its stages reads), not a zero
        self.expansions: dict[int, np.ndarray | None] = {}
        #: the drain's LCOs, built by allocate()
        self.lcos: dict[int, ExpansionLCO] = {}
        self.result = np.zeros(dual.target.n_points) if dual is not None else None
        #: box centers are a pure function of the box keys and the
        #: domain - i.e. of the tree *shape* - so they outlive rebind()
        self._centers = {
            "source": dual.domain.box_centers(dual.source.arrays.keys),
            "target": dual.domain.box_centers(dual.target.arrays.keys),
        }
        #: the geometry-derived operator matrices of the leaf stages (p2m
        #: basis rows, s2t greens, m2t/l2t evaluation rows) in flat pages
        #: (:mod:`repro.dashmm.geomcache`), given by the template store on
        #: a template's first reuse; None disables caching.  A cached
        #: operand is the cold one bit for bit.  When points move,
        #: rebind() diffs the trees and the next walk of the plan patches
        #: the rows (and s2t columns) that moved; invalidate_plans()
        #: clears it.
        self.geom_cache: GeometryCache | None = None
        #: bumped by every rebind(); each side of the cache is current
        #: at one generation
        self._geom_gen = 0
        #: per tree, :func:`~repro.tree.incremental.point_moves` of the
        #: last rebind() - what a cache of the previous generation
        #: recomputes and where it copies the rest from; None where that
        #: rebind found nothing to patch and once a walk of the plan has
        #: patched it in
        self._moved: dict | None = None
        #: where the flush plan's leaf outputs land, built on first use
        self._layout: LeafLayout | None = None
        self._seed_expansions()

    def _seed_expansions(self) -> None:
        """Every expansion node of this rank at the zero expansion, and
        no other entry."""
        dag, rank = self.dag, self._rank
        mine = _EXPANSION[dag.kind]
        if rank is not None:
            mine &= dag.locality == rank
        self.expansions = dict.fromkeys(np.flatnonzero(mine).tolist())

    def _stacked_data(self, node_ids) -> np.ndarray:
        """Row-stacked spherical expansions of ``node_ids``."""
        exp = self.expansions
        zero = np.zeros(self.kernel.size, dtype=complex)
        return np.stack([zero if (d := exp[i]) is None else d for i in node_ids])

    # -- allocation (Fig. 2, t0/t1) ------------------------------------------------
    def allocate(self) -> None:
        """Wire the registrar into its runtime for a drain - the one
        method that needs a runtime: the scheduling policy's priorities,
        the ``dashmm_edges`` parcel action, the checkpoint participant
        slot, and an LCO per DAG node with inputs, its continuation
        registered."""
        runtime = self.runtime
        # scheduling-policy wiring: a prioritized policy splits the
        # critical chain from leaf outputs (binary HIGH/LOW or graded
        # levels); a graded one additionally stamps offline
        # critical-path levels onto continuations and parcels
        pol = runtime.scheduler.policy
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
            stamp = getattr(self.dag, "priorities", None)
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
                    self.dag, cost_model=self.cost, levels=pol.n_levels - 1
                )
        # the runtime sits below the registrar in the ownership chain:
        # what is handed down into it - LCO continuations, time-zero and
        # spawned tasks, the parcel action, the checkpoint participant
        # slot - reaches the registrar by weak reference, so a dropped
        # evaluation is freed by reference counting, not by a
        # cyclic-collector pass
        continuation = _weak_method(self._continuation)
        self._process_edges_task = _weak_method(self._process_edges)
        self._run_edge_task = _weak_method(self._run_edge)
        runtime.register_action("dashmm_edges", _weak_method(self._edges_action))
        # per-evaluation mutable state outside the GAS (the pending-flush
        # flag, the result vector) rides checkpoints through the
        # participant protocol
        participants = getattr(runtime, "checkpoint_participants", None)
        if participants is not None:
            participants.append(weakref.ref(self))
        dag = self.dag
        has_lco = (dag.kind != KIND_CODE["S"]) & (dag.in_degree > 0)
        for nid in np.flatnonzero(has_lco).tolist():
            kind = NODE_KINDS[dag.kind[nid]]
            lco = ExpansionLCO(runtime, int(dag.locality[nid]), dag, nid, int(dag.in_degree[nid]))
            self.lcos[nid] = lco
            lco.register_continuation(
                Task(
                    fn=continuation,
                    args=(nid,),
                    op_class=f"edges:{kind}",
                    priority=self._node_priority(nid, kind),
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
        dag = self.dag
        count = 0
        for nid in np.flatnonzero(dag.in_degree == 0).tolist():
            for k in (2 * nid, 2 * nid + 1):
                if ptr[k] == ptr[k + 1]:
                    continue
                self.runtime.enqueue_task(
                    Task(
                        fn=self._process_edges_task,
                        args=(nid, k & 1),
                        op_class=f"edges:{NODE_KINDS[dag.kind[nid]]}",
                        priority=priority[k],
                    ),
                    int(dag.locality[nid]),
                )
                count += 1
        self._flush_pending = self.mode == "numeric"
        return count

    # -- persistent-session support -------------------------------------------------
    def reset(self, zero_result: bool = True) -> None:
        """Rewind the per-evaluation state for a re-run of the plan.

        Every expansion of this rank goes back to zero (a worker's
        received rows are dropped), the leaf fits go, and in numeric mode
        the whole plan is owed, so :meth:`flush_deferred` finishes the
        evaluation - a session's submit is ``reset -> flush_deferred``.
        Static shape-derived state - ``_centers``, the plans, the
        geometry cache - survives, which is the point.  The LCOs are not
        touched: they belong to a drain, which a reset registrar does not
        run.
        """
        self._seed_expansions()
        self._s2m = None
        self._flush_pending = self.mode == "numeric"
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

        The restored drain has computed nothing: the expansions go back
        to zero, the whole plan is owed again, and the drain's tables
        are recompiled on first use.
        """
        self._flush_pending = state["flush_pending"]
        self._seed_expansions()
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
        those groups.  The next use recompiles from the DAG, and the
        next :meth:`reset` seeds the expansions of the rank's new nodes.
        """
        self._plan = self._eager = self._layout = None
        self._i2i_ops = {}
        if self.geom_cache:
            self.geom_cache.clear()

    def rebind(self, dual) -> bool:
        """Point the registrar at a replacement dual tree of the *same
        shape*; returns whether any leaf's point count moved.

        A spliced tree keeps every box key, id and leaf flag but carries
        re-sorted points and updated start/stop/count tables; the DAG and
        the plans built over the old tree stay structurally valid.
        Box centers depend only on keys and domain, so ``_centers`` is
        untouched.  Where counts moved, callers must refresh the DAG's
        ``n_points`` (see :func:`repro.dashmm.dag.refresh_n_points`) and
        re-run the distribution policy themselves.

        With a geometry cache, the registrar's own previous tree - the
        one its entries were computed over - is diffed against ``dual``
        (:func:`~repro.tree.incremental.point_moves`), so the next
        walk of the plan recomputes only the rows that moved.  Where a
        leaf count moved, the leaf-output layout is compiled anew.
        """
        old, self.dual = self.dual, dual
        self._geom_gen += 1
        sides = ("source", "target")
        self._moved = None
        if self.geom_cache:
            self._moved = {
                side: point_moves(getattr(old, side), getattr(dual, side)) for side in sides
            }
        recount = any(
            not np.array_equal(getattr(old, side).arrays.counts, getattr(dual, side).arrays.counts)
            for side in sides
        )
        if recount:
            self._layout = None
        return recount

    def _node_priority(self, nid: int, kind: str) -> int:
        """Expansion nodes drive the critical chain; leaf data does not.

        Graded policies use the node's offline critical-path level; the
        binary policy promotes every expansion node to HIGH.
        """
        if self._node_levels is not None:
            return self._node_levels[nid]
        if not self._split:
            return LOW
        return HIGH if kind in ("M", "Is", "It", "L") else LOW

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
        dag = self.dag
        n = dag.n_nodes
        cols = dag.edge_columns()
        loc, box, n_points = dag.locality, dag.box, dag.n_points
        on_source = dag.tree == 0
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
                        op_class=f"edges:{NODE_KINDS[self.dag.kind[node_id]]}",
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
                        priority = self._edge_priority(op_class, t.lcos[i].node)
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
        box = self.dag.box
        tbox = self.dual.target.boxes[box[dst]]
        h = self.dual.domain.box_size(tbox.level)
        if is_s2l:
            tree = self.dual.source
            sbox = tree.boxes[box[src]]
            rel = (tree.points[sbox.start : sbox.stop] - self._centers["target"][tbox.index]) / h
            return self.kernel.p2l(rel, tree.weights[sbox.start : sbox.stop], h)
        M = self.expansions[src]
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
        batches.  The M node of a source box is its box index.
        """
        src, dom = self.dual.source, self.dual.domain
        sa, levels = src.arrays, src.arrays.levels.tolist()
        m_loc = self.dag.locality.tolist()
        by_level: dict[tuple, list] = {}
        for b in np.flatnonzero(sa.leaf & (sa.counts > 0)).tolist():
            loc = m_loc[b]
            if self._rank is None or loc == self._rank:
                by_level.setdefault((levels[b], loc), []).append(b)
        out: dict[int, np.ndarray] = {}
        if not by_level:
            return out
        batches = [(level, np.array(ids)) for (level, _), ids in by_level.items()]
        leaves = np.concatenate([ids for _, ids in batches])
        counts = sa.counts[leaves]
        pos = _runs(sa.starts[leaves], counts)
        group_lo = np.cumsum([0] + [len(ids) for _, ids in batches[:-1]])
        row_at = np.concatenate(([0], np.cumsum(np.add.reduceat(counts, group_lo)))).tolist()
        store, fill = None, True
        if self.geom_cache is not None:
            # the basis rows depend only on point geometry (and scale),
            # not on the charges: a charge-only resubmission reuses them
            # and pays one elementwise multiply, which is row-wise, so a
            # cached fit is bit-identical to a cold one; a drift patches
            # the rows of the moved points
            store, fill = self.geom_cache.leaf_fits(
                leaves, counts, pos, group_lo, np.array([lv for lv, _ in batches]),
                self._geom_gen, self._moved, self,
            )
        w = src.weights[pos]
        for i, (level, ids) in enumerate(batches):
            lo, hi = row_at[i], row_at[i + 1]
            n = sa.counts[ids]
            if fill:
                center = np.repeat(self._centers["source"][ids], n, axis=0)
                P = expansion_rows(
                    self.kernel.p2m_matrix, src.points, pos[lo:hi], center, dom.box_size(level),
                    None if store is None else store.blocks[i],
                )
            else:
                P = store.blocks[i]
            rows = w[lo:hi, None] * P
            out.update(zip(ids.tolist(), np.add.reduceat(rows, np.cumsum(n) - n, axis=0)))
        if store is not None:
            self.geom_cache.gen["p2m"] = self._geom_gen
        return out

    def _batch_values(self, rows: list, values: dict) -> None:
        """Stacked S2L values of one source leaf at one target level:
        one p2l matrix build for all the target boxes; keyed by row."""
        cols = self.dag.edge_columns()
        box = self.dag.box
        tgt = self.dual.target
        tboxes = [tgt.boxes[b] for b in box[cols.dst[rows]].tolist()]
        sbox = self.dual.source.boxes[box[cols.src[rows[0]]]]
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
        folds of S->L and M->L.  Sources are read from
        :attr:`expansions`, so a worker running its rank's slice folds
        the multipoles its peers shipped.
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

    def _eager_s2m(self) -> None:
        self._s2m = self._leaf_multipoles()

    def _fold(self, folds: Folds, value) -> None:
        """Each fold's sum into its node's expansion: node ``folds.dst[i]``
        adds ``value(j)`` over its fold positions ``j``, in order."""
        exp, bounds = self.expansions, folds.bounds
        for i, nid in enumerate(folds.dst):
            acc = None
            for j in range(bounds[i], bounds[i + 1]):
                v = value(j)
                acc = v if acc is None else acc + v
            exp[nid] = acc

    def _eager_m2m(self, folds: Folds) -> None:
        """The multipoles of one level, each folding its leaf fit and its
        children's shifted multipoles in canonical order."""
        cols = self.dag.edge_columns()
        src = cols.src[folds.rows].tolist()
        leaf = (cols.op[folds.rows] == OP_CODE["S2M"]).tolist()
        octant = cols.octant[folds.rows].tolist()
        box, level = self.dag.box[src].tolist(), self.dag.level[src].tolist()
        s2m, exp = self._s2m, self.expansions
        m2m, dom = self.factory.m2m, self.dual.domain

        def value(j):
            if leaf[j]:
                return s2m[box[j]]
            return m2m(octant[j], dom.box_size(level[j])) @ exp[src[j]]

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
        each, and runs the outputs stage's S->T groups while it waits
        (:class:`LeafOutputs`).
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
            ("outputs", LeafOutputs(self, plan)),
        ]

    def flush_deferred(self) -> None:
        """Finish an evaluation: drop the drain tables - the drain is
        over - and run the whole plan it owes, :meth:`eager_stages` then
        :meth:`flush_stages`.  Computes nothing when no plan is owed (a
        phantom drain, a registrar already flushed)."""
        self._drain = None
        if not self._flush_pending:
            return
        self._flush_pending = False
        for _, stage in self.eager_stages() + self.flush_stages():
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
        dom, exp = self.dual.domain, self.expansions
        self._waves = {}
        for b in plan.bridge:
            h = dom.box_size(b.level)
            width = len(b.dirs) * self.factory.quadrature(h).nterms
            src_side = np.empty((len(b.is_ids), width), dtype=complex)
            if b.m2i:
                stack = self.factory.m2i_stack(tuple(FULL_DIRS[d] for d in b.dirs), h)
            for lo, m_ids in b.m2i:
                src_side[lo : lo + len(m_ids)] = (
                    np.stack([exp[m] for m in m_ids]) @ stack.T
                )
            exp.update(zip(b.is_ids[: b.n_is_local], src_side))
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
        exp = self.expansions
        for b in plan.bridge:
            waves = self._waves[b.level]
            src_side = waves[0]
            for nid, row in zip(b.is_ids[b.n_is_local :], src_side[b.n_is_local :]):
                row[:] = exp[nid]
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
            exp.update(zip(b.it_ids[: b.n_it_local], tgt_side))

    def _flush_i2l(self, plan: FlushPlan) -> None:
        """Local-expansion contributions of the incoming plane waves:
        per (level, locality) group one GEMM of the gathered target-side
        rows against the stack of the level's directions (those a node
        receives nothing from are zero columns, which contribute exactly
        nothing)."""
        dom, exp = self.dual.domain, self.expansions
        for b in plan.bridge:
            tgt_side = self._waves[b.level][1]
            for nid, row in zip(b.it_ids[b.n_it_local :], tgt_side[b.n_it_local :]):
                row[:] = exp[nid]
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
        exp = self.expansions
        for nid, row in zip(node_ids, rows):
            old = exp[nid]
            exp[nid] = row if old is None else old + row

    def leaf_layout(self) -> LeafLayout:
        """Where the flush plan's leaf outputs land, built on first use
        and again after a rebind() that moved a leaf count; kept only
        with a geometry cache (a registrar without one flushes once)."""
        lay = self._layout
        if lay is None:
            lay = compile_leaf_layout(self.flush_plan(), self.dual.target)
            if self.geom_cache is not None:
                self._layout = lay
        return lay


class LeafOutputs:
    """The outputs stage of one walk of the plan, in three parts.

    Leaf outputs: one direct sum per source leaf over all its target
    points (S->T), one evaluation-matrix build per source level over the
    concatenated target points with each point dotted against its own
    edge's coefficient row (M->T, L->T), every contribution written into
    one plan-order vector ``vals``.  Each value is the dot product the
    per-edge path computes; the potentials add each target point's
    contributions slot by slot
    (:class:`~repro.dashmm.flushplan.LeafLayout`), in plan order, edge
    by edge - the sequence a per-edge walk adds them in.

    S->T reads points and charges only, so it need not wait for the
    expansions: :meth:`step` runs the *preparation* (the layout, the
    geometry-cache patch, the ``vals`` vector), then one S->T group per
    call - a parallel worker calls it while its inbox is empty - and
    the stage itself runs whatever is still pending, then M->T / L->T
    and the add.  Every ``vals`` slot is written once and the add keeps
    its order, so where a group ran moves no bit.
    """

    def __init__(self, reg: Registrar, plan: FlushPlan):
        self.reg, self.plan = reg, plan
        #: the S->T groups not run yet, in plan order
        self.pending = deque(i for i, g in enumerate(plan.outputs) if g.op == "S2T")
        #: the plan-order contributions, allocated by the preparation
        self.vals: np.ndarray | None = None

    def step(self) -> bool:
        """Run the next part that may run ahead of the stage - the
        preparation, then one S->T group; False when none is left."""
        if not self.plan.outputs:
            return False
        if self.vals is None:
            self._prepare()
        elif self.pending:
            self._s2t(self.pending.popleft())
        else:
            return False
        return True

    def __call__(self) -> None:
        while self.step():
            pass
        if self.plan.outputs:
            self._rest()

    def _prepare(self) -> None:
        reg, plan = self.reg, self.plan
        lay = self.lay = reg.leaf_layout()
        cache = reg.geom_cache
        self.greens = self.rows = None
        self.filling = True
        if cache is not None:
            # a kernel's own direct sum is not the chunked greens matvec
            direct = type(reg.kernel).direct is Kernel.direct
            self.greens, self.rows, self.filling = cache.outputs(
                plan, lay, reg._geom_gen, reg._moved, reg, direct
            )
        self.vals = np.empty(len(lay.point_idx))
        self.bounds = lay.bounds.tolist()
        sbox = plan.out_sbox[lay.group_lo]
        src = reg.dual.source
        self.s_lo, self.s_hi = src.arrays.starts[sbox].tolist(), src.arrays.stops[sbox].tolist()

    def _s2t(self, i: int) -> None:
        """The direct sum of S->T group ``i`` into its ``vals`` slots."""
        lo, hi = self.bounds[i], self.bounds[i + 1]
        out, lay = self.vals[lo:hi], self.lay
        src, tgt, kernel = self.reg.dual.source, self.reg.dual.target, self.reg.kernel
        sw = src.weights[self.s_lo[i] : self.s_hi[i]]
        if self.greens is None:
            spts = src.points[self.s_lo[i] : self.s_hi[i]]
            out[:] = kernel.direct(tgt.points[lay.point_idx[lo:hi]], spts, sw)
            return
        # Kernel.direct chunk for chunk: the greens matrix depends on the
        # coordinates only, so a warm re-query pays one matvec against the
        # fresh charges; identical chunking and operands make cached and
        # uncached sums bit-identical
        block = self.greens.blocks[i]
        for c0 in range(lo, hi, CHUNK) if self.filling else ():
            idx = lay.point_idx[c0 : min(c0 + CHUNK, hi)]
            G = pair_distances(tgt.points[idx], src.points[self.s_lo[i] : self.s_hi[i]])
            block[c0 - lo : c0 - lo + CHUNK] = kernel.greens(G)
        if hi - lo <= CHUNK:
            np.matmul(block, sw, out=out)
            return
        for c0 in range(0, hi - lo, CHUNK):
            np.matmul(block[c0 : c0 + CHUNK], sw, out=out[c0 : c0 + CHUNK])

    def _rest(self) -> None:
        """M->T and L->T into their ``vals`` slots, then the add."""
        reg, plan, lay = self.reg, self.plan, self.lay
        dom, kernel, tgt = reg.dual.domain, reg.kernel, reg.dual.target
        vals, bounds, filling = self.vals, self.bounds, self.filling
        for i, g in enumerate(plan.outputs):
            if g.op == "S2T":
                continue
            lo, hi = bounds[i], bounds[i + 1]
            out = vals[lo:hi]
            h = dom.box_size(g.sub)
            side = "source" if g.op == "M2T" else "target"
            centers = reg._centers[side][plan.out_sbox[g.lo : g.hi]]
            coeffs = reg._stacked_data(plan.out_src[g.lo : g.hi])
            # which edge owns each concatenated point (the per-point
            # center/coefficient rows are gathered per chunk so every
            # temporary stays cache-resident)
            eidx = np.repeat(np.arange(g.hi - g.lo), lay.counts[g.lo : g.hi])
            # the evaluation rows depend on the target points and box
            # centers but not on the coefficients: a warm re-evaluation
            # pays only the row-dot - the same (matrix * rows).sum
            # contraction as m2t_rows / l2t_rows, hence bit-identical
            matf = kernel.m2t_matrix if g.op == "M2T" else kernel.l2t_matrix
            block = None if self.rows is None else self.rows.blocks[i]
            for c0 in range(0, hi - lo, CHUNK):
                sel = eidx[c0 : c0 + CHUNK]
                if not filling:
                    mat = block[c0 : c0 + CHUNK]
                else:
                    pts = tgt.points[lay.point_idx[lo + c0 : min(lo + c0 + CHUNK, hi)]]
                    mat = matf((pts - centers[sel]) / h, h)
                    if block is not None:
                        block[c0 : c0 + CHUNK] = mat
                out[c0 : c0 + CHUNK] = (mat * coeffs[sel]).sum(axis=1).real
        if reg.geom_cache is not None:
            reg.geom_cache.gen["outputs"] = reg._geom_gen
        lay.add_into(reg.result, vals)
        # the last stage of a walk: every entry is current, so the next
        # walk, unless a rebind() comes first, needs no patch pass
        reg._moved = None
