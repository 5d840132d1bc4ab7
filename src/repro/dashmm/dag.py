"""The explicit DAG: expansion nodes and operator edges (Section IV).

DASHMM builds two representations of the DAG: this explicit one, used
during partitioning and distribution (and for the statistics of Tables
I and II), and the implicit LCO network built from it by
:mod:`repro.dashmm.registrar`.

Node classes follow Table I: ``S`` (source leaf data), ``M`` (multipole
expansion), ``Is`` (source-side intermediate expansion), ``It``
(target-side intermediate expansion), ``L`` (local expansion) and ``T``
(target leaf data).  Edge classes follow Table II, plus the basic-FMM
and adaptive-list operators (M2L, M2T, S2L) the traced cube run happens
not to exercise.

Nodes and edges are columns.  A node is a position in the node columns
(:attr:`DAG.kind`, ``box``, ``level``, ``tree``, ``n_points``,
``locality``, ``in_degree``); an edge is a row of the CSR edge columns
(:meth:`DAG.edge_columns`).  The one way to assemble a DAG is to append
blocks to both: :meth:`DAG.append_nodes` for a block of nodes,
:meth:`DAG.append_edges` for a block of one operator class.
Construction (Section IV stresses it must stay a negligible fraction of
end-to-end time) has one implementation: :class:`repro.dag.DagBuilder`
runs the wiring rules a method's schema declares, each deriving its
node blocks and edge endpoint arrays - and the operator geometry, as
typed aux arrays - from the trees' columnar box tables with whole-array
operations.  :attr:`DAG.nodes` and :attr:`DAG.out_edges` are read-only
views of :class:`DagNode` / :class:`Edge` records for readers off the
evaluate path (export, tests, tools).
:func:`build_fmm_dag` / :func:`build_bh_dag` are that builder with the
method's schema filled in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.expo import DIRECTIONS
from repro.tree.dualtree import DualTree
from repro.tree.lists import InteractionLists

NODE_KINDS = ("S", "M", "Is", "It", "L", "T")
#: node kind -> code, the index into NODE_KINDS the kind column stores
KIND_CODE = {kind: i for i, kind in enumerate(NODE_KINDS)}
#: the tree sides, by the code the tree column stores
TREES = ("source", "target")
EDGE_OPS = ("S2T", "S2M", "M2M", "M2L", "M2I", "I2I", "I2L", "L2L", "L2T", "M2T", "S2L")
#: op name -> code, the index into EDGE_OPS the edge columns store
OP_CODE = {op: i for i, op in enumerate(EDGE_OPS)}
#: the aux payloads the edge columns store, by code (the names of the
#: schema's :attr:`repro.dag.EdgeKind.aux` signatures)
AUX_KINDS = ("none", "octant", "delta", "dir_delta")
_NO_AUX, _OCTANT, _DELTA, _DIR_DELTA = range(len(AUX_KINDS))

#: Instrumentation for the persistent-evaluation layer: every from-scratch
#: DAG assembly bumps this.  A warm-path submit that hits a DAG template
#: must leave it untouched (asserted by the service tests).
COUNTERS = {"assemblies": 0}


def assign_direction_arrays(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.kernels.expo.assign_direction`.

    Returns an int code into ``DIRECTIONS`` (+z, -z, +x, -x, +y, -y);
    ties between axes break in z, x, y order like the scalar version.
    """
    az, ax, ay = np.abs(dz), np.abs(dx), np.abs(dy)
    use_z = (az >= ax) & (az >= ay)
    use_x = ~use_z & (ax >= ay)
    value = np.where(use_z, dz, np.where(use_x, dx, dy))
    axis = np.where(use_z, 0, np.where(use_x, 1, 2))
    return axis * 2 + (value <= 0)


@dataclass(frozen=True)
class DagNode:
    """One record of the read-only :attr:`DAG.nodes` view."""

    id: int
    kind: str
    box_index: int  # index into the owning tree's box table
    level: int
    tree: str  # "source" | "target"
    n_points: int  # for S/T nodes
    locality: int  # assigned by the distribution policy, -1 before


class NodeView(Sequence):
    """The node columns as :class:`DagNode` records, each built when it is
    read; nothing is cached, so a record always shows the columns as
    they are."""

    __slots__ = ("_dag",)

    def __init__(self, dag: DAG):
        self._dag = dag

    def __len__(self) -> int:
        return len(self._dag.kind)

    def __getitem__(self, i: int) -> DagNode:
        d = self._dag
        i = range(len(d.kind))[i]
        box, level, npts, loc = (int(c[i]) for c in (d.box, d.level, d.n_points, d.locality))
        return DagNode(i, NODE_KINDS[d.kind[i]], box, level, TREES[d.tree[i]], npts, loc)

    def __iter__(self):
        d = self._dag
        cols = (d.kind, d.box, d.level, d.tree, d.n_points, d.locality)
        for i, (k, b, lv, t, p, loc) in enumerate(zip(*(c.tolist() for c in cols))):
            yield DagNode(i, NODE_KINDS[k], b, lv, TREES[t], p, loc)


@dataclass(frozen=True)
class Edge:
    """One record of the read-only :attr:`DAG.out_edges` view.

    ``aux`` is the operator geometry (octant, delta or ``(direction,
    delta)``); ``pos`` the edge's position in its source node's
    out-edges, so its row in the edge columns is ``out_ptr[src] + pos``.
    """

    src: int
    dst: int
    op: str
    aux: object = None
    pos: int = -1


@dataclass(frozen=True)
class EdgeColumns:
    """The edge set as CSR columns.

    Node ``i``'s out-edges are rows ``out_ptr[i]:out_ptr[i + 1]`` in
    emission order; the row is the edge's identity (per-LCO dedup key,
    fold key).  ``aux_kind`` (a code into :data:`AUX_KINDS`) says which
    of ``octant`` / ``delta`` / ``direction`` a row carries; the others
    hold zeros there.
    """

    out_ptr: np.ndarray  # int64, one entry per node plus one
    src: np.ndarray  # int64 source node id per row
    dst: np.ndarray  # int64 destination node id per row
    op: np.ndarray  # int8 code into EDGE_OPS per row
    aux_kind: np.ndarray  # int8 code into AUX_KINDS per row
    octant: np.ndarray  # int8: M->M, L->L - the child's octant
    delta: np.ndarray  # int32 (rows, 3): M->L, I->I - target minus source lattice
    direction: np.ndarray  # int8 code into DIRECTIONS: I->I

    def aux_values(self) -> list:
        """Per row the aux payload as the ``Edge`` records state it."""
        rows = zip(
            self.aux_kind.tolist(),
            self.octant.tolist(),
            map(tuple, self.delta.tolist()),
            self.direction.tolist(),
        )
        return [(None, o, d, (DIRECTIONS[k], d))[kind] for kind, o, d, k in rows]


#: dtype of each EdgeColumns field after ``out_ptr``
_DTYPES = (np.int64, np.int64, np.int8, np.int8, np.int8, np.int32, np.int8)


def _part(src, dst, op: str, octant=None, delta=None, direction=None) -> tuple:
    """One operator class of edges as column arrays, in :class:`EdgeColumns`
    field order after ``out_ptr`` (cast to ``_DTYPES`` when folded)."""
    m = len(src)
    kind = (
        _DIR_DELTA if direction is not None
        else _DELTA if delta is not None
        else _OCTANT if octant is not None
        else _NO_AUX
    )
    zeros = np.zeros(m, np.int8)
    return (
        src,
        dst,
        np.full(m, OP_CODE[op], np.int8),
        np.full(m, kind, np.int8),
        zeros if octant is None else octant,
        np.zeros((m, 3), np.int32) if delta is None else delta,
        zeros if direction is None else direction,
    )


def _no_nodes(dtype):
    return field(default_factory=lambda: np.zeros(0, dtype), repr=False)


@dataclass(eq=False)
class DAG:
    """Explicit DAG: the nodes and the edges as columns.

    Node ``i`` is position ``i`` of every node column: its kind (a code
    into :data:`NODE_KINDS`), box index into its tree's box table,
    level, tree side (a code into :data:`TREES`), point count (S and T
    nodes), locality (written by the distribution policy, -1 before)
    and in-degree.  Edges are appended as parts, one per block, and
    folded into :meth:`edge_columns` on first read.
    """

    kind: np.ndarray = _no_nodes(np.int8)
    box: np.ndarray = _no_nodes(np.int64)
    level: np.ndarray = _no_nodes(np.int64)
    tree: np.ndarray = _no_nodes(np.int8)
    n_points: np.ndarray = _no_nodes(np.int64)
    locality: np.ndarray = _no_nodes(np.int64)
    #: per node, the edges appended into it
    in_degree: np.ndarray = _no_nodes(np.int64)
    #: edge parts in emission order, a tuple of column arrays per block
    #: appended; one folded part once the columns are built
    _parts: list = field(default_factory=list, repr=False)
    _columns: EdgeColumns | None = field(default=None, repr=False)
    _view: tuple | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    @property
    def nodes(self) -> NodeView:
        """The nodes as :class:`DagNode` records - a read-only view of the
        node columns."""
        return NodeView(self)

    def append_nodes(self, kind, box, level, tree, n_points=0) -> int:
        """Append a block of nodes; returns the first new node id.

        ``kind`` is a name from :data:`NODE_KINDS` or per node a code
        into it, ``tree`` likewise for :data:`TREES`; ``box``, ``level``
        and ``n_points`` are per node or one value for the block.  The
        new nodes have no locality (-1) and no in-edges yet.
        """
        base = len(self.kind)
        box = np.asarray(box, dtype=np.int64)
        new = {
            "kind": KIND_CODE[kind] if isinstance(kind, str) else kind,
            "box": box,
            "level": level,
            "tree": TREES.index(tree) if isinstance(tree, str) else tree,
            "n_points": n_points,
            "locality": -1,
            "in_degree": 0,
        }
        for name, values in new.items():
            col = getattr(self, name)
            block = np.broadcast_to(np.asarray(values, dtype=col.dtype), box.shape)
            setattr(self, name, np.concatenate([col, block]))
        self._columns = self._view = None
        return base

    def append_edges(self, src, dst, op: str, octant=None, delta=None, direction=None) -> None:
        """Append a block of edges of operator class ``op``: endpoint
        arrays and the aux arrays its geometry needs (octant; delta;
        direction code and delta), counted into the in-degrees."""
        self._parts.append(_part(src, dst, op, octant, delta, direction))
        self.in_degree += np.bincount(np.asarray(dst, dtype=np.int64), minlength=self.n_nodes)
        self._columns = self._view = None

    def edge_columns(self) -> EdgeColumns:
        """The edge set as CSR columns, folded once from the parts: one
        stable sort by source, so a node's rows keep emission order."""
        cols = self._columns
        if cols is not None:
            return cols
        n = self.n_nodes
        parts = [_part([], [], EDGE_OPS[0]), *self._parts]
        src, *rest = (np.concatenate(c).astype(t, copy=False) for c, t in zip(zip(*parts), _DTYPES))
        order = np.argsort(src, kind="stable")
        src = src[order]
        rest = [col[order] for col in rest]
        out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=out_ptr[1:])
        self._columns = cols = EdgeColumns(out_ptr, src, *rest)
        self._parts = [(src, *rest)]
        return cols

    @property
    def out_edges(self) -> tuple:
        """Per node, its out-edges as :class:`Edge` records, in row order
        - a read-only view of :meth:`edge_columns`, built on first
        access and kept until the DAG changes."""
        view = self._view
        if view is None:
            cols = self.edge_columns()
            ptr, dst = cols.out_ptr.tolist(), cols.dst.tolist()
            ops = [EDGE_OPS[c] for c in cols.op.tolist()]
            aux = cols.aux_values()
            self._view = view = tuple(
                tuple(Edge(s, dst[r], ops[r], aux[r], r - lo) for r in range(lo, hi))
                for s, (lo, hi) in enumerate(zip(ptr, ptr[1:]))
            )
        return view

    def edge_costs(self, cost_model) -> np.ndarray:
        """Per row the cost model's charge for the edge, with the point
        counts of its endpoint nodes (at least 1) - bit for bit the
        scalar ``edge_cost`` of each edge."""
        cols = self.edge_columns()
        npts = np.maximum(self.n_points, 1)
        return cost_model.edge_costs(EDGE_OPS, cols.op, npts[cols.src], npts[cols.dst])

    # -- statistics (Tables I and II) -------------------------------------------
    def node_stats(self, size_model=None) -> dict[str, dict]:
        """Per-kind count, size range and in/out-degree range (Table I)."""
        din = self.in_degree
        dout = np.diff(self.edge_columns().out_ptr)
        stats = {}
        for code, kind in enumerate(NODE_KINDS):
            ids = np.flatnonzero(self.kind == code)
            if not ids.size:
                continue
            entry = {
                "count": int(ids.size),
                "din_min": int(din[ids].min()),
                "din_max": int(din[ids].max()),
                "dout_min": int(dout[ids].min()),
                "dout_max": int(dout[ids].max()),
            }
            if size_model is not None:
                npts = self.n_points[ids].tolist()
                sizes = [size_model.node_bytes(kind, n_points=p) for p in npts]
                entry["size_min"] = min(sizes)
                entry["size_max"] = max(sizes)
            stats[kind] = entry
        return stats

    def edge_stats(self, size_model=None) -> dict[str, dict]:
        """Per-op count and message-size range (Table II), ops in order of
        first appearance."""
        cols = self.edge_columns()
        codes, first, counts = np.unique(cols.op, return_index=True, return_counts=True)
        out = {}
        for i in np.argsort(first).tolist():
            op = EDGE_OPS[codes[i]]
            entry = {"count": int(counts[i])}
            if size_model is not None:
                at = cols.op == codes[i]
                npts = self.n_points[cols.src[at]]
                b = np.asarray(size_model.payload_bytes(op, n_src_points=npts))
                entry["size_min"] = int(b.min())
                entry["size_max"] = int(b.max())
            out[op] = entry
        return out

    @property
    def n_edges(self) -> int:
        return len(self.edge_columns().dst)

    def critical_path_length(self, weights: np.ndarray | None = None) -> float:
        """Longest path through the DAG: unit edge cost, or ``weights[row]``."""
        cols = self.edge_columns()
        ptr, dst = cols.out_ptr.tolist(), cols.dst.tolist()
        w = [1.0] * len(dst) if weights is None else weights.tolist()
        dist = [0.0] * self.n_nodes
        for nid in self._topological_order():
            here = dist[nid]
            for r in range(ptr[nid], ptr[nid + 1]):
                if here + w[r] > dist[dst[r]]:
                    dist[dst[r]] = here + w[r]
        return max(dist) if dist else 0.0

    def _topological_order(self) -> list[int]:
        cols = self.edge_columns()
        ptr, dst = cols.out_ptr.tolist(), cols.dst.tolist()
        indeg = np.asarray(self.in_degree).tolist()
        stack = [nid for nid in range(self.n_nodes) if indeg[nid] == 0]
        order = []
        while stack:
            nid = stack.pop()
            order.append(nid)
            for d in dst[ptr[nid] : ptr[nid + 1]]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    stack.append(d)
        if len(order) != self.n_nodes:
            raise RuntimeError("DAG has a cycle")
        return order


def _dead_mask(tgt, pruned: set[int]) -> np.ndarray:
    """Boolean per-box mask of targets strictly below a pruned box."""
    ta = tgt.arrays
    nb = len(ta.keys)
    pruned_mask = np.zeros(nb, dtype=bool)
    if pruned:
        pruned_mask[np.fromiter(pruned, dtype=np.int64, count=len(pruned))] = True
    dead = np.zeros(nb, dtype=bool)
    # rows are level-major: one slice per level, parents before children
    bounds = np.flatnonzero(np.diff(ta.levels)) + 1
    for lo, hi in zip(bounds.tolist(), [*bounds[1:].tolist(), nb]):
        p = ta.parent[lo:hi]
        dead[lo:hi] = dead[p] | pruned_mask[p]
    return dead


def _deltas(sa, ta, tis: np.ndarray, sis: np.ndarray) -> np.ndarray:
    """Lattice offsets target minus source box, one row per pair."""
    return np.stack(
        [ta.ix[tis] - sa.ix[sis], ta.iy[tis] - sa.iy[sis], ta.iz[tis] - sa.iz[sis]], axis=1
    )


def build_fmm_dag(dual: DualTree, lists: InteractionLists, advanced: bool = True) -> DAG:
    """Build the explicit FMM DAG (basic 8-operator or advanced 11-operator)."""
    from repro.dag import DagBuilder, method_schema

    schema = method_schema("fmm" if advanced else "fmm-basic")
    return DagBuilder(schema).build(dual, lists=lists)


def refresh_n_points(dag: DAG, dual: DualTree) -> None:
    """Re-stamp per-node point counts from a (spliced) dual tree.

    The structural DAG of a template is shape-keyed: node ids, edges and
    operator bindings survive any perturbation that preserves the box
    structure.  What does *not* survive are the S/T point counts (they
    feed work estimates and parcel-size models), which this refreshes in
    one pass without touching the wiring.
    """
    for kind, tree in (("S", dual.source), ("T", dual.target)):
        at = dag.kind == KIND_CODE[kind]
        dag.n_points[at] = tree.arrays.counts[dag.box[at]]


def build_bh_dag(dual: DualTree, mac_pairs: dict[int, list[tuple[str, int]]]) -> DAG:
    """Explicit DAG for Barnes-Hut.

    ``mac_pairs`` maps target leaf box index -> list of ("M2T"|"S2T",
    source box index) decisions from the MAC traversal.
    """
    from repro.dag import DagBuilder, method_schema

    return DagBuilder(method_schema("bh")).build(dual, mac_pairs=mac_pairs)
