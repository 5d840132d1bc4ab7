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

The nodes are :class:`DagNode` objects; the edges are arrays only.
Construction (Section IV stresses it must stay a negligible fraction of
end-to-end time) has one implementation: :class:`repro.dag.DagBuilder`
runs the wiring rules a method's schema declares, each deriving its
node table and edge endpoint arrays - and the operator geometry, as
typed aux arrays - from the trees' columnar box tables with whole-array
operations, and appends them to the DAG as one part per operator class
(:func:`_append_edges`).  :meth:`DAG.edge_columns` folds the parts into
CSR columns, the one edge store every compiler and analysis reads; an
edge's identity is its row.  :attr:`DAG.out_edges` is a read-only view
of :class:`Edge` records, built on first access for readers off the
evaluate path (export, tests, tools).
:func:`build_fmm_dag` / :func:`build_bh_dag` are that builder with the
method's schema filled in.
:func:`build_fmm_dag_reference` / :func:`build_bh_dag_reference` are the
per-box loops the builder is tested against (identical node ids, edge
order and aux payloads), assembling edge by edge through
:meth:`DAG.add_edge`; nothing in the package calls them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.expo import DIRECTIONS, assign_direction
from repro.tree.dualtree import DualTree
from repro.tree.lists import InteractionLists
from repro.tree.morton import decode_morton

NODE_KINDS = ("S", "M", "Is", "It", "L", "T")
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


@dataclass
class DagNode:
    """One node of the explicit DAG."""

    id: int
    kind: str
    box_index: int  # index into the owning tree's box table
    level: int
    tree: str  # "source" | "target"
    n_points: int = 0  # for S/T nodes
    locality: int = -1  # assigned by the distribution policy


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


def _fits(v, dtype) -> bool:
    info = np.iinfo(dtype)
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and info.min <= v <= info.max


def _aux_row(aux) -> tuple:
    """``(aux kind, octant, dx, dy, dz, direction)`` of one edge's aux;
    ValueError where the columns cannot store it."""
    if aux is None:
        return (_NO_AUX, 0, 0, 0, 0, 0)
    if _fits(aux, np.int8):
        return (_OCTANT, aux, 0, 0, 0, 0)
    paired = isinstance(aux, tuple) and len(aux) == 2 and aux[0] in DIRECTIONS
    delta = aux[1] if paired else aux
    if isinstance(delta, tuple) and len(delta) == 3 and all(_fits(v, np.int32) for v in delta):
        if paired:
            return (_DIR_DELTA, 0, *delta, DIRECTIONS.index(aux[0]))
        return (_DELTA, 0, *delta, 0)
    raise ValueError(
        f"edge aux {aux!r} is none of: an int8 octant, a 3-int delta, "
        "a (direction, 3-int delta) pair"
    )


@dataclass
class DAG:
    """Explicit DAG: node table plus the edge set as columns.

    Edges are appended as parts (:func:`_append_edges` for a whole
    operator class, :meth:`add_edge` for one edge) and folded into
    :meth:`edge_columns` on first read.
    """

    nodes: list[DagNode] = field(default_factory=list)
    in_degree: list[int] = field(default_factory=list)
    # node lookup: (kind, box_index) -> node id, per kind
    index: dict[str, dict[int, int]] = field(
        default_factory=lambda: {k: {} for k in NODE_KINDS}
    )
    #: critical-path priority stamp left by the declarative builder
    #: (:meth:`repro.dag.schema.DagBuilder.stamp_priorities`): a dict
    #: with ``levels`` (grading resolution), ``values`` (one level per
    #: node) and ``cost`` (the cost model graded against, by identity).
    #: ``None`` until stamped; the registrar falls back to grading
    #: on the fly when absent or graded differently.
    priorities: dict | None = None
    #: edge parts in emission order: a tuple of column arrays per
    #: operator class the builder appended, a list of row tuples per run
    #: of add_edge() calls; one folded part once the columns are built
    _parts: list = field(default_factory=list, repr=False, compare=False)
    _columns: EdgeColumns | None = field(default=None, repr=False, compare=False)
    _view: tuple | None = field(default=None, repr=False, compare=False)

    def add_node(self, kind: str, box_index: int, level: int, tree: str, n_points: int = 0) -> int:
        nid = len(self.nodes)
        self.nodes.append(
            DagNode(id=nid, kind=kind, box_index=box_index, level=level, tree=tree, n_points=n_points)
        )
        self.in_degree.append(0)
        self.index[kind][box_index] = nid
        self._columns = self._view = None
        return nid

    def add_edge(self, src: int, dst: int, op: str, aux=None) -> None:
        """Append one edge; raises ValueError for an operator outside
        ``EDGE_OPS`` or an aux the columns cannot store."""
        if op not in OP_CODE:
            raise ValueError(f"unknown edge operator {op!r}")
        row = (src, dst, OP_CODE[op], *_aux_row(aux))
        self.in_degree[dst] += 1
        parts = self._parts
        if not parts or not isinstance(parts[-1], list):
            parts.append([])
        parts[-1].append(row)
        self._columns = self._view = None

    def edge_columns(self) -> EdgeColumns:
        """The edge set as CSR columns, folded once from the parts: one
        stable sort by source, so a node's rows keep emission order."""
        cols = self._columns
        if cols is not None:
            return cols
        n = len(self.nodes)
        parts = [_part([], [], EDGE_OPS[0])]
        for p in self._parts:
            if isinstance(p, list):  # add_edge rows
                a = np.array(p, dtype=np.int64)
                p = (*a[:, :5].T, a[:, 5:8], a[:, 8])
            parts.append(p)
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
        npts = np.fromiter((nd.n_points for nd in self.nodes), np.int64, len(self.nodes))
        npts = np.maximum(npts, 1)
        return cost_model.edge_costs(EDGE_OPS, cols.op, npts[cols.src], npts[cols.dst])

    # -- statistics (Tables I and II) -------------------------------------------
    def node_stats(self, size_model=None) -> dict[str, dict]:
        """Per-kind count, size range and in/out-degree range (Table I).

        Degree extrema are array reductions over the whole node table
        rather than per-node Python scans.
        """
        din = np.asarray(self.in_degree, dtype=np.int64)
        dout = np.diff(self.edge_columns().out_ptr)
        by_kind: dict[str, list[DagNode]] = defaultdict(list)
        for node in self.nodes:
            by_kind[node.kind].append(node)
        stats = {}
        for kind in NODE_KINDS:
            ns = by_kind.get(kind, [])
            if not ns:
                continue
            ids = np.fromiter((node.id for node in ns), dtype=np.int64, count=len(ns))
            entry = {
                "count": len(ns),
                "din_min": int(din[ids].min()),
                "din_max": int(din[ids].max()),
                "dout_min": int(dout[ids].min()),
                "dout_max": int(dout[ids].max()),
            }
            if size_model is not None:
                sizes = [size_model.node_bytes(kind, n_points=node.n_points) for node in ns]
                entry["size_min"] = min(sizes)
                entry["size_max"] = max(sizes)
            stats[kind] = entry
        return stats

    def edge_stats(self, size_model=None) -> dict[str, dict]:
        """Per-op count and message-size range (Table II), ops in order of
        first appearance."""
        cols = self.edge_columns()
        codes, first, counts = np.unique(cols.op, return_index=True, return_counts=True)
        if size_model is not None:
            npts = np.fromiter((nd.n_points for nd in self.nodes), np.int64, len(self.nodes))
        out = {}
        for i in np.argsort(first).tolist():
            op = EDGE_OPS[codes[i]]
            entry = {"count": int(counts[i])}
            if size_model is not None:
                at = cols.op == codes[i]
                b = np.asarray(size_model.payload_bytes(op, n_src_points=npts[cols.src[at]]))
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
        dist = [0.0] * len(self.nodes)
        for nid in self._topological_order():
            here = dist[nid]
            for r in range(ptr[nid], ptr[nid + 1]):
                if here + w[r] > dist[dst[r]]:
                    dist[dst[r]] = here + w[r]
        return max(dist) if dist else 0.0

    def _topological_order(self) -> list[int]:
        cols = self.edge_columns()
        ptr, dst = cols.out_ptr.tolist(), cols.dst.tolist()
        indeg = list(self.in_degree)
        stack = [nid for nid in range(len(self.nodes)) if indeg[nid] == 0]
        order = []
        while stack:
            nid = stack.pop()
            order.append(nid)
            for d in dst[ptr[nid] : ptr[nid + 1]]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    stack.append(d)
        if len(order) != len(self.nodes):
            raise RuntimeError("DAG has a cycle")
        return order


def _lattice(key: int) -> tuple[int, int, int]:
    _, x, y, z = decode_morton(key)
    return x, y, z


def _dead_below_pruned(tree, pruned: set[int]) -> set[int]:
    """Indices of boxes strictly below any pruned box."""
    dead: set[int] = set()
    for b in tree.boxes:  # BFS order: parents precede children
        pi = tree.key_to_index[b.parent] if b.parent is not None else None
        if pi is not None and (pi in pruned or pi in dead):
            dead.add(b.index)
    return dead


def _dead_mask(tgt, pruned: set[int]) -> np.ndarray:
    """Boolean per-box mask of targets strictly below a pruned box."""
    ta = tgt.arrays
    nb = len(tgt.boxes)
    pruned_mask = np.zeros(nb, dtype=bool)
    if pruned:
        pruned_mask[np.fromiter(pruned, dtype=np.int64, count=len(pruned))] = True
    dead = np.zeros(nb, dtype=bool)
    for lvl in tgt.levels[1:]:
        idx = np.asarray(lvl, dtype=np.int64)
        p = ta.parent[idx]
        dead[idx] = dead[p] | pruned_mask[p]
    return dead


# -- vectorised assembly helpers ------------------------------------------------
def _batch_nodes(dag: DAG, kind: str, box_idx, levels, tree: str, n_points=None) -> int:
    """Append one kind-block of nodes; returns the first node id."""
    base = len(dag.nodes)
    nodes = dag.nodes
    index = dag.index[kind]
    bi = box_idx.tolist() if isinstance(box_idx, np.ndarray) else list(box_idx)
    lv = levels.tolist() if isinstance(levels, np.ndarray) else list(levels)
    npts = (
        n_points.tolist()
        if isinstance(n_points, np.ndarray)
        else (n_points if n_points is not None else [0] * len(bi))
    )
    for b, l, p in zip(bi, lv, npts):
        nid = len(nodes)
        nodes.append(
            DagNode(id=nid, kind=kind, box_index=b, level=l, tree=tree, n_points=p)
        )
        index[b] = nid
    return base


def _append_edges(dag: DAG, srcs, dsts, op: str, octant=None, delta=None, direction=None) -> None:
    """Append one operator class of edges - endpoint arrays and the aux
    arrays its geometry needs - as one part of the DAG's edge columns."""
    dag._parts.append(_part(srcs, dsts, op, octant, delta, direction))
    dag._columns = dag._view = None


def _deltas(sa, ta, tis: np.ndarray, sis: np.ndarray) -> np.ndarray:
    """Lattice offsets target minus source box, one row per pair."""
    return np.stack(
        [ta.ix[tis] - sa.ix[sis], ta.iy[tis] - sa.iy[sis], ta.iz[tis] - sa.iz[sis]], axis=1
    )


def build_fmm_dag(dual: DualTree, lists: InteractionLists, advanced: bool = True) -> DAG:
    """Build the explicit FMM DAG (basic 8-operator or advanced 11-operator)."""
    from repro.dag import DagBuilder, method_schema

    schema = method_schema("fmm" if advanced else "fmm-basic")
    return DagBuilder(schema, validate=False).build(dual, lists=lists)


def refresh_n_points(dag: DAG, dual: DualTree) -> None:
    """Re-stamp per-node point counts from a (spliced) dual tree.

    The structural DAG of a template is shape-keyed: node ids, edges and
    operator bindings survive any perturbation that preserves the box
    structure.  What does *not* survive are the S/T point counts (they
    feed work estimates and parcel-size models), which this refreshes in
    one pass without touching the wiring.
    """
    src_counts = dual.source.arrays.counts
    tgt_counts = dual.target.arrays.counts
    for node in dag.nodes:
        if node.kind == "S":
            node.n_points = int(src_counts[node.box_index])
        elif node.kind == "T":
            node.n_points = int(tgt_counts[node.box_index])


def build_fmm_dag_reference(dual: DualTree, lists: InteractionLists, advanced: bool) -> DAG:
    """Per-box reference assembly (the oracle loop path)."""
    src, tgt = dual.source, dual.target
    dag = DAG()
    dead = _dead_below_pruned(tgt, lists.pruned)

    # --- source side: S nodes at leaves, M everywhere -------------------------
    for b in src.boxes:
        dag.add_node("M", b.index, b.level, "source")
    for b in src.boxes:
        if b.is_leaf and b.count > 0:
            s = dag.add_node("S", b.index, b.level, "source", n_points=b.count)
            dag.add_edge(s, dag.index["M"][b.index], "S2M")
    for b in src.boxes:
        if b.parent is not None:
            pi = src.key_to_index[b.parent]
            dag.add_edge(
                dag.index["M"][b.index], dag.index["M"][pi], "M2M", aux=b.key & 7
            )

    # --- target side: L for live boxes at level >= 2, T at eval boxes ----------
    for b in tgt.boxes:
        if b.index in dead:
            continue
        if b.level >= 2:
            dag.add_node("L", b.index, b.level, "target")
    for b in tgt.boxes:
        if b.index in dead:
            continue
        if (b.is_leaf or b.index in lists.pruned) and b.count > 0:
            t = dag.add_node("T", b.index, b.level, "target", n_points=b.count)
            if b.index in dag.index["L"]:
                dag.add_edge(dag.index["L"][b.index], t, "L2T")
    # L2L downward
    for b in tgt.boxes:
        if b.index not in dag.index["L"] or b.level < 3:
            continue
        pi = tgt.key_to_index[b.parent]
        if pi in dag.index["L"]:
            dag.add_edge(
                dag.index["L"][pi], dag.index["L"][b.index], "L2L", aux=b.key & 7
            )

    # --- list 2 ------------------------------------------------------------------
    if advanced:
        # group pairs by (target box); create Is/It lazily
        for ti, sis in lists.l2.items():
            t = tgt.boxes[ti]
            tx, ty, tz = _lattice(t.key)
            if ti not in dag.index["It"]:
                it = dag.add_node("It", ti, t.level, "target")
                dag.add_edge(it, dag.index["L"][ti], "I2L")
            it = dag.index["It"][ti]
            for si in sis:
                s = src.boxes[si]
                sx, sy, sz = _lattice(s.key)
                delta = (tx - sx, ty - sy, tz - sz)
                d = assign_direction(delta)
                if si not in dag.index["Is"]:
                    isid = dag.add_node("Is", si, s.level, "source")
                    dag.add_edge(dag.index["M"][si], isid, "M2I")
                dag.add_edge(dag.index["Is"][si], it, "I2I", aux=(d, delta))
    else:
        for ti, sis in lists.l2.items():
            t = tgt.boxes[ti]
            tx, ty, tz = _lattice(t.key)
            for si in sis:
                s = src.boxes[si]
                sx, sy, sz = _lattice(s.key)
                delta = (tx - sx, ty - sy, tz - sz)
                dag.add_edge(
                    dag.index["M"][si], dag.index["L"][ti], "M2L", aux=delta
                )

    # --- adaptive lists -------------------------------------------------------------
    for ti, sis in lists.l3.items():
        t = dag.index["T"].get(ti)
        if t is None:
            continue
        for si in sis:
            dag.add_edge(dag.index["M"][si], t, "M2T")
    for ti, sis in lists.l4.items():
        for si in sis:
            s_node = dag.index["S"].get(si)
            if s_node is None:
                continue
            dag.add_edge(s_node, dag.index["L"][ti], "S2L")
    for ti, sis in lists.l1.items():
        t = dag.index["T"].get(ti)
        if t is None:
            continue
        for si in sis:
            s_node = dag.index["S"].get(si)
            if s_node is None:
                continue
            dag.add_edge(s_node, t, "S2T")

    return dag


def build_bh_dag(dual: DualTree, mac_pairs: dict[int, list[tuple[str, int]]]) -> DAG:
    """Explicit DAG for Barnes-Hut.

    ``mac_pairs`` maps target leaf box index -> list of ("M2T"|"S2T",
    source box index) decisions from the MAC traversal.
    """
    from repro.dag import DagBuilder, method_schema

    return DagBuilder(method_schema("bh"), validate=False).build(dual, mac_pairs=mac_pairs)


def build_bh_dag_reference(dual: DualTree, mac_pairs: dict[int, list[tuple[str, int]]]) -> DAG:
    src, tgt = dual.source, dual.target
    dag = DAG()
    for b in src.boxes:
        dag.add_node("M", b.index, b.level, "source")
    for b in src.boxes:
        if b.is_leaf and b.count > 0:
            s = dag.add_node("S", b.index, b.level, "source", n_points=b.count)
            dag.add_edge(s, dag.index["M"][b.index], "S2M")
    for b in src.boxes:
        if b.parent is not None:
            pi = src.key_to_index[b.parent]
            dag.add_edge(dag.index["M"][b.index], dag.index["M"][pi], "M2M", aux=b.key & 7)
    for ti, ops in mac_pairs.items():
        t_box = tgt.boxes[ti]
        t = dag.add_node("T", ti, t_box.level, "target", n_points=t_box.count)
        for op, si in ops:
            if op == "M2T":
                dag.add_edge(dag.index["M"][si], t, "M2T")
            else:
                s_node = dag.index["S"].get(si)
                if s_node is not None:
                    dag.add_edge(s_node, t, "S2T")
    return dag
