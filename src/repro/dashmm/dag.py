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

Construction (Section IV stresses it must stay a negligible fraction of
end-to-end time) has one implementation: :class:`repro.dag.DagBuilder`
runs the wiring rules a method's schema declares, each deriving its
node table and edge endpoint arrays from the trees' columnar box tables
(decoded coordinates, leaf masks, parent indices) with whole-array
operations, then materialises the node/edge objects in one tight pass
through the helpers below.  The endpoint arrays are kept as well and
become the DAG's CSR edge columns (:meth:`DAG.edge_columns`), which the
plan and drain compilers read instead of the ``Edge`` objects.
:func:`build_fmm_dag` / :func:`build_bh_dag` are that builder with the
method's schema filled in.
:func:`build_fmm_dag_reference` / :func:`build_bh_dag_reference` are the
per-box loops the builder is tested against (identical node ids, edge
order and aux payloads); nothing in the package calls them.
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

#: Instrumentation for the persistent-evaluation layer: every from-scratch
#: DAG assembly bumps this.  A warm-path submit that hits a DAG template
#: must leave it untouched (asserted by the service tests).
COUNTERS = {"assemblies": 0}

#: direction labels indexed by 2*axis + (1 if the signed offset is
#: non-positive), axis order z, x, y - mirrors assign_direction's
#: tie-breaking exactly
_DIR_LABELS = np.array(DIRECTIONS)


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


@dataclass
class Edge:
    """One DAG edge: ``aux`` carries operator geometry (octant, delta, dir).

    ``pos`` is the edge's position in its source node's out-edge list,
    stamped at assembly: ``(src, pos)`` is the edge's canonical identity
    (parcel wire format and per-LCO dedup key).
    """

    src: int
    dst: int
    op: str
    aux: object = None
    pos: int = -1


@dataclass(frozen=True)
class EdgeColumns:
    """The edge set as CSR columns, row for row the ``out_edges`` order.

    Node ``i``'s out-edges are rows ``out_ptr[i]:out_ptr[i + 1]`` in
    out-list order, so an edge's ``pos`` is its row minus
    ``out_ptr[src]`` and ``(src, pos)`` - the canonical edge identity -
    is implied by the row.
    """

    out_ptr: np.ndarray  # int64, one entry per node plus one
    dst: np.ndarray  # int64 destination node id per row
    op: np.ndarray  # int8 code into EDGE_OPS per row

    @property
    def src(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.out_ptr) - 1), np.diff(self.out_ptr))

    @property
    def pos(self) -> np.ndarray:
        return np.arange(len(self.dst)) - np.repeat(self.out_ptr[:-1], np.diff(self.out_ptr))


@dataclass
class DAG:
    """Explicit DAG: node table plus edges grouped by out-node.

    ``out_edges`` is the object view; :meth:`edge_columns` the same edge
    set as arrays.
    """

    nodes: list[DagNode] = field(default_factory=list)
    out_edges: list[list[Edge]] = field(default_factory=list)
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
    #: ``(src, dst, op code)`` arrays of each operator class in emission
    #: order, as the builder appended them; None once anything
    #: was added edge by edge, in which case the columns are read off
    #: ``out_edges``
    _edge_parts: list | None = field(default_factory=list, repr=False, compare=False)
    _columns: EdgeColumns | None = field(default=None, repr=False, compare=False)

    def add_node(self, kind: str, box_index: int, level: int, tree: str, n_points: int = 0) -> int:
        nid = len(self.nodes)
        self.nodes.append(
            DagNode(id=nid, kind=kind, box_index=box_index, level=level, tree=tree, n_points=n_points)
        )
        self.out_edges.append([])
        self.in_degree.append(0)
        self.index[kind][box_index] = nid
        self._columns = None
        return nid

    def add_edge(self, src: int, dst: int, op: str, aux=None) -> None:
        out = self.out_edges[src]
        out.append(Edge(src=src, dst=dst, op=op, aux=aux, pos=len(out)))
        self.in_degree[dst] += 1
        self._edge_parts = self._columns = None

    def edge_columns(self) -> EdgeColumns:
        """The edge set as CSR columns, built once.

        A builder-made DAG folds the endpoint arrays it was assembled
        from (one stable sort by source); a DAG assembled edge by edge
        (:meth:`add_edge`: the reference builders, the JSON loader) is
        read off ``out_edges`` once.
        """
        cols = self._columns
        if cols is not None:
            return cols
        n = len(self.nodes)
        parts = self._edge_parts
        if parts is None:
            counts = np.fromiter((len(out) for out in self.out_edges), np.int64, n)
            m = int(counts.sum())
            dst = np.fromiter((e.dst for out in self.out_edges for e in out), np.int64, m)
            op = np.fromiter((OP_CODE[e.op] for out in self.out_edges for e in out), np.int8, m)
        else:
            empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8))
            src, dst, op = (np.concatenate(col) for col in zip(empty, *parts))
            # emission order within a source is out-list order
            order = np.argsort(src, kind="stable")
            dst, op = dst[order], op[order]
            counts = np.bincount(src, minlength=n)
        out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=out_ptr[1:])
        self._columns = cols = EdgeColumns(out_ptr=out_ptr, dst=dst, op=op)
        self._edge_parts = None
        return cols

    # -- statistics (Tables I and II) -------------------------------------------
    def node_stats(self, size_model=None) -> dict[str, dict]:
        """Per-kind count, size range and in/out-degree range (Table I).

        Degree extrema are array reductions over the whole node table
        rather than per-node Python scans.
        """
        n = len(self.nodes)
        din = np.asarray(self.in_degree, dtype=np.int64)
        dout = np.fromiter(
            (len(e) for e in self.out_edges), dtype=np.int64, count=n
        )
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
        """Per-op count and message-size range (Table II)."""
        counts: dict[str, int] = defaultdict(int)
        smin: dict[str, int] = {}
        smax: dict[str, int] = {}
        for edges in self.out_edges:
            for e in edges:
                counts[e.op] += 1
                if size_model is not None:
                    npts = self.nodes[e.src].n_points
                    b = size_model.payload_bytes(e.op, n_src_points=npts)
                    smin[e.op] = min(smin.get(e.op, b), b)
                    smax[e.op] = max(smax.get(e.op, b), b)
        out = {}
        for op, c in counts.items():
            entry = {"count": c}
            if size_model is not None:
                entry["size_min"] = smin[op]
                entry["size_max"] = smax[op]
            out[op] = entry
        return out

    @property
    def n_edges(self) -> int:
        return sum(len(e) for e in self.out_edges)

    def critical_path_length(self, cost_fn=None) -> float:
        """Longest path through the DAG (unit edge cost by default)."""
        order = self._topological_order()
        dist = [0.0] * len(self.nodes)
        for nid in order:
            for e in self.out_edges[nid]:
                w = 1.0 if cost_fn is None else cost_fn(e)
                if dist[nid] + w > dist[e.dst]:
                    dist[e.dst] = dist[nid] + w
        return max(dist) if dist else 0.0

    def _topological_order(self) -> list[int]:
        indeg = list(self.in_degree)
        stack = [n.id for n in self.nodes if indeg[n.id] == 0]
        order = []
        while stack:
            nid = stack.pop()
            order.append(nid)
            for e in self.out_edges[nid]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    stack.append(e.dst)
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
    out_edges = dag.out_edges
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
        out_edges.append([])
        index[b] = nid
    return base


def _append_edges(dag: DAG, srcs, dsts, op: str, auxs=None) -> None:
    """Materialise one operator class of edges from endpoint arrays, and
    keep the arrays for the DAG's edge columns."""
    oe = dag.out_edges
    dag._columns = None
    if dag._edge_parts is not None:
        src_col = np.asarray(srcs, dtype=np.int64)
        dag._edge_parts.append(
            (src_col, np.asarray(dsts, dtype=np.int64), np.full(len(src_col), OP_CODE[op], np.int8))
        )
    srcs = srcs.tolist() if isinstance(srcs, np.ndarray) else srcs
    dsts = dsts.tolist() if isinstance(dsts, np.ndarray) else dsts
    if auxs is None:
        for s, d in zip(srcs, dsts):
            out = oe[s]
            out.append(Edge(s, d, op, None, len(out)))
    else:
        auxs = auxs.tolist() if isinstance(auxs, np.ndarray) else auxs
        for s, d, a in zip(srcs, dsts, auxs):
            out = oe[s]
            out.append(Edge(s, d, op, a, len(out)))


def _deltas(sa, ta, tis: np.ndarray, sis: np.ndarray):
    dx = ta.ix[tis] - sa.ix[sis]
    dy = ta.iy[tis] - sa.iy[sis]
    dz = ta.iz[tis] - sa.iz[sis]
    return dx, dy, dz


def _delta_tuples(dx, dy, dz) -> list[tuple[int, int, int]]:
    return list(zip(dx.tolist(), dy.tolist(), dz.tolist()))


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
