"""Declarative DAG schema: node/edge kinds, validated builder, export/diff.

This module is the one place the explicit DAG is assembled.  Following
the explicit-wiring architecture of the QUARK and Charm++ FMM pipelines
- the method is *data* consumed by a generic engine - the graph is a
declared, validated intermediate representation:

* **Kind catalogs** (:data:`NODE_KIND_CATALOG`, :data:`EDGE_KIND_CATALOG`)
  describe every node class (S, M, Is, It, L, T - tree side, level
  floor, degree bounds) and every operator class (S2M ... S2T - endpoint
  kinds, level relation, aux signature, near/far field, critical-path
  group) once, as frozen data.
* **Method schemas** (:class:`MethodSchema`) select kinds from the
  catalogs and declare an ordered list of *wiring rules*; the method
  modules (:mod:`repro.methods.fmm`, :mod:`repro.methods.barneshut`)
  own their declarations and derive their near/far operator splits from
  them.
* A single :class:`DagBuilder` materializes the graph from tree +
  interaction lists (or MAC decisions) by running the declared rules,
  and exposes a canonical :func:`export_dag` / :func:`dag_fingerprint`
  and a structural :func:`diff_dags`; :func:`validate_dag` type-checks
  a built graph against its schema.

The rules append whole blocks to the DAG's node and edge columns
(:meth:`repro.dashmm.dag.DAG.append_nodes` / ``append_edges``); the
validator and the export read the columns.  Node ids, edge order and
aux payloads are held bit-identical to the per-box reference loops in
``tests/reference_chain.py``, and the golden-graph regression suite
(``tests/goldens/``) pins the canonical exports so refactors cannot
silently reshape the graph.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.dashmm.dag import (
    COUNTERS,
    DAG,
    EDGE_OPS,
    KIND_CODE,
    NODE_KINDS,
    TREES,
    _dead_mask,
    _deltas,
    assign_direction_arrays,
)
from repro.kernels.expo import assign_direction
from repro.tree.lists import list_pairs

__all__ = [
    "NodeKind",
    "EdgeKind",
    "MethodSchema",
    "SchemaValidationError",
    "DagBuilder",
    "NODE_KIND_CATALOG",
    "EDGE_KIND_CATALOG",
    "node_kinds",
    "edge_kinds",
    "validate_dag",
    "export_dag",
    "dag_fingerprint",
    "diff_dags",
    "DagDiff",
]


# -- declarations ----------------------------------------------------------------
@dataclass(frozen=True)
class NodeKind:
    """One node class of the explicit DAG, with its typing rules.

    ``in_max``/``out_max`` of ``None`` mean unbounded; the degree
    bounds are structural invariants of the octree wiring (e.g. an M
    node folds at most its 8 children), not tuning knobs.
    """

    name: str
    tree: str  # "source" | "target"
    has_points: bool = False
    min_level: int = 0
    in_min: int = 0
    in_max: int | None = None
    out_min: int = 0
    out_max: int | None = None


@dataclass(frozen=True)
class EdgeKind:
    """One operator class: endpoint kinds, geometry and scheduling tags.

    ``level`` is the level relation between the endpoints (``"same"``,
    ``"up"`` = into the parent level, ``"down"`` = into the child
    level, ``"any"``); ``aux`` the operator-signature of the edge
    payload (``"none"``, ``"octant"``, ``"delta"``, ``"dir_delta"``);
    ``field`` the near/far scheduling class and ``group`` the paper's
    critical-path group (up / bridge / down).  ``same_box`` pins both
    endpoints to one box, ``in_unique`` allows at most one edge of this
    kind into a node, ``in_max_per_dst`` bounds the fan-in (the 189 of
    list 2), and ``well_separated`` requires a list-2 delta (Chebyshev
    distance 2..3).
    """

    name: str
    src: str
    dst: str
    level: str = "any"
    aux: str = "none"
    field: str = "far"
    group: str = "bridge"
    same_box: bool = False
    in_unique: bool = False
    in_max_per_dst: int | None = None
    well_separated: bool = False


#: every node class any built-in method uses, keyed by name
NODE_KIND_CATALOG: dict[str, NodeKind] = {
    "S": NodeKind("S", "source", has_points=True, in_max=0, out_min=1),
    "M": NodeKind("M", "source", in_max=8),
    "Is": NodeKind("Is", "source", min_level=2, in_min=1, in_max=1, out_min=1),
    "It": NodeKind("It", "target", min_level=2, in_min=1, in_max=189, out_min=1, out_max=1),
    "L": NodeKind("L", "target", min_level=2, out_max=9),
    "T": NodeKind("T", "target", has_points=True, out_max=0),
}

#: every operator class any built-in method uses, keyed by name
EDGE_KIND_CATALOG: dict[str, EdgeKind] = {
    "S2M": EdgeKind("S2M", "S", "M", level="same", group="up", same_box=True, in_unique=True),
    "M2M": EdgeKind("M2M", "M", "M", level="up", aux="octant", group="up"),
    "M2L": EdgeKind(
        "M2L", "M", "L", level="same", aux="delta", well_separated=True, in_max_per_dst=189
    ),
    "M2I": EdgeKind("M2I", "M", "Is", level="same", same_box=True, in_unique=True),
    "I2I": EdgeKind("I2I", "Is", "It", level="same", aux="dir_delta", well_separated=True),
    "I2L": EdgeKind("I2L", "It", "L", level="same", same_box=True, in_unique=True),
    "S2L": EdgeKind("S2L", "S", "L"),
    "M2T": EdgeKind("M2T", "M", "T"),
    "L2L": EdgeKind("L2L", "L", "L", level="down", aux="octant", group="down", in_unique=True),
    "L2T": EdgeKind("L2T", "L", "T", level="same", group="down", same_box=True, in_unique=True),
    "S2T": EdgeKind("S2T", "S", "T", field="near", group="down"),
}


def node_kinds(*names: str) -> tuple[NodeKind, ...]:
    """Select node kinds from the catalog, in the given order."""
    return tuple(NODE_KIND_CATALOG[n] for n in names)


def edge_kinds(*names: str) -> tuple[EdgeKind, ...]:
    """Select edge kinds from the catalog, in the given order."""
    return tuple(EDGE_KIND_CATALOG[n] for n in names)


@dataclass
class MethodSchema:
    """A method's DAG declared as data: kinds plus ordered wiring rules.

    ``assembly`` names the wiring rules :class:`DagBuilder` runs, in
    order, to materialize the graph; every rule only emits node/edge
    kinds the schema declares (checked at construction).  The schema
    fingerprint is the cache token of everything keyed "per method
    graph shape" (e.g. the persistent service's DAG-template LRU).
    """

    name: str
    nodes: tuple[NodeKind, ...]
    edges: tuple[EdgeKind, ...]
    assembly: tuple[str, ...]

    def __post_init__(self) -> None:
        self._node_by_name = {k.name: k for k in self.nodes}
        self._edge_by_name = {k.name: k for k in self.edges}
        for ek in self.edges:
            for endpoint in (ek.src, ek.dst):
                if endpoint not in self._node_by_name:
                    raise ValueError(
                        f"schema {self.name!r}: edge kind {ek.name} touches "
                        f"undeclared node kind {endpoint!r}"
                    )
        for rule in self.assembly:
            if rule not in _ASSEMBLY_RULES:
                raise ValueError(f"schema {self.name!r}: unknown wiring rule {rule!r}")
        for rule in self.assembly:
            for op in _RULE_EMITS[rule][1]:
                if op not in self._edge_by_name:
                    raise ValueError(
                        f"schema {self.name!r}: rule {rule!r} emits undeclared "
                        f"edge kind {op!r}"
                    )
        self._fp: str | None = None

    # -- lookups -----------------------------------------------------------------
    def node_kind(self, name: str) -> NodeKind | None:
        return self._node_by_name.get(name)

    def edge_kind(self, name: str) -> EdgeKind | None:
        return self._edge_by_name.get(name)

    @property
    def ops(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.edges)

    @property
    def near_ops(self) -> tuple[str, ...]:
        """Operator classes of the near-field (P2P filler) stream."""
        return tuple(k.name for k in self.edges if k.field == "near")

    @property
    def far_ops(self) -> tuple[str, ...]:
        """Operator classes of the far-field (expansion) pipeline."""
        return tuple(k.name for k in self.edges if k.field == "far")

    def groups(self) -> dict[str, tuple[str, ...]]:
        """Critical-path groups (up/bridge/down) -> operator classes."""
        out: dict[str, list[str]] = {"up": [], "bridge": [], "down": []}
        for k in self.edges:
            out[k.group].append(k.name)
        return {g: tuple(ops) for g, ops in out.items()}

    # -- identity ----------------------------------------------------------------
    def to_json(self) -> dict:
        """Canonical JSON form of the declarations (the identity)."""
        return {
            "name": self.name,
            "nodes": [
                [k.name, k.tree, k.has_points, k.min_level, k.in_min, k.in_max, k.out_min, k.out_max]
                for k in self.nodes
            ],
            "edges": [
                [
                    k.name,
                    k.src,
                    k.dst,
                    k.level,
                    k.aux,
                    k.field,
                    k.group,
                    k.same_box,
                    k.in_unique,
                    k.in_max_per_dst,
                    k.well_separated,
                ]
                for k in self.edges
            ],
            "assembly": list(self.assembly),
        }

    def fingerprint(self) -> str:
        """Hex digest of the canonical declaration JSON (cache token)."""
        if self._fp is None:
            blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
            self._fp = hashlib.sha256(blob.encode()).hexdigest()
        return self._fp


# -- validation ------------------------------------------------------------------
class SchemaValidationError(ValueError):
    """A DAG violated its schema; names the offending node/edge and rule.

    ``rule`` is the machine-readable check name (``node-kind``,
    ``in-degree``, ``edge-level`` ...); ``node`` the offending node id
    (or None); ``edge`` the offending ``(src, dst, op)`` triple (or
    None); ``detail`` the human-readable explanation.
    """

    def __init__(self, rule: str, detail: str, node: int | None = None, edge=None):
        self.rule = rule
        self.detail = detail
        self.node = node
        self.edge = edge
        where = ""
        if node is not None:
            where = f" [node {node}]"
        if edge is not None:
            where += f" [edge {edge[0]}->{edge[1]} {edge[2]}]"
        super().__init__(f"{rule}{where}: {detail}")


def _node_desc(dag: DAG, i: int) -> str:
    return (
        f"{NODE_KINDS[dag.kind[i]]}#{i}(box={dag.box[i]}, L{dag.level[i]}, "
        f"{TREES[dag.tree[i]]})"
    )


#: the level step ``dst - src`` of each level relation but "any"
_LEVEL_STEP = {"same": 0, "up": -1, "down": 1}


def _check_delta(delta, ek: EdgeKind, edge_id) -> None:
    if (
        not isinstance(delta, tuple)
        or len(delta) != 3
        or not all(isinstance(d, (int, np.integer)) for d in delta)
    ):
        raise SchemaValidationError(
            "edge-aux", f"{ek.name} aux must be a 3-int delta, got {delta!r}", edge=edge_id
        )
    if ek.well_separated:
        cheb = max(abs(int(d)) for d in delta)
        if not (2 <= cheb <= 3):
            raise SchemaValidationError(
                "edge-separation",
                f"{ek.name} delta {delta} is not well separated "
                f"(Chebyshev distance {cheb}, expected 2..3)",
                edge=edge_id,
            )


def validate_dag(schema: MethodSchema, dag: DAG) -> None:
    """Type-check a DAG against its schema; raise on the first violation.

    Checks, in order: node kinds/trees/level floors, the in-degree
    table's consistency with the edge set, per-kind degree bounds,
    per-edge endpoint kinds, level relations, same-box pins, aux
    operator signatures (octant range, delta arity, direction/delta
    agreement, list-2 separation), per-destination edge-kind
    multiplicity, and acyclicity.
    """
    n = dag.n_nodes
    kinds = [schema.node_kind(name) for name in NODE_KINDS]
    cols = (dag.kind.tolist(), dag.tree.tolist(), dag.level.tolist(), dag.n_points.tolist())
    for i, (code, tree, level, n_points) in enumerate(zip(*cols)):
        kind, name, tree = kinds[code], NODE_KINDS[code], TREES[tree]
        if kind is None:
            rule, detail = "node-kind", f"kind {name!r} is not declared by schema {schema.name!r}"
        elif tree != kind.tree:
            rule = "node-tree"
            detail = f"kind {name} lives on the {kind.tree} tree, node claims {tree!r}"
        elif level < kind.min_level:
            rule, detail = "node-level", f"below the kind's level floor {kind.min_level}"
        elif n_points and not kind.has_points:
            rule = "node-points"
            detail = f"kind {name} carries no leaf points but n_points={n_points}"
        else:
            continue
        raise SchemaValidationError(rule, f"{_node_desc(dag, i)}: {detail}", node=i)

    # one pass over the edge columns: recompute in-degrees, bucket by
    # op, count per-(op, dst) multiplicity
    indeg = [0] * n
    multiplicity: Counter = Counter()
    cols = dag.edge_columns()
    ops = [EDGE_OPS[c] for c in cols.op.tolist()]
    kind_of = [NODE_KINDS[k] for k in dag.kind.tolist()]
    level, box = dag.level.tolist(), dag.box.tolist()
    for src, dst, op, aux in zip(cols.src.tolist(), cols.dst.tolist(), ops, cols.aux_values()):
        eid = (src, dst, op)
        ek = schema.edge_kind(op)
        if ek is None:
            raise SchemaValidationError(
                "edge-op",
                f"operator {op!r} is not declared by schema {schema.name!r}",
                edge=eid,
            )
        if not (0 <= dst < n):
            raise SchemaValidationError(
                "edge-endpoints", "edge endpoint is not a node id", edge=eid
            )
        if kind_of[src] != ek.src or kind_of[dst] != ek.dst:
            raise SchemaValidationError(
                "edge-endpoint-kind",
                f"{ek.name} connects {ek.src}->{ek.dst}, got "
                f"{_node_desc(dag, src)} -> {_node_desc(dag, dst)}",
                edge=eid,
            )
        step = level[dst] - level[src]
        if ek.level != "any" and step != _LEVEL_STEP[ek.level]:
            raise SchemaValidationError(
                "edge-level",
                f"{ek.name} requires a {ek.level!r} level relation, got "
                f"L{level[src]} -> L{level[dst]}",
                edge=eid,
            )
        if ek.same_box and box[src] != box[dst]:
            raise SchemaValidationError(
                "edge-box",
                f"{ek.name} pins both endpoints to one box, got boxes "
                f"{box[src]} -> {box[dst]}",
                edge=eid,
            )
        if ek.aux == "none":
            if aux is not None:
                raise SchemaValidationError(
                    "edge-aux", f"{ek.name} carries no aux, got {aux!r}", edge=eid
                )
        elif ek.aux == "octant":
            if not isinstance(aux, (int, np.integer)) or not (0 <= aux <= 7):
                raise SchemaValidationError(
                    "edge-aux",
                    f"{ek.name} aux must be an octant 0..7, got {aux!r}",
                    edge=eid,
                )
        elif ek.aux == "delta":
            _check_delta(aux, ek, eid)
        else:  # dir_delta
            if not isinstance(aux, tuple) or len(aux) != 2:
                raise SchemaValidationError(
                    "edge-aux",
                    f"{ek.name} aux must be (direction, delta), got {aux!r}",
                    edge=eid,
                )
            direction, delta = aux
            _check_delta(delta, ek, eid)
            want = assign_direction(tuple(int(v) for v in delta))
            if direction != want:
                raise SchemaValidationError(
                    "edge-direction",
                    f"{ek.name} direction {direction!r} disagrees with its "
                    f"delta {delta} (expected {want!r})",
                    edge=eid,
                )
        indeg[dst] += 1
        if ek.in_unique or ek.in_max_per_dst is not None:
            multiplicity[(op, dst)] += 1

    recorded = np.asarray(dag.in_degree).tolist()
    if indeg != recorded:
        bad = next(i for i in range(n) if indeg[i] != (recorded[i] if i < len(recorded) else None))
        raise SchemaValidationError(
            "in-degree-table",
            f"{_node_desc(dag, bad)}: recorded in-degree "
            f"{recorded[bad] if bad < len(recorded) else '<missing>'} but the "
            f"edge set delivers {indeg[bad]}",
            node=bad,
        )

    out_degree = np.diff(cols.out_ptr).tolist()
    for i, code in enumerate(dag.kind.tolist()):
        kind = kinds[code]
        din, dout = indeg[i], out_degree[i]
        if din < kind.in_min or (kind.in_max is not None and din > kind.in_max):
            raise SchemaValidationError(
                "in-degree",
                f"{_node_desc(dag, i)}: in-degree {din} outside "
                f"[{kind.in_min}, {kind.in_max if kind.in_max is not None else 'inf'}]",
                node=i,
            )
        if dout < kind.out_min or (kind.out_max is not None and dout > kind.out_max):
            raise SchemaValidationError(
                "out-degree",
                f"{_node_desc(dag, i)}: out-degree {dout} outside "
                f"[{kind.out_min}, {kind.out_max if kind.out_max is not None else 'inf'}]",
                node=i,
            )

    for (op, dst), count in multiplicity.items():
        ek = schema.edge_kind(op)
        cap = 1 if ek.in_unique else ek.in_max_per_dst
        if count > cap:
            raise SchemaValidationError(
                "edge-multiplicity",
                f"{_node_desc(dag, dst)}: {count} {op} in-edges exceed the "
                f"kind's cap of {cap}",
                node=dst,
            )

    try:
        dag._topological_order()
    except RuntimeError as exc:
        raise SchemaValidationError("acyclic", str(exc)) from exc


# -- canonical export / fingerprint / diff ---------------------------------------
def _aux_canon(aux):
    """Aux payload as a canonical JSON-native value."""
    if aux is None or isinstance(aux, str):
        return aux
    if isinstance(aux, (int, np.integer)):
        return int(aux)
    if isinstance(aux, tuple):
        return [_aux_canon(v) for v in aux]
    return aux


def export_dag(dag: DAG, schema: MethodSchema | None = None) -> dict:
    """Canonical structural form of a DAG (JSON-native, order-free).

    Nodes are keyed ``(kind, tree, box)`` - unique by construction -
    and sorted; edges reference endpoints by node key and are sorted by
    ``(op, src key, dst key, aux)``.  Localities are *excluded*: they
    are a distribution-policy decision, not graph structure.  The same
    graph exports identically whether the builder or a reference loop
    produced it and however node ids were allocated.
    """
    keys = list(
        zip(
            [NODE_KINDS[k] for k in dag.kind.tolist()],
            [TREES[t] for t in dag.tree.tolist()],
            dag.box.tolist(),
        )
    )
    nodes = sorted(
        [*key, level, n_points]
        for key, level, n_points in zip(keys, dag.level.tolist(), dag.n_points.tolist())
    )
    cols = dag.edge_columns()
    edges = sorted(
        [EDGE_OPS[op], *keys[src], *keys[dst], json.dumps(_aux_canon(aux))]
        for op, src, dst, aux in zip(
            cols.op.tolist(), cols.src.tolist(), cols.dst.tolist(), cols.aux_values()
        )
    )
    return {
        "format": 1,
        "schema": schema.name if schema is not None else None,
        "nodes": nodes,
        "edges": edges,
    }


def dag_fingerprint(dag_or_export, schema: MethodSchema | None = None) -> str:
    """Hex digest of the canonical graph structure.

    Accepts a :class:`DAG` or a dict from :func:`export_dag`.  The
    schema *name* is provenance, not structure, so it is excluded: two
    assemblies of the same graph always agree.
    """
    ex = _as_export(dag_or_export, schema)
    blob = json.dumps(
        {"format": ex["format"], "nodes": ex["nodes"], "edges": ex["edges"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _as_export(x, schema: MethodSchema | None = None) -> dict:
    if isinstance(x, DAG):
        return export_dag(x, schema)
    if isinstance(x, dict) and "nodes" in x and "edges" in x:
        return x
    raise TypeError(f"expected a DAG or an export dict, got {type(x).__name__}")


@dataclass
class DagDiff:
    """Structural delta between two DAGs, in node/edge-key space."""

    nodes_only_a: list = field(default_factory=list)
    nodes_only_b: list = field(default_factory=list)
    node_changes: list = field(default_factory=list)  # (key, field, a, b)
    edges_only_a: list = field(default_factory=list)  # (edge key, count delta)
    edges_only_b: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.nodes_only_a
            or self.nodes_only_b
            or self.node_changes
            or self.edges_only_a
            or self.edges_only_b
        )

    def report(self, limit: int = 20) -> str:
        """Human-readable delta summary (truncated per section)."""
        if self.empty:
            return "DAGs are structurally identical"
        lines = []

        def section(title, rows, fmt):
            if not rows:
                return
            lines.append(f"{title} ({len(rows)}):")
            for row in rows[:limit]:
                lines.append(f"  {fmt(row)}")
            if len(rows) > limit:
                lines.append(f"  ... {len(rows) - limit} more")

        nk = lambda k: f"{k[0]}[{k[1]} box {k[2]}]"
        section("nodes only in A", self.nodes_only_a, nk)
        section("nodes only in B", self.nodes_only_b, nk)
        section(
            "node attribute changes",
            self.node_changes,
            lambda c: f"{nk(c[0])}: {c[1]} {c[2]!r} -> {c[3]!r}",
        )
        ek = lambda r: (
            f"{r[0][0]}: {r[0][1]}[{r[0][2]} box {r[0][3]}] -> "
            f"{r[0][4]}[{r[0][5]} box {r[0][6]}] aux={r[0][7]} (x{r[1]})"
        )
        section("edges only in A", self.edges_only_a, ek)
        section("edges only in B", self.edges_only_b, ek)
        return "\n".join(lines)


def diff_dags(a, b) -> DagDiff:
    """Structural node/edge delta between two DAGs (or exports).

    Nodes match on ``(kind, tree, box)``; matched nodes are compared on
    level and point count.  Edges are compared as a multiset of
    ``(op, src key, dst key, aux)`` rows, so the diff is independent of
    node-id allocation and edge emission order.
    """
    ea, eb = _as_export(a), _as_export(b)
    out = DagDiff()
    na = {(r[0], r[1], r[2]): r for r in ea["nodes"]}
    nb = {(r[0], r[1], r[2]): r for r in eb["nodes"]}
    for key in sorted(na.keys() - nb.keys()):
        out.nodes_only_a.append(key)
    for key in sorted(nb.keys() - na.keys()):
        out.nodes_only_b.append(key)
    for key in sorted(na.keys() & nb.keys()):
        ra, rb = na[key], nb[key]
        if ra[3] != rb[3]:
            out.node_changes.append((key, "level", ra[3], rb[3]))
        if ra[4] != rb[4]:
            out.node_changes.append((key, "n_points", ra[4], rb[4]))
    ca = Counter(tuple(r) for r in ea["edges"])
    cb = Counter(tuple(r) for r in eb["edges"])
    for key in sorted(ca.keys() | cb.keys()):
        d = ca.get(key, 0) - cb.get(key, 0)
        if d > 0:
            out.edges_only_a.append((key, d))
        elif d < 0:
            out.edges_only_b.append((key, -d))
    return out


# -- wiring rules ----------------------------------------------------------------
class _BuildState:
    """Mutable assembly context shared by the wiring rules of one build."""

    __slots__ = (
        "dual",
        "lists",
        "mac",
        "dag",
        "sa",
        "ta",
        "nsb",
        "ntb",
        "s_of",
        "l_of",
        "t_of",
    )

    def __init__(self, dual, lists=None, mac=None):
        self.dual = dual
        self.lists = lists
        self.mac = mac
        self.dag = DAG()
        self.sa = dual.source.arrays
        self.ta = dual.target.arrays
        self.nsb = len(self.sa.keys)
        self.ntb = len(self.ta.keys)
        self.s_of: np.ndarray | None = None
        self.l_of: np.ndarray | None = None
        self.t_of: np.ndarray | None = None


def _rule_source_upward(st: _BuildState) -> None:
    """M at every source box, S at nonempty leaves; S2M and M2M edges."""
    dag, sa, nsb = st.dag, st.sa, st.nsb
    dag.append_nodes("M", np.arange(nsb, dtype=np.int64), sa.levels, "source")
    s_boxes = np.flatnonzero(sa.leaf & (sa.counts > 0))
    s_base = dag.append_nodes("S", s_boxes, sa.levels[s_boxes], "source", sa.counts[s_boxes])
    s_ids = np.arange(s_base, s_base + s_boxes.size, dtype=np.int64)
    st.s_of = np.full(nsb, -1, dtype=np.int64)
    st.s_of[s_boxes] = s_ids
    dag.append_edges(s_ids, s_boxes, "S2M")
    kids = np.arange(1, nsb, dtype=np.int64)
    dag.append_edges(kids, sa.parent[kids], "M2M", octant=sa.keys[kids] & 7)


def _rule_target_downward(st: _BuildState) -> None:
    """L for live boxes at level >= 2, T at eval boxes; L2T and L2L edges."""
    dag, ta, ntb = st.dag, st.ta, st.ntb
    dead = _dead_mask(st.dual.target, st.lists.pruned)
    pruned_mask = np.zeros(ntb, dtype=bool)
    if st.lists.pruned:
        pruned_mask[
            np.fromiter(st.lists.pruned, dtype=np.int64, count=len(st.lists.pruned))
        ] = True
    l_boxes = np.flatnonzero(~dead & (ta.levels >= 2))
    l_base = dag.append_nodes("L", l_boxes, ta.levels[l_boxes], "target")
    l_of = st.l_of = np.full(ntb, -1, dtype=np.int64)
    l_of[l_boxes] = np.arange(l_base, l_base + l_boxes.size, dtype=np.int64)
    t_boxes = np.flatnonzero(~dead & (ta.counts > 0) & (ta.leaf | pruned_mask))
    t_base = dag.append_nodes("T", t_boxes, ta.levels[t_boxes], "target", ta.counts[t_boxes])
    t_of = st.t_of = np.full(ntb, -1, dtype=np.int64)
    t_of[t_boxes] = np.arange(t_base, t_base + t_boxes.size, dtype=np.int64)
    has_l = l_of[t_boxes] >= 0
    dag.append_edges(l_of[t_boxes[has_l]], t_of[t_boxes[has_l]], "L2T")
    ll = np.flatnonzero((l_of >= 0) & (ta.levels >= 3))
    ll = ll[l_of[ta.parent[ll]] >= 0]
    dag.append_edges(l_of[ta.parent[ll]], l_of[ll], "L2L", octant=ta.keys[ll] & 7)


def _rule_list2_merge_shift(st: _BuildState) -> None:
    """Merge-and-shift list 2: Is/It nodes, M2I, I2I (dir+delta), I2L."""
    dag, sa, ta = st.dag, st.sa, st.ta
    ti2, si2 = list_pairs(st.lists.l2)
    if not ti2.size:
        return
    delta = _deltas(sa, ta, ti2, si2)
    # It at each target-group start, Is at the first pair-scan
    # occurrence of each source box (the reference's lazy order)
    group_pos = np.flatnonzero(np.r_[True, ti2[1:] != ti2[:-1]])
    uniq_si, first_pos = np.unique(si2, return_index=True)
    ev_pos = np.concatenate([group_pos, first_pos])
    is_source = np.r_[np.zeros(group_pos.size, bool), np.ones(first_pos.size, bool)]
    ev_box = np.concatenate([ti2[group_pos], uniq_si])
    order = np.lexsort((is_source, ev_pos))
    on_source, box = is_source[order], ev_box[order]
    level = np.empty(box.size, dtype=np.int64)
    level[on_source] = sa.levels[box[on_source]]
    level[~on_source] = ta.levels[box[~on_source]]
    kind = np.where(on_source, KIND_CODE["Is"], KIND_CODE["It"])
    base = dag.append_nodes(kind, box, level, np.where(on_source, 0, 1))
    ids = np.arange(base, base + box.size, dtype=np.int64)
    it_of = np.full(st.ntb, -1, dtype=np.int64)
    is_of = np.full(st.nsb, -1, dtype=np.int64)
    it_of[box[~on_source]] = ids[~on_source]
    is_of[box[on_source]] = ids[on_source]
    # the M node of a source box is its box index
    dag.append_edges(ids[~on_source], st.l_of[ti2[group_pos]], "I2L")
    dag.append_edges(box[on_source], ids[on_source], "M2I")
    dag.append_edges(
        is_of[si2], it_of[ti2], "I2I", delta=delta, direction=assign_direction_arrays(*delta.T)
    )


def _rule_list2_direct(st: _BuildState) -> None:
    """Basic-FMM list 2: direct M2L translations (delta aux)."""
    ti2, si2 = list_pairs(st.lists.l2)
    if not ti2.size:
        return
    st.dag.append_edges(si2, st.l_of[ti2], "M2L", delta=_deltas(st.sa, st.ta, ti2, si2))


def _rule_list3_m2t(st: _BuildState) -> None:
    """List 3: multipoles of coarse source boxes evaluated at leaf targets."""
    ti3, si3 = list_pairs(st.lists.l3)
    if not ti3.size:
        return
    keep = st.t_of[ti3] >= 0
    st.dag.append_edges(si3[keep], st.t_of[ti3[keep]], "M2T")


def _rule_list4_s2l(st: _BuildState) -> None:
    """List 4: sources of coarse leaves accumulated into target locals."""
    ti4, si4 = list_pairs(st.lists.l4)
    if not ti4.size:
        return
    keep = st.s_of[si4] >= 0
    st.dag.append_edges(st.s_of[si4[keep]], st.l_of[ti4[keep]], "S2L")


def _rule_list1_s2t(st: _BuildState) -> None:
    """List 1: direct near-field interactions."""
    ti1, si1 = list_pairs(st.lists.l1)
    if not ti1.size:
        return
    keep = (st.t_of[ti1] >= 0) & (st.s_of[si1] >= 0)
    st.dag.append_edges(st.s_of[si1[keep]], st.t_of[ti1[keep]], "S2T")


def _rule_bh_mac(st: _BuildState) -> None:
    """Barnes-Hut MAC decisions: T nodes plus M2T/S2T edges."""
    dag, ta = st.dag, st.ta
    mac = st.mac
    t_keys = np.fromiter(mac.keys(), dtype=np.int64, count=len(mac))
    lens = np.fromiter((len(v) for v in mac.values()), dtype=np.int64, count=len(mac))
    total = int(lens.sum())
    flat_s = np.fromiter(
        (si for ops in mac.values() for _, si in ops), dtype=np.int64, count=total
    )
    flat_m2t = np.fromiter(
        (op == "M2T" for ops in mac.values() for op, _ in ops), dtype=bool, count=total
    )
    t_base = dag.append_nodes("T", t_keys, ta.levels[t_keys], "target", ta.counts[t_keys])
    t_ids = np.arange(t_base, t_base + t_keys.size, dtype=np.int64)
    flat_t = np.repeat(t_ids, lens)

    dag.append_edges(flat_s[flat_m2t], flat_t[flat_m2t], "M2T")
    s2t_mask = ~flat_m2t & (st.s_of[flat_s] >= 0)
    dag.append_edges(st.s_of[flat_s[s2t_mask]], flat_t[s2t_mask], "S2T")


#: rule name -> implementation
_ASSEMBLY_RULES = {
    "source-upward": _rule_source_upward,
    "target-downward": _rule_target_downward,
    "list2-merge-shift": _rule_list2_merge_shift,
    "list2-direct": _rule_list2_direct,
    "list3-m2t": _rule_list3_m2t,
    "list4-s2l": _rule_list4_s2l,
    "list1-s2t": _rule_list1_s2t,
    "bh-mac": _rule_bh_mac,
}

#: rule name -> (node kinds, edge kinds) it may emit (schema coherence check)
_RULE_EMITS = {
    "source-upward": (("S", "M"), ("S2M", "M2M")),
    "target-downward": (("L", "T"), ("L2T", "L2L")),
    "list2-merge-shift": (("Is", "It"), ("M2I", "I2I", "I2L")),
    "list2-direct": ((), ("M2L",)),
    "list3-m2t": ((), ("M2T",)),
    "list4-s2l": ((), ("S2L",)),
    "list1-s2t": ((), ("S2T",)),
    "bh-mac": (("T",), ("M2T", "S2T")),
}

#: rules that need interaction lists / MAC decisions as input
_NEEDS_LISTS = frozenset(
    ("target-downward", "list2-merge-shift", "list2-direct", "list3-m2t", "list4-s2l", "list1-s2t")
)
_NEEDS_MAC = frozenset(("bh-mac",))


# -- the builder -----------------------------------------------------------------
class DagBuilder:
    """Materializes, exports and diffs method DAGs.

    One builder per :class:`MethodSchema`; :meth:`build` runs the
    schema's declared wiring rules over tree + interaction data.  The
    golden-graph and property suites gate the rules;
    ``validate_dag(schema, dag)`` type-checks one built graph.
    """

    def __init__(self, schema: MethodSchema):
        self.schema = schema

    def build(self, dual, lists=None, mac_pairs=None) -> DAG:
        """Build the method DAG from a dual tree plus interaction inputs.

        ``lists`` feeds the FMM list rules, ``mac_pairs`` the
        Barnes-Hut MAC rule; passing the wrong one for the schema's
        declared rules raises immediately.  Bumps the assembly counter
        (:data:`repro.dashmm.dag.COUNTERS`) that template-reuse
        accounting reads.
        """
        for rule in self.schema.assembly:
            if rule in _NEEDS_LISTS and lists is None:
                raise ValueError(f"rule {rule!r} needs interaction lists")
            if rule in _NEEDS_MAC and mac_pairs is None:
                raise ValueError(f"rule {rule!r} needs Barnes-Hut MAC decisions")
        COUNTERS["assemblies"] += 1
        st = _BuildState(dual, lists=lists, mac=mac_pairs)
        rules = _ASSEMBLY_RULES
        for rule in self.schema.assembly:
            rules[rule](st)
        return st.dag

    def export(self, dag: DAG) -> dict:
        """Canonical structural export (see :func:`export_dag`)."""
        return export_dag(dag, self.schema)

    def fingerprint(self, dag: DAG) -> str:
        """Canonical graph fingerprint (see :func:`dag_fingerprint`)."""
        return dag_fingerprint(dag, self.schema)

    def diff(self, a, b) -> DagDiff:
        """Structural delta between two DAGs (see :func:`diff_dags`)."""
        return diff_dags(a, b)
