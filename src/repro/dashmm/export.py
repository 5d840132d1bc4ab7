"""Explicit-DAG export for inspection and external tooling.

DASHMM keeps the explicit DAG around for partitioning and distribution;
here it can also be dumped as JSON (full fidelity) or Graphviz DOT
(small DAGs, for figures like the paper's Fig. 1c) and round-tripped.
The JSON reader takes outside input, so it checks every field the
columns store before anything is appended.
"""

from __future__ import annotations

import json
from itertools import groupby

import numpy as np

from repro.dashmm.dag import DAG, EDGE_OPS, NODE_KINDS, TREES
from repro.kernels.expo import DIRECTIONS

_KIND_COLORS = {
    "S": "lightblue",
    "M": "gold",
    "Is": "orange",
    "It": "tomato",
    "L": "palegreen",
    "T": "plum",
}


def dag_to_json(dag: DAG) -> str:
    """Serialize a DAG (nodes, edges, localities) to a JSON string."""
    cols = dag.edge_columns()
    node_cols = zip(
        dag.kind.tolist(),
        dag.box.tolist(),
        dag.level.tolist(),
        dag.tree.tolist(),
        dag.n_points.tolist(),
        dag.locality.tolist(),
    )
    data = {
        "nodes": [
            {
                "id": i,
                "kind": NODE_KINDS[kind],
                "box": box,
                "level": level,
                "tree": TREES[tree],
                "n_points": n_points,
                "locality": locality,
            }
            for i, (kind, box, level, tree, n_points, locality) in enumerate(node_cols)
        ],
        "edges": [
            {"src": src, "dst": dst, "op": EDGE_OPS[op], "aux": _aux_to_json(aux)}
            for src, dst, op, aux in zip(
                cols.src.tolist(), cols.dst.tolist(), cols.op.tolist(), cols.aux_values()
            )
        ],
    }
    return json.dumps(data)


def _int(value, what: str, lo: int, hi: int) -> int:
    """``value`` if it is an int in ``[lo, hi]``, else ValueError naming
    ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError(f"{what} is {value!r}, not an int in [{lo}, {hi}]")
    return value


def _member(value, what: str, names: tuple) -> int:
    """The code of ``value`` in ``names``, else ValueError naming ``what``."""
    if value not in names:
        raise ValueError(f"{what} is {value!r}, not one of {names}")
    return names.index(value)


def _edge_aux(aux, what: str) -> dict:
    """The aux columns :meth:`DAG.append_edges` takes for one JSON aux
    (``octant``, ``delta``, or ``direction`` and ``delta``); ValueError
    where the columns cannot store it."""
    if aux is None:
        return {}
    if isinstance(aux, int):
        return {"octant": _int(aux, what, -128, 127)}
    t = aux.get("t") if isinstance(aux, dict) and len(aux) == 1 else None
    if isinstance(t, list) and len(t) == 3:
        return {"delta": tuple(_int(v, f"{what} delta", -(1 << 31), (1 << 31) - 1) for v in t)}
    if isinstance(t, list) and len(t) == 2:
        delta = _edge_aux(t[1], what)
        if list(delta) == ["delta"]:
            return {"direction": _member(t[0], f"{what} direction", DIRECTIONS), **delta}
    raise ValueError(
        f"{what} is {aux!r}: none of an octant, a 3-int delta, "
        "a (direction, 3-int delta) pair"
    )


def dag_from_json(text: str) -> DAG:
    """Inverse of :func:`dag_to_json`; ValueError, naming the field, for
    a node kind, tree, edge endpoint, operator or aux the DAG cannot
    hold."""
    data = json.loads(text)
    nodes = data["nodes"]
    n = len(nodes)
    field = {
        name: [_int(nd[name], f"node {i} {name}", lo, 1 << 62) for i, nd in enumerate(nodes)]
        for name, lo in (("box", 0), ("level", 0), ("n_points", 0), ("locality", -1))
    }
    dag = DAG()
    dag.append_nodes(
        [_member(nd["kind"], f"node {i} kind", NODE_KINDS) for i, nd in enumerate(nodes)],
        field["box"],
        field["level"],
        [_member(nd["tree"], f"node {i} tree", TREES) for i, nd in enumerate(nodes)],
        field["n_points"],
    )
    dag.locality = np.array(field["locality"], dtype=np.int64)
    rows = [
        (
            _int(e["src"], f"edge {i} src", 0, n - 1),
            _int(e["dst"], f"edge {i} dst", 0, n - 1),
            EDGE_OPS[_member(e["op"], f"edge {i} op", EDGE_OPS)],
            _edge_aux(e["aux"], f"edge {i} aux"),
        )
        for i, e in enumerate(data["edges"])
    ]
    # one append per run of rows alike in operator and aux columns, so
    # the rows keep the file's order
    for (op, _), run in groupby(rows, key=lambda row: (row[2], tuple(row[3]))):
        src, dst, _, aux = zip(*run)
        dag.append_edges(src, dst, op, **{k: np.array([a[k] for a in aux]) for k in aux[0]})
    return dag


def _aux_to_json(aux):
    if aux is None or isinstance(aux, (int, str)):
        return aux
    if isinstance(aux, tuple):
        return {"t": [_aux_to_json(v) for v in aux]}
    return aux


def dag_to_dot(dag: DAG, max_nodes: int = 500) -> str:
    """Graphviz DOT rendering (refuses DAGs too large to draw)."""
    if dag.n_nodes > max_nodes:
        raise ValueError(f"DAG has {dag.n_nodes} nodes; raise max_nodes to render anyway")
    lines = ["digraph dashmm {", "  rankdir=LR;"]
    for i, (code, box, level) in enumerate(
        zip(dag.kind.tolist(), dag.box.tolist(), dag.level.tolist())
    ):
        kind = NODE_KINDS[code]
        lines.append(
            f'  n{i} [label="{kind}{box}@L{level}"'
            f" style=filled fillcolor={_KIND_COLORS[kind]}];"
        )
    cols = dag.edge_columns()
    for src, dst, op in zip(cols.src.tolist(), cols.dst.tolist(), cols.op.tolist()):
        lines.append(f'  n{src} -> n{dst} [label="{EDGE_OPS[op]}"];')
    lines.append("}")
    return "\n".join(lines)
