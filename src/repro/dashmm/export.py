"""Explicit-DAG export for inspection and external tooling.

DASHMM keeps the explicit DAG around for partitioning and distribution;
here it can also be dumped as JSON (full fidelity) or Graphviz DOT
(small DAGs, for figures like the paper's Fig. 1c) and round-tripped.
"""

from __future__ import annotations

import json

from repro.dashmm.dag import DAG, EDGE_OPS

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
    data = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "box": n.box_index,
                "level": n.level,
                "tree": n.tree,
                "n_points": n.n_points,
                "locality": n.locality,
            }
            for n in dag.nodes
        ],
        "edges": [
            {"src": src, "dst": dst, "op": EDGE_OPS[op], "aux": _aux_to_json(aux)}
            for src, dst, op, aux in zip(
                cols.src.tolist(), cols.dst.tolist(), cols.op.tolist(), cols.aux_values()
            )
        ],
    }
    return json.dumps(data)


def dag_from_json(text: str) -> DAG:
    """Inverse of :func:`dag_to_json`."""
    data = json.loads(text)
    dag = DAG()
    for n in data["nodes"]:
        nid = dag.add_node(n["kind"], n["box"], n["level"], n["tree"], n["n_points"])
        dag.nodes[nid].locality = n["locality"]
    for e in data["edges"]:
        dag.add_edge(e["src"], e["dst"], e["op"], aux=_aux_from_json(e["aux"]))
    return dag


def _aux_to_json(aux):
    if aux is None or isinstance(aux, (int, str)):
        return aux
    if isinstance(aux, tuple):
        return {"t": [_aux_to_json(v) for v in aux]}
    return aux


def _aux_from_json(aux):
    if isinstance(aux, dict) and "t" in aux:
        return tuple(_aux_from_json(v) for v in aux["t"])
    if isinstance(aux, list):
        return tuple(aux)
    return aux


def dag_to_dot(dag: DAG, max_nodes: int = 500) -> str:
    """Graphviz DOT rendering (refuses DAGs too large to draw)."""
    if len(dag.nodes) > max_nodes:
        raise ValueError(
            f"DAG has {len(dag.nodes)} nodes; raise max_nodes to render anyway"
        )
    lines = ["digraph dashmm {", "  rankdir=LR;"]
    for n in dag.nodes:
        color = _KIND_COLORS.get(n.kind, "white")
        lines.append(
            f'  n{n.id} [label="{n.kind}{n.box_index}@L{n.level}"'
            f' style=filled fillcolor={color}];'
        )
    cols = dag.edge_columns()
    for src, dst, op in zip(cols.src.tolist(), cols.dst.tolist(), cols.op.tolist()):
        lines.append(f'  n{src} -> n{dst} [label="{EDGE_OPS[op]}"];')
    lines.append("}")
    return "\n".join(lines)
