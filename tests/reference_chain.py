"""Reference oracles for tests: the per-box setup chain and a per-edge
evaluator.

Production code reaches only the array passes (``build_dual_tree`` ->
``build_lists`` / ``mac_pairs`` -> ``DagBuilder``).  The per-box loops
they replaced stay in ``src/`` as plain functions; this module strings
them together so a test can compare structures directly, or execute a
reference-built problem through ``evaluate(dual=, lists=, dag=)``.

Production computes every number from the compiled execution plan
(stacked passes per stage).  :func:`per_edge_potentials` computes the
same sums the plain way - one operator application per DAG edge, in a
topological walk - as the oracle the plan is tested against.  Since the
drain carries no values, potentials cannot reveal an edge counted twice
or not at all; :func:`assert_each_edge_counted_once` checks the LCOs'
dedup ledgers instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dashmm.dag import build_bh_dag_reference, build_fmm_dag_reference
from repro.methods.barneshut import mac_pairs_reference
from repro.tree.dualtree import DualTree, Tree, build_dual_tree, carve_reference
from repro.tree.lists import build_lists_reference, canonicalize


def reference_tree(tree: Tree) -> Tree:
    """``tree``'s sorted points carved again by the per-box loop."""
    boxes, key_to_index, levels = carve_reference(
        tree.deep_sorted, tree.n_points, tree.threshold
    )
    return dataclasses.replace(
        tree,
        boxes=boxes,
        key_to_index=key_to_index,
        levels=levels,
        _leaf_indices=None,
        _arrays=None,
    )


def reference_dual(dual: DualTree) -> DualTree:
    return DualTree(
        domain=dual.domain,
        source=reference_tree(dual.source),
        target=reference_tree(dual.target),
        threshold=dual.threshold,
    )


def reference_lists(dual: DualTree):
    return canonicalize(build_lists_reference(dual))


def reference_setup(method: str, sources, weights, targets, threshold: int, theta: float = 0.5):
    """``dict(dual=, lists=, dag=)`` for ``method``, reference loops only
    (the one shared step is the Morton sort of the points)."""
    dual = reference_dual(
        build_dual_tree(sources, targets, threshold, source_weights=weights)
    )
    if method == "bh":
        dag = build_bh_dag_reference(dual, mac_pairs_reference(dual, theta))
        return {"dual": dual, "lists": None, "dag": dag}
    lists = reference_lists(dual)
    dag = build_fmm_dag_reference(dual, lists, advanced=(method == "fmm"))
    return {"dual": dual, "lists": lists, "dag": dag}


def assert_each_edge_counted_once(registrar) -> None:
    """After a drain, every expansion LCO accepted each in-edge exactly
    once: its dedup keys are its in-edges' rows in the edge columns (as
    ``out_ptr[src] + pos`` of the view's records), as many as its
    in-degree."""
    dag = registrar.dag
    ptr = dag.edge_columns().out_ptr.tolist()
    keys_in: dict[int, set] = {}
    for out in dag.out_edges:
        for e in out:
            keys_in.setdefault(e.dst, set()).add(ptr[e.src] + e.pos)
    assert registrar.lcos
    for nid, lco in registrar.lcos.items():
        assert lco.triggered, nid
        assert lco._seen_keys == keys_in[nid], nid
        assert len(lco._seen_keys) == dag.in_degree[nid], nid


def per_edge_potentials(dag, dual, kernel, factory) -> np.ndarray:
    """Potentials at the targets (input order) by a topological walk of
    ``dag`` that applies one operator per edge.

    Each node folds its in-edges' values in fold-key order ``(src, pos)``
    - a multipole/local expansion as one coefficient vector, a
    target-side intermediate expansion per direction - and a T node's
    fold is the potential of its box's points.  A node nothing
    contributed to holds ``None``, the zero expansion, and contributes
    nothing downstream.
    """
    src, tgt, dom = dual.source, dual.target, dual.domain
    centers = {
        "source": dom.box_centers(src.arrays.keys),
        "target": dom.box_centers(tgt.arrays.keys),
    }
    nodes = dag.nodes
    data: dict[int, object] = {}
    inbox: dict[int, list] = {}
    result = np.zeros(tgt.n_points)

    def points(tree, box):
        return tree.points[box.start : box.stop]

    def value(e):
        s, d = nodes[e.src], nodes[e.dst]
        op = e.op
        if op in ("S2T", "S2M", "S2L"):
            sbox = src.boxes[s.box_index]
            q = src.weights[sbox.start : sbox.stop]
            if op == "S2T":
                return kernel.direct(points(tgt, tgt.boxes[d.box_index]), points(src, sbox), q)
            side, level, at = (
                ("source", sbox.level, sbox.index)
                if op == "S2M"
                else ("target", d.level, d.box_index)
            )
            h = dom.box_size(level)
            rel = (points(src, sbox) - centers[side][at]) / h
            return (kernel.p2m if op == "S2M" else kernel.p2l)(rel, q, h)
        x = data.get(e.src)
        if x is None:
            return None  # the zero expansion contributes nothing
        h = dom.box_size(s.level)
        if op in ("M2M", "M2L", "L2L"):
            return getattr(factory, op.lower())(e.aux, h) @ x
        if op == "M2I":
            dirs = {ee.aux[0] for ee in dag.out_edges[e.dst] if ee.op == "I2I"}
            return {direction: factory.m2i(direction, h) @ x for direction in dirs}
        if op == "I2I":
            direction, delta = e.aux
            return {direction: x[direction] * factory.i2i(direction, delta, h)}
        if op == "I2L":
            return sum(factory.i2l(direction, h) @ v for direction, v in sorted(x.items()))
        tbox = tgt.boxes[d.box_index]
        side = "source" if op == "M2T" else "target"
        rel = (points(tgt, tbox) - centers[side][s.box_index]) / h
        return (kernel.m2t if op == "M2T" else kernel.l2t)(x, rel, h)

    for nid in dag._topological_order():
        acc = None
        for _, v in sorted(inbox.pop(nid, []), key=lambda kv: kv[0]):
            if isinstance(v, dict):
                acc = dict(acc or {})
                for direction, amps in v.items():
                    acc[direction] = amps if direction not in acc else acc[direction] + amps
            else:
                acc = v if acc is None else acc + v
        data[nid] = acc
        node = nodes[nid]
        if node.kind == "T" and acc is not None:
            box = tgt.boxes[node.box_index]
            result[box.start : box.stop] = acc
        for e in dag.out_edges[nid]:
            v = value(e)
            if v is not None:
                inbox.setdefault(e.dst, []).append(((e.src, e.pos), v))
    out = np.empty(tgt.n_points)
    out[tgt.perm] = result
    return out
