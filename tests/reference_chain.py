"""The per-box reference setup chain, for tests that need an oracle.

Production code reaches only the array passes (``build_dual_tree`` ->
``build_lists`` / ``mac_pairs`` -> ``DagBuilder``).  The per-box loops
they replaced stay in ``src/`` as plain functions; this module strings
them together so a test can compare structures directly, or execute a
reference-built problem through ``evaluate(dual=, lists=, dag=)``.
"""

from __future__ import annotations

import dataclasses

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
