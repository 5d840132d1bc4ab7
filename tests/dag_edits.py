"""Corrupted copies of a DAG, for the validator and diff tests.

A DAG's edges are arrays (:meth:`repro.dashmm.dag.DAG.edge_columns`) and
its ``out_edges`` view is read-only, so a test cannot edit an edge in
place.  :func:`edited` assembles the DAG again through ``add_edge`` with
one edge changed.
"""

from __future__ import annotations

from repro.dashmm.dag import DAG

_KEEP = object()


def edited(dag: DAG, victim, *, drop=False, duplicate=False, op=None, aux=_KEEP) -> DAG:
    """A copy of ``dag`` with the edge ``victim`` (an ``out_edges``
    record) dropped, duplicated, given operator ``op`` or given ``aux``.

    Nodes are copies, localities included; the in-degree table is the
    one ``add_edge`` counts, so it matches the edited edge set - assign
    the original's table to make it stale.
    """
    out = DAG()
    for n in dag.nodes:
        out.add_node(n.kind, n.box_index, n.level, n.tree, n.n_points)
        out.nodes[-1].locality = n.locality
    for edges in dag.out_edges:
        for e in edges:
            if e != victim:
                out.add_edge(e.src, e.dst, e.op, aux=e.aux)
                continue
            if drop:
                continue
            out.add_edge(e.src, e.dst, op or e.op, aux=e.aux if aux is _KEEP else aux)
            if duplicate:
                out.add_edge(e.src, e.dst, e.op, aux=e.aux)
    return out
