"""Corrupted copies of a DAG, for the validator and diff tests.

A DAG's nodes and edges are columns, appended in blocks, and its
``nodes`` / ``out_edges`` views are read-only, so a test cannot edit an
edge in place.  :func:`edited` round-trips the DAG through its JSON form
(:mod:`repro.dashmm.export`) with one edge row changed; the reader
rejects, with a ``ValueError``, what the columns cannot store.
"""

from __future__ import annotations

import json

from repro.dashmm.dag import DAG
from repro.dashmm.export import _aux_to_json, dag_from_json, dag_to_json

_KEEP = object()


def edited(dag: DAG, victim, *, drop=False, duplicate=False, op=None, aux=_KEEP) -> DAG:
    """A copy of ``dag`` with the edge ``victim`` (an ``out_edges``
    record) dropped, duplicated, given operator ``op`` or given ``aux``.

    Nodes are copies, localities included; the in-degree table is the
    one the appends count, so it matches the edited edge set - assign
    the original's table to make it stale.
    """
    data = json.loads(dag_to_json(dag))
    row = int(dag.edge_columns().out_ptr[victim.src]) + victim.pos
    edge = data["edges"][row]
    new = dict(edge, op=op or edge["op"])
    if aux is not _KEEP:
        new["aux"] = _aux_to_json(aux)
    data["edges"][row : row + 1] = [] if drop else [new, edge] if duplicate else [new]
    return dag_from_json(json.dumps(data))
