"""Critical-path analysis of the explicit DAG (Section V.C).

The paper divides the FMM DAG into three operation groups: work moving
up the source tree (S->M, M->M), work bridging source to target tree
(M->I, I->I, I->L, M->L, M->T, S->L), and work moving down the target
tree to the final values (S->T, L->L, L->T).  The critical path runs up
the source tree and back down the target tree, which is why delaying
the (cheap) upward work throttles the whole evaluation.
"""

from __future__ import annotations

from repro.dag.schema import EDGE_KIND_CATALOG
from repro.dashmm.dag import DAG, EDGE_OPS
from repro.sim.costmodel import CostModel


def _groups_from_catalog() -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {"up": [], "bridge": [], "down": []}
    for kind in EDGE_KIND_CATALOG.values():
        out[kind.group].append(kind.name)
    return {g: tuple(ops) for g, ops in out.items()}


#: The paper's three operation groups, derived from the declared edge
#: kinds (each :class:`repro.dag.EdgeKind` carries its ``group`` tag):
#: up = S2M/M2M, bridge = M2I/I2I/I2L/M2L/M2T/S2L, down = S2T/L2L/L2T.
GROUPS = _groups_from_catalog()


def op_group(op: str) -> str:
    """Which of the paper's three groups an edge class belongs to."""
    for g, ops in GROUPS.items():
        if op in ops:
            return g
    raise ValueError(f"unknown op {op}")


def dag_critical_path(dag: DAG, cost_model: CostModel | None = None) -> dict:
    """Critical-path length in edge count and (optionally) in seconds.

    With a cost model, edge weights are the per-edge costs (point counts
    taken from the source/destination nodes), giving the minimum
    possible evaluation time on infinitely many cores.
    """
    hops = dag.critical_path_length()
    out = {"edges": hops}
    if cost_model is not None:
        out["seconds"] = dag.critical_path_length(dag.edge_costs(cost_model))
    return out


def node_priorities(
    dag: DAG, cost_model: CostModel | None = None, levels: int = 3
) -> list[int]:
    """Quantized critical-path priority level per DAG node.

    A node's *downstream distance* is the cost of the longest path from
    it to any sink, with edge weights from ``cost_model`` (hop count
    when None).  Distances quantize linearly into ``levels`` buckets:
    the largest distance maps to level 0 (most critical - the S nodes
    feeding the upward chain), the sinks (T nodes) to ``levels - 1``.
    Levels are monotone along every edge (``level[src] <= level[dst]``),
    so draining lower levels first always advances the critical path.

    The DASHMM registrar stamps these levels onto continuation tasks
    and parcels at registration time when the runtime's scheduling
    policy is graded (see
    :class:`repro.hpx.scheduler.CriticalPathPolicy`).
    """
    n = dag.n_nodes
    dist = [0.0] * n
    cols = dag.edge_columns()
    ptr, dst = cols.out_ptr.tolist(), cols.dst.tolist()
    w = [1.0] * len(dst) if cost_model is None else dag.edge_costs(cost_model).tolist()
    for nid in reversed(dag._topological_order()):
        best = 0.0
        for r in range(ptr[nid], ptr[nid + 1]):
            d = w[r] + dist[dst[r]]
            if d > best:
                best = d
        dist[nid] = best
    dmax = max(dist, default=0.0)
    if dmax <= 0.0 or levels < 2:
        return [0] * n
    top = levels - 1
    scale = top / dmax
    return [max(top - int(d * scale), 0) for d in dist]


def work_by_group(dag: DAG, cost_model: CostModel) -> dict[str, float]:
    """Total work (seconds of task time) per operation group.

    Quantifies the paper's observation that the absolute amount of
    upward work is small compared to the bridge and downward groups.
    """
    acc = {g: 0.0 for g in GROUPS}
    group = [op_group(op) for op in EDGE_OPS]
    costs = dag.edge_costs(cost_model).tolist()
    for code, c in zip(dag.edge_columns().op.tolist(), costs):
        acc[group[code]] += c
    return acc
