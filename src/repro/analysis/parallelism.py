"""DAG parallelism profiles (Section V.C).

The paper observes that following the local-expansion dependence up to
the root "there is a severe bottleneck at the top of the tree, after
which the amount of available parallelism rises sharply".  The
*parallelism profile* makes that quantitative: level-synchronous
wavefronts of the DAG (all nodes whose inputs are satisfied run in one
round) give, per round, how many tasks could execute concurrently.
"""

from __future__ import annotations

import numpy as np

from repro.dashmm.dag import DAG


def wavefront_profile(dag: DAG) -> np.ndarray:
    """Number of simultaneously-ready nodes per dependency round.

    Round 0 holds all in-degree-0 nodes (the S nodes); each later round
    holds the nodes whose last input arrived in the previous round.  The
    length of the profile is the DAG's depth in rounds; its values are
    the available parallelism assuming unit-time nodes.
    """
    cols = dag.edge_columns()
    ptr, dst = cols.out_ptr.tolist(), cols.dst.tolist()
    indeg = dag.in_degree.tolist()
    current = [nid for nid in range(dag.n_nodes) if indeg[nid] == 0]
    profile = []
    while current:
        profile.append(len(current))
        nxt = []
        for nid in current:
            for d in dst[ptr[nid] : ptr[nid + 1]]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    nxt.append(d)
        current = nxt
    return np.array(profile, dtype=np.int64)


def bottleneck_round(dag: DAG) -> tuple[int, int]:
    """(round index, width) of the narrowest non-initial wavefront.

    For the FMM this is the top-of-tree bottleneck: the round where the
    fewest tasks are runnable before the final fan-out.
    """
    prof = wavefront_profile(dag)
    if len(prof) < 3:
        return (0, int(prof[0]) if len(prof) else 0)
    # ignore the first and last rounds (sources / final sinks)
    inner = prof[1:-1]
    i = int(np.argmin(inner)) + 1
    return (i, int(prof[i]))


def fanout_after_bottleneck(dag: DAG) -> float:
    """Ratio of the widest post-bottleneck wavefront to the bottleneck
    width - the paper's "rises sharply" factor."""
    prof = wavefront_profile(dag)
    i, width = bottleneck_round(dag)
    if width == 0 or i + 1 >= len(prof):
        return 1.0
    return float(prof[i + 1 :].max()) / float(width)
