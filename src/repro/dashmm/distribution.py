"""Distribution policies: mapping the explicit DAG onto localities.

The paper constrains the distribution so that nodes representing the
multipole expansion of a source leaf (and the local expansion of a
target leaf) match the a-priori data distribution: points are sorted at
a coarse level and split equally across localities, so each locality
owns a contiguous Morton range of each ensemble.

The policy evaluated in Section V ("designed for FMMs that implement
the merge-and-shift technique") additionally fixes every source box's
multipole/intermediate node and every target box's local node to the
locality owning that box, and places the *target intermediate* node to
minimize communication while adding slack - implemented here as
majority-vote over the localities of its incoming I2I edges (ties to
the target box's owner).

``RandomPolicy`` and ``BlockPolicy`` are ablation baselines.
"""

from __future__ import annotations

import numpy as np

from repro.dashmm.dag import DAG, OP_CODE
from repro.tree.dualtree import DualTree


def partition_points(n_points: int, n_localities: int) -> np.ndarray:
    """Split indices [0, n) into ``n_localities`` near-equal chunks.

    Returns the array of chunk boundaries (length n_localities + 1),
    mirroring the paper's coarse sort + equal distribution.
    """
    return np.linspace(0, n_points, n_localities + 1).astype(np.int64)


def _work_cuts(cw: np.ndarray, n_points: int, n_localities: int) -> np.ndarray:
    """Chunk boundaries splitting cumulative work ``cw`` evenly."""
    total = cw[-1] if len(cw) else 0.0
    if total <= 0:
        return partition_points(n_points, n_localities)
    cuts = [0]
    for i in range(1, n_localities):
        cuts.append(int(np.searchsorted(cw, total * i / n_localities)))
    cuts.append(n_points)
    return np.array(cuts, dtype=np.int64)


def box_owner(box, bounds: np.ndarray) -> int:
    """Locality owning a box: the owner of its middle point.

    Boxes hold contiguous Morton ranges, so this agrees with the data
    distribution at the leaves and is a sensible majority rule above.
    """
    mid = (box.start + box.stop) // 2 if box.count > 0 else box.start
    loc = int(np.searchsorted(bounds, mid, side="right") - 1)
    return min(max(loc, 0), len(bounds) - 2)


class DistributionPolicy:
    """Base class: assigns ``node.locality`` for every DAG node.

    ``balance="count"`` splits each ensemble into equal point counts
    (the paper's coarse sort + equal distribution).  ``balance="work"``
    splits at equal estimated *work* instead, using the cost model to
    weight each box's operations; the paper observes its workloads are
    well-balanced ("each locality reaching the region at the same
    time"), and at reduced problem sizes the work split is what
    recovers that property.
    """

    name = "base"

    def __init__(self, balance: str = "count", cost_model=None):
        if balance not in ("count", "work"):
            raise ValueError("balance must be 'count' or 'work'")
        self.balance = balance
        self.cost_model = cost_model
        # last fingerprint -> cumulative per-point work; the cuts for any
        # locality count derive from these in O(n_localities log n)
        self._work_cache: tuple | None = None

    def assign(self, dag: DAG, dual: DualTree, n_localities: int) -> None:
        raise NotImplementedError

    def _owners(self, dag: DAG, dual: DualTree, n_localities: int):
        if self.balance == "work":
            src_bounds, tgt_bounds = self._work_bounds(dag, dual, n_localities)
        else:
            src_bounds = partition_points(dual.source.n_points, n_localities)
            tgt_bounds = partition_points(dual.target.n_points, n_localities)
        src_owner = [box_owner(b, src_bounds) for b in dual.source.boxes]
        tgt_owner = [box_owner(b, tgt_bounds) for b in dual.target.boxes]
        return src_owner, tgt_owner

    def _work_bounds(self, dag: DAG, dual: DualTree, n_localities: int):
        src_cw, tgt_cw = self._work_cumsums(dag, dual)
        return (
            _work_cuts(src_cw, dual.source.n_points, n_localities),
            _work_cuts(tgt_cw, dual.target.n_points, n_localities),
        )

    def _work_cumsums(self, dag: DAG, dual: DualTree):
        """Cumulative per-point work for both ensembles, cached.

        The edge sweep dominates ``assign``; a scaling study calls
        ``assign`` once per locality count on the *same* DAG, and a
        persistent session re-assigns after every tree splice.  The
        cache keys on the *full* tree fingerprint (counts included) plus
        the DAG's node/edge totals - a value key, not object identity -
        so a spliced tree with shifted per-box counts can never reuse
        stale locality cuts, while a same-distribution resubmit hits.
        """
        from repro.tree.fingerprint import dual_full_fingerprint

        cols = dag.edge_columns()
        key = (dual_full_fingerprint(dual), len(dag.nodes), len(cols.dst))
        cached = self._work_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]

        from repro.sim.costmodel import CostModel

        cost = dag.edge_costs(self.cost_model or CostModel())
        box = np.fromiter((nd.box_index for nd in dag.nodes), np.int64, len(dag.nodes))
        # source-tree operations execute where the source box lives;
        # everything else lands target-side.  np.add.at adds row by row,
        # so each box sums its edges in row order
        up = np.isin(cols.op, [OP_CODE[op] for op in ("S2M", "M2M", "M2I", "I2I")])
        src_box_work = np.zeros(len(dual.source.boxes))
        tgt_box_work = np.zeros(len(dual.target.boxes))
        np.add.at(src_box_work, box[cols.src[up]], cost[up])
        np.add.at(tgt_box_work, box[cols.dst[~up]], cost[~up])

        def cumsum_for(tree, box_work):
            pt = np.zeros(tree.n_points)
            for b in tree.boxes:
                if b.count > 0 and box_work[b.index] > 0:
                    pt[b.start : b.stop] += box_work[b.index] / b.count
            return np.cumsum(pt)

        src_cw = cumsum_for(dual.source, src_box_work)
        tgt_cw = cumsum_for(dual.target, tgt_box_work)
        self._work_cache = (key, src_cw, tgt_cw)
        return src_cw, tgt_cw


class FmmPolicy(DistributionPolicy):
    """The paper's merge-and-shift distribution policy."""

    name = "fmm"

    def assign(self, dag: DAG, dual: DualTree, n_localities: int) -> None:
        src_owner, tgt_owner = self._owners(dag, dual, n_localities)
        # pass 1: everything except It is fixed to the owning locality
        for n in dag.nodes:
            owner = src_owner if n.tree == "source" else tgt_owner
            n.locality = owner[n.box_index]
        # pass 2: It placed by incoming-traffic majority (comm cost), ties
        # to the target owner (slack: stays near its consumer), then to
        # the source locality whose first I2I edge comes first in row order
        cols = dag.edge_columns()
        i2i = cols.op == OP_CODE["I2I"]
        if not i2i.any():
            return
        nodes = dag.nodes
        loc = np.fromiter((nd.locality for nd in nodes), np.int64, len(nodes))
        box = np.fromiter((nd.box_index for nd in nodes), np.int64, len(nodes))
        dst, src_loc = cols.dst[i2i], loc[cols.src[i2i]]
        n_loc = int(src_loc.max()) + 1
        pairs, first, votes = np.unique(dst * n_loc + src_loc, return_index=True, return_counts=True)
        it, voted = np.divmod(pairs, n_loc)
        home = voted == np.asarray(tgt_owner)[box[it]]
        order = np.lexsort((first, ~home, -votes, it))
        best = order[np.r_[True, it[order][1:] != it[order][:-1]]]
        for nid, l in zip(it[best].tolist(), voted[best].tolist()):
            nodes[nid].locality = l


class BlockPolicy(DistributionPolicy):
    """Everything at the owning locality (no It optimization)."""

    name = "block"

    def assign(self, dag: DAG, dual: DualTree, n_localities: int) -> None:
        src_owner, tgt_owner = self._owners(dag, dual, n_localities)
        for n in dag.nodes:
            owner = src_owner if n.tree == "source" else tgt_owner
            n.locality = owner[n.box_index]


class RandomPolicy(DistributionPolicy):
    """Random placement of internal nodes (leaf data stays fixed).

    A deliberately bad baseline: the constraint on leaf S/M and leaf
    L/T nodes is honoured, everything else scatters uniformly.
    """

    name = "random"

    def __init__(self, seed: int = 999, balance: str = "count", cost_model=None):
        super().__init__(balance=balance, cost_model=cost_model)
        self.seed = seed

    def assign(self, dag: DAG, dual: DualTree, n_localities: int) -> None:
        rng = np.random.default_rng(self.seed)
        src_owner, tgt_owner = self._owners(dag, dual, n_localities)
        src, tgt = dual.source, dual.target
        for n in dag.nodes:
            owner = src_owner if n.tree == "source" else tgt_owner
            tree = src if n.tree == "source" else tgt
            box = tree.boxes[n.box_index]
            fixed = (
                n.kind in ("S", "T")
                or (n.kind == "M" and box.is_leaf)
                or (n.kind == "L" and box.is_leaf)
            )
            if fixed:
                n.locality = owner[n.box_index]
            else:
                n.locality = int(rng.integers(0, n_localities))
