"""The execution plan: every numeric stage as index data over the DAG.

Which edges stack together, in which order, and what crosses ranks is a
function of the DAG and the node localities alone, so it is compiled
here - the dependency data is the program - and whatever drives it
(:class:`repro.dashmm.registrar.Registrar`) stays thin.  A simulated
drain carries no values (its edges only count down their target LCOs),
so every number of an evaluation comes from one :class:`Plan`, compiled
by :func:`compile_plan` from the DAG's edge columns on first use and
dropped by :meth:`~repro.dashmm.registrar.Registrar.invalidate_plans`.
:meth:`~repro.dashmm.registrar.Registrar.stages` walks it as one stage
list:

* the upward classes and the local-expansion folds (S->M, M->M, S->L,
  M->L) as canonical fold lists: the leaf fits, the upward sweep level
  by level, then the S->L / M->L folds;
* the exponential bridge (M->I, I->I, I->L), the downward shift (L->L)
  and the leaf outputs (S->T, M->T, L->T) as stacked array operations.

A cold ``evaluate()`` runs it after its drain, a session's submit and a
real-parallel worker's round run it in place of one - the same stages
on every path.

A real-parallel worker compiles the plan for its ``rank``: the slice of
edges it executes, plus ``sends`` / ``recvs`` - per stage name, the
expansions it owes each peer before the peer's stage runs and the ones
it reads from each peer.  ``sends[stage][b]`` on rank ``a`` and
``recvs[stage][a]`` on rank ``b`` are the same ids, and every stage
name appears on every rank, so all ranks walk one stage sequence.

Canonical composition (what makes every path produce the same bits):

* every edge executes at its destination node's locality, and every
  GEMM group key ends in that locality: a worker's groups are exactly
  the simulator's groups of its rank, so the stacked GEMM operands
  agree row for row;
* within a GEMM group (M->I, I->L, L->L) edges are ordered by
  ``(src, dst)`` - an order that depends on the DAG only, never on the
  schedule;
* I->I is the one bridge class that is a sum per target and no GEMM: a
  target row's value is ``P_t * sum_z Z^z * (sum of its offset-z source
  rows, conj(P_s) applied)``, with the sources of each CSR row listed in
  source *node id* order (``indptr``/``indices`` are built in that
  order directly, never sorted by plan row), the offsets ``z`` ascending
  and taken from all of the (level, direction)'s edges whatever the
  rank, and the phases taken at the boxes' absolute lattice coordinates,
  never relative to a plan's first row.  A row's sum therefore does not
  depend on which other rows share its matrix, and the locality is not
  part of the I->I group key: a rank's group is the row subset of the
  full plan's;
* leaf-output groups are visited in order of first appearance in the
  ``(src, dst)``-sorted edge list, which fixes the order in which
  contributions are added into each target point;
* folds add a node's in-edges in edge-column row order - by
  ``(src, out-list position)`` - the row being the edge's identity.

Every expansion has a fixed row in the *expansion store*, arrays the
plan addresses (``Plan.holder`` / ``Plan.row``): the M and L rows in
one ``(rows, kernel.size)`` matrix, and the source- and target-side
intermediate expansions of each bridge level in two more, one row per
node and one block of ``nterms`` columns per direction the level
translates in at all (``BridgeLevel.dirs``, in :data:`FULL_DIRS` order -
a slab never goes up or down, a third of the M->I and I->L width).
Each array leads with the rows the plan computes; the rest are the rows
a rank's stages read from its peers.  The plan holds one
:class:`Translation` per (level, direction).

Where the leaf outputs land is compiled apart, as a :class:`LeafLayout`
(:func:`compile_leaf_layout`): it reads the target leaves' point counts
as well, so it outlives every drift that moves no point across a leaf
boundary, and lays out the geometry cache's pages
(:mod:`repro.dashmm.geomcache`) as well as the result accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dashmm.dag import EDGE_OPS, KIND_CODE, OP_CODE
from repro.kernels.expo import DIRECTIONS, frame

#: canonical direction order of the dense plane-wave matrices and of the
#: M->I / I->L operator stacks (a level carries the subset it uses)
FULL_DIRS = tuple(sorted(("+z", "-z", "+x", "-x", "+y", "-y")))
#: FULL_DIRS index of each assign_direction_arrays code
_DIR_OF_CODE = np.array([FULL_DIRS.index(d) for d in DIRECTIONS])
#: integer frame rows (e1, e2, d) per direction: lattice -> (u_x, u_y, u_z)
_FRAMES = np.array([frame(d) for d in FULL_DIRS]).astype(np.int64)

#: the leaf-output classes, in the order their group keys rank them
OUTPUT_OPS = ("S2T", "M2T", "L2T")


@dataclass(frozen=True)
class Translation:
    """I->I of one (level, direction): ``V = P_t * sum_z Z^z * (A_z @
    (conj(P_s) * W))`` as index data.

    The translation factor of an edge, ``exp(-t u_z + i lam (u_x cos a +
    u_y sin a))`` at ``u = frame(d) @ (c_t - c_s)``, separates into a
    phase ``P`` of the target box, the conjugate phase of the source box
    and a decay in the axial offset ``u_z``.  ``indptr``/``indices`` are
    the 0/1 CSR matrices ``A_z`` stacked over ``offsets``: row ``i *
    len(tgt_rows) + j`` lists, in source node id order, the entries of
    ``src_rows`` that target ``tgt_rows[j]`` receives from at axial
    offset ``offsets[i]``.
    """

    direction: int  # index into FULL_DIRS
    src_rows: np.ndarray  # source-side matrix rows read, in node id order
    tgt_rows: np.ndarray  # target-side matrix rows written, in node id order
    #: distinct axial offsets of the (level, direction), ascending - of
    #: all its edges, whatever the rank
    offsets: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    #: transverse lattice coordinates (u_x, u_y) of the boxes behind
    #: ``src_rows`` / ``tgt_rows``, absolute, in the direction's frame
    src_uv: np.ndarray
    tgt_uv: np.ndarray


@dataclass(frozen=True)
class BridgeLevel:
    """M->I, I->I and I->L of one tree level (I->I is same-level).

    Rows ``[0, n_is_local)`` of the source-side matrix are written by
    this plan's M->I groups; the remaining ``is_ids`` are sources of
    local I->I edges whose M->I ran on another locality, delivered by
    their owners' frames.  Likewise for the target side and I->L.
    """

    level: int
    #: indices into FULL_DIRS of the directions any I->I edge of the
    #: level takes, on any rank: the column blocks of both matrices
    dirs: tuple
    is_ids: list  # Is node id per row of the source-side matrix
    n_is_local: int
    it_ids: list  # It node id per row of the target-side matrix
    n_it_local: int
    m2i: list  # (first row, M node ids): one GEMM per group
    i2i: list  # Translation per direction with local edges
    i2l: list  # (It rows, L node ids): one GEMM per group


@dataclass(frozen=True)
class OutputGroup:
    """Leaf-output edges sharing one stacked evaluation.

    ``sub`` is the source node id for S->T (one direct sum per source
    leaf) and the source level for M->T / L->T (one operator scale);
    ``[lo, hi)`` is the group's slice of the plan's ``out_*`` arrays.
    """

    op: str
    sub: int
    loc: int
    lo: int
    hi: int


@dataclass(frozen=True)
class Folds:
    """Expansions that each fold a run of in-edges: node ``dst[i]`` adds
    the edges of rows ``rows[bounds[i]:bounds[i + 1]]``, in that order."""

    dst: list
    bounds: list  # one more entry than dst
    rows: np.ndarray  # edge-column rows, fold order


@dataclass(frozen=True)
class Plan:
    """The compiled stages; see the module docstring for the ordering rules."""

    #: (level, Folds of its M nodes), deepest level first; every level
    #: some rank folds at appears on every rank
    m_folds: list
    l_folds: Folds  # L nodes over their S->L / M->L in-edges
    s2l_groups: list  # rows of S->L edges sharing one stacked p2l build
    bridge: list  # BridgeLevel per level with list-2 work
    #: (parent level, [(octant, parent L ids, child L ids)]), coarse
    #: first; every level of the DAG appears (with no groups where this
    #: rank executes none), so all ranks walk one stage sequence
    l2l: list
    outputs: list  # OutputGroup, in accumulation order
    out_src: list  # source node id per leaf-output edge, group-contiguous
    out_sbox: np.ndarray  # its box index in the source (S, M) or target (L) tree
    out_tbox: np.ndarray  # target box index of the edge's T node
    #: rank-restricted plans: stage name -> {peer: sorted ids of this
    #: rank's nodes that the peer's stage reads}; a key per stage that
    #: reads across ranks, on every rank.  ``("m2m", level)``: the
    #: children's multipoles under the level's folds; ``"m2l"``: every
    #: multipole a peer reads once the upward sweep is over - its M->L,
    #: M->I and M->T - all final at that point, shipped once
    sends: dict
    #: the mirror image: stage name -> {peer: sorted ids of the peer's
    #: nodes that this rank's stage reads}
    recvs: dict
    n_edges: int  # edges the plan's stages execute
    #: the expansion store (module docstring), per node: the array that
    #: holds its row - 0 the M and L rows, ``1 + 2 * k`` / ``2 + 2 * k``
    #: the source / target side of ``bridge[k]``, -1 none - and the row
    holder: np.ndarray
    row: np.ndarray
    #: per store array: (rows, leading rows the plan computes); the
    #: others it only receives
    store: list


@dataclass(frozen=True)
class LeafLayout:
    """Where each contribution of a plan's leaf outputs lands.

    A *contribution* is one (output edge, target point) pair; the plan's
    contributions are numbered in plan order, edge by edge, each edge's
    run in the order of its target leaf's points.  A contribution's
    *slot* is its rank among the contributions of its target point in
    that order: the potentials add each point's contributions slot by
    slot, the sequence a per-edge walk adds them in.  Every point of one
    target leaf has the same contributions (one per edge into the leaf),
    so slots are ranks of edges.  Slot ``k`` of the ``m`` points with
    more than ``k`` contributions - a prefix of ``own`` - are the
    contributions ``slot_order[lo : lo + m]``, for ``(lo, m) =
    slots[k]``.
    """

    counts: np.ndarray  # per output edge: points of its target leaf
    starts: np.ndarray  # per output edge: its first contribution
    #: per output group: its first contribution; one more entry, the total
    bounds: np.ndarray
    group_lo: np.ndarray  # per output group: its first edge
    s2t: np.ndarray  # per output group: is it an S->T group
    point_idx: np.ndarray  # per contribution: its target point
    #: the contributions slot by slot, each slot's in the order of ``own``
    slot_order: np.ndarray
    #: the target points the plan reaches, those of leaves with more
    #: contributions first - the only result entries its stage writes
    own: np.ndarray
    slots: list

    def add_into(self, result: np.ndarray, vals: np.ndarray) -> None:
        """Add contribution ``vals[j]`` into ``result[point_idx[j]]`` for
        every ``j``, slot by slot: each point's sum is the one a
        sequential ``np.add.at(result, point_idx, vals)`` makes, bit for
        bit, and no entry outside ``own`` is read or written."""
        acc = result[self.own]
        for lo, m in self.slots:
            acc[:m] += vals[self.slot_order[lo : lo + m]]
        result[self.own] = acc


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ...`` (``lengths[i]`` values) for every
    ``i``, concatenated."""
    first = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - first, lengths)


def compile_leaf_layout(plan: Plan, target) -> LeafLayout:
    """The :class:`LeafLayout` of ``plan`` over the target tree ``target``."""
    ta, tbox = target.arrays, plan.out_tbox
    n = len(tbox)
    counts = ta.counts[tbox]
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    group_lo = np.array([g.lo for g in plan.outputs], dtype=np.int64)
    # an edge's slot: its rank among the edges into its target leaf
    order = np.argsort(tbox, kind="stable")
    first = np.ones(n, dtype=bool)
    first[1:] = tbox[order][1:] != tbox[order][:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.maximum.accumulate(np.where(first, np.arange(n), 0))
    # the reached leaves, most edges first: slot k covers a prefix of them
    leaves, degree = np.unique(tbox, return_counts=True)
    by = np.argsort(-degree, kind="stable")
    leaves, degree = leaves[by], degree[by]
    points = np.concatenate(([0], np.cumsum(ta.counts[leaves])))
    n_leaves = np.searchsorted(-degree, -np.arange(degree[0] if n else 0), side="left")
    # slot by slot, each slot's edges in the order of their leaves in own
    leaf_pos = np.zeros(len(ta.counts), dtype=np.int64)
    leaf_pos[leaves] = np.arange(len(leaves))
    slot_edges = np.lexsort((leaf_pos[tbox], rank))
    width = points[n_leaves]
    return LeafLayout(
        counts=counts,
        starts=starts,
        bounds=np.append(starts[group_lo], total),
        group_lo=group_lo,
        s2t=np.array([g.op == "S2T" for g in plan.outputs], dtype=bool),
        point_idx=np.repeat(ta.starts[tbox] - starts, counts) + np.arange(total),
        slot_order=_runs(starts[slot_edges], counts[slot_edges]),
        own=_runs(ta.starts[leaves], ta.counts[leaves]),
        slots=list(zip((np.cumsum(width) - width).tolist(), width.tolist())),
    )


def _group_slices(*keys: np.ndarray) -> list[tuple[int, int]]:
    """``[lo, hi)`` runs of equal key tuples in already-sorted arrays."""
    n = len(keys[0])
    if n == 0:
        return []
    change = np.zeros(n - 1, dtype=bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    cuts = np.flatnonzero(change) + 1
    return list(zip([0, *cuts.tolist()], [*cuts.tolist(), n]))


def _rows_of(ids: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix rows of ``ids`` given the locally produced nodes ``local``
    (rows ``0..len(local)-1``); unknown ids are appended as mirrored
    rows.  Returns ``(rows, all node ids by row)``."""
    mirrored = np.setdiff1d(ids, local)
    by_row = np.concatenate([local, mirrored])
    order = np.argsort(by_row, kind="stable")
    return order[np.searchsorted(by_row, ids, sorter=order)], by_row


def _crossing(src: np.ndarray, dst: np.ndarray, loc: np.ndarray, rank: int) -> tuple[dict, dict]:
    """``(sends, recvs)`` of the edges ``src -> dst``, both ``{peer:
    sorted source node ids}``: ``rank``'s sources per reading peer, and
    each peer's sources that ``rank``'s destinations read."""

    def by_peer(own: np.ndarray, peer: np.ndarray) -> dict:
        crossing = (own == rank) & (peer != rank)
        return {
            p: np.unique(src[crossing & (peer == p)]).tolist()
            for p in np.unique(peer[crossing]).tolist()
        }

    return by_peer(loc[src], loc[dst]), by_peer(loc[dst], loc[src])


def compile_plan(dag, dual, rank: int | None = None) -> Plan:
    """Compile the plan of ``dag`` under its current localities.

    *What* is computed is fixed by the DAG: each expansion folds its
    in-edges in row order - fold key ``(src, out-list position)`` - one
    source leaf's S->L edges stack per (destination locality, target
    level), and the stacked stages group as the module docstring says.
    ``dual`` is the tree pair the DAG was assembled over; only its box
    keys are read (the lattice coordinates behind the I->I phases), so a
    plan outlives any rebind to a same-shape tree.  ``rank`` restricts
    the plan to the edges executing at that locality (the real-parallel
    worker's share); ``None`` takes all of them.  The folds carry
    edge-column rows; the stages read every operand off the columns.
    """
    n = dag.n_nodes
    level, loc, box = dag.level, dag.locality, dag.box
    cols = dag.edge_columns()

    def rows_of(*ops: str, everywhere: bool = False) -> np.ndarray:
        """Edge-column rows of the classes ``ops``, ascending; only those
        executing at ``rank`` unless ``everywhere``."""
        at = np.isin(cols.op, [OP_CODE[o] for o in ops])
        if rank is not None and not everywhere:
            at &= loc[cols.dst] == rank
        return np.flatnonzero(at)

    def folds(rows: np.ndarray) -> Folds:
        rows = rows[np.argsort(cols.dst[rows], kind="stable")]
        runs = _group_slices(cols.dst[rows])
        return Folds(
            dst=cols.dst[rows[[lo for lo, _ in runs]]].tolist(),
            bounds=[lo for lo, _ in runs] + [len(rows)],
            rows=rows,
        )

    # -- upward sweep and local-expansion folds ----------------------------------
    m_rows = rows_of("S2M", "M2M")
    l_rows = rows_of("S2L", "M2L")
    # children strictly precede parents: deepest destinations first
    m_levels = np.unique(level[cols.dst[rows_of("S2M", "M2M", everywhere=True)]])[::-1].tolist()
    s2l = rows_of("S2L")
    s2l = s2l[np.lexsort((level[cols.dst[s2l]], loc[cols.dst[s2l]], cols.src[s2l]))]

    # -- exponential bridge ------------------------------------------------------
    r = rows_of("M2I")
    m_src, m_dst = cols.src[r], cols.dst[r]
    order = np.lexsort((m_dst, m_src, loc[m_dst], level[m_src]))
    m_src, m_dst = m_src[order], m_dst[order]

    # I->I: per edge the direction and the axial offset u_z = d . delta
    r = rows_of("I2I", everywhere=True)
    w_src, w_dst = cols.src[r], cols.dst[r]
    delta = cols.delta[r].astype(np.int64)
    w_dir = _DIR_OF_CODE[cols.direction[r]]
    w_z = (delta * _FRAMES[w_dir, 2]).sum(axis=1)
    sa, ta = dual.source.arrays, dual.target.arrays
    s_xyz = np.stack([sa.ix, sa.iy, sa.iz], axis=1)
    t_xyz = np.stack([ta.ix, ta.iy, ta.iz], axis=1)
    # the offsets of a (level, direction) are those of all its edges,
    # before the rank takes its share
    group = level[w_src] * len(FULL_DIRS) + w_dir
    offsets_of = {
        divmod(key, len(FULL_DIRS)): np.unique(w_z[group == key])
        for key in np.unique(group).tolist()
    }
    if rank is not None:
        keep = loc[w_dst] == rank
        w_src, w_dst, w_dir, w_z = w_src[keep], w_dst[keep], w_dir[keep], w_z[keep]
    order = np.lexsort((w_src, w_dst, w_z, w_dir, level[w_src]))
    w_src, w_dst, w_dir, w_z = w_src[order], w_dst[order], w_dir[order], w_z[order]

    r = rows_of("I2L")
    l_src, l_dst = cols.src[r], cols.dst[r]
    order = np.lexsort((l_dst, l_src, loc[l_dst], level[l_src]))
    l_src, l_dst = l_src[order], l_dst[order]

    bridge = []
    for lvl in np.unique(np.concatenate([level[m_src], level[w_src], level[l_src]])).tolist():
        ms, md = (a[level[m_src] == lvl] for a in (m_src, m_dst))
        at = level[w_src] == lvl
        ws, wd, wdir, wz = w_src[at], w_dst[at], w_dir[at], w_z[at]
        ls, ld = (a[level[l_src] == lvl] for a in (l_src, l_dst))

        is_rows, is_ids = _rows_of(ws, md)
        it_local = np.unique(wd)
        it_rows, it_ids = _rows_of(ls, it_local)

        i2i = []
        for lo, hi in _group_slices(wdir):
            d = int(wdir[lo])
            offsets = offsets_of[lvl, d]
            src, first, col = np.unique(ws[lo:hi], return_index=True, return_inverse=True)
            dst, row = np.unique(wd[lo:hi], return_inverse=True)
            # edges arrive sorted by (offset, dst, src): the CSR rows in
            # order, each row's sources in node id order
            row += np.searchsorted(offsets, wz[lo:hi]) * len(dst)
            indptr = np.zeros(len(offsets) * len(dst) + 1, dtype=np.int32)
            np.cumsum(np.bincount(row, minlength=len(indptr) - 1), out=indptr[1:])
            transverse = _FRAMES[d, :2].T
            i2i.append(
                Translation(
                    direction=d,
                    src_rows=is_rows[lo:hi][first],
                    tgt_rows=np.searchsorted(it_local, dst),
                    offsets=offsets,
                    indptr=indptr,
                    indices=col.astype(np.int32),
                    src_uv=s_xyz[box[src]] @ transverse,
                    tgt_uv=t_xyz[box[dst]] @ transverse,
                )
            )
        bridge.append(
            BridgeLevel(
                level=lvl,
                dirs=tuple(d for at_level, d in offsets_of if at_level == lvl),
                is_ids=is_ids.tolist(),
                n_is_local=len(md),
                it_ids=it_ids.tolist(),
                n_it_local=len(it_local),
                m2i=[(lo, ms[lo:hi].tolist()) for lo, hi in _group_slices(loc[md])],
                i2i=i2i,
                i2l=[
                    (it_rows[lo:hi], ld[lo:hi].tolist())
                    for lo, hi in _group_slices(loc[ld])
                ],
            )
        )

    # -- downward shift ----------------------------------------------------------
    r = rows_of("L2L")
    d_src, d_dst, octant = cols.src[r], cols.dst[r], cols.octant[r]
    order = np.lexsort((d_dst, d_src, loc[d_dst], octant, level[d_src]))
    d_src, d_dst, octant = d_src[order], d_dst[order], octant[order]
    l2l_levels = np.unique(level[cols.src[rows_of("L2L", everywhere=True)]]).tolist()
    l2l = [(lvl, []) for lvl in l2l_levels]
    groups_of = dict(l2l)
    for lo, hi in _group_slices(level[d_src], octant, loc[d_dst]):
        groups_of[int(level[d_src[lo]])].append(
            (int(octant[lo]), d_src[lo:hi].tolist(), d_dst[lo:hi].tolist())
        )

    # -- leaf outputs ------------------------------------------------------------
    ops, srcs, dsts = [], [], []
    for i, op in enumerate(OUTPUT_OPS):
        r = rows_of(op)
        ops.append(np.full(len(r), i, dtype=np.int64))
        srcs.append(cols.src[r])
        dsts.append(cols.dst[r])
    o_op, o_src, o_dst = (np.concatenate(a) for a in (ops, srcs, dsts))
    order = np.lexsort((o_dst, o_src))
    o_op, o_src, o_dst = o_op[order], o_src[order], o_dst[order]
    o_sub = np.where(o_op == 0, o_src, level[o_src])
    # one integer per (op, sub, locality) key; groups in first-appearance order
    key = (o_op * (n + 1) + o_sub) * (int(loc.max(initial=0)) + 2) + (loc[o_dst] + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank_of_group = np.empty(len(first), dtype=np.int64)
    rank_of_group[np.argsort(first)] = np.arange(len(first))
    group = rank_of_group[inverse]
    order = np.argsort(group, kind="stable")
    o_op, o_src, o_dst, o_sub = o_op[order], o_src[order], o_dst[order], o_sub[order]
    outputs = [
        OutputGroup(OUTPUT_OPS[o_op[lo]], int(o_sub[lo]), int(loc[o_dst[lo]]), lo, hi)
        for lo, hi in _group_slices(group[order])
    ]
    # -- what crosses ranks ------------------------------------------------------
    sends: dict = {}
    recvs: dict = {}
    if rank is not None:
        # (stage, the classes it reads sources across, the end whose
        # level splits it into one stage per level)
        for stage, classes, side, levels in (
            # the children's multipoles under a level's folds
            ("m2m", ("M2M",), cols.dst, m_levels),
            # every multipole read past the upward sweep, all final then
            ("m2l", ("M2L", "M2I", "M2T"), None, None),
            ("i2i", ("I2I",), None, None),
            ("i2l", ("I2L",), None, None),
            # the parents of a level's downward shifts
            ("l2l", ("L2L",), cols.src, l2l_levels),
            ("outputs", ("L2T",), None, None),
        ):
            at = rows_of(*classes, everywhere=True)
            cuts = [(stage, at)]
            if levels is not None:
                cuts = [((stage, lvl), at[level[side[at]] == lvl]) for lvl in levels]
            for name, on in cuts:
                sends[name], recvs[name] = _crossing(cols.src[on], cols.dst[on], loc, rank)
    # -- the expansion store -----------------------------------------------------
    # M and L rows: the rank's own, then those its edges read from peers
    spherical = np.isin(dag.kind, [KIND_CODE["M"], KIND_CODE["L"]])
    computed = spherical if rank is None else spherical & (loc == rank)
    read = np.bincount(cols.src[rows_of(*EDGE_OPS)], minlength=n) > 0
    ml = np.concatenate([np.flatnonzero(computed), np.flatnonzero(read & spherical & ~computed)])
    holder, row = np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    holder[ml], row[ml] = 0, np.arange(len(ml))
    store = [(len(ml), int(computed.sum()))]
    for k, b in enumerate(bridge):
        for side, ids, n_local in ((1, b.is_ids, b.n_is_local), (2, b.it_ids, b.n_it_local)):
            holder[ids], row[ids] = 2 * k + side, np.arange(len(ids))
            store.append((len(ids), n_local))
    return Plan(
        m_folds=[(lvl, folds(m_rows[level[cols.dst[m_rows]] == lvl])) for lvl in m_levels],
        l_folds=folds(l_rows),
        s2l_groups=[
            s2l[lo:hi].tolist()
            for lo, hi in _group_slices(cols.src[s2l], loc[cols.dst[s2l]], level[cols.dst[s2l]])
        ],
        bridge=bridge,
        l2l=l2l,
        outputs=outputs,
        out_src=o_src.tolist(),
        out_sbox=box[o_src],
        out_tbox=box[o_dst],
        sends=sends,
        recvs=recvs,
        n_edges=len(m_rows) + len(l_rows) + len(m_src) + len(w_src) + len(l_src)
        + len(d_src) + len(o_src),
        holder=holder,
        row=row,
        store=store,
    )
