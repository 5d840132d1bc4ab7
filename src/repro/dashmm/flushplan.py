"""The execution plan: every numeric stage as index data over the DAG.

Which edges stack together, in which order, and what crosses ranks is a
function of the DAG and the node localities alone, so it is compiled
here - the dependency data is the program - and whatever drives it
(:class:`repro.dashmm.registrar.Registrar`) stays thin.  A simulated
drain carries no values (its edges only count down their target LCOs),
so every number of an evaluation comes from these two sections, each
compiled from the DAG's edge columns on first use and dropped by
:meth:`~repro.dashmm.registrar.Registrar.invalidate_plans`:

* **Eager section** (:func:`compile_eager_plan`): the upward classes
  and the local-expansion folds (S->M, M->M, S->L, M->L), as canonical
  fold lists in stages of their own
  (:meth:`~repro.dashmm.registrar.Registrar.eager_stages`).
* **Flush stages** (:func:`compile_flush_plan`): the exponential bridge
  (M->I, I->I, I->L), the downward shift (L->L) and the leaf outputs
  (S->T, M->T, L->T), as stacked array operations
  (:meth:`~repro.dashmm.registrar.Registrar.flush_stages`).

A cold ``evaluate()`` runs both after its drain, a session's submit and a
real-parallel worker's round run them in place of one - the same stages
on every path.

A real-parallel worker compiles both sections for its ``rank``: the
slice of edges it executes, plus ``sends`` / ``recvs`` - per stage name,
the expansions it owes each peer before the peer's stage runs and the
ones it reads from each peer.  ``sends[stage][b]`` on rank ``a`` and
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
* eager folds add a node's in-edges in edge-column row order - by
  ``(src, out-list position)`` - the row being the edge's identity.

The source- and target-side intermediate expansions of one level live in
two dense matrices, one row per node and one block of ``nterms`` columns
per direction the level translates in at all (``BridgeLevel.dirs``, in
:data:`FULL_DIRS` order - a slab never goes up or down, a third of the
M->I and I->L width); the plan holds the row of every node and one
:class:`Translation` per (level, direction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dashmm.dag import OP_CODE
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
    local I->I edges whose M->I ran on another locality and are copied
    in from the mirror.  Likewise for the target side and I->L.
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
class FlushPlan:
    """The compiled stages; see the module docstring for the ordering rules."""

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
    #: reads across ranks, on every rank
    sends: dict
    #: the mirror image: stage name -> {peer: sorted ids of the peer's
    #: nodes that this rank's stage reads}
    recvs: dict
    n_edges: int  # edges the plan's stages execute


@dataclass(frozen=True)
class Folds:
    """Expansions that each fold a run of in-edges: node ``dst[i]`` adds
    the edges of rows ``rows[bounds[i]:bounds[i + 1]]``, in that order."""

    dst: list
    bounds: list  # one more entry than dst
    rows: np.ndarray  # edge-column rows, fold order


@dataclass(frozen=True)
class EagerPlan:
    """The eager classes as fold lists; see :func:`compile_eager_plan`."""

    #: (level, Folds of its M nodes), deepest level first; every level
    #: some rank folds at appears on every rank
    m_folds: list
    l_folds: Folds  # L nodes over their S->L / M->L in-edges
    s2l_groups: list  # rows of S->L edges sharing one stacked p2l build
    #: as in :class:`FlushPlan`.  ``("m2m", level)``: the children's
    #: multipoles under the level's folds; ``"m2l"``: every multipole a
    #: peer reads once the upward sweep is over - its M->L there, its
    #: M->I and M->T in the flush - all final at that point, shipped once
    sends: dict
    recvs: dict
    n_edges: int  # edges the plan's stages execute


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


def compile_flush_plan(dag, dual, rank: int | None = None) -> FlushPlan:
    """Compile the flush stages of ``dag`` under its current localities.

    ``dual`` is the tree pair the DAG was assembled over; only its box
    keys are read (the lattice coordinates behind the I->I phases), so a
    plan outlives any rebind to a same-shape tree.  ``rank`` restricts
    the plan to the edges executing at that locality (the real-parallel
    worker's share); ``None`` takes all of them.
    """
    nodes = dag.nodes
    n = len(nodes)
    level = np.fromiter((nd.level for nd in nodes), np.int64, n)
    loc = np.fromiter((nd.locality for nd in nodes), np.int64, n)
    box = np.fromiter((nd.box_index for nd in nodes), np.int64, n)
    cols = dag.edge_columns()

    def every(op: str):
        at = cols.op == OP_CODE[op]
        return cols.src[at], cols.dst[at]

    def endpoints(op: str, aux: np.ndarray | None = None):
        src, dst = every(op)
        if rank is not None:
            keep = loc[dst] == rank
            src, dst = src[keep], dst[keep]
            aux = aux if aux is None else aux[keep]
        return src, dst, aux

    # -- exponential bridge ------------------------------------------------------
    m_src, m_dst, _ = endpoints("M2I")
    order = np.lexsort((m_dst, m_src, loc[m_dst], level[m_src]))
    m_src, m_dst = m_src[order], m_dst[order]

    # I->I: per edge the direction and the axial offset u_z = d . delta
    at = cols.op == OP_CODE["I2I"]
    w_src, w_dst = cols.src[at], cols.dst[at]
    delta = cols.delta[at].astype(np.int64)
    w_dir = _DIR_OF_CODE[cols.direction[at]]
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

    l_src, l_dst, _ = endpoints("I2L")
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
    d_src, d_dst, octant = endpoints("L2L", cols.octant[cols.op == OP_CODE["L2L"]])
    order = np.lexsort((d_dst, d_src, loc[d_dst], octant, level[d_src]))
    d_src, d_dst, octant = d_src[order], d_dst[order], octant[order]
    l2l = [(lvl, []) for lvl in np.unique(level[every("L2L")[0]]).tolist()]
    groups_of = dict(l2l)
    for lo, hi in _group_slices(level[d_src], octant, loc[d_dst]):
        groups_of[int(level[d_src[lo]])].append(
            (int(octant[lo]), d_src[lo:hi].tolist(), d_dst[lo:hi].tolist())
        )

    # -- leaf outputs ------------------------------------------------------------
    ops, srcs, dsts = [], [], []
    for i, op in enumerate(OUTPUT_OPS):
        s, d, _ = endpoints(op)
        ops.append(np.full(len(s), i, dtype=np.int64))
        srcs.append(s)
        dsts.append(d)
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
    # the multipoles under M->I and M->T crossed with the eager section;
    # these four stages read expansions the flush itself completes
    sends: dict = {}
    recvs: dict = {}
    if rank is not None:
        for stage, op in (("i2i", "I2I"), ("i2l", "I2L"), ("outputs", "L2T")):
            sends[stage], recvs[stage] = _crossing(*every(op), loc, rank)
        src, dst = every("L2L")
        for lvl, _ in l2l:
            at = level[src] == lvl
            sends["l2l", lvl], recvs["l2l", lvl] = _crossing(src[at], dst[at], loc, rank)
    return FlushPlan(
        bridge=bridge,
        l2l=l2l,
        outputs=outputs,
        out_src=o_src.tolist(),
        out_sbox=box[o_src],
        out_tbox=box[o_dst],
        sends=sends,
        recvs=recvs,
        n_edges=len(m_src) + len(w_src) + len(l_src) + len(d_src) + len(o_src),
    )


def compile_eager_plan(dag, rank: int | None = None) -> EagerPlan:
    """Compile the eager section of ``dag`` under its current localities.

    *What* is computed is fixed by the DAG: each expansion folds its
    in-edges in row order - fold key ``(src, out-list position)`` - and
    one source leaf's S->L edges stack per (destination locality, target
    level).  ``rank`` restricts the folds and S->L groups to the
    destinations of that locality, as in :func:`compile_flush_plan`.
    The folds carry edge-column rows; the stages read every operand off
    the columns.
    """
    nodes = dag.nodes
    n = len(nodes)
    level = np.fromiter((nd.level for nd in nodes), np.int64, n)
    loc = np.fromiter((nd.locality for nd in nodes), np.int64, n)
    cols = dag.edge_columns()
    src, dst, op = cols.src, cols.dst, cols.op

    def rows_of(*ops, everywhere=False) -> np.ndarray:
        at = np.isin(op, [OP_CODE[o] for o in ops])
        if rank is not None and not everywhere:
            at &= loc[dst] == rank
        return np.flatnonzero(at)

    def folds(rows: np.ndarray) -> Folds:
        rows = rows[np.argsort(dst[rows], kind="stable")]
        runs = _group_slices(dst[rows])
        return Folds(
            dst=dst[rows[[lo for lo, _ in runs]]].tolist(),
            bounds=[lo for lo, _ in runs] + [len(rows)],
            rows=rows,
        )

    m_rows = rows_of("S2M", "M2M")
    l_rows = rows_of("S2L", "M2L")
    # children strictly precede parents: deepest destinations first
    m_levels = np.unique(level[dst[rows_of("S2M", "M2M", everywhere=True)]])[::-1].tolist()
    s2l = rows_of("S2L")
    s2l = s2l[np.lexsort((level[dst[s2l]], loc[dst[s2l]], src[s2l]))]
    sends: dict = {}
    recvs: dict = {}
    if rank is not None:
        m2m = rows_of("M2M", everywhere=True)
        for lvl in m_levels:
            at = m2m[level[dst[m2m]] == lvl]
            sends["m2m", lvl], recvs["m2m", lvl] = _crossing(src[at], dst[at], loc, rank)
        # M -> reader, past the upward sweep
        at = rows_of("M2L", "M2I", "M2T", everywhere=True)
        sends["m2l"], recvs["m2l"] = _crossing(src[at], dst[at], loc, rank)
    return EagerPlan(
        m_folds=[(lvl, folds(m_rows[level[dst[m_rows]] == lvl])) for lvl in m_levels],
        l_folds=folds(l_rows),
        s2l_groups=[
            s2l[lo:hi].tolist()
            for lo, hi in _group_slices(src[s2l], loc[dst[s2l]], level[dst[s2l]])
        ],
        sends=sends,
        recvs=recvs,
        n_edges=len(m_rows) + len(l_rows),
    )
