"""Interaction lists L1-L4 (Fig. 1b of the paper).

Each box ``Bt`` of the target tree is connected with up to four sets of
source-tree boxes:

* ``L1(Bt)`` - nonempty only if ``Bt`` is a leaf; leaf source boxes that
  are *not* well-separated from ``Bt``.  Handled by S->T.
* ``L2(Bt)`` - source boxes well-separated from ``Bt`` whose parents are
  not well-separated from ``Bt``'s parent.  Handled by M->L (basic FMM)
  or the M->I / I->I / I->L chain (advanced FMM).
* ``L3(Bt)`` - exists if ``Bt`` is a leaf; boxes ``Bs`` such that ``Bt``
  is well-separated from ``Bs`` but not from ``Bs``'s parent.  Handled
  by M->T.
* ``L4(Bt)`` - leaf source boxes well-separated from ``Bt`` but not from
  ``Bt``'s parent.  Handled by S->L.

The construction is the classic adaptive dual-tree descent: candidate
source boxes flow down the target tree; same-level non-adjacent
candidates become list 2, inherited coarser leaves that stop being
adjacent become list 4, and for leaf targets the adjacent candidates
are refined into list 1 (adjacent leaves) and list 3 (non-adjacent
descendants of adjacent boxes).

When the ensembles are not identical, a non-leaf target box may run out
of candidates entirely; the sub-tree below it can then be pruned (the
local expansion is evaluated directly at every point below), which the
paper notes reduces arithmetic complexity [11].

:func:`build_lists` processes one target level at a time: the whole
frontier of (target, candidate) pairs is classified with
lattice-coordinate adjacency over the trees' cached decoded-coordinate
tables (no per-pair Morton decoding), and the L1/L3 refinement below
adjacent colleagues runs as a breadth-wise array descent.  Lists come
out in canonical order (targets ascending, each list sorted by source
box index).  :func:`build_lists_reference` is the per-box descent the
array construction is tested against; nothing in the package calls it,
and :func:`canonicalize` puts its natural visit order into the same
canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tree.dualtree import DualTree
from repro.tree.morton import decode_morton_cached


def adjacent(key_a: int, key_b: int) -> bool:
    """Whether two boxes (any levels) touch, i.e. are not well-separated.

    Compares the lattice footprints after scaling the coarser box to the
    finer level; boxes touch when the footprints are within one cell in
    every axis.
    """
    la, ax, ay, az = decode_morton_cached(key_a)
    lb, bx, by, bz = decode_morton_cached(key_b)
    if la < lb:
        sh = lb - la
        alo = (ax << sh, ay << sh, az << sh)
        ahi = (((ax + 1) << sh) - 1, ((ay + 1) << sh) - 1, ((az + 1) << sh) - 1)
        blo = bhi = (bx, by, bz)
    elif lb < la:
        sh = la - lb
        blo = (bx << sh, by << sh, bz << sh)
        bhi = (((bx + 1) << sh) - 1, ((by + 1) << sh) - 1, ((bz + 1) << sh) - 1)
        alo = ahi = (ax, ay, az)
    else:
        alo = ahi = (ax, ay, az)
        blo = bhi = (bx, by, bz)
    for d in range(3):
        gap = max(blo[d] - ahi[d], alo[d] - bhi[d])
        if gap > 1:
            return False
    return True


def adjacent_arrays(la, ax, ay, az, lb, bx, by, bz) -> np.ndarray:
    """Vectorised :func:`adjacent` over parallel coordinate arrays.

    All arguments broadcast; levels and coordinates are int64 arrays as
    stored in :class:`repro.tree.dualtree.TreeArrays`.
    """
    sha = np.maximum(lb - la, 0)
    shb = np.maximum(la - lb, 0)
    ok = None
    for a, b in ((ax, bx), (ay, by), (az, bz)):
        alo = a << sha
        ahi = ((a + 1) << sha) - 1
        blo = b << shb
        bhi = ((b + 1) << shb) - 1
        gap = np.maximum(blo - ahi, alo - bhi)
        axis_ok = gap <= 1
        ok = axis_ok if ok is None else ok & axis_ok
    return ok


@dataclass
class InteractionLists:
    """Per-target-box interaction lists, keyed by target box index.

    ``l1``..``l4`` map a target box index to a list of *source box
    indices*.  ``pruned`` marks non-leaf target boxes whose sub-tree was
    pruned because no candidate source boxes remained (the box behaves
    as an evaluation leaf: its local expansion is evaluated at every
    point below it).
    """

    l1: dict[int, list[int]] = field(default_factory=dict)
    l2: dict[int, list[int]] = field(default_factory=dict)
    l3: dict[int, list[int]] = field(default_factory=dict)
    l4: dict[int, list[int]] = field(default_factory=dict)
    pruned: set[int] = field(default_factory=set)

    def counts(self) -> dict[str, int]:
        """Total number of entries in each list (edge counts)."""
        return {
            "l1": sum(map(len, self.l1.values())),
            "l2": sum(map(len, self.l2.values())),
            "l3": sum(map(len, self.l3.values())),
            "l4": sum(map(len, self.l4.values())),
        }


def canonicalize(lists: InteractionLists) -> InteractionLists:
    """Canonical ordering: targets ascending, each list sorted by source.

    List membership is untouched; only dict insertion order and per-list
    order change.  Both construction paths emit this ordering so the DAG
    (and therefore the simulated virtual clock) is identical either way.
    """

    def canon(table: dict[int, list[int]]) -> dict[int, list[int]]:
        return {ti: sorted(table[ti]) for ti in sorted(table)}

    return InteractionLists(
        l1=canon(lists.l1),
        l2=canon(lists.l2),
        l3=canon(lists.l3),
        l4=canon(lists.l4),
        pruned=lists.pruned,
    )


#: Instrumentation for the persistent-evaluation layer: every from-scratch
#: list construction bumps this; a warm-path submit with a template hit
#: must leave it untouched (asserted by the service tests).
COUNTERS = {"builds": 0}


def build_lists(dual: DualTree) -> InteractionLists:
    """Construct L1-L4, canonically ordered, for every target box of a dual tree."""
    COUNTERS["builds"] += 1
    return _build_lists_vectorized(dual)


def build_lists_reference(dual: DualTree) -> InteractionLists:
    """Per-box reference construction (the oracle; natural visit order)."""
    src = dual.source
    tgt = dual.target
    out = InteractionLists()

    def add(table: dict[int, list[int]], tbox_index: int, sbox_index: int) -> None:
        table.setdefault(tbox_index, []).append(sbox_index)

    def descend_adjacent_leaf_target(t, s_index):
        """Classify the sub-tree of adjacent source box ``s`` for leaf
        target ``t``: adjacent leaves -> L1, non-adjacent children -> L3
        (their parent is adjacent so ``t`` is not well-separated from
        it), adjacent internals recurse."""
        stack = [s_index]
        while stack:
            si = stack.pop()
            s = src.boxes[si]
            if s.is_leaf:
                add(out.l1, t.index, si)
                continue
            for ck in s.children:
                ci = src.key_to_index[ck]
                if adjacent(t.key, ck):
                    stack.append(ci)
                else:
                    add(out.l3, t.index, ci)

    # Candidate source boxes flow down the target tree.  Each entry of
    # ``cand[t_index]`` is a source box index at the same level as the
    # target box, or a *coarser leaf* inherited from above.
    root_t = tgt.boxes[0]
    root_s_index = 0 if src.boxes else None
    cand: dict[int, list[int]] = {root_t.index: [root_s_index] if src.boxes else []}

    # Breadth-first over target levels.
    order = [i for lvl in tgt.levels for i in lvl]
    for ti in order:
        t = tgt.boxes[ti]
        if ti not in cand:
            continue  # below a pruned ancestor
        mine = cand.pop(ti)
        colleagues: list[int] = []  # adjacent candidates (same level or coarser internal)
        for si in mine:
            s = src.boxes[si]
            if s.level < t.level and s.is_leaf:
                # Inherited coarser leaf.
                if adjacent(t.key, s.key):
                    if t.is_leaf:
                        add(out.l1, t.index, si)
                    else:
                        colleagues.append(si)
                else:
                    add(out.l4, t.index, si)
                continue
            # Same-level candidate.
            if adjacent(t.key, s.key):
                colleagues.append(si)
            else:
                add(out.l2, t.index, si)

        if t.is_leaf:
            for si in colleagues:
                s = src.boxes[si]
                if s.is_leaf:
                    add(out.l1, t.index, si)
                else:
                    descend_adjacent_leaf_target(t, si)
            continue

        # Non-leaf target: push candidates to children.
        if not colleagues:
            # Nothing left to classify below: prune the target sub-tree.
            out.pruned.add(ti)
            continue
        passed: list[int] = []
        for si in colleagues:
            s = src.boxes[si]
            if s.is_leaf:
                passed.append(si)  # becomes a coarser-leaf candidate below
            else:
                passed.extend(src.key_to_index[ck] for ck in s.children)
        for ck in t.children:
            cand[tgt.key_to_index[ck]] = list(passed)

    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for parallel start/count arrays."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(starts, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return rep + offs


def _build_lists_vectorized(dual: DualTree) -> InteractionLists:
    """Level-synchronous array construction of L1-L4.

    The per-target candidate lists of the reference descent become one
    flat frontier of (target, source-candidate) index pairs per target
    level; each level is classified with a constant number of whole-array
    operations.  Pruning (a live non-leaf target with no adjacent
    candidate) is recovered from the frontier with set differences.
    """
    src, tgt = dual.source, dual.target
    sa, ta = src.arrays, tgt.arrays

    acc: dict[str, tuple[list, list]] = {
        "l1": ([], []),
        "l2": ([], []),
        "l3": ([], []),
        "l4": ([], []),
    }

    def emit(name: str, t_arr: np.ndarray, s_arr: np.ndarray) -> None:
        if t_arr.size:
            acc[name][0].append(t_arr)
            acc[name][1].append(s_arr)

    pruned: set[int] = set()

    def descend(d_t: np.ndarray, d_s: np.ndarray) -> None:
        """L1/L3 refinement below adjacent internal colleagues of leaf
        targets, one breadth-wise array pass per source depth."""
        while d_t.size:
            lo = sa.child_lo[d_s]
            cnt = sa.child_hi[d_s] - lo
            r_t = np.repeat(d_t, cnt)
            c_s = _ranges(lo, cnt)
            adj = adjacent_arrays(
                ta.levels[r_t], ta.ix[r_t], ta.iy[r_t], ta.iz[r_t],
                sa.levels[c_s], sa.ix[c_s], sa.iy[c_s], sa.iz[c_s],
            )
            emit("l3", r_t[~adj], c_s[~adj])
            c_leaf = sa.leaf[c_s]
            emit("l1", r_t[adj & c_leaf], c_s[adj & c_leaf])
            keep = adj & ~c_leaf
            d_t, d_s = r_t[keep], c_s[keep]

    # frontier: pairs of (target box index, candidate source box index),
    # all targets at the current level
    T = np.array([0], dtype=np.int64)
    S = np.array([0], dtype=np.int64)
    level = 0
    while T.size:
        t_leaf = ta.leaf[T]
        coarser = sa.levels[S] < level  # inherited coarser source leaves
        adj = adjacent_arrays(
            ta.levels[T], ta.ix[T], ta.iy[T], ta.iz[T],
            sa.levels[S], sa.ix[S], sa.iy[S], sa.iz[S],
        )

        emit("l4", T[coarser & ~adj], S[coarser & ~adj])
        l1_direct = coarser & adj & t_leaf
        emit("l1", T[l1_direct], S[l1_direct])
        emit("l2", T[~coarser & ~adj], S[~coarser & ~adj])

        colleague = adj & ~l1_direct
        # leaf targets: adjacent source leaves -> L1, internals descend
        lc = colleague & t_leaf
        s_leaf = sa.leaf[S]
        emit("l1", T[lc & s_leaf], S[lc & s_leaf])
        descend(T[lc & ~s_leaf], S[lc & ~s_leaf])

        # non-leaf targets: prune if no colleague survived, else expand
        nc = colleague & ~t_leaf
        live_nonleaf = np.unique(T[~t_leaf])
        with_colleague = np.unique(T[nc])
        pruned.update(
            np.setdiff1d(live_nonleaf, with_colleague, assume_unique=True).tolist()
        )

        e_t, e_s = T[nc], S[nc]
        e_s_leaf = sa.leaf[e_s]
        # internal colleagues expand to their children; leaves pass down
        i_t, i_s = e_t[~e_s_leaf], e_s[~e_s_leaf]
        lo = sa.child_lo[i_s]
        cnt = sa.child_hi[i_s] - lo
        p_t = np.concatenate([e_t[e_s_leaf], np.repeat(i_t, cnt)])
        p_s = np.concatenate([e_s[e_s_leaf], _ranges(lo, cnt)])
        # cross every passed candidate with the target's children
        t_cnt = ta.child_hi[p_t] - ta.child_lo[p_t]
        T = _ranges(ta.child_lo[p_t], t_cnt)
        S = np.repeat(p_s, t_cnt)
        level += 1

    def assemble(name: str) -> dict[int, list[int]]:
        t_parts, s_parts = acc[name]
        if not t_parts:
            return {}
        t_all = np.concatenate(t_parts)
        s_all = np.concatenate(s_parts)
        order = np.lexsort((s_all, t_all))
        t_all, s_all = t_all[order], s_all[order]
        bounds = np.flatnonzero(np.r_[True, t_all[1:] != t_all[:-1]])
        ends = np.append(bounds[1:], t_all.size)
        s_list = s_all.tolist()
        return {
            int(t): s_list[lo:hi]
            for t, lo, hi in zip(t_all[bounds].tolist(), bounds.tolist(), ends.tolist())
        }

    return InteractionLists(
        l1=assemble("l1"),
        l2=assemble("l2"),
        l3=assemble("l3"),
        l4=assemble("l4"),
        pruned=pruned,
    )


def list_pairs(table: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten one interaction-list table to parallel (target, source)
    index arrays in dict order (canonical order after :func:`build_lists`)."""
    n_groups = len(table)
    tis = np.fromiter(table.keys(), dtype=np.int64, count=n_groups)
    lens = np.fromiter(
        (len(v) for v in table.values()), dtype=np.int64, count=n_groups
    )
    total = int(lens.sum())
    sis = np.fromiter(
        (s for v in table.values() for s in v), dtype=np.int64, count=total
    )
    return np.repeat(tis, lens), sis


def boxes_below(tree, box_index: int) -> list[int]:
    """All box indices strictly below ``box_index`` (for pruned regions)."""
    res = []
    stack = list(tree.boxes[box_index].children)
    while stack:
        k = stack.pop()
        i = tree.key_to_index[k]
        res.append(i)
        stack.extend(tree.boxes[i].children)
    return res
