"""Synchronous Fast Multipole Method evaluator (reference implementation).

Implements both FMM variants of the paper:

* the *basic* FMM with eight operators (S->M, M->M, M->L, M->T, S->L,
  L->L, L->T, S->T), where every list-2 interaction is a direct M->L
  translation (up to 189 per box), and
* the *advanced* FMM with the merge-and-shift technique, which routes
  list-2 interactions through intermediate (exponential) expansions via
  M->I, I->I and I->L, cutting the per-box translation count to ~40.

This evaluator executes the operator DAG synchronously with
level-batched numpy operations; it is the numerical ground truth the
asynchronous (DASHMM/HPX) execution path is tested against, and is also
the natural single-threaded baseline for the benchmarks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.dag import MethodSchema, edge_kinds, node_kinds
from repro.kernels.base import Kernel
from repro.kernels.expo import assign_direction
from repro.kernels.fitops import OperatorFactory
from repro.tree.dualtree import DualTree, build_dual_tree
from repro.tree.lists import InteractionLists, build_lists, list_pairs

#: Declared DAG schema of the advanced (merge-and-shift) FMM: node and
#: operator kinds drawn from the shared catalogs plus the ordered wiring
#: rules the validated builder (:class:`repro.dag.DagBuilder`) runs to
#: materialize the graph.  List-2 interactions route through the
#: intermediate exponential expansions (M2I/I2I/I2L).
FMM_SCHEMA = MethodSchema(
    name="fmm",
    nodes=node_kinds("S", "M", "Is", "It", "L", "T"),
    edges=edge_kinds(
        "S2M", "M2M", "M2I", "I2I", "I2L", "S2L", "L2L", "M2T", "L2T", "S2T"
    ),
    assembly=(
        "source-upward",
        "target-downward",
        "list2-merge-shift",
        "list3-m2t",
        "list4-s2l",
        "list1-s2t",
    ),
)

#: The basic eight-operator FMM: same up/down chains and adaptive lists,
#: but every list-2 interaction is a direct M2L translation (no
#: intermediate expansions, up to 189 translations per box).
FMM_BASIC_SCHEMA = MethodSchema(
    name="fmm-basic",
    nodes=node_kinds("S", "M", "L", "T"),
    edges=edge_kinds("S2M", "M2M", "M2L", "S2L", "L2L", "M2T", "L2T", "S2T"),
    assembly=(
        "source-upward",
        "target-downward",
        "list2-direct",
        "list3-m2t",
        "list4-s2l",
        "list1-s2t",
    ),
)

#: Scheduling classification of the FMM's operator classes, derived
#: from the declared schemas (union over both variants).  Near-field
#: work is the direct particle-particle (P2P) stream - the abundant,
#: dependency-free S->T interactions any idle core can chew on at any
#: time.  Far-field work is everything touching an expansion: the
#: upward chain, the bridge (direct M->L or merge-and-shift M->I/I->I/
#: I->L), the downward shift and the expansion evaluations at the
#: leaves.  An interleaving policy
#: (:class:`repro.hpx.scheduler.CriticalPathPolicy`) uses this split to
#: pipeline the near-field stream under far-field (M2L) bursts.
NEAR_FIELD_OPS = tuple(
    dict.fromkeys(FMM_SCHEMA.near_ops + FMM_BASIC_SCHEMA.near_ops)
)
FAR_FIELD_OPS = tuple(
    dict.fromkeys(FMM_SCHEMA.far_ops + FMM_BASIC_SCHEMA.far_ops)
)


@dataclass
class FmmStats:
    """Operation counts of one evaluation (useful for tests/benches)."""

    ops: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, op: str, n: int = 1) -> None:
        self.ops[op] += n


class FmmEvaluator:
    """Adaptive FMM for a kernel, threshold and accuracy.

    Parameters
    ----------
    kernel:
        A :class:`repro.kernels.base.Kernel` (fixes the expansion order).
    threshold:
        Refinement threshold of the adaptive tree (paper: 60).
    advanced:
        Use the merge-and-shift (intermediate expansion) technique.
    factory:
        Optionally share a pre-warmed :class:`OperatorFactory`.
    """

    def __init__(
        self,
        kernel: Kernel,
        threshold: int = 60,
        advanced: bool = True,
        eps: float = 1e-4,
        factory: OperatorFactory | None = None,
    ):
        self.kernel = kernel
        self.threshold = threshold
        self.advanced = advanced
        self.factory = factory or OperatorFactory.shared(kernel, eps=eps)
        self.stats = FmmStats()

    # -- public API ----------------------------------------------------------
    def evaluate(
        self,
        sources: np.ndarray,
        weights: np.ndarray,
        targets: np.ndarray,
        dual: DualTree | None = None,
        lists: InteractionLists | None = None,
        gradients: bool = False,
    ) -> np.ndarray:
        """Potentials at ``targets`` due to ``sources`` with ``weights``.

        A prebuilt dual tree / lists pair may be passed to amortize setup
        over repeated evaluations (the paper's iterative use case).  With
        ``gradients=True`` returns ``(potentials, gradients)`` where the
        gradient array has shape (N, 3) - the negated force per unit
        weight at each target.
        """
        self.stats = FmmStats()
        if dual is None:
            dual = build_dual_tree(sources, targets, self.threshold, source_weights=weights)
        elif dual.source.weights is None:
            raise ValueError("prebuilt dual tree must carry source weights")
        if lists is None:
            lists = build_lists(dual)

        src, tgt = dual.source, dual.target
        dom = dual.domain
        nsb, ntb = len(src.boxes), len(tgt.boxes)
        size = self.kernel.size

        M = np.zeros((nsb, size), dtype=complex)
        L = np.zeros((ntb, size), dtype=complex)
        phi = np.zeros(tgt.n_points)

        src_centers = np.array([dom.box_center(b.key) for b in src.boxes])
        tgt_centers = np.array([dom.box_center(b.key) for b in tgt.boxes])

        self._s2m(src, dom, src_centers, M)
        self._m2m(src, M)
        if self.advanced:
            self._list2_advanced(dual, lists, src_centers, tgt_centers, M, L)
        else:
            self._list2_basic(dual, lists, src_centers, tgt_centers, M, L)
        self._list3(dual, lists, src_centers, M, phi)
        self._list4(dual, lists, tgt_centers, L)
        self._l2l(tgt, L, lists)
        self._l2t(tgt, dom, tgt_centers, L, phi, lists)
        self._s2t(dual, lists, phi)

        out = np.empty_like(phi)
        out[tgt.perm] = phi
        if not gradients:
            return out
        grad = self._gradients(dual, lists, src_centers, tgt_centers, M, L)
        grad_out = np.empty_like(grad)
        grad_out[tgt.perm] = grad
        return out, grad_out

    # -- gradients -----------------------------------------------------------
    def _gradients(self, dual, lists, sc, tc, M, L) -> np.ndarray:
        """Field gradients at every target point (sorted order).

        Far field differentiates the local (and list-3 multipole)
        expansions; near field differentiates the kernel directly.
        """
        k = self.kernel
        src, tgt = dual.source, dual.target
        dom = dual.domain
        grad = np.zeros((tgt.n_points, 3))
        dead: set[int] = set()
        for b in tgt.boxes:
            pi = tgt.key_to_index[b.parent] if b.parent is not None else None
            if pi is not None and (pi in lists.pruned or pi in dead):
                dead.add(b.index)
                continue
            if b.level < 2 or b.count == 0:
                continue
            if b.is_leaf or b.index in lists.pruned:
                h = dom.box_size(b.level)
                rel = (tgt.points[b.start : b.stop] - tc[b.index]) / h
                grad[b.start : b.stop] += k.l2t_gradient(L[b.index], rel, h)
        for ti, sis in lists.l3.items():
            t = tgt.boxes[ti]
            pts = tgt.points[t.start : t.stop]
            for si in sis:
                s = src.boxes[si]
                h = dom.box_size(s.level)
                grad[t.start : t.stop] += k.m2t_gradient(
                    M[s.index], (pts - sc[s.index]) / h, h
                )
        for ti, sis in lists.l1.items():
            t = tgt.boxes[ti]
            tpts = tgt.points[t.start : t.stop]
            for si in sis:
                s = src.boxes[si]
                grad[t.start : t.stop] += k.direct_gradient(
                    tpts,
                    src.points[s.start : s.stop],
                    src.weights[s.start : s.stop],
                )
        return grad

    # -- upward pass -----------------------------------------------------------
    def _s2m(self, src, dom, centers, M, chunk_points: int = 65536) -> None:
        """S->M at every source leaf, batched over points."""
        k = self.kernel
        by_level: dict[int, list] = defaultdict(list)
        for b in src.boxes:
            if b.is_leaf and b.count > 0:
                by_level[b.level].append(b)
        for level, boxes in by_level.items():
            h = dom.box_size(level)
            run: list = []
            npts = 0
            for b in boxes:
                run.append(b)
                npts += b.count
                if npts >= chunk_points:
                    self._s2m_chunk(src, centers, M, run, h)
                    run, npts = [], 0
            if run:
                self._s2m_chunk(src, centers, M, run, h)

    def _s2m_chunk(self, src, centers, M, boxes, h) -> None:
        k = self.kernel
        pts = np.concatenate([src.points[b.start : b.stop] for b in boxes])
        ctr = np.concatenate(
            [np.broadcast_to(centers[b.index], (b.count, 3)) for b in boxes]
        )
        w = np.concatenate([src.weights[b.start : b.stop] for b in boxes])
        rows = k.p2m_matrix((pts - ctr) / h, h) * w[:, None]
        offsets = np.cumsum([0] + [b.count for b in boxes])[:-1]
        sums = np.add.reduceat(rows, offsets, axis=0)
        for i, b in enumerate(boxes):
            M[b.index] += sums[i]
        self.stats.add("S2M", len(boxes))

    def _m2m(self, src, M) -> None:
        """Upward M->M, batched per (level, octant)."""
        for level in range(src.depth, 0, -1):
            h = src.domain.box_size(level)
            groups: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
            for bi in src.levels[level]:
                b = src.boxes[bi]
                oct_ = b.key & 7
                groups[oct_][0].append(bi)
                groups[oct_][1].append(src.key_to_index[b.parent])
            for oct_, (kids, parents) in groups.items():
                T = self.factory.m2m(oct_, h)
                M[parents] += M[kids] @ T.T
                self.stats.add("M2M", len(kids))

    # -- list 2 ------------------------------------------------------------------
    def _pairs_by_level(self, dual, lists):
        """list-2 (target box, source box) pairs grouped by level and delta.

        Vectorised: per-pair deltas come from the trees' columnar
        coordinate tables and grouping is one stable argsort over a
        packed (level, delta) code.  Groups keep the first-appearance
        order of the per-pair scan (and pairs within a group keep scan
        order), so downstream accumulation order matches the old
        per-pair loop bit for bit.
        """
        out: dict[int, dict[tuple, tuple[list, list]]] = defaultdict(
            lambda: defaultdict(lambda: ([], []))
        )
        tis, sis = list_pairs(lists.l2)
        if tis.size == 0:
            return out
        sa = dual.source.arrays
        ta = dual.target.arrays
        lvl = ta.levels[tis]
        dx = ta.ix[tis] - sa.ix[sis]
        dy = ta.iy[tis] - sa.iy[sis]
        dz = ta.iz[tis] - sa.iz[sis]
        # list-2 deltas are bounded by +/-3 per axis; 4 bits each suffice
        pack = (((lvl << 4) | (dx + 8)) << 8) | ((dy + 8) << 4) | (dz + 8)
        _, first, inv = np.unique(pack, return_index=True, return_inverse=True)
        rank = first[inv]  # per pair: scan position where its group first appeared
        order = np.argsort(rank, kind="stable")
        ro = rank[order]
        bounds = np.flatnonzero(np.r_[True, ro[1:] != ro[:-1]])
        ends = np.append(bounds[1:], ro.size)
        t_sorted, s_sorted = tis[order], sis[order]
        lvl_s, dx_s, dy_s, dz_s = lvl[order], dx[order], dy[order], dz[order]
        for b, e in zip(bounds.tolist(), ends.tolist()):
            grp = out[int(lvl_s[b])][(int(dx_s[b]), int(dy_s[b]), int(dz_s[b]))]
            grp[0].extend(t_sorted[b:e].tolist())
            grp[1].extend(s_sorted[b:e].tolist())
        return out

    def _list2_basic(self, dual, lists, sc, tc, M, L) -> None:
        by_level = self._pairs_by_level(dual, lists)
        for level, groups in by_level.items():
            h = dual.domain.box_size(level)
            for delta, (tis, sis) in groups.items():
                T = self.factory.m2l(delta, h)
                contrib = M[sis] @ T.T
                np.add.at(L, tis, contrib)
                self.stats.add("M2L", len(tis))

    def _list2_advanced(self, dual, lists, sc, tc, M, L) -> None:
        by_level = self._pairs_by_level(dual, lists)
        size = self.kernel.size
        for level, groups in by_level.items():
            h = dual.domain.box_size(level)
            quad = self.factory.quadrature(h)
            # organize pairs per direction
            per_dir: dict[str, dict[tuple, tuple[list, list]]] = defaultdict(dict)
            for delta, pair in groups.items():
                per_dir[assign_direction(delta)][delta] = pair
            for d, dgroups in per_dir.items():
                src_boxes = sorted({si for _, sis in dgroups.values() for si in sis})
                tgt_boxes = sorted({ti for tis, _ in dgroups.values() for ti in tis})
                s_pos = {si: i for i, si in enumerate(src_boxes)}
                t_pos = {ti: i for i, ti in enumerate(tgt_boxes)}
                W = M[src_boxes] @ self.factory.m2i(d, h).T  # M->I
                self.stats.add("M2I", len(src_boxes))
                V = np.zeros((len(tgt_boxes), quad.nterms), dtype=complex)
                for delta, (tis, sis) in dgroups.items():
                    f = self.factory.i2i(d, delta, h)
                    rows = W[[s_pos[si] for si in sis]] * f
                    np.add.at(V, [t_pos[ti] for ti in tis], rows)
                    self.stats.add("I2I", len(tis))
                Lc = V @ self.factory.i2l(d, h).T  # I->L
                np.add.at(L, tgt_boxes, Lc)
                self.stats.add("I2L", len(tgt_boxes))

    # -- adaptive lists ------------------------------------------------------------
    def _list3(self, dual, lists, sc, M, phi) -> None:
        """M->T: multipoles of list-3 boxes evaluated at leaf target points."""
        k = self.kernel
        src, tgt = dual.source, dual.target
        for ti, sis in lists.l3.items():
            t = tgt.boxes[ti]
            pts = tgt.points[t.start : t.stop]
            for si in sis:
                s = src.boxes[si]
                h = dual.domain.box_size(s.level)
                rel = (pts - sc[s.index]) / h
                phi[t.start : t.stop] += k.m2t(M[s.index], rel, h)
                self.stats.add("M2T", 1)

    def _list4(self, dual, lists, tc, L) -> None:
        """S->L: sources of list-4 leaves accumulated into target locals."""
        k = self.kernel
        src, tgt = dual.source, dual.target
        for ti, sis in lists.l4.items():
            t = tgt.boxes[ti]
            h = dual.domain.box_size(t.level)
            for si in sis:
                s = src.boxes[si]
                rel = (src.points[s.start : s.stop] - tc[t.index]) / h
                L[t.index] += k.p2l(rel, src.weights[s.start : s.stop], h)
                self.stats.add("S2L", 1)

    # -- downward pass ----------------------------------------------------------
    def _l2l(self, tgt, L, lists) -> None:
        """Downward L->L, batched per (level, octant); skips pruned sub-trees."""
        dead: set[int] = set()
        for level in range(1, tgt.depth + 1):
            parent_h = tgt.domain.box_size(level - 1)
            groups: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
            for bi in tgt.levels[level]:
                b = tgt.boxes[bi]
                pi = tgt.key_to_index[b.parent]
                if pi in lists.pruned or pi in dead:
                    dead.add(bi)
                    continue
                if b.level < 3:
                    continue  # locals start at level 2; no L->L into level <= 2
                groups[b.key & 7][0].append(pi)
                groups[b.key & 7][1].append(bi)
            for oct_, (parents, kids) in groups.items():
                T = self.factory.l2l(oct_, parent_h)
                L[kids] += L[parents] @ T.T
                self.stats.add("L2L", len(kids))

    def _l2t(self, tgt, dom, tc, L, phi, lists, chunk_points: int = 65536) -> None:
        """L->T at leaves and at pruned boxes (whole sub-tree ranges)."""
        k = self.kernel
        eval_boxes = []
        dead: set[int] = set()
        for b in tgt.boxes:
            pi = tgt.key_to_index[b.parent] if b.parent is not None else None
            if pi is not None and (pi in lists.pruned or pi in dead):
                dead.add(b.index)
                continue
            if b.level < 2:
                continue
            if b.index in lists.pruned or b.is_leaf:
                if b.count > 0:
                    eval_boxes.append(b)
        by_level: dict[int, list] = defaultdict(list)
        for b in eval_boxes:
            by_level[b.level].append(b)
        for level, boxes in by_level.items():
            h = dom.box_size(level)
            run, npts = [], 0
            for b in boxes:
                run.append(b)
                npts += b.count
                if npts >= chunk_points:
                    self._l2t_chunk(tgt, tc, L, phi, run, h)
                    run, npts = [], 0
            if run:
                self._l2t_chunk(tgt, tc, L, phi, run, h)

    def _l2t_chunk(self, tgt, tc, L, phi, boxes, h) -> None:
        k = self.kernel
        pts = np.concatenate([tgt.points[b.start : b.stop] for b in boxes])
        ctr = np.concatenate(
            [np.broadcast_to(tc[b.index], (b.count, 3)) for b in boxes]
        )
        coeff = np.concatenate(
            [np.broadcast_to(L[b.index], (b.count, k.size)) for b in boxes]
        )
        vals = self._l2t_rows(coeff, (pts - ctr) / h, h)
        pos = 0
        for b in boxes:
            phi[b.start : b.stop] += vals[pos : pos + b.count]
            pos += b.count
        self.stats.add("L2T", len(boxes))

    def _l2t_rows(self, coeffs_rows, rel, scale):
        """Row-wise L->T: each point evaluates its own coefficient row."""
        k = self.kernel
        # reuse the kernel's l2t by exploiting that it is linear: build the
        # evaluation matrix via l2t of basis vectors would be O(size^2);
        # instead evaluate via the per-point analytic rows.
        return k.l2t_rows(coeffs_rows, rel, scale)

    # -- near field ---------------------------------------------------------------
    def _s2t(self, dual, lists, phi) -> None:
        """S->T direct interactions over list 1."""
        k = self.kernel
        src, tgt = dual.source, dual.target
        for ti, sis in lists.l1.items():
            t = tgt.boxes[ti]
            tpts = tgt.points[t.start : t.stop]
            for si in sis:
                s = src.boxes[si]
                phi[t.start : t.stop] += k.direct(
                    tpts,
                    src.points[s.start : s.stop],
                    src.weights[s.start : s.stop],
                )
                self.stats.add("S2T", 1)
