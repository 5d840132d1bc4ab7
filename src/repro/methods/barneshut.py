"""Barnes-Hut evaluator, the second HMM built into DASHMM.

Barnes-Hut uses only source-side expansions: multipoles are formed over
the source tree (S->M, M->M) and evaluated directly at target points
(M->T) whenever a source box satisfies the multipole acceptance
criterion (MAC) ``size / distance < theta``; otherwise the traversal
recurses, bottoming out in direct S->T interactions.  Its DAG is much
shallower than the FMM's (no local or intermediate expansions), which
is one of the method-dependent DAG topologies the paper uses to
exercise the runtime.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.dag import MethodSchema, edge_kinds, node_kinds
from repro.kernels.base import Kernel
from repro.kernels.fitops import OperatorFactory
from repro.tree.dualtree import DualTree, build_dual_tree
from repro.tree.lists import _ranges

#: Declared DAG schema of Barnes-Hut: source-side multipole chain plus
#: flat MAC-decided M2T/S2T edges into the target leaves - no local or
#: intermediate expansions, the shallowest DAG topology in the paper.
BH_SCHEMA = MethodSchema(
    name="bh",
    nodes=node_kinds("S", "M", "T"),
    edges=edge_kinds("S2M", "M2M", "M2T", "S2T"),
    assembly=("source-upward", "bh-mac"),
)

#: Scheduling classification of the Barnes-Hut operator classes (see
#: the FMM counterpart in :mod:`repro.methods.fmm`), derived from the
#: declared schema: the direct S->T stream is near-field filler, the
#: multipole pipeline and its leaf evaluations are far-field.
NEAR_FIELD_OPS = BH_SCHEMA.near_ops
FAR_FIELD_OPS = BH_SCHEMA.far_ops


@dataclass
class BhStats:
    ops: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, op: str, n: int = 1) -> None:
        self.ops[op] += n


def mac_pairs_reference(dual: DualTree, theta: float) -> dict[int, list[tuple[str, int]]]:
    src, tgt = dual.source, dual.target
    dom = dual.domain
    centers = np.array([dom.box_center(b.key) for b in src.boxes])
    out: dict[int, list[tuple[str, int]]] = {}
    for t in tgt.boxes:
        if not (t.is_leaf and t.count > 0):
            continue
        tctr = dom.box_center(t.key)
        t_rad = dom.box_radius(t.level)
        ops: list[tuple[str, int]] = []
        stack = [0]
        while stack:
            si = stack.pop()
            s = src.boxes[si]
            h = dom.box_size(s.level)
            d = centers[si] - tctr
            dd = d * d
            dist = float(np.sqrt(dd[0] + dd[1] + dd[2]))
            if dist > 0 and h / max(dist - t_rad, 1e-300) < theta:
                ops.append(("M2T", si))
            elif s.is_leaf:
                ops.append(("S2T", si))
            else:
                stack.extend(src.key_to_index[c] for c in s.children)
        ops.sort(key=lambda p: p[1])
        out[t.index] = ops
    return out


def mac_pairs(dual: DualTree, theta: float) -> dict[int, list[tuple[str, int]]]:
    """MAC traversal decisions: target leaf index -> [(op, source box)].

    ``op`` is "M2T" when the source box passes the acceptance criterion
    (its multipole is evaluated at the leaf's points) and "S2T" when the
    traversal bottoms out in a direct interaction.  This is the explicit
    form of the Barnes-Hut DAG consumed by the DASHMM layer.

    A level-synchronous descent over flat (target, source) frontiers
    with the float formulation of :func:`mac_pairs_reference` (same
    elementwise center/radius arithmetic and the same guarded division),
    so the per-pair accept/recurse decisions agree bit for bit; each
    target's ops are sorted by source box index, as the reference's are
    (the decision *set* per target is traversal-order independent), so
    the two return identical dictionaries.
    """
    src, tgt = dual.source, dual.target
    dom = dual.domain
    sa, ta = src.arrays, tgt.arrays
    t_sel = np.flatnonzero(ta.leaf & (ta.counts > 0))
    out: dict[int, list[tuple[str, int]]] = {int(ti): [] for ti in t_sel}
    if t_sel.size == 0 or not src.boxes:
        return out
    s_centers = dom.box_centers(sa.keys)
    t_centers = dom.box_centers(ta.keys[t_sel])
    s_h = dom.size / (1 << sa.levels).astype(float)
    t_rad = (dom.size / (1 << ta.levels[t_sel]).astype(float)) * np.sqrt(3.0) / 2.0
    T = np.arange(t_sel.size, dtype=np.int64)
    S = np.zeros(t_sel.size, dtype=np.int64)
    acc_t: list[np.ndarray] = []
    acc_s: list[np.ndarray] = []
    acc_m2t: list[np.ndarray] = []
    while T.size:
        diff = s_centers[S] - t_centers[T]
        dd = diff * diff
        dist = np.sqrt(dd[:, 0] + dd[:, 1] + dd[:, 2])
        mac = (dist > 0) & (s_h[S] / np.maximum(dist - t_rad[T], 1e-300) < theta)
        direct = ~mac & sa.leaf[S]
        done = mac | direct
        if done.any():
            acc_t.append(T[done])
            acc_s.append(S[done])
            acc_m2t.append(mac[done])
        expand = ~done
        p_t, p_s = T[expand], S[expand]
        cnt = sa.child_hi[p_s] - sa.child_lo[p_s]
        S = _ranges(sa.child_lo[p_s], cnt)
        T = np.repeat(p_t, cnt)
    t_all = np.concatenate(acc_t)
    s_all = np.concatenate(acc_s)
    m2t_all = np.concatenate(acc_m2t)
    order = np.lexsort((s_all, t_all))
    t_all, s_all, m2t_all = t_all[order], s_all[order], m2t_all[order]
    bounds = np.flatnonzero(np.r_[True, t_all[1:] != t_all[:-1]])
    ends = np.append(bounds[1:], t_all.size)
    for b, e in zip(bounds.tolist(), ends.tolist()):
        ops = [
            ("M2T" if m else "S2T", si)
            for m, si in zip(m2t_all[b:e].tolist(), s_all[b:e].tolist())
        ]
        out[int(t_sel[t_all[b]])] = ops
    return out


class BarnesHutEvaluator:
    """Barnes-Hut with multipole expansions of order ``kernel.p``.

    ``theta`` is the opening angle of the MAC; smaller is more accurate
    and more expensive (0.3-0.7 are typical).
    """

    def __init__(
        self,
        kernel: Kernel,
        threshold: int = 60,
        theta: float = 0.5,
        factory: OperatorFactory | None = None,
    ):
        if not (0.0 < theta < 1.0):
            raise ValueError("theta must be in (0, 1)")
        self.kernel = kernel
        self.threshold = threshold
        self.theta = theta
        self.factory = factory or OperatorFactory.shared(kernel)
        self.stats = BhStats()

    def evaluate(
        self,
        sources: np.ndarray,
        weights: np.ndarray,
        targets: np.ndarray,
        dual: DualTree | None = None,
    ) -> np.ndarray:
        """Potentials at ``targets`` due to ``sources``."""
        self.stats = BhStats()
        if dual is None:
            dual = build_dual_tree(sources, targets, self.threshold, source_weights=weights)
        src, tgt = dual.source, dual.target
        dom = dual.domain
        k = self.kernel

        # upward pass over the source tree
        M = np.zeros((len(src.boxes), k.size), dtype=complex)
        centers = np.array([dom.box_center(b.key) for b in src.boxes])
        for b in src.boxes:
            if b.is_leaf and b.count > 0:
                h = dom.box_size(b.level)
                rel = (src.points[b.start : b.stop] - centers[b.index]) / h
                M[b.index] = k.p2m(rel, src.weights[b.start : b.stop], h)
                self.stats.add("S2M")
        for level in range(src.depth, 0, -1):
            h = dom.box_size(level)
            # batched per octant
            kids_by_oct: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
            for bi in src.levels[level]:
                b = src.boxes[bi]
                kids_by_oct[b.key & 7][0].append(bi)
                kids_by_oct[b.key & 7][1].append(src.key_to_index[b.parent])
            for oct_, (kids, parents) in kids_by_oct.items():
                T = self.factory.m2m(oct_, h)
                M[parents] += M[kids] @ T.T
                self.stats.add("M2M", len(kids))

        # traversal per target leaf
        phi = np.zeros(tgt.n_points)
        for t in tgt.boxes:
            if not (t.is_leaf and t.count > 0):
                continue
            tpts = tgt.points[t.start : t.stop]
            tctr = dom.box_center(t.key)
            stack = [0]
            while stack:
                si = stack.pop()
                s = src.boxes[si]
                h = dom.box_size(s.level)
                dist = float(np.linalg.norm(centers[si] - tctr))
                # conservative MAC: measured from the target box surface
                t_rad = dom.box_radius(t.level)
                if dist > 0 and h / max(dist - t_rad, 1e-300) < self.theta:
                    rel = (tpts - centers[si]) / h
                    phi[t.start : t.stop] += k.m2t(M[si], rel, h)
                    self.stats.add("M2T")
                elif s.is_leaf:
                    phi[t.start : t.stop] += k.direct(
                        tpts,
                        src.points[s.start : s.stop],
                        src.weights[s.start : s.stop],
                    )
                    self.stats.add("S2T")
                else:
                    stack.extend(src.key_to_index[c] for c in s.children)

        out = np.empty_like(phi)
        out[tgt.perm] = phi
        return out
