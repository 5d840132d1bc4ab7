"""Barnes-Hut, the second HMM built into DASHMM: its DAG schema and the
MAC traversal that wires it.

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

import numpy as np

from repro.dag import MethodSchema, edge_kinds, node_kinds
from repro.tree.dualtree import DualTree
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


def mac_pairs(dual: DualTree, theta: float) -> dict[int, list[tuple[str, int]]]:
    """MAC traversal decisions: target leaf index -> [(op, source box)].

    ``op`` is "M2T" when the source box passes the acceptance criterion
    (its multipole is evaluated at the leaf's points) and "S2T" when the
    traversal bottoms out in a direct interaction.  This is the explicit
    form of the Barnes-Hut DAG consumed by the DASHMM layer.

    A level-synchronous descent over flat (target, source) frontiers
    with the float formulation of the per-target reference traversal
    (``mac_pairs_reference`` in ``tests/reference_chain.py``; same
    elementwise center/radius arithmetic and the same guarded division),
    so the per-pair accept/recurse decisions agree bit for bit; each
    target's ops are sorted by source box index, as the reference's are
    (the decision *set* per target is traversal-order independent), so
    the two return identical dictionaries.
    """
    dom = dual.domain
    sa, ta = dual.source.arrays, dual.target.arrays
    t_sel = np.flatnonzero(ta.leaf & (ta.counts > 0))
    out: dict[int, list[tuple[str, int]]] = {int(ti): [] for ti in t_sel}
    if t_sel.size == 0:
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
