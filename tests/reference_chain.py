"""Reference oracles for tests: the per-box setup chain and a per-edge
evaluator.

Production code reaches only the array passes (``build_dual_tree`` ->
``build_lists`` / ``mac_pairs`` -> ``DagBuilder``).  The per-box loops
they replaced live here, as plain functions - :func:`carve_reference`,
:func:`build_lists_reference` (+ :func:`canonicalize`),
:func:`mac_pairs_reference`, :func:`build_fmm_dag_reference` /
:func:`build_bh_dag_reference` and :func:`box_owner` - and this module
strings them together so a test can compare structures directly, or
execute a reference-built problem through ``evaluate(dual=, lists=,
dag=)``.  The DAG loops hand out node ids one box at a time, as the
paper describes the construction, and assemble through the DAG's public
appends: nodes in id order, each operator class's edges in emission
order (:class:`_Assembly`).

Production computes every number from the compiled execution plan
(stacked passes per stage).  :func:`per_edge_potentials` computes the
same sums the plain way - one operator application per DAG edge, in a
topological walk - as the oracle the plan is tested against.  Since the
drain carries no values, potentials cannot reveal an edge counted twice
or not at all; :func:`assert_each_edge_counted_once` checks the LCOs'
dedup ledgers instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dashmm.dag import DAG, KIND_CODE, NODE_KINDS, TREES
from repro.kernels.expo import DIRECTIONS, assign_direction
from repro.tree.box import Box
from repro.tree.dualtree import DEEP_LEVEL, DualTree, Tree, TreeArrays, build_dual_tree
from repro.tree.lists import InteractionLists, adjacent
from repro.tree.morton import decode_morton


# -- tree, lists, MAC decisions, ownership ------------------------------------------
def carve_reference(
    deep_sorted: np.ndarray, n: int, threshold: int
) -> tuple[list[Box], dict[int, int], list[list[int]]]:
    """Per-box breadth-first refinement (the oracle loop path).

    A box's deep keys lie in ``[key << 3*(D-l), (key+1) << 3*(D-l))``;
    children are the nonempty subranges split at the eight child-prefix
    boundaries.
    """
    boxes = [Box(key=1, level=0, start=0, stop=n, parent=None, children=(), index=0)]
    children: list[list[int]] = [[]]
    key_to_index = {1: 0}
    levels = [[0]]
    frontier = [0]
    level = 0
    while frontier:
        next_frontier: list[int] = []
        child_level = level + 1
        if child_level > DEEP_LEVEL:
            break
        new_level_indices: list[int] = []
        shift = 3 * (DEEP_LEVEL - child_level)
        for bi in frontier:
            box = boxes[bi]
            if box.count <= threshold:
                continue
            base = box.key << 3
            # Boundaries of the eight candidate children in deep-key space.
            bounds = np.array([(base + c) << shift for c in range(9)], dtype=np.int64)
            cuts = np.searchsorted(deep_sorted[box.start : box.stop], bounds) + box.start
            for c in range(8):
                lo, hi = int(cuts[c]), int(cuts[c + 1])
                if hi <= lo:
                    continue  # prune empty child
                ckey = base + c
                child = Box(ckey, child_level, lo, hi, box.key, (), len(boxes))
                key_to_index[ckey] = child.index
                boxes.append(child)
                children.append([])
                children[bi].append(ckey)
                new_level_indices.append(child.index)
                next_frontier.append(child.index)
        if new_level_indices:
            levels.append(new_level_indices)
        frontier = next_frontier
        level = child_level

    boxes = [dataclasses.replace(b, children=tuple(c)) for b, c in zip(boxes, children)]
    return boxes, key_to_index, levels


def reference_arrays(boxes: list[Box], key_to_index: dict[int, int]) -> TreeArrays:
    """The columns of a per-box table, row for row."""
    nb = len(boxes)
    keys = np.fromiter((b.key for b in boxes), dtype=np.int64, count=nb)
    starts = np.fromiter((b.start for b in boxes), dtype=np.int64, count=nb)
    stops = np.fromiter((b.stop for b in boxes), dtype=np.int64, count=nb)
    parent = np.fromiter(
        (-1 if b.parent is None else key_to_index[b.parent] for b in boxes),
        dtype=np.int64,
        count=nb,
    )
    child_lo = np.zeros(nb, dtype=np.int64)
    child_hi = np.zeros(nb, dtype=np.int64)
    for b in boxes:
        if b.children:
            child_lo[b.index] = key_to_index[b.children[0]]
            child_hi[b.index] = key_to_index[b.children[-1]] + 1
    levels, ix, iy, iz = decode_morton(keys)
    return TreeArrays(
        keys=keys,
        levels=levels,
        ix=ix,
        iy=iy,
        iz=iz,
        leaf=child_lo == child_hi,
        parent=parent,
        counts=stops - starts,
        starts=starts,
        stops=stops,
        child_lo=child_lo,
        child_hi=child_hi,
    )


def assert_tree_equal(a: Tree, b: Tree) -> None:
    """Value identity of two trees: every box-table column (dtype
    included), then the sorted points, their order and weights."""
    for f in dataclasses.fields(TreeArrays):
        x, y = getattr(a.arrays, f.name), getattr(b.arrays, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name
    assert np.array_equal(a.perm, b.perm)
    assert np.array_equal(a.points, b.points)
    assert (a.weights is None) == (b.weights is None)
    if a.weights is not None:
        assert np.array_equal(a.weights, b.weights)


def canonicalize(lists: InteractionLists) -> InteractionLists:
    """Canonical ordering: targets ascending, each list sorted by source.

    List membership is untouched; only dict insertion order and per-list
    order change.  Both construction paths emit this ordering so the DAG
    (and therefore the simulated virtual clock) is identical either way.
    """

    def canon(table: dict[int, list[int]]) -> dict[int, list[int]]:
        return {ti: sorted(table[ti]) for ti in sorted(table)}

    tables = (canon(getattr(lists, name)) for name in ("l1", "l2", "l3", "l4"))
    return InteractionLists(*tables, pruned=lists.pruned)


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


def mac_pairs_reference(dual: DualTree, theta: float) -> dict[int, list[tuple[str, int]]]:
    """Per-target-leaf MAC traversal (the oracle of ``mac_pairs``)."""
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


def box_owner(box, bounds: np.ndarray) -> int:
    """Locality owning a box: the owner of its middle point."""
    mid = (box.start + box.stop) // 2 if box.count > 0 else box.start
    loc = int(np.searchsorted(bounds, mid, side="right") - 1)
    return min(max(loc, 0), len(bounds) - 2)


# -- the DAG ---------------------------------------------------------------------
class _Assembly:
    """Node ids handed out one at a time and looked up per ``(kind,
    box)``; :meth:`dag` appends the nodes in id order and each operator
    class's edges in emission order, classes in order of first emission
    (a node's out-edges keep their emission order, since every node
    emits its classes in that order)."""

    def __init__(self):
        self.index: dict[str, dict[int, int]] = {k: {} for k in NODE_KINDS}
        self.nodes: list[tuple] = []
        self.edges: dict[str, list[tuple]] = {}

    def add_node(self, kind: str, box: int, level: int, tree: str, n_points: int = 0) -> int:
        nid = len(self.nodes)
        self.nodes.append((KIND_CODE[kind], box, level, TREES.index(tree), n_points))
        self.index[kind][box] = nid
        return nid

    def add_edge(self, src: int, dst: int, op: str, aux=None) -> None:
        self.edges.setdefault(op, []).append((src, dst, aux))

    def dag(self) -> DAG:
        dag = DAG()
        dag.append_nodes(*(zip(*self.nodes) if self.nodes else [[]] * 5))
        for op, rows in self.edges.items():
            src, dst, aux = zip(*rows)
            if aux[0] is None:
                geometry = {}
            elif isinstance(aux[0], int):
                geometry = {"octant": aux}
            elif isinstance(aux[0][0], str):  # (direction, delta)
                directions, deltas = zip(*aux)
                geometry = {"direction": [DIRECTIONS.index(d) for d in directions], "delta": deltas}
            else:
                geometry = {"delta": aux}
            dag.append_edges(src, dst, op, **{k: np.array(v) for k, v in geometry.items()})
        return dag


def _lattice(key: int) -> tuple[int, int, int]:
    _, x, y, z = decode_morton(key)
    return x, y, z


def _dead_below_pruned(tree, pruned: set[int]) -> set[int]:
    """Indices of boxes strictly below any pruned box."""
    dead: set[int] = set()
    for b in tree.boxes:  # BFS order: parents precede children
        pi = tree.key_to_index[b.parent] if b.parent is not None else None
        if pi is not None and (pi in pruned or pi in dead):
            dead.add(b.index)
    return dead


def _source_upward(dag: _Assembly, src) -> None:
    """M nodes at every source box, S at nonempty leaves; S2M and M2M."""
    for b in src.boxes:
        dag.add_node("M", b.index, b.level, "source")
    for b in src.boxes:
        if b.is_leaf and b.count > 0:
            s = dag.add_node("S", b.index, b.level, "source", n_points=b.count)
            dag.add_edge(s, dag.index["M"][b.index], "S2M")
    for b in src.boxes:
        if b.parent is not None:
            pi = src.key_to_index[b.parent]
            dag.add_edge(dag.index["M"][b.index], dag.index["M"][pi], "M2M", aux=b.key & 7)


def build_fmm_dag_reference(dual: DualTree, lists: InteractionLists, advanced: bool) -> DAG:
    """Per-box reference assembly of the FMM DAG."""
    src, tgt = dual.source, dual.target
    dag = _Assembly()
    index = dag.index
    dead = _dead_below_pruned(tgt, lists.pruned)

    _source_upward(dag, src)

    # --- target side: L for live boxes at level >= 2, T at eval boxes ----------
    for b in tgt.boxes:
        if b.index in dead:
            continue
        if b.level >= 2:
            dag.add_node("L", b.index, b.level, "target")
    for b in tgt.boxes:
        if b.index in dead:
            continue
        if (b.is_leaf or b.index in lists.pruned) and b.count > 0:
            t = dag.add_node("T", b.index, b.level, "target", n_points=b.count)
            if b.index in index["L"]:
                dag.add_edge(index["L"][b.index], t, "L2T")
    # L2L downward
    for b in tgt.boxes:
        if b.index not in index["L"] or b.level < 3:
            continue
        pi = tgt.key_to_index[b.parent]
        if pi in index["L"]:
            dag.add_edge(index["L"][pi], index["L"][b.index], "L2L", aux=b.key & 7)

    # --- list 2 ------------------------------------------------------------------
    if advanced:
        # group pairs by (target box); create Is/It lazily
        for ti, sis in lists.l2.items():
            t = tgt.boxes[ti]
            tx, ty, tz = _lattice(t.key)
            if ti not in index["It"]:
                it = dag.add_node("It", ti, t.level, "target")
                dag.add_edge(it, index["L"][ti], "I2L")
            it = index["It"][ti]
            for si in sis:
                s = src.boxes[si]
                sx, sy, sz = _lattice(s.key)
                delta = (tx - sx, ty - sy, tz - sz)
                if si not in index["Is"]:
                    isid = dag.add_node("Is", si, s.level, "source")
                    dag.add_edge(index["M"][si], isid, "M2I")
                dag.add_edge(index["Is"][si], it, "I2I", aux=(assign_direction(delta), delta))
    else:
        for ti, sis in lists.l2.items():
            tx, ty, tz = _lattice(tgt.boxes[ti].key)
            for si in sis:
                sx, sy, sz = _lattice(src.boxes[si].key)
                delta = (tx - sx, ty - sy, tz - sz)
                dag.add_edge(index["M"][si], index["L"][ti], "M2L", aux=delta)

    # --- adaptive lists -------------------------------------------------------------
    for ti, sis in lists.l3.items():
        t = index["T"].get(ti)
        if t is None:
            continue
        for si in sis:
            dag.add_edge(index["M"][si], t, "M2T")
    for ti, sis in lists.l4.items():
        for si in sis:
            s_node = index["S"].get(si)
            if s_node is None:
                continue
            dag.add_edge(s_node, index["L"][ti], "S2L")
    for ti, sis in lists.l1.items():
        t = index["T"].get(ti)
        if t is None:
            continue
        for si in sis:
            s_node = index["S"].get(si)
            if s_node is None:
                continue
            dag.add_edge(s_node, t, "S2T")

    return dag.dag()


def build_bh_dag_reference(dual: DualTree, mac_pairs: dict[int, list[tuple[str, int]]]) -> DAG:
    """Per-box reference assembly of the Barnes-Hut DAG."""
    src, tgt = dual.source, dual.target
    dag = _Assembly()
    index = dag.index
    _source_upward(dag, src)
    for ti, ops in mac_pairs.items():
        t_box = tgt.boxes[ti]
        t = dag.add_node("T", ti, t_box.level, "target", n_points=t_box.count)
        for op, si in ops:
            if op == "M2T":
                dag.add_edge(index["M"][si], t, "M2T")
            else:
                s_node = index["S"].get(si)
                if s_node is not None:
                    dag.add_edge(s_node, t, "S2T")
    return dag.dag()


# -- the chain ----------------------------------------------------------------------
def reference_tree(tree: Tree) -> Tree:
    """``tree``'s sorted points carved again by the per-box loop."""
    boxes, key_to_index, _ = carve_reference(tree.deep_sorted, tree.n_points, tree.threshold)
    return dataclasses.replace(tree, arrays=reference_arrays(boxes, key_to_index))


def reference_dual(dual: DualTree) -> DualTree:
    return DualTree(
        domain=dual.domain,
        source=reference_tree(dual.source),
        target=reference_tree(dual.target),
        threshold=dual.threshold,
    )


def reference_lists(dual: DualTree):
    return canonicalize(build_lists_reference(dual))


def reference_setup(method: str, sources, weights, targets, threshold: int, theta: float = 0.5):
    """``dict(dual=, lists=, dag=)`` for ``method``, reference loops only
    (the one shared step is the Morton sort of the points)."""
    dual = reference_dual(
        build_dual_tree(sources, targets, threshold, source_weights=weights)
    )
    if method == "bh":
        dag = build_bh_dag_reference(dual, mac_pairs_reference(dual, theta))
        return {"dual": dual, "lists": None, "dag": dag}
    lists = reference_lists(dual)
    dag = build_fmm_dag_reference(dual, lists, advanced=(method == "fmm"))
    return {"dual": dual, "lists": lists, "dag": dag}


def folded_keys(registrar) -> dict[int, set]:
    """Per destination node, the dedup keys (edge rows) its drain folded,
    read from the drain's store - which every LCO of the drain holds,
    and holds alone (no LCO keeps a key set of its own)."""
    seen = registrar._seen
    assert set(seen) <= {0, 1}
    for lco in registrar.lcos.values():
        assert lco._store is seen and lco._seen_keys is None
    dst = registrar.dag.edge_columns().dst
    rows = np.flatnonzero(np.frombuffer(seen, dtype=np.uint8))
    folded: dict[int, set] = {}
    for row, nid in zip(rows.tolist(), dst[rows].tolist()):
        folded.setdefault(nid, set()).add(row)
    return folded


def assert_each_edge_counted_once(registrar) -> None:
    """After a drain, every expansion LCO accepted each in-edge exactly
    once: its folded keys are its in-edges' rows in the edge columns (as
    ``out_ptr[src] + pos`` of the view's records), as many as its
    in-degree."""
    dag = registrar.dag
    ptr = dag.edge_columns().out_ptr.tolist()
    keys_in: dict[int, set] = {}
    for out in dag.out_edges:
        for e in out:
            keys_in.setdefault(e.dst, set()).add(ptr[e.src] + e.pos)
    assert registrar.lcos
    folded = folded_keys(registrar)
    assert folded.keys() <= registrar.lcos.keys()
    for nid, lco in registrar.lcos.items():
        assert lco.triggered, nid
        assert folded[nid] == keys_in[nid], nid
        assert len(folded[nid]) == dag.in_degree[nid], nid


def per_edge_potentials(dag, dual, kernel, factory) -> np.ndarray:
    """Potentials at the targets (input order) by a topological walk of
    ``dag`` that applies one operator per edge.

    Each node folds its in-edges' values in fold-key order ``(src, pos)``
    - a multipole/local expansion as one coefficient vector, a
    target-side intermediate expansion per direction - and a T node's
    fold is the potential of its box's points.  A node nothing
    contributed to holds ``None``, the zero expansion, and contributes
    nothing downstream.
    """
    src, tgt, dom = dual.source, dual.target, dual.domain
    centers = {
        "source": dom.box_centers(src.arrays.keys),
        "target": dom.box_centers(tgt.arrays.keys),
    }
    nodes = dag.nodes
    data: dict[int, object] = {}
    inbox: dict[int, list] = {}
    result = np.zeros(tgt.n_points)

    def points(tree, box):
        return tree.points[box.start : box.stop]

    def value(e):
        s, d = nodes[e.src], nodes[e.dst]
        op = e.op
        if op in ("S2T", "S2M", "S2L"):
            sbox = src.boxes[s.box_index]
            q = src.weights[sbox.start : sbox.stop]
            if op == "S2T":
                return kernel.direct(points(tgt, tgt.boxes[d.box_index]), points(src, sbox), q)
            side, level, at = (
                ("source", sbox.level, sbox.index)
                if op == "S2M"
                else ("target", d.level, d.box_index)
            )
            h = dom.box_size(level)
            rel = (points(src, sbox) - centers[side][at]) / h
            return (kernel.p2m if op == "S2M" else kernel.p2l)(rel, q, h)
        x = data.get(e.src)
        if x is None:
            return None  # the zero expansion contributes nothing
        h = dom.box_size(s.level)
        if op in ("M2M", "M2L", "L2L"):
            return getattr(factory, op.lower())(e.aux, h) @ x
        if op == "M2I":
            dirs = {ee.aux[0] for ee in dag.out_edges[e.dst] if ee.op == "I2I"}
            return {direction: factory.m2i(direction, h) @ x for direction in dirs}
        if op == "I2I":
            direction, delta = e.aux
            return {direction: x[direction] * factory.i2i(direction, delta, h)}
        if op == "I2L":
            return sum(factory.i2l(direction, h) @ v for direction, v in sorted(x.items()))
        tbox = tgt.boxes[d.box_index]
        side = "source" if op == "M2T" else "target"
        rel = (points(tgt, tbox) - centers[side][s.box_index]) / h
        return (kernel.m2t if op == "M2T" else kernel.l2t)(x, rel, h)

    for nid in dag._topological_order():
        acc = None
        for _, v in sorted(inbox.pop(nid, []), key=lambda kv: kv[0]):
            if isinstance(v, dict):
                acc = dict(acc or {})
                for direction, amps in v.items():
                    acc[direction] = amps if direction not in acc else acc[direction] + amps
            else:
                acc = v if acc is None else acc + v
        data[nid] = acc
        node = nodes[nid]
        if node.kind == "T" and acc is not None:
            box = tgt.boxes[node.box_index]
            result[box.start : box.stop] = acc
        for e in dag.out_edges[nid]:
            v = value(e)
            if v is not None:
                inbox.setdefault(e.dst, []).append(((e.src, e.pos), v))
    out = np.empty(tgt.n_points)
    out[tgt.perm] = result
    return out
