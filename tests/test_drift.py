"""Drift submits patch the geometry cache instead of clearing it.

A session template keeps its geometry cache across point moves: the
registrar diffs its previous tree against the new one, and the next
flush recomputes only the cached rows (and S->T columns) whose point
moved.  The bar is the session's usual one - every submit bit-identical
to a cold session over the same domain - across the moves that exercise
each branch: charges only, a move inside a deep Morton cell, a move that
changes a point's rank inside its leaf, a leaf crossing (counts move,
blocks are re-laid from where their points were), a leaf fed past the
room its blocks have, separate targets, and a shape change and back (a
revisited template is diffed against its own tree).  A drift must also
stay within a page of a warm submit's heap.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.dashmm.geomcache as geomcache
from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.tree.incremental import moved_positions

THRESHOLD = 20
N = 360


@pytest.fixture(scope="module")
def factory():
    return OperatorFactory(LaplaceKernel(4), eps=1e-4)


def _evaluator(factory, **config) -> DashmmEvaluator:
    return DashmmEvaluator(
        factory.kernel,
        method="fmm",
        threshold=THRESHOLD,
        factory=factory,
        runtime_config=RuntimeConfig(**config),
    )


def _cloud(seed: int):
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(0.0, 1.0, (N, 3)), rng.normal(size=N)


def _nudge(points, rng, k: int = 3):
    """``k`` points moved by 1e-9: their coordinates change, their deep
    Morton cells (almost surely) do not."""
    out = points.copy()
    out[rng.choice(len(points), k, replace=False), 0] += 1e-9
    return out


def _reorder(tree, points, rng):
    """The first point of a leaf moved next to its last one: its rank
    inside the leaf changes, the leaf's count does not."""
    leaves = [b for b in tree.boxes if b.is_leaf and b.count > 2]
    leaf = leaves[rng.integers(len(leaves))]
    out = points.copy()
    out[tree.perm[leaf.start]] = points[tree.perm[leaf.stop - 1]] + 1e-9
    return out


def _cross(tree, points, rng, threshold=THRESHOLD):
    """A point moved into a sibling leaf: two leaf counts move, no box
    crosses the threshold."""
    hops = []
    for parent in tree.boxes:
        kids = [tree.boxes[tree.key_to_index[k]] for k in parent.children]
        donors = [b for b in kids if b.is_leaf and b.count > 1]
        takers = [b for b in kids if b.is_leaf and b.count < threshold]
        hops += [(d, t) for d in donors for t in takers if d is not t]
    donor, taker = hops[rng.integers(len(hops))]
    out = points.copy()
    out[tree.perm[donor.start]] = points[tree.perm[taker.start]] + 1e-9
    return out


def _crowd(tree, points, rng):
    """``THRESHOLD`` points of other leaves moved next to the points of
    one leaf: it splits, so the shape changes there and little else."""
    leaves = [b for b in tree.boxes if b.is_leaf]
    leaf = leaves[rng.integers(len(leaves))]
    own = tree.perm[leaf.start : leaf.stop]
    movers = rng.choice(np.setdiff1d(np.arange(len(points)), own), THRESHOLD, replace=False)
    out = points.copy()
    out[movers] = points[rng.choice(own, THRESHOLD)] + rng.normal(scale=1e-4, size=(THRESHOLD, 3))
    return out


def _check(sess, points, charges, targets=None):
    out = sess.submit(points, charges, targets)
    with EvaluatorSession(sess.evaluator, domain=sess.domain) as cold:
        assert np.array_equal(out, cold.submit(points, charges, targets))
    return out


STEPS = ("charges", "nudge", "reorder", "cross", "targets", "shape")


@settings(derandomize=True, max_examples=10, deadline=None)
@given(steps=st.lists(st.sampled_from(STEPS), min_size=2, max_size=6), seed=st.integers(0, 999))
@example(
    steps=["nudge", "reorder", "cross", "shape", "targets", "targets", "cross", "shape"],
    seed=1,
)
def test_drift_sequences_match_a_cold_session(factory, steps, seed):
    rng, pts, w = _cloud(seed)
    targets = None
    with EvaluatorSession(_evaluator(factory, n_localities=3)) as sess:
        _check(sess, pts, w)
        for step in steps:
            tree = sess._store.current.dual.source
            if step == "charges":
                w = rng.normal(size=N)
            elif step == "nudge":
                pts = _nudge(pts, rng)
            elif step == "reorder":
                pts = _reorder(tree, pts, rng)
            elif step == "cross":
                pts = _cross(tree, pts, rng)
            elif step == "targets":
                if targets is None:
                    targets = rng.uniform(pts.min(axis=0), pts.max(axis=0), (N // 2, 3))
                targets = _nudge(targets, rng)
            else:
                # a denser cloud refines deeper; the return revisits the
                # template whose cache was computed over the old tree
                shrunk = None if targets is None else 0.4 * targets + 0.1
                _check(sess, 0.4 * pts + 0.1, w, shrunk)
            _check(sess, pts, w, targets)


def test_a_nudge_recomputes_only_the_moved_rows_and_columns(factory, monkeypatch):
    """After one point moves inside its leaf, the flush hands
    ``kernel.greens`` the moved point's row of every S->T group that
    reads it as a target and the moved column of every group that reads
    it as a source - nothing else - and a charge-only submit none.  The
    template's first reuse (the second submit) allocates and fills the
    cache; a template that ran once holds none."""
    rng, pts, w = _cloud(4)
    ev = _evaluator(factory, n_localities=3)
    with EvaluatorSession(ev) as sess:
        sess.submit(pts, w)
        reg = sess._store.current
        assert reg.geom_cache is None
        sess.submit(pts, w)
        assert reg.geom_cache
        tgt = reg.dual.target
        leaf = tgt.boxes[tgt.leaf_indices[rng.integers(len(tgt.leaf_indices))]]
        moved = pts.copy()
        moved[tgt.perm[leaf.start], 0] += 1e-9
        before = reg.dual
        sizes = []
        greens = ev.kernel.greens
        monkeypatch.setattr(ev.kernel, "greens", lambda r: sizes.append(np.size(r)) or greens(r))
        out = sess.submit(moved, w)
        assert sess._store.current is reg
        plan, src = reg.plan(), reg.dual.source
        s_leaf = src.key_to_index[leaf.key]
        expected = 0
        for g in plan.outputs:
            if g.op == "S2T":
                tboxes, sbox = plan.out_tbox[g.lo : g.hi], plan.out_sbox[g.lo]
                expected += np.count_nonzero(tboxes == leaf.index) * src.arrays.counts[sbox]
                if sbox == s_leaf:
                    expected += tgt.arrays.counts[tboxes].sum()
        assert 0 < sum(sizes) == expected
        for side in ("source", "target"):
            moved_at = moved_positions(getattr(before, side), getattr(reg.dual, side))
            assert np.count_nonzero(moved_at) == 1
        sizes.clear()
        sess.submit(moved, rng.normal(size=N))
        assert sizes == []
        monkeypatch.undo()
        with EvaluatorSession(ev, domain=sess.domain) as cold:
            assert np.array_equal(out, cold.submit(moved, w))


@pytest.mark.parallel
def test_parallel_drift_matches_the_simulator(factory):
    """Two workers patch their rank's entries and start over on a shape
    change, where the new registrar takes over the worker's cache (an
    entry left over from the previous shape, whose groups mostly share
    its keys, would be read as current); every round equals a sim
    session."""
    rng, pts, w = _cloud(9)
    par = _evaluator(factory, backend="parallel", n_localities=2, start_method="spawn")
    with EvaluatorSession(par) as p, EvaluatorSession(_evaluator(factory, n_localities=2)) as s:

        def both(points, charges):
            assert np.array_equal(p.submit(points, charges), s.submit(points, charges))
            # a worker that fails is respawned and re-drives the round
            # cold, which would hide what went wrong in it
            assert p._parallel.respawns == 0

        both(pts, w)
        for step in ("nudge", "shape", "reorder", "cross", "nudge", "charges"):
            tree = s._store.current.dual.source
            if step == "nudge":
                pts = _nudge(pts, rng)
            elif step == "reorder":
                pts = _reorder(tree, pts, rng)
            elif step == "cross":
                pts = _cross(tree, pts, rng)
            elif step == "charges":
                w = rng.normal(size=N)
            else:
                both(_crowd(tree, pts, rng), w)
            both(pts, w)


def _feed(tree, taker_key, points, sign):
    """A point moved from a sibling leaf into the leaf ``taker_key``
    (``sign`` +1) or out of it into a sibling (-1): the parent's count,
    hence the shape, stays."""
    taker = tree.boxes[tree.key_to_index[taker_key]]
    parent = tree.boxes[tree.key_to_index[taker.parent]]
    siblings = [tree.boxes[tree.key_to_index[k]] for k in parent.children]
    other = next(b for b in siblings if b.is_leaf and b is not taker and b.count > 1)
    src, dst = (other, taker) if sign > 0 else (taker, other)
    out = points.copy()
    out[tree.perm[src.start]] = points[tree.perm[dst.start]] + 1e-9
    return out


@pytest.mark.parametrize("room", ["default", "none"])
def test_a_leaf_that_outgrows_its_room_relays_its_page(factory, monkeypatch, room):
    """Points crossing into one leaf again and again grow the blocks that
    read it past the room set aside for them: their page is laid out
    anew - in its own buffer while the page has entries to spare (the
    default room), in a new one once not (no room at all and a page per
    block) - and every submit equals a cold session."""
    if room == "none":
        monkeypatch.setattr(geomcache, "_room", lambda h, w: h * w)
        monkeypatch.setattr(geomcache, "PAGE_BYTES", 8)
    grown = []
    relay_page = geomcache.Pages.relay_page

    def counted(pages, p, *args):
        size = len(pages.pages[p])
        relay_page(pages, p, *args)
        grown.append(len(pages.pages[p]) > size)

    monkeypatch.setattr(geomcache.Pages, "relay_page", counted)
    rng, pts, w = _cloud(5)
    with EvaluatorSession(_evaluator(factory, n_localities=3)) as sess:
        _check(sess, pts, w)
        _check(sess, pts, w)
        reg = sess._store.current
        tree = reg.dual.source
        a = tree.arrays
        taker = next(
            tree.boxes[i] for i in tree.leaf_indices
            if a.counts[i] <= THRESHOLD - 4
            and np.count_nonzero((a.counts > 1)[a.leaf & (a.parent == a.parent[i])]) > 1
        )
        for sign in (1, 1, 1, 1, -1, -1):
            pts = _feed(reg.dual.source, taker.key, pts, sign)
            _check(sess, pts, w)
            assert sess._store.current is reg
    assert (room == "none") in grown


def test_a_drift_holds_at_most_a_page_more_than_a_warm_submit(factory):
    """A filled cache, one point moved across a leaf boundary (the blocks
    that read the two leaves are laid out anew): over a warm submit, the
    drift's heap peaks at most one page plus the patch's temporaries
    higher, and keeps only its new tree and the rebuilt leaf-output
    layout - never a second copy of the cache, and no page
    reallocated."""
    rng = np.random.default_rng(3)
    cells = np.indices((8, 8, 2)).reshape(3, -1).T
    pts = ((cells[:, None, :] + rng.random((len(cells), 32, 3))) / 8.0).reshape(-1, 3)
    w = rng.normal(size=len(pts))
    ev = DashmmEvaluator(
        factory.kernel, method="fmm", threshold=60, factory=factory,
        runtime_config=RuntimeConfig(n_localities=3),
    )

    def traced(points):
        tracemalloc.start()
        try:
            sess.submit(points, w)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    with EvaluatorSession(ev) as sess:
        sess.submit(pts, w)
        sess.submit(pts, w)
        reg = sess._store.current
        cache = reg.geom_cache
        held = sum(page.nbytes for s in (cache.p2m, cache.greens, cache.rows) for page in s.pages)
        kept, peak = traced(pts)
        moved = _cross(reg.dual.source, pts, rng, threshold=60)
        kept_drift, peak_drift = traced(moved)
        assert sess._store.current is reg and reg.geom_cache is cache
        lay = reg.leaf_layout()
        layout = sum(a.nbytes for a in vars(lay).values() if isinstance(a, np.ndarray))
        temporaries = geomcache.PAGE_BYTES + 96 * geomcache.BATCH + 2 * layout
        assert temporaries < held / 2
        assert peak_drift - peak < temporaries
        # what the drift keeps beyond a warm submit's: the new tree and
        # the rebuilt layout, less than a page
        assert kept_drift - kept < layout + geomcache.PAGE_BYTES // 2
