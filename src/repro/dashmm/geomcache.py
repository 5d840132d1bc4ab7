"""The geometry cache of a persistent template: flat pages, patched in
array passes.

A template evaluated again keeps what its leaf stages derive from point
coordinates alone: the p2m basis rows of the source leaves, the greens
matrix of every S->T group and the evaluation rows of every M->T / L->T
group.  A warm submit then pays only the products against fresh charges
and expansions, on the operands a cold stage computes, bit for bit.

**Layout.**  Each kind of matrix lives in one :class:`Pages`: group
``i`` owns a ``heights[i] x widths[i]`` block with a few rows of room
past its end, the blocks lie back to back in group order, and a *page*
is a run of consecutive groups of about :data:`PAGE_BYTES`.  A block is
a C-contiguous view of its page, and so is every :data:`CHUNK`-row run
of it - the operands of the uncached stages.  The output pages are laid
out by the plan's :class:`~repro.dashmm.flushplan.LeafLayout`: a
group's rows are its contributions, in plan order.  The p2m pages are
laid out by the source leaves of each (level, locality) batch of the
leaf fits.

**Drift.**  :meth:`~repro.dashmm.registrar.Registrar.rebind` marks the
sorted positions whose point moved and where every other one was
(:func:`~repro.tree.incremental.point_moves`); the next walk of the
plan patches the pages in flat passes.  Where a leaf count moved, only
the blocks that read the leaf are laid out anew, each in its own room,
its rows (and, for an S->T block whose source leaf moved, its columns)
gathered from where their points were; a page is laid out anew only
when a block outgrows its room, and the cache is never copied whole.
The flat position of every moved row and column comes from the layout:
the greens of the moved pairs are evaluated in batches of about
:data:`BATCH`, each written with one scatter per page; the moved
expansion rows come from one kernel call per (op, level) and one
scatter per page.
"""

from __future__ import annotations

import numpy as np

from repro.dashmm.flushplan import LeafLayout, _runs
from repro.kernels.base import paired_distances

#: rows per kernel call of a stacked stage: bounds its temporaries, and
#: a cached block is read in the same row runs it was computed in
CHUNK = 2048
#: target size of one page of the geometry cache
PAGE_BYTES = 1 << 21
#: greens entries a drift patch recomputes per evaluation, about
BATCH = 1 << 15


def expansion_rows(f, points, pos, center, h, out=None) -> np.ndarray:
    """``f((points[pos] - center) / h, h)``, computed :data:`CHUNK` rows at
    a time into ``out`` (by default one matrix, allocated here)."""
    first = f((points[pos[:CHUNK]] - center[:CHUNK]) / h, h)
    if out is None:
        if len(pos) <= CHUNK:
            return first
        out = np.empty((len(pos), *first.shape[1:]), dtype=first.dtype)
    out[:CHUNK] = first
    for lo in range(CHUNK, len(pos), CHUNK):
        out[lo : lo + CHUNK] = f((points[pos[lo : lo + CHUNK]] - center[lo : lo + CHUNK]) / h, h)
    return out


def _row_map(was: np.ndarray, now: np.ndarray, group_lo: np.ndarray, row_lo: np.ndarray, rel):
    """Runs of rows that held ``was[r]`` rows and now hold ``now[r]``, in
    groups of consecutive runs starting at runs ``group_lo``, whose
    first old rows are ``row_lo``; ``rel`` is per new row the
    run-relative old row it copies from.  Returns per new row that old
    row, relative to its group's first old row; per group whether a run
    of it changed length; and per group the first row (relative to the
    group) of its first such run - the rows above it kept their place."""
    was_start = np.cumsum(was) - was
    now_start = np.cumsum(now) - now
    runs_of = np.diff(np.append(group_lo, len(now)))
    rows = np.repeat(was_start - np.repeat(row_lo, runs_of), now) + rel
    moved = was != now
    first_run = np.minimum.reduceat(np.where(moved, np.arange(len(now)), len(now)), group_lo)
    first = np.append(now_start, now.sum())[first_run] - now_start[group_lo]
    return rows, np.logical_or.reduceat(moved, group_lo), first


def _gather(old: np.ndarray, rows, cols, out: np.ndarray) -> None:
    """``out[r, c] = old[rows[r], c]`` (``old[rows[r], cols[c]]`` given
    ``cols``), indices out of range clipped: those entries are the
    caller's to overwrite."""
    if cols is None:
        np.take(old, rows, axis=0, out=out, mode="clip")
    else:
        np.take(np.take(old, rows, axis=0, mode="clip"), cols, axis=1, out=out, mode="clip")


def _room(heights: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Entries set aside for blocks of ``heights x widths``: a few rows
    more, so that a leaf count that moves seldom moves a block."""
    return (heights + 2 + heights // 32) * widths


class Pages:
    """One ``heights[i] x widths[i]`` block per group, the groups of one
    dtype back to back in flat pages of about :data:`PAGE_BYTES` (a group
    larger than that has a page of its own); ``blocks[i]`` is group
    ``i``'s block, a view of its page at ``offset[i]``, with ``room[i]``
    entries set aside for it."""

    def __init__(self, heights, widths, dtype):
        self.heights = np.asarray(heights, dtype=np.int64)
        self.widths = np.asarray(widths, dtype=np.int64)
        self.room = _room(self.heights, self.widths)
        start = np.cumsum(self.room) - self.room
        _, self.page = np.unique(start * np.dtype(dtype).itemsize // PAGE_BYTES, return_inverse=True)
        #: per page its first group, one more entry, the group count
        self.first = np.searchsorted(self.page, np.arange(self.page[-1] + 2))
        self.offset = start - start[self.first[self.page]]
        sizes = np.add.reduceat(self.room, self.first[:-1]).tolist()
        self.pages = [np.empty(n, dtype=dtype) for n in sizes]
        self.blocks: list = [None] * len(self.room)
        for p in range(len(self.pages)):
            self._view(p, *self.first[p : p + 2])

    def _view(self, p: int, g0: int, g1: int) -> None:
        """The blocks of groups ``g0:g1`` of page ``p``, viewed anew."""
        page = self.pages[p]
        for g, o, h, w in zip(
            range(g0, g1),
            self.offset[g0:g1].tolist(),
            self.heights[g0:g1].tolist(),
            self.widths[g0:g1].tolist(),
        ):
            self.blocks[g] = page[o : o + h * w].reshape(h, w)

    def relay(self, heights, widths, old_row, row_lo, first_row, changed, cols=None) -> None:
        """Lay the ``changed`` blocks out at ``heights x widths``: row ``r``
        of group ``i`` from row ``old_row[row_lo[i] + r]`` of the old
        block, the rows above ``first_row[i]`` staying where they are;
        column ``c`` from column ``c``, or from ``cols[i][c]`` where
        ``cols`` (a dict) names the group.  What falls outside the old
        block is left for the caller to overwrite.  A block is laid out
        in its own room where it fits; a page holding one that does not
        is laid out anew, every block of it with new room."""
        cols = cols or {}
        moved = np.flatnonzero(changed)
        fits = heights[moved] * widths[moved] <= self.room[moved]
        over = set(self.page[moved[~fits]].tolist())
        for p in sorted(over):
            self.relay_page(p, heights, widths, old_row, row_lo, changed, cols)
        for g in moved[fits].tolist():
            if self.page[g] not in over:
                self.relay_block(g, heights[g], widths[g], old_row, row_lo, first_row, cols.get(g))

    def relay_block(self, g: int, h: int, w: int, old_row, row_lo, first_row, cols) -> None:
        """Block ``g`` laid out anew in its own room: the rows from
        ``first_row[g]`` on (all of them where its columns move) gathered
        from a copy of the old ones."""
        old = self.blocks[g]
        self.heights[g], self.widths[g] = h, w
        o = int(self.offset[g])
        block = self.blocks[g] = self.pages[self.page[g]][o : o + h * w].reshape(h, w)
        top = 0 if cols is not None else min(int(first_row[g]), h)
        if len(old) > top:
            _gather(old[top:].copy(), old_row[row_lo[g] + top : row_lo[g] + h] - top, cols, block[top:])

    def relay_page(self, p: int, heights, widths, old_row, row_lo, changed, cols) -> None:
        """Page ``p`` laid out anew, the room of its blocks dealt out
        again: an unchanged block copied, a changed one gathered.  In its
        own buffer, from a copy dropped at once, while the blocks fit
        there - the long-lived pages are not reallocated by a drift, so
        the heap does not fragment under them."""
        g0, g1 = self.first[p], self.first[p + 1]
        h, w = heights[g0:g1], widths[g0:g1]
        need, room = h * w, _room(h, w)
        page = self.pages[p]
        spare = len(page) - int(need.sum())
        if spare >= 0:
            # the page's free entries dealt out in proportion to the
            # room each block would get afresh
            extra = room - need
            room = need + spare * extra // max(int(extra.sum()), 1)
            page = page.copy()
        else:
            self.pages[p] = np.empty(int(room.sum()), dtype=page.dtype)
        old = [
            page[o : o + a * b].reshape(a, b)
            for o, a, b in zip(
                self.offset[g0:g1].tolist(), self.heights[g0:g1].tolist(), self.widths[g0:g1].tolist()
            )
        ]
        self.heights[g0:g1], self.widths[g0:g1], self.room[g0:g1] = h, w, room
        self.offset[g0:g1] = np.cumsum(room) - room
        self._view(p, g0, g1)
        for g, was in zip(range(g0, g1), old):
            block = self.blocks[g]
            if not changed[g]:
                block[...] = was
            elif len(was):
                _gather(was, old_row[row_lo[g] : row_lo[g] + len(block)], cols.get(g), block)

    def scatter_rows(self, group, row, values) -> None:
        """Rows ``values[j]`` into row ``row[j]`` of group ``group[j]``'s
        block (all of one width), sorted by group: one scatter per page."""
        w = values.shape[1]
        at = _runs(self.offset[group] + row * w, np.full(len(row), w))
        cut = np.searchsorted(group, self.first) * w
        values = values.ravel()
        for p in np.flatnonzero(cut[1:] > cut[:-1]).tolist():
            self.put(p, at[cut[p] : cut[p + 1]], values[cut[p] : cut[p + 1]])

    def put(self, p: int, at, values) -> None:
        """One scatter: ``values`` into page ``p`` at positions ``at``."""
        self.pages[p][at] = values


class GeometryCache:
    """A template's geometry-derived matrices, empty until its first
    reuse fills it.

    Each side - ``p2m``, the leaf fits' rows; ``greens`` and ``rows``,
    the leaf outputs' - is current at one generation of the registrar
    (``gen``), and None while it is being filled: a stage that raised
    half way leaves it to be filled again.
    """

    def __init__(self):
        self.p2m: Pages | None = None
        self.greens: Pages | None = None
        self.rows: Pages | None = None
        #: the source leaf counts the p2m pages are laid out by
        self.leaf_counts: np.ndarray | None = None
        #: the LeafLayout the output pages are laid out by
        self.layout: LeafLayout | None = None
        self.gen: dict = {"p2m": None, "outputs": None}

    def __bool__(self) -> bool:
        return self.p2m is not None or self.rows is not None

    def clear(self) -> None:
        self.__init__()

    def leaf_fits(self, leaves, counts, pos, group_lo, levels, gen, moved, reg):
        """The p2m pages of these (level, locality) batches - source leaves
        ``leaves`` holding ``counts`` points at positions ``pos``, batch
        ``i`` from leaf ``group_lo[i]`` at level ``levels[i]`` - current at
        ``gen``, and whether the caller fills them."""
        if self.gen["p2m"] == gen:
            return self.p2m, False
        heights = np.add.reduceat(counts, group_lo)
        patch = self.gen["p2m"] == gen - 1 and moved is not None
        self.gen["p2m"] = None
        if not patch:
            self.p2m = Pages(heights, np.full(len(heights), reg.kernel.size), complex)
            self.leaf_counts = counts
            return self.p2m, True
        src, moves = reg.dual.source, moved["source"]
        if not np.array_equal(self.leaf_counts, counts):
            old_lo = np.cumsum(self.p2m.heights) - self.p2m.heights
            old_row, changed, first = _row_map(self.leaf_counts, counts, group_lo, old_lo, moves.was[pos])
            row_lo = np.cumsum(heights) - heights
            self.p2m.relay(heights, self.p2m.widths, old_row, row_lo, first, changed)
            self.leaf_counts = counts
        dirty = np.flatnonzero(moves.moved[pos])
        if len(dirty):
            group = np.searchsorted(np.cumsum(heights), dirty, side="right")
            leaf = np.repeat(leaves, counts)[dirty]
            center = reg._centers["source"][leaf]
            values = np.empty((len(dirty), reg.kernel.size), dtype=complex)
            lvl = levels[group]
            for level in np.unique(lvl).tolist():
                at = lvl == level
                h = reg.dual.domain.box_size(level)
                values[at] = expansion_rows(
                    reg.kernel.p2m_matrix, src.points, pos[dirty[at]], center[at], h
                )
            row_lo = np.cumsum(heights) - heights
            self.p2m.scatter_rows(group, dirty - row_lo[group], values)
        return self.p2m, False

    def outputs(self, plan, lay: LeafLayout, gen, moved, reg, direct: bool):
        """The output pages of ``plan`` - ``greens`` (None unless the
        kernel's direct sum is the greens matvec, ``direct``) and
        ``rows`` - current at ``gen``, and whether the caller fills
        them."""
        if self.gen["outputs"] == gen:
            return self.greens, self.rows, False
        patch = self.gen["outputs"] == gen - 1 and moved is not None
        self.gen["outputs"] = None
        src = reg.dual.source
        heights = np.diff(lay.bounds)
        sbox = plan.out_sbox[lay.group_lo]
        widths = np.where(lay.s2t, src.arrays.counts[sbox], 0)
        size = np.where(lay.s2t, 0, reg.kernel.size)
        if not patch:
            self.greens = Pages(heights * lay.s2t, widths, float) if direct else None
            self.rows = Pages(heights * ~lay.s2t, size, complex)
            self.layout = lay
            return self.greens, self.rows, True
        was = self.layout
        if was is not lay:
            rel = moved["target"].was[lay.point_idx]
            old_row, changed, first = _row_map(was.counts, lay.counts, lay.group_lo, was.bounds[:-1], rel)
            row_lo = lay.bounds[:-1]
            if self.greens is not None:
                # a group whose source leaf's count moved takes its
                # columns from where the old leaf held the same points
                s_lo = src.arrays.starts[sbox]
                cols = {
                    g: moved["source"].was[s_lo[g] : s_lo[g] + widths[g]]
                    for g in np.flatnonzero(lay.s2t & (widths != self.greens.widths)).tolist()
                }
                changed_s2t = lay.s2t & changed
                changed_s2t[list(cols)] = True
                self.greens.relay(heights * lay.s2t, widths, old_row, row_lo, first, changed_s2t, cols)
            self.rows.relay(heights * ~lay.s2t, size, old_row, row_lo, first, ~lay.s2t & changed)
            self.layout = lay
        dirty = np.flatnonzero(moved["target"].moved[lay.point_idx])
        group = np.searchsorted(lay.bounds, dirty, side="right") - 1
        if self.greens is not None:
            self._patch_greens(lay, dirty, group, src.arrays.starts[sbox], widths, moved, reg)
        at = ~lay.s2t[group]
        dirty, group = dirty[at], group[at]
        if len(dirty):
            edge = np.searchsorted(lay.starts, dirty, side="right") - 1
            key = np.array([(g.op == "M2T", g.sub) for g in plan.outputs], dtype=np.int64)[group]
            values = np.empty((len(dirty), reg.kernel.size), dtype=complex)
            for is_m2t, level in np.unique(key, axis=0).tolist():
                at = (key[:, 0] == is_m2t) & (key[:, 1] == level)
                side = "source" if is_m2t else "target"
                matf = reg.kernel.m2t_matrix if is_m2t else reg.kernel.l2t_matrix
                center = reg._centers[side][plan.out_sbox[edge[at]]]
                values[at] = expansion_rows(
                    matf, reg.dual.target.points, lay.point_idx[dirty[at]], center,
                    reg.dual.domain.box_size(level),
                )
            self.rows.scatter_rows(group, dirty - lay.bounds[group], values)
        return self.greens, self.rows, False

    def _patch_greens(self, lay, dirty, group, s_start, widths, moved, reg) -> None:
        """The greens of every (moved target, source point) pair of the
        S->T groups, and of every (target, moved source) pair, in batches
        of consecutive groups of about :data:`BATCH` pairs: per batch one
        evaluation, then one scatter per page and pass, so the patch's
        temporaries stay small next to the cache."""
        src, tgt, pages = reg.dual.source, reg.dual.target, self.greens
        at = lay.s2t[group]
        rows, group = dirty[at], group[at]
        sources = np.flatnonzero(moved["source"].moved)
        heights = np.diff(lay.bounds)
        # per group, how many of its source leaf's points moved
        c_lo = np.searchsorted(sources, s_start)
        c_n = np.where(lay.s2t, np.searchsorted(sources, s_start + widths) - c_lo, 0)
        pairs = np.bincount(group, widths[group], len(heights)) + c_n * heights
        if not pairs.any():
            return
        before = np.cumsum(pairs) - pairs
        cut = np.flatnonzero(np.diff(before // BATCH, prepend=-1, append=-1)).tolist()
        ids = np.flatnonzero(c_n)
        r_cut = np.searchsorted(group, cut).tolist()
        c_cut = np.searchsorted(ids, cut).tolist()
        for b in range(len(cut) - 1):
            # rows: each moved target against its group's source leaf
            gr = group[r_cut[b] : r_cut[b + 1]]
            reps = widths[gr]
            base = pages.offset[gr] + (rows[r_cut[b] : r_cut[b + 1]] - lay.bounds[gr]) * reps
            row_at = _runs(base, reps)
            row_s = row_at + np.repeat(s_start[gr] - base, reps)
            row_t = np.repeat(lay.point_idx[rows[r_cut[b] : r_cut[b + 1]]], reps)
            # columns: every target of a group against its moved sources
            gc = ids[c_cut[b] : c_cut[b + 1]]
            col_rows = _runs(lay.bounds[gc], heights[gc])
            per_row = np.repeat(c_n[gc], heights[gc])
            col_s = sources[_runs(np.repeat(c_lo[gc], heights[gc]), per_row)]
            g = np.repeat(gc, heights[gc])
            base = pages.offset[g] + (col_rows - lay.bounds[g]) * widths[g] - s_start[g]
            col_at = np.repeat(base, per_row) + col_s
            col_t = np.repeat(lay.point_idx[col_rows], per_row)
            t, s = np.concatenate((row_t, col_t)), np.concatenate((row_s, col_s))
            values = reg.kernel.greens(paired_distances(tgt.points, src.points, t, s))
            # one scatter per page and pass: the runs are sorted by group
            p0, p1 = pages.page[cut[b]], pages.page[cut[b + 1] - 1] + 1
            first = pages.first[p0 : p1 + 1]
            for pos, val, lengths, gs in (
                (row_at, values[: len(row_t)], reps, gr),
                (col_at, values[len(row_t) :], c_n[gc] * heights[gc], gc),
            ):
                ends = np.concatenate(([0], np.cumsum(lengths)))[np.searchsorted(gs, first)].tolist()
                for p, lo, hi in zip(range(p0, p1), ends, ends[1:]):
                    if lo < hi:
                        pages.put(p, pos[lo:hi], val[lo:hi])
