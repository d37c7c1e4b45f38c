"""Bound guards: what a rank's share of each statement's iterations is at
run time, and the block queries the vector backend makes of it.

A bound guard is its canonical disjoint box cover, a tuple of boxes
``(a0, b0, a1, b1, ...)`` (:mod:`repro.isets.box`: ``cover_of_points``
defines that cover, ``cover_of_boxes`` computes it from a union of boxes
without enumerating anything, and ``cover_of_set`` reads a bound iteration
set through whichever of the two the set allows).  :class:`Guards` is one
rank's ``sid -> cover | None`` map and answers ``G.boxes`` / ``K.guard``.
It is bound from the guard plan (:func:`plan_guards`, read once off an
analysis), one :func:`guard_cover` per entry; the statements of one share
group hold the same cover.  The static cost reads the same plan.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Mapping

from ..cp.model import cp_key
from ..cp.nest import nest_for
from ..distrib.layout import PDIM
from ..ir.stmt import Assign
from ..ir.visit import walk_stmts
from ..isets import ISet
from ..isets.box import Box, cover_of_boxes, cover_of_set, cover_points


class Guards(dict):
    """Per-rank statement guards: ``sid -> cover | None``, a cover being
    the canonical disjoint boxes ``(a0, b0, a1, b1, ...)`` of the
    statement's iterations on this rank (None: unguarded).  Beyond the
    scalar backend's point-membership test, this serves the vector
    backend's *block* queries: exact covers of the admissible indices at
    one or more vectorized loop positions by contiguous runs/boxes, for
    fixed outer indices."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._answers: dict = {}
        #: sid -> :meth:`point_table`, for the statements asked about
        self.tables: dict = {}
        #: cover -> its points: one table per distinct cover
        self._points: dict = {}

    def point_table(self, sid: int) -> frozenset | None:
        """Statement *sid*'s guard as a hash table of points (None:
        unguarded), for ``K.guard``: scalar loops ask once per point of the
        nest, and a probe of this is the whole test.  Enumerated at the
        first ask — by loops that visit every point anyway — and shared by
        every statement with an equal cover (a share group's statements
        hold one)."""
        cover = self.get(sid)
        points = None
        if cover is not None:
            points = self._points.get(cover)
            if points is None:
                points = self._points[cover] = frozenset(cover_points(cover))
        self.tables[sid] = points
        return points

    def boxes(self, sid: int, tpl: tuple, *bounds):
        """Exact cover of the admissible points at the ``None`` positions
        of *tpl* (outermost vectorized loop first) by boxes
        ``(a0, b0, a1, b1, ...)`` — one inclusive ``(lo, hi)`` pair per
        position — clamped to *bounds* (the same pair layout), as a tuple.
        Unguarded statements get the whole bounds box.

        A node program repeats its queries pass after pass, so the answer
        to a whole query is kept (at most one entry per distinct query the
        program makes); a miss reads it off the guard's boxes."""
        query = (sid, tpl, bounds)
        out = self._answers.get(query)
        if out is None:
            out = self._answers[query] = self._clamped_cover(sid, tpl, bounds)
        return out

    def _clamped_cover(self, sid: int, tpl: tuple, bounds: tuple) -> tuple:
        """The guard's boxes that contain the fixed indices of *tpl*,
        projected onto its ``None`` positions, re-covered canonically
        (the projections are disjoint but may abut) and clamped —
        clamping an exact cover axis-by-axis keeps it exact."""
        bounds = tuple(int(v) for v in bounds)
        d = len(bounds) // 2
        for l in range(d):
            if bounds[2 * l + 1] < bounds[2 * l]:
                return ()
        guard = self.get(sid)
        if guard is None:
            return (bounds,)
        free = [2 * i for i, v in enumerate(tpl) if v is None]
        fixed = [(2 * i, v) for i, v in enumerate(tpl) if v is not None]
        cover = cover_of_boxes([
            tuple(box[k + h] for k in free for h in (0, 1))
            for box in guard
            if all(box[k] <= v <= box[k + 1] for k, v in fixed)
        ])
        out = []
        for box in cover:
            clamped = []
            for l in range(d):
                a = max(box[2 * l], bounds[2 * l])
                b = min(box[2 * l + 1], bounds[2 * l + 1])
                if a > b:
                    break
                clamped += [a, b]
            else:
                out.append(tuple(clamped))
        return tuple(out)


# ---------------------------------------------------------------------------
# the guard plan
# ---------------------------------------------------------------------------

def plan_guards(nest_plans, cps, ctx, params: Mapping[str, int],
                iteration_sets, grid, nests=()) -> tuple:
    """The guard plan of an analysis, ``(group, sets, entries)``.

    *sets* are the symbolic iteration sets behind the guards — params
    bound, ``PDIM``s free, so one set serves every rank — each the one
    communication analysis derived for a statement (*iteration_sets*).
    *group* maps every statement of *nest_plans* to the index of its set
    (None: unguarded).  Statements under the same innermost loop whose CPs
    induce the same data partition (cp_key, §5) admit identical iteration
    sets and share one.  Per set, *entries* holds a tuple of
    :class:`~repro.isets.box.Box` (one per disjunct, equal disjuncts one
    object) when its only free names are ``PDIM``s and every dim of every
    disjunct is bounded on both sides, so a rank's boxes are its integer
    bounds evaluated; else the set itself (cyclic, multipartition,
    existentials, coupled dims), which each rank binds and covers
    (:func:`guard_cover`).  *nests* are the analysis's ``NestInfo``s, used
    where they belong to the nest."""
    pdims = {PDIM(g) for g in range(len(grid.shape))}
    group: dict[int, int | None] = {}
    sets: list = []
    entries: list = []
    shared: dict[tuple, int] = {}
    boxes: dict = {}
    for (root, _plan), nest in zip_longest(nest_plans, nests):
        nest = nest_for(root, nest, params)
        for stmt in walk_stmts([root]):
            if not isinstance(stmt, Assign):
                continue
            group[stmt.sid] = None
            scp = cps.get(stmt.sid)
            if scp is None or scp.cp.is_replicated:
                continue
            key = None
            loops = nest.loops_of(stmt)
            if loops:
                tkeys = [cp_key(t, ctx) for t in scp.cp.terms]
                if all(k is not None for k in tkeys):
                    key = (loops[-1].sid, frozenset(tkeys))
            if key is not None and key in shared:
                group[stmt.sid] = shared[key]
                continue
            iters = iteration_sets.get(stmt.sid)
            if iters is None:  # no loop bounds: analysis derived none
                continue
            group[stmt.sid] = len(sets)
            if key is not None:
                shared[key] = len(sets)
            if not iters.params().isdisjoint(params):
                iters = iters.bind(params)
            sets.append(iters)
            entries.append(_plan_entry(iters, pdims, boxes))
    return group, sets, entries


def _plan_entry(iters: ISet, pdims: set, boxes: dict):
    """*iters* read as a tuple of boxes in the ``PDIM``s (shared through
    *boxes*, part -> Box), or *iters* itself when that reading fails."""
    if not iters.params() <= pdims:
        return iters
    entry = []
    for part in iters.parts:
        box = boxes.get(part)
        if box is None:
            box = boxes[part] = Box.of(part)
        if box is None or not _bounded(box):
            return iters
        entry.append(box)
    return tuple(entry)


def _bounded(box: Box) -> bool:
    """Every dim of *box* has a lower and an upper bound."""
    return all(
        any(is_eq or a > 0 for a, _r, _t, is_eq in cons)
        and any(is_eq or a < 0 for a, _r, _t, is_eq in cons)
        for cons in box.bounds
    )


def guard_cover(entry, binding: Mapping[str, int]) -> tuple:
    """The canonical cover of one guard-plan entry on the rank *binding*
    names: a set entry bound and read by ``cover_of_set`` (its witnesses'
    boxes, else its points), a box entry's bounds evaluated and covered."""
    if isinstance(entry, ISet):
        return cover_of_set(entry.bind(binding))
    flat = []
    for box in entry:
        ext = box.extents(binding)
        if ext is not None:
            flat.append(tuple(v for lo_hi in ext for v in lo_hi))
    return cover_of_boxes(flat)
