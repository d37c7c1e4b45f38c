"""Bound guards: what a rank's share of each statement's iterations is at
run time, and the block queries the vector backend makes of it.

A bound guard is a :class:`BoxSet` — a set of index tuples held as its
canonical disjoint box cover.  :func:`_box_cover` defines that cover from
points; :func:`_cover_of_boxes` computes the same cover from a union of
boxes without enumerating anything, which is how a BLOCK guard is read off
its iteration set.  :class:`Guards` is one rank's ``sid -> BoxSet`` map and
answers ``G.boxes`` / ``K.guard``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Set

from ..isets import ISet


def _box_cover(coords) -> tuple:
    """Exact cover of a set of integer coordinate tuples by axis-aligned
    boxes ``(a0, b0, a1, b1, ...)`` — per-level inclusive ``(lo, hi)``
    pairs, first coordinate first.

    Built recursively: group by the first coordinate, cover the remaining
    coordinates of each group, then merge maximal blocks of consecutive
    first-coordinate values with identical sub-covers — for block-
    distributed guards the cover is a single box.  Boxes come out in
    (first-block, sub-cover) order, which keeps every fixed-prefix row's
    runs in increasing order; vectorized statements with an innermost-
    carried anti dependence rely on this (see ``vectorize.plan_nest``)."""
    if not coords:
        return ()
    if len(coords[0]) == 1:
        vals = sorted({c[0] for c in coords})
        runs = []
        start = prev = vals[0]
        for v in vals[1:]:
            if v == prev + 1:
                prev = v
            else:
                runs.append((start, prev))
                start = prev = v
        runs.append((start, prev))
        return tuple(runs)
    groups: dict[int, list] = {}
    for c in coords:
        groups.setdefault(c[0], []).append(c[1:])
    subs = {v: _box_cover(rest) for v, rest in groups.items()}
    out: list = []
    a0 = a1 = None
    cur = None
    for v in sorted(subs):
        if cur == subs[v] and v == a1 + 1:
            a1 = v
        else:
            if cur is not None:
                out.extend((a0, a1) + sub for sub in cur)
            a0 = a1 = v
            cur = subs[v]
    out.extend((a0, a1) + sub for sub in cur)
    return tuple(out)


def _cover_of_boxes(boxes) -> tuple:
    """:func:`_box_cover` of the points of a union of non-empty, possibly
    overlapping boxes (the same flat ``(a0, b0, a1, b1, ...)`` layout),
    computed from the boxes alone.

    Along the first coordinate the slice of the union can only change at a
    box's ``a0`` or just past its ``b0``; between two such breakpoints the
    slice is the union of the tails of the boxes spanning them, covered
    recursively.  A cover is a function of the point set it covers, so
    equal slices have equal sub-covers and merging adjacent equal ones
    yields ``_box_cover``'s boxes in ``_box_cover``'s order."""
    if len(boxes) <= 1:
        return tuple(boxes)
    if len(boxes[0]) == 2:
        runs: list = []
        for a, b in sorted(boxes):
            if runs and a <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], b)
            else:
                runs.append([a, b])
        return tuple((a, b) for a, b in runs)
    cuts = sorted({box[0] for box in boxes} | {box[1] + 1 for box in boxes})
    out: list = []
    a0 = a1 = None
    cur: tuple = ()
    for lo, nxt in zip(cuts, cuts[1:]):
        sub = _cover_of_boxes([box[2:] for box in boxes if box[0] <= lo <= box[1]])
        if sub and sub == cur and lo == a1 + 1:
            a1 = nxt - 1
        else:
            out.extend((a0, a1) + rest for rest in cur)
            a0, a1, cur = lo, nxt - 1, sub
    out.extend((a0, a1) + rest for rest in cur)
    return tuple(out)


class BoxSet(Set):
    """A finite set of integer points held as its canonical disjoint box
    cover (:func:`_box_cover` of its points): what a statement's bound
    guard is.  Built from enumerated points, ``BoxSet(_box_cover(points))``,
    or straight from a union of boxes, ``BoxSet(_cover_of_boxes(boxes))`` —
    equal point sets give equal covers either way; :meth:`of` picks by what
    the set is.  It is a read-only ``Set`` of index tuples: membership,
    ``len`` (the exact point count), iteration, ``==`` and ``&`` against
    plain sets all answer as the ``frozenset`` of its points would."""

    __slots__ = ("boxes", "_len", "_points")

    def __init__(self, cover: tuple):
        #: disjoint boxes ``(a0, b0, a1, b1, ...)``, canonical order
        self.boxes = cover
        self._len = sum(
            math.prod(b - a + 1 for a, b in zip(box[::2], box[1::2]))
            for box in cover
        )
        self._points: frozenset | None = None

    @classmethod
    def of(cls, iters: ISet) -> BoxSet:
        """The points of a concrete iteration set: read off its disjuncts
        when each is a box, enumerated when one is not (cyclic,
        multipartition or otherwise exists-quantified ownership)."""
        parts = iters.box_parts()
        if parts is None:
            return cls(_box_cover(list(iters.points())))
        return cls(_cover_of_boxes(
            [tuple(v for extent in part for v in extent) for part in parts]
        ))

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)  # results of & | - ^ are plain point sets

    def points(self) -> frozenset:
        """The points themselves, enumerated at the first ask and kept.
        Only point-at-a-time code asks (scalar loops, which visit every
        point of the nest anyway): a hash probe per ask, where testing the
        boxes in Python would make each ask three times as dear."""
        points = self._points
        if points is None:
            points = self._points = frozenset(self)
        return points

    def __contains__(self, point) -> bool:
        return point in self.points()

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for box in self.boxes:
            yield from itertools.product(
                *(range(a, b + 1) for a, b in zip(box[::2], box[1::2]))
            )

    def __repr__(self) -> str:
        return f"BoxSet({self.boxes!r})"


class Guards(dict):
    """Per-rank statement guards: ``sid -> BoxSet | None`` (None means
    unguarded; a plain set of points put in by hand is accepted and turned
    into a :class:`BoxSet` by the first block query).  Beyond the scalar
    backend's point-membership test, this serves the vector backend's
    *block* queries: exact covers of the admissible indices at one or more
    vectorized loop positions by contiguous runs/boxes, for fixed outer
    indices."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._answers: dict = {}
        #: sid -> :meth:`point_table`, for the statements asked about
        self.tables: dict = {}

    def point_table(self, sid: int) -> frozenset | None:
        """Statement *sid*'s guard as a hash table of points (None:
        unguarded), for ``K.guard``: scalar loops ask once per point of the
        nest, and a probe of this is the whole test.  Enumerated at the
        first ask — by loops that visit every point anyway."""
        points = self.get(sid)
        if isinstance(points, BoxSet):
            points = points.points()
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
        pts = self.get(sid)
        if pts is None:
            return (bounds,)
        if not isinstance(pts, BoxSet):
            pts = self[sid] = BoxSet(_box_cover(list(pts)))
        free = [2 * i for i, v in enumerate(tpl) if v is None]
        fixed = [(2 * i, v) for i, v in enumerate(tpl) if v is not None]
        cover = _cover_of_boxes([
            tuple(box[k + h] for k in free for h in (0, 1))
            for box in pts.boxes
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
