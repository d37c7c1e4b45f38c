"""Bound guards: what a rank's share of each statement's iterations is at
run time, and the block queries the vector backend makes of it.

A bound guard is a :class:`BoxSet` — a set of index tuples held as its
canonical disjoint box cover (:mod:`repro.isets.box`: ``cover_of_points``
defines that cover, ``cover_of_boxes`` computes it from a union of boxes
without enumerating anything, and ``cover_of_set`` reads a bound iteration
set through whichever of the two the set allows).  :class:`Guards` is one
rank's ``sid -> BoxSet`` map and answers ``G.boxes`` / ``K.guard``.
"""

from __future__ import annotations

from collections.abc import Set

from ..isets.box import cover_of_boxes, cover_of_points, cover_points, volume


class BoxSet(Set):
    """A finite set of integer points held as its canonical disjoint box
    cover (``cover_of_points`` of its points): what a statement's bound
    guard is.  Built from enumerated points, ``BoxSet(cover_of_points(points))``,
    or straight from a union of boxes, ``BoxSet(cover_of_boxes(boxes))`` —
    equal point sets give equal covers either way.  It is a read-only
    ``Set`` of index tuples: membership, ``len`` (the exact point count),
    iteration, ``==`` and ``&`` against plain sets all answer as the
    ``frozenset`` of its points would."""

    __slots__ = ("boxes", "_len", "_points")

    def __init__(self, cover: tuple):
        #: disjoint boxes ``(a0, b0, a1, b1, ...)``, canonical order
        self.boxes = cover
        self._len = volume(cover)
        self._points: frozenset | None = None

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
        return cover_points(self.boxes)

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
            pts = self[sid] = BoxSet(cover_of_points(list(pts)))
        free = [2 * i for i, v in enumerate(tpl) if v is None]
        fixed = [(2 * i, v) for i, v in enumerate(tpl) if v is not None]
        cover = cover_of_boxes([
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
