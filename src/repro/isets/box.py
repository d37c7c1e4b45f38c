"""Boxes: the one reading of a conjunct as per-dimension bounds.

Every consumer that treats a set as a box reads it through this module:

- **The bound reader.**  A constraint ``a*v + r >= 0`` (``== 0``) that
  names one variable bounds it; :meth:`Interval.add` is the single place
  that rule lives — integer bounds ``ceil(-r/a)`` / ``floor(-r/a)``,
  rational bounds ``-r/a``, and the *gap* of an equality whose ``a`` does
  not divide ``r``.  :func:`read_bounds` runs it over a system whose
  constraints each name one variable, and stops at one that couples two.
  Emptiness (``BasicSet._interval_empty``), box enumeration
  (``core._product_ranges``) and ``BasicSet.bounds_of`` read through it.
- **:class:`Box`** — one exists-free conjunct whose constraints each name
  at most one dim, its bounds affine in the parameters: read once with
  :meth:`Box.of`, evaluated per binding with :meth:`Box.extents`.
  ``ISet.box_parts``, coalescing's subsumption test and CP selection's
  cost model read sets as boxes this way.
- **The canonical disjoint cover** of a finite point set, from its points
  (:func:`cover_of_points`), from a union of boxes (:func:`cover_of_boxes`)
  or from a concrete set (:func:`cover_of_set`: its boxes, else the boxes
  of its existential witnesses, else its points under the active budget);
  its :func:`volume`, points (:func:`cover_points`), intersection
  (:func:`intersect_covers`), difference (:func:`subtract_covers`) and
  image through affine subscripts (:func:`image_of_cover`).  A
  concrete box is a flat tuple ``(a0, b0, a1, b1, ...)`` of inclusive
  per-dim bounds, first dim first — the layout node programs unpack from
  ``G.boxes``.  Every concrete count (``ISet.cardinality``) is the volume
  of a set's cover and every owner split (``CommEvent.flows``) an
  intersection of covers; the run-time guard views (``codegen.guards``)
  and the message routes hold covers, and the static verifier's per-rank
  checks are differences of them and of their images.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Mapping


class Interval:
    """What single-variable constraints say about one variable: integer
    bounds ``lo`` / ``hi`` (None: open), rational bounds ``rat_lo`` /
    ``rat_hi``, and ``gap`` — an equality no integer satisfies."""

    __slots__ = ("lo", "hi", "rat_lo", "rat_hi", "gap")

    def __init__(self) -> None:
        self.lo = self.hi = self.rat_lo = self.rat_hi = None
        self.gap = False

    def add(self, a: int, r: int, is_eq: bool) -> None:
        """Tighten by ``a*v + r >= 0`` (``== 0`` when *is_eq*), ``a != 0``."""
        root = -r * a if a in (1, -1) else Fraction(-r, a)  # -r/a
        if is_eq or a > 0:
            if self.rat_lo is None or root > self.rat_lo:
                self.rat_lo = root
        if is_eq or a < 0:
            if self.rat_hi is None or root < self.rat_hi:
                self.rat_hi = root
        if is_eq:
            if r % a:
                self.gap = True
                return
            lo = hi = -r // a
        elif a > 0:  # v >= ceil(-r/a)
            lo, hi = -(r // a), None
        else:  # v <= floor(r/-a)
            lo, hi = None, r // -a
        if lo is not None and (self.lo is None or lo > self.lo):
            self.lo = lo
        if hi is not None and (self.hi is None or hi < self.hi):
            self.hi = hi

    def empty(self) -> bool:
        """No integer satisfies the constraints."""
        return self.gap or (
            self.lo is not None and self.hi is not None and self.hi < self.lo
        )

    def rationally_empty(self) -> bool:
        """No rational satisfies the constraints."""
        return (
            self.rat_lo is not None
            and self.rat_hi is not None
            and self.rat_lo > self.rat_hi
        )


def read_bounds(constraints) -> "dict[str, Interval] | bool | None":
    """Per-variable :class:`Interval` of a system whose constraints each
    name at most one variable, read in order: False as soon as a constant
    constraint is false, None as soon as one couples two variables."""
    out: dict[str, Interval] = {}
    for c in constraints:
        coeffs = c.expr.coeffs
        if len(coeffs) > 1:
            return None
        if not coeffs:
            if c.is_trivially_false():
                return False
            continue
        ((v, a),) = coeffs.items()
        iv = out.get(v)
        if iv is None:
            iv = out[v] = Interval()
        iv.add(a, c.expr.constant, c.is_eq)
    return out


class Box:
    """One exists-free conjunct read as a box.  Each constraint is kept as
    ``(a, r, terms, is_eq)`` — ``a*dim + r + sum(c*p for p, c in terms)``
    ``>= 0`` (``== 0``), affine in the parameters ``p``: ``bounds[k]`` holds
    those on dim ``k``, ``guards`` those on parameters alone (``a`` None),
    ``params`` names every parameter."""

    __slots__ = ("bounds", "guards", "params")

    def __init__(self, bounds: list, guards: list, params: frozenset):
        self.bounds = bounds
        self.guards = guards
        self.params = params

    @staticmethod
    def of(bs) -> "Box | None":
        """*bs* as a box, or None when it has existentials or a constraint
        couples two dims."""
        if bs.exists:
            return None
        index = {d: k for k, d in enumerate(bs.dims)}
        bounds: list[list] = [[] for _ in bs.dims]
        guards = []
        params: set[str] = set()
        for c in bs.constraints:
            dim = a = None
            terms = []
            for v, coef in c.expr.coeffs.items():
                if v not in index:
                    terms.append((v, coef))
                    params.add(v)
                elif dim is None:
                    dim, a = v, coef
                else:
                    return None  # couples two dims
            entry = (a, c.expr.constant, terms, c.is_eq)
            (guards if dim is None else bounds[index[dim]]).append(entry)
        return Box(bounds, guards, frozenset(params))

    def extents(
        self, binding: Mapping[str, int]
    ) -> "list[tuple[int | None, int | None]] | None":
        """Inclusive per-dim ``(lo, hi)`` under *binding*, None for an open
        side; None when the box is empty.  KeyError on an unbound
        parameter."""
        for _, r, terms, is_eq in self.guards:
            for v, coef in terms:
                r += coef * binding[v]
            if r < 0 or (is_eq and r != 0):
                return None
        out = []
        for cons in self.bounds:
            iv = Interval()
            for a, r, terms, is_eq in cons:
                for v, coef in terms:
                    r += coef * binding[v]
                iv.add(a, r, is_eq)
                if iv.gap:
                    return None
            if iv.empty():
                return None
            out.append((iv.lo, iv.hi))
        return out

    def count_outside(self, other: "Box", binding: Mapping[str, int]) -> int | None:
        """``|self| - |self ∩ other|`` under *binding*; None when it cannot
        be counted in closed form (a parameter left unbound, an open side
        of this box)."""
        try:
            d = self.extents(binding)
            if d is None:
                return 0
            o = other.extents(binding)
        except KeyError:
            return None
        size = 1
        for lo, hi in d:
            if lo is None or hi is None:
                return None
            size *= hi - lo + 1
        if o is None:
            return size
        inter = 1
        for (dlo, dhi), (olo, ohi) in zip(d, o):
            lo = dlo if olo is None else max(dlo, olo)
            hi = dhi if ohi is None else min(dhi, ohi)
            if hi < lo:
                return size
            inter *= hi - lo + 1
        return size - inter


def concrete_extents(bs, binding: Mapping[str, int]):
    """*bs* under *binding* as a concrete box: its closed per-dim ``(lo,
    hi)`` list, None when it is empty, False when it is not a concrete box
    (no dims, existentials, coupled dims, an unbound parameter, an open
    side)."""
    box = Box.of(bs) if bs.dims else None
    if box is None or not box.params.issubset(binding):
        return False
    ext = box.extents(binding)
    if ext is not None and any(lo is None or hi is None for lo, hi in ext):
        return False
    return ext


def volume(cover) -> int:
    """Number of points in a disjoint cover of flat boxes."""
    return sum(
        math.prod(b - a + 1 for a, b in zip(box[::2], box[1::2])) for box in cover
    )


def cover_points(cover):
    """The points of a cover, box by box, each box in row-major order."""
    for box in cover:
        yield from itertools.product(
            *(range(a, b + 1) for a, b in zip(box[::2], box[1::2]))
        )


def cover_of_set(iset) -> tuple:
    """The canonical cover of a concrete set: read off its disjuncts when
    each is a box (:meth:`ISet.box_parts`); else from the boxes of each
    disjunct's existential witnesses (cyclic, multipartition); from its
    enumerated points when that fails for a disjunct — charged against
    the active ``IsetBudget``, one op per 128 points, so a pathological
    set trips ``W-BUDGET`` instead of enumerating unmetered."""
    parts = iset.box_parts()
    if parts is not None:
        return cover_of_boxes([tuple(v for ext in p for v in ext) for p in parts])
    boxes: list = []
    for part in iset.parts:
        got = _witness_boxes(part)
        if got is None:
            return cover_of_points(_metered_points(iset))
        boxes += got
    return cover_of_boxes(boxes)


def _metered_points(iset) -> list:
    """The points of *iset*, one budget op per 128 of them."""
    from .core import active_budget  # core reads its bounds through here

    budget = active_budget()
    points = []
    for n, pt in enumerate(iset.enumerate_points(), 1):
        if budget is not None and n % 128 == 0:
            budget.charge_op()
        points.append(pt)
    return points


def _witness_boxes(bs) -> "list | None":
    """The flat boxes of a concrete conjunct, one per assignment of its
    existential variables over their ranges (an assignment leaves a box
    or nothing).  A variable's range is the one its own constraints state
    when they bound it on both sides (a looser range only adds
    assignments that leave nothing), its projected range otherwise.
    None when a variable is unbounded, an assignment leaves coupled dims,
    or there are more assignments than points in the dims' hull
    (enumerating the points is cheaper)."""
    names = sorted(bs.exists)
    whole = type(bs)((*names, *bs.dims), bs.constraints)  # witnesses as dims
    stated = read_bounds(c for c in bs.constraints if len(c.expr.coeffs) == 1)
    ranges = []
    for v in whole.dims:
        iv = stated.get(v)
        if iv is not None and iv.lo is not None and iv.hi is not None:
            rng = (iv.lo, iv.hi)
        else:
            rng = whole.bounds_of(v, {})
        if rng is None:
            return None
        ranges.append(range(rng[0], rng[1] + 1))
    hull = math.prod(map(len, ranges[len(names):]))
    if hull == 0:
        return []
    if math.prod(map(len, ranges[:len(names)])) > hull:
        return None
    out = []
    for values in itertools.product(*ranges[:len(names)]):
        ext = concrete_extents(bs.substitute(dict(zip(names, values))), {})
        if ext is False:
            return None
        if ext is not None:
            out.append(tuple(v for lo_hi in ext for v in lo_hi))
    return out


def _near(b):
    """A finder over boxes *b*: for a box ``x``, the boxes of *b* whose
    first-dim range can meet ``x``'s — found by bisection on the sorted
    first lower bounds, widened by the longest first-dim span in *b*."""
    b = sorted(b)
    los = [y[0] for y in b]
    span = max((y[1] - y[0] for y in b), default=0)
    return lambda x: b[bisect_left(los, x[0] - span):bisect_right(los, x[1])]


def intersect_covers(a, b) -> tuple:
    """The canonical cover of the points covers *a* and *b* share (*b*
    may be any flat boxes, overlapping or not)."""
    near = _near(b)
    boxes = []
    for x in a:
        for y in near(x):
            box: tuple = ()
            for lo, hi, lo2, hi2 in zip(x[::2], x[1::2], y[::2], y[1::2]):
                lo, hi = max(lo, lo2), min(hi, hi2)
                if hi < lo:
                    break
                box += (lo, hi)
            else:
                boxes.append(box)
    return cover_of_boxes(boxes)


def subtract_covers(a, b) -> tuple:
    """The canonical cover of the points of cover *a* outside every box
    of *b* (any flat boxes, overlapping or not).  Each box of *a* is cut
    by each box of *b* it meets into the disjoint pieces of it left
    outside — per dim, the slab below and the slab above the cutter, the
    rest narrowed to it for the dims after."""
    near = _near(b)
    left = []
    for x in a:
        pieces = [x]
        for y in near(x):
            pieces = [p for piece in pieces for p in _cut(piece, y)]
        left += pieces
    return cover_of_boxes(left)


def _cut(x, y) -> list:
    """The disjoint pieces of box *x* outside box *y*."""
    if any(
        hi < lo2 or hi2 < lo
        for lo, hi, lo2, hi2 in zip(x[::2], x[1::2], y[::2], y[1::2])
    ):
        return [x]
    out = []
    rest = list(x)
    for k in range(0, len(x), 2):
        lo, hi, lo2, hi2 = rest[k], rest[k + 1], y[k], y[k + 1]
        if lo < lo2:
            out.append(tuple(rest[:k] + [lo, lo2 - 1] + rest[k + 2:]))
        if hi2 < hi:
            out.append(tuple(rest[:k] + [hi2 + 1, hi] + rest[k + 2:]))
        rest[k], rest[k + 1] = max(lo, lo2), min(hi, hi2)
    return out


def cover_of_points(coords) -> tuple:
    """Exact cover of a set of integer coordinate tuples by disjoint flat
    boxes ``(a0, b0, a1, b1, ...)``.

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
    subs = {v: cover_of_points(rest) for v, rest in groups.items()}
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


def cover_of_boxes(boxes) -> tuple:
    """:func:`cover_of_points` of the points of a union of non-empty,
    possibly overlapping flat boxes, computed from the boxes alone.

    Along the first coordinate the slice of the union can only change at a
    box's ``a0`` or just past its ``b0``; between two such breakpoints the
    slice is the union of the tails of the boxes spanning them, covered
    recursively.  A cover is a function of the point set it covers, so
    equal slices have equal sub-covers and merging adjacent equal ones
    yields ``cover_of_points``'s boxes in its order."""
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
        sub = cover_of_boxes([box[2:] for box in boxes if box[0] <= lo <= box[1]])
        if sub and sub == cur and lo == a1 + 1:
            a1 = nxt - 1
        else:
            out.extend((a0, a1) + rest for rest in cur)
            a0, a1, cur = lo, nxt - 1, sub
    out.extend((a0, a1) + rest for rest in cur)
    return tuple(out)


def image_of_cover(cover, dims, exprs) -> tuple:
    """The canonical cover of the image of *cover*'s points, over *dims*,
    through affine *exprs* in them (``LinExpr``), one output dim each.  Box
    by box, a dim that is the only variable of one expression and named by
    no other, with coefficient ±1, maps as an interval; every other dim an
    expression names is split by value."""
    terms = [[(dims.index(v), a) for v, a in e.coeffs.items()] for e in exprs]
    named = [k for t in terms for k, _a in t]
    ranged = {t[0][0] for t in terms
              if len(t) == 1 and t[0][1] in (1, -1) and named.count(t[0][0]) == 1}
    split = sorted(set(named) - ranged)
    boxes = []
    for x in cover:
        for values in itertools.product(*(range(x[2 * k], x[2 * k + 1] + 1)
                                          for k in split)):
            fixed, out = dict(zip(split, values)), ()
            for t, e in zip(terms, exprs):
                if len(t) == 1 and t[0][0] not in fixed:  # its one ranged dim
                    (k, a), = t
                    lo, hi = sorted((a * x[2 * k], a * x[2 * k + 1]))
                    out += (e.constant + lo, e.constant + hi)
                else:
                    out += (e.constant + sum(a * fixed[k] for k, a in t),) * 2
            boxes.append(out)
    return cover_of_boxes(boxes)
