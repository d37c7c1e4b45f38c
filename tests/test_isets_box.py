"""Seeded property tests for :mod:`repro.isets.box`, the one box reading.

The general engine is the oracle throughout:

- **the bound rule** — :meth:`Interval.add` against brute force over a
  window of integers, and against the exact rational root;
- **the rational verdict** — ``BasicSet._interval_empty`` (which reads
  through :func:`read_bounds`) against Fourier–Motzkin,
  ``_is_empty_uncached``;
- **Box** — ``Box.of`` is None exactly when a conjunct has an existential
  or couples two dims; otherwise ``extents`` under a binding are the
  extents of ``_scan``'s points (which are the whole box), and the
  difference count is the brute-force count;
- **covers** — the cover read from boxes or from existential witnesses
  is the cover of the enumerated points, and ``ISet.cardinality`` equals
  ``count`` on witness-read sets and on unions of up to 14 boxes, the
  latter without enumerating and within a tiny budget;
- **images** — a cover's image through affine subscripts, box by box, is
  the cover of ``AffineMap.image`` of its set.
"""

import itertools
import random
from fractions import Fraction

from repro.isets import (
    BasicSet,
    Constraint,
    ISet,
    IsetBudget,
    LinExpr,
    cache_stats,
    iset_budget,
)
from repro.isets.box import (
    Box,
    Interval,
    concrete_extents,
    cover_of_boxes,
    cover_of_points,
    cover_of_set,
    cover_points,
    image_of_cover,
    intersect_covers,
    read_bounds,
    subtract_covers,
    volume,
)
from repro.isets.core import _scan
from repro.isets.relation import AffineMap
from repro.isets.terms import E

DIMS = ("i", "j")
PARAMS = ("n", "m")


def _affine(rng, names, lo=-3, hi=3):
    return LinExpr({v: rng.randint(lo, hi) for v in names}, rng.randint(-6, 6))


def _random_conjunct(rng):
    """A conjunct over DIMS: per-dim bounds with non-unit coefficients and
    parameter terms, sometimes an equality (possibly with a divisibility
    gap), a parameter guard, a coupled constraint or an existential."""
    cons = []
    closed = True
    for d in DIMS:
        a = rng.choice((1, 1, 2, 3))
        if rng.random() < 0.15:
            # a*d == rest: 2*i == 1 has no integer solution
            cons.append(Constraint(E(d) * a - _affine(rng, PARAMS, 0, 1), True))
            continue
        cons.append(Constraint(E(d) * a + _affine(rng, PARAMS, -1, 1) + 4, False))
        if rng.random() < 0.1:
            closed = False  # open upper side
        else:
            cons.append(Constraint(E(d) * -a + _affine(rng, PARAMS, 0, 1) + 5, False))
    if rng.random() < 0.2:
        cons.append(Constraint(_affine(rng, PARAMS, -1, 1) + 4, False))
    coupled = rng.random() < 0.15
    if coupled:
        cons.append(Constraint(E("i") - E("j") + rng.randint(-2, 2), False))
    exists = ()
    if rng.random() < 0.15:
        exists = ("e",)
        cons.append(Constraint(E("i") - E("e") * 2, True))
        cons.append(Constraint(E("e") + 8, False))
    return BasicSet(DIMS, cons, exists=exists), closed


def _binding(rng):
    """Both parameters bound, or (sometimes) ``m`` left unbound."""
    b = {"n": rng.randint(-2, 5)}
    if rng.random() < 0.85:
        b["m"] = rng.randint(-2, 5)
    return b


def _bind(bs, binding):
    return bs.substitute({k: LinExpr.const(v) for k, v in binding.items()})


def test_interval_rule_matches_brute_force():
    rng = random.Random(31)
    window = range(-40, 41)
    for _ in range(3000):
        a = rng.choice([v for v in range(-5, 6) if v])
        r = rng.randint(-25, 25)
        is_eq = rng.random() < 0.3
        iv = Interval()
        iv.add(a, r, is_eq)
        sat = [v for v in window if (a * v + r == 0 if is_eq else a * v + r >= 0)]
        root = Fraction(-r, a)
        if is_eq:
            assert iv.rat_lo == iv.rat_hi == root
            assert iv.gap == (not sat)
            assert iv.empty() == (not sat)
            if sat:
                assert (iv.lo, iv.hi) == (sat[0], sat[0])
        elif a > 0:
            assert iv.rat_lo == root and iv.rat_hi is None
            assert iv.lo == sat[0] and iv.hi is None
        else:
            assert iv.rat_hi == root and iv.rat_lo is None
            assert iv.hi == sat[-1] and iv.lo is None


def test_rational_verdict_equals_fourier_motzkin():
    rng = random.Random(2026)
    decided = empties = 0
    for _ in range(1500):
        bs, _ = _random_conjunct(rng)
        if rng.random() < 0.5:
            bs = _bind(bs, _binding(rng))
        verdict = bs._interval_empty()
        bounds = read_bounds(bs.constraints)
        assert (verdict is None) == (bounds is None)
        if verdict is None:
            continue
        decided += 1
        empties += verdict
        assert verdict == bs._is_empty_uncached(), bs.pretty()
    assert decided > 300 and empties > 30


def test_box_of_is_none_exactly_when_not_a_box():
    rng = random.Random(7)
    for _ in range(1500):
        bs, _ = _random_conjunct(rng)
        coupled = any(len(c.vars() & set(DIMS)) > 1 for c in bs.constraints)
        assert (Box.of(bs) is None) == bool(bs.exists or coupled), bs.pretty()


def test_extents_are_the_scan_extents():
    rng = random.Random(20261017)
    boxes = empties = gaps = unbound = 0
    for _ in range(1500):
        bs, closed = _random_conjunct(rng)
        box = Box.of(bs)
        if box is None:
            continue
        binding = _binding(rng)
        if not box.params.issubset(binding):
            unbound += 1
            assert concrete_extents(bs, binding) is False
            continue
        ext = box.extents(binding)
        if not closed:
            if ext is not None:
                assert any(hi is None for _, hi in ext)
                assert concrete_extents(bs, binding) is False
            continue
        if ext is None:
            empties += 1
            gaps += any(c.is_eq for c in bs.constraints)
            assert concrete_extents(bs, binding) is None
        else:
            boxes += 1
            assert concrete_extents(bs, binding) == ext
        sub = _bind(bs, binding)
        points = list(_scan(sub, sub.dims, {}))
        if ext is None:
            assert points == [], bs.pretty()
        else:
            whole = itertools.product(*(range(lo, hi + 1) for lo, hi in ext))
            assert points == list(whole), bs.pretty()
    assert boxes > 100 and empties > 50 and gaps > 5 and unbound > 20


def _concrete_box(rng, ndim, top=6):
    out = []
    for _ in range(ndim):
        lo = rng.randint(0, top)
        out.append((lo, lo + rng.randint(-1, 3)))  # hi < lo: empty
    return out


def _box_set(dims, extents):
    cons = []
    for d, (lo, hi) in zip(dims, extents):
        cons += [Constraint.ge(E(d), lo), Constraint.le(E(d), hi)]
    return BasicSet(dims, cons)


def test_count_outside_matches_brute_force():
    rng = random.Random(5)
    for _ in range(400):
        d, o = _concrete_box(rng, 2), _concrete_box(rng, 2)
        # the owner's bounds are affine in the parameter n
        n = rng.randint(-3, 3)
        data = Box.of(_box_set(DIMS, d))
        shifted = BasicSet(DIMS, [
            c for k, (lo, hi) in enumerate(o) for c in (
                Constraint.ge(E(DIMS[k]) - E("n"), lo),
                Constraint.le(E(DIMS[k]) - E("n"), hi))
        ])
        owner = Box.of(shifted)
        inside = {
            p for p in itertools.product(*(range(lo, hi + 1) for lo, hi in d))
            if all(lo <= v - n <= hi for v, (lo, hi) in zip(p, o))
        }
        total = volume([tuple(v for e in d for v in e)]) if all(
            lo <= hi for lo, hi in d) else 0
        assert data.count_outside(owner, {"n": n}) == total - len(inside)
    # an unbound parameter of the owner: no closed form
    assert data.count_outside(owner, {}) is None


def test_cover_of_boxes_is_the_cover_of_the_points():
    """... and the cover of two covers' common points, of the points of
    one outside the other (the subtrahend as a cover, or as the raw,
    overlapping boxes), a cover's points and a set's cover read through
    ``cover_of_set`` agree with it."""
    rng = random.Random(11)
    previous = (1, ())
    for _ in range(600):
        ndim = rng.randint(1, 3)
        dims = DIMS[:ndim] if ndim < 3 else ("i", "j", "k")
        parts = [_concrete_box(rng, ndim) for _ in range(rng.randint(0, 6))]
        live = [p for p in parts if all(lo <= hi for lo, hi in p)]
        points = sorted({
            pt for p in live
            for pt in itertools.product(*(range(lo, hi + 1) for lo, hi in p))
        })
        flat = [tuple(v for e in p for v in e) for p in live]
        cover = cover_of_boxes(flat)
        assert cover == cover_of_points(points)
        assert volume(cover) == len(points)
        assert sorted(cover_points(cover)) == points
        s = ISet(dims, [_box_set(dims, p) for p in parts])
        assert cover_of_set(s) == cover
        if previous[0] == ndim:
            other = previous[1]
            common = sorted(set(points) & set(cover_points(other)))
            assert intersect_covers(cover, other) == cover_of_points(common)
            assert intersect_covers(other, cover) == cover_of_points(common)
            assert intersect_covers(other, flat) == cover_of_points(common)
            theirs = set(cover_points(other))
            assert subtract_covers(cover, other) == cover_of_points(
                sorted(set(points) - theirs))
            assert subtract_covers(other, flat) == cover_of_points(
                sorted(theirs - set(points)))
        previous = (ndim, cover)


def test_cover_of_set_enumerates_a_set_that_is_not_boxes():
    """An exists-quantified set (the stride-2 points of a range) is no
    union of boxes: its cover comes from its points."""
    i = E("i")
    evens = ISet(("i",), [BasicSet(("i",), [
        Constraint(i - 1, False), Constraint(9 - i, False),
        Constraint(i - E("e") * 2, True),
    ], exists=("e",))])
    assert evens.box_parts() is None
    assert cover_of_set(evens) == ((2, 2), (4, 4), (6, 6), (8, 8))
    # ... and equally from the boxes of its witnesses: random bound sets
    # with an existential, coupled dims or not, against their points
    rng = random.Random(15)
    checked = 0
    for _ in range(3000):
        bs, closed = _random_conjunct(rng)
        binding = _binding(rng)
        if not bs.exists or not closed or len(binding) < len(PARAMS):
            continue
        s = ISet(DIMS, [_bind(bs, binding)])
        assert cover_of_set(s) == cover_of_points(sorted(s.points())), bs.pretty()
        assert s.cardinality() == s.count()
        checked += 1
    assert checked > 200


def test_cardinality_of_many_boxes_counts_without_enumerating():
    rng = random.Random(14)
    stats = cache_stats()
    for size in range(1, 15):
        for _ in range(3):
            ndim = rng.randint(1, 3)
            dims = ("i", "j", "k")[:ndim]
            s = ISet(dims, [_box_set(dims, _concrete_box(rng, ndim, 8))
                            for _ in range(size)])
            expected = s.count()
            before = (stats.enum_fast, stats.enum_scan)
            budget = IsetBudget(max_ops=10)
            with iset_budget(budget):
                assert s.cardinality() == expected
            assert (stats.enum_fast, stats.enum_scan) == before
            assert budget.ops == 0 and budget.tripped is None


#: subscript shapes over dims (i, j, k)
SUBSCRIPTS = {
    "shift": [E("i") + 1, E("j") - 2],
    "reversal": [9 - E("i"), E("j")],
    "constant": [E(3), E("i")],
    "repeated": [E("i"), E("i"), E("j")],
    "coefficient 2": [E("i") * 2 - 1, E("k")],
    "i + j": [E("i") + E("j"), E("k") + 1],
    "dropped": [E("j")],
}


def test_image_of_cover_is_the_cover_of_the_image():
    """The image of a cover through affine subscripts — an interval per
    ranged dim, the other dims split by value — is the cover of the image
    of the cover's set: with the loop dims kept existential (exact with a
    coefficient 2 too), and ``AffineMap.image``'s, which keeps them so
    where projecting them out would not be exact."""
    rng = random.Random(16)
    dims, out = ("i", "j", "k"), ("o0", "o1", "o2")
    for name, exprs in SUBSCRIPTS.items():
        amap = AffineMap(dims, exprs)
        for _ in range(60):
            parts = [_concrete_box(rng, 3, 5) for _ in range(rng.randint(1, 4))]
            cover = cover_of_boxes([
                tuple(v for e in p for v in e) for p in parts
                if all(lo <= hi for lo, hi in p)
            ])
            boxes = [_box_set(dims, list(zip(b[::2], b[1::2]))) for b in cover]
            witnessed = ISet(out[:len(exprs)], [BasicSet(
                out[:len(exprs)],
                list(b.constraints) + [Constraint.eq(E(o), e) for o, e in zip(out, exprs)],
                frozenset(dims),
            ) for b in boxes])
            image = image_of_cover(cover, dims, exprs)
            assert image == cover_of_set(witnessed), name
            assert image == cover_of_set(amap.image(ISet(dims, boxes))), name
