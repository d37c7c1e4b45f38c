"""Property tests for the iset engine's fast paths and memo tables.

Three families, each pinned against an exhaustive or first-principles
oracle on seeded random inputs:

- **emptiness interval fast path** — ``_interval_empty`` may only ever
  agree with (or abstain from) the Fourier–Motzkin verdict;
- **box-product enumeration fast path** — ``_product_ranges`` must
  reproduce ``_scan``'s points, their order, and its unbounded-dimension
  errors exactly;
- **disjunct normalization / subsumption** — coalescing never changes an
  ISet's point set, and a memoized subsumption verdict implies real
  containment.

Plus direct tests for the memo tables' per-compile lifetime and the
budget-metered cardinality fallback.
"""

import itertools
import random

import pytest

from repro.isets import (
    BasicSet,
    BudgetExceeded,
    Constraint,
    ISet,
    IsetBudget,
    LinExpr,
    iset_budget,
    new_epoch,
)
from repro.isets.core import _CONSTRAINT_INTERN, _EMPTY_CACHE, _product_ranges, _scan
from repro.isets.iset import _SUBSUME_CACHE, _subsumed_by
from repro.isets.terms import E

DIMS = ("i", "j")


def _random_basic_set(rng, dims=DIMS, lo=-4, hi=6, extra=3, exists_frac=0.25):
    names = list(dims)
    exists = ()
    if rng.random() < exists_frac:
        exists = ("e0",)
        names = names + ["e0"]
    cons = []
    for d in dims:
        cons.append(Constraint.ge(E(d), lo))
        cons.append(Constraint.le(E(d), hi))
    for _ in range(rng.randrange(extra + 1)):
        coeffs = {n: rng.randint(-3, 3) for n in names}
        e = LinExpr(coeffs, rng.randint(-6, 6))
        cons.append(Constraint(e, rng.random() < 0.4 and not e.is_constant()))
    return BasicSet(dims, cons, exists=exists)


def test_interval_fast_path_agrees_with_fm():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(2000):
        bs = _random_basic_set(rng)
        quick = bs._interval_empty()
        if quick is None:
            continue
        checked += 1
        assert quick == bs._is_empty_uncached(), bs.pretty()
    assert checked > 100  # the fast path must actually fire


def test_product_ranges_matches_scan_points_and_order():
    rng = random.Random(1234)
    boxes = gaps = 0
    for _ in range(2000):
        bs = _random_basic_set(rng)
        ranges = _product_ranges(bs, bs.dims)
        if ranges is None:
            continue
        if ranges == "empty":
            gaps += 1
            assert list(_scan(bs, bs.dims, {})) == [], bs.pretty()
            continue
        boxes += 1
        fast = list(itertools.product(*ranges))
        slow = list(_scan(bs, bs.dims, {}))
        assert fast == slow, bs.pretty()  # same points, same order
    assert boxes > 200 and gaps > 10


def test_product_ranges_unbounded_error_parity():
    # an unbounded dim must raise ValueError through both paths, and the
    # earlier-dim-empty gate must silence it identically
    unbounded = BasicSet(("i", "j"), [Constraint.ge(E("i"), 0),
                                      Constraint.le(E("i"), 3)])
    with pytest.raises(ValueError):
        _product_ranges(unbounded, unbounded.dims)
    with pytest.raises(ValueError):
        list(unbounded.enumerate_points())
    # i's range is empty -> enumeration is silently empty despite j being
    # unbounded (dims-order gating)
    gated = BasicSet(("i", "j"), [Constraint.ge(E("i"), 5),
                                  Constraint.le(E("i"), 3)])
    assert list(gated.enumerate_points()) == []


def test_coalesce_preserves_points():
    rng = random.Random(99)
    for _ in range(300):
        parts_a = [_random_basic_set(rng, extra=2)
                   for _ in range(rng.randrange(1, 4))]
        parts_b = [_random_basic_set(rng, extra=2)
                   for _ in range(rng.randrange(1, 4))]
        a = ISet(DIMS, parts_a)
        b = ISet(DIMS, parts_b)
        u = a.union(b)
        assert u.points({}) == a.points({}) | b.points({})
        d = a.subtract(b)
        exact = a.points({}) - b.points({})
        # subtract over-approximates (keeps points) when a subtrahend
        # disjunct has non-eliminable existentials — see ISet.subtract
        assert d.points({}) >= exact
        if not any(p.exists for p in b.parts):
            assert d.points({}) == exact


def test_subsumption_memo_implies_containment():
    rng = random.Random(7)
    positives = 0
    for _ in range(500):
        p = _random_basic_set(rng, extra=2)
        q = _random_basic_set(rng, extra=2)
        if _subsumed_by(p, q):
            positives += 1
            pp = ISet(p.dims, [p]).points({})
            qq = ISet(q.dims, [q]).points({})
            assert pp <= qq, (p.pretty(), q.pretty())
    assert positives > 5


def test_new_epoch_empties_the_memo_tables():
    p = BasicSet(DIMS, [Constraint.ge(E("i"), 41), Constraint.le(E("i"), 40)])
    q = BasicSet(DIMS, [Constraint.ge(E("j"), 0)])
    assert p.is_empty() and _subsumed_by(p, q)
    assert _CONSTRAINT_INTERN and _EMPTY_CACHE and _SUBSUME_CACHE
    new_epoch()
    assert not _CONSTRAINT_INTERN and not _EMPTY_CACHE and not _SUBSUME_CACHE


def _triangle(n):
    # {(i, j) : 0 <= i <= j <= n} — non-box, so cardinality() must fall
    # back to enumeration
    return ISet(("i", "j"), [BasicSet(("i", "j"), [
        Constraint.ge(E("i"), 0),
        Constraint.ge(E("j") - E("i"), 0),
        Constraint.le(E("j"), n),
    ])])


def test_metered_cardinality_counts_exactly():
    t = _triangle(20)
    assert t.cardinality({}) == 21 * 22 // 2
    with iset_budget(IsetBudget()):
        assert t.cardinality({}) == 21 * 22 // 2


def test_metered_cardinality_respects_budget():
    t = _triangle(400)  # 80601 points >> 128 * max_ops
    tiny = IsetBudget(max_ops=10)
    with iset_budget(tiny):
        with pytest.raises(BudgetExceeded):
            t.cardinality({})
