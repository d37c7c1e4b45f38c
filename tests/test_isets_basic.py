"""Unit tests for the integer set framework: terms, constraints, basic sets."""

import pytest

from repro.isets import AffineMap, BasicSet, Constraint, ISet, LinExpr, box, empty, universe
from repro.isets.terms import E


class TestLinExpr:
    def test_construction_and_accessors(self):
        e = LinExpr({"i": 2, "j": -1}, 5)
        assert e.coeff("i") == 2
        assert e.coeff("j") == -1
        assert e.coeff("k") == 0
        assert e.constant == 5
        assert e.vars() == {"i", "j"}

    def test_zero_coefficients_dropped(self):
        e = LinExpr({"i": 0, "j": 3})
        assert e.vars() == {"j"}

    def test_arithmetic(self):
        i, j = E("i"), E("j")
        e = 2 * i + j - 3
        assert e.coeff("i") == 2 and e.coeff("j") == 1 and e.constant == -3
        assert (e - e).is_constant()
        assert (-e).coeff("i") == -2

    def test_substitute(self):
        e = E("i") * 2 + E("j")
        s = e.substitute({"i": E("k") + 1})
        assert s.coeff("k") == 2 and s.coeff("j") == 1 and s.constant == 2

    def test_rename_merges(self):
        e = LinExpr({"i": 1, "j": 2})
        r = e.rename({"j": "i"})
        assert r.coeff("i") == 3

    def test_evaluate(self):
        e = 3 * E("x") - E("y") + 7
        assert e.evaluate({"x": 2, "y": 5}) == 8
        with pytest.raises(KeyError):
            e.evaluate({"x": 2})

    def test_equality_and_hash(self):
        assert E("i") + 1 == LinExpr({"i": 1}, 1)
        assert hash(E("i") + 1) == hash(LinExpr({"i": 1}, 1))
        assert E("i") != E("j")

    def test_non_int_coeff_rejected(self):
        with pytest.raises(TypeError):
            LinExpr({"i": 1.5})  # type: ignore[dict-item]

    def test_str_roundtrippable_forms(self):
        assert str(E("i") - E("j") + 2) in ("i-j+2", "-j+i+2")
        assert str(LinExpr.const(0)) == "0"


class TestConstraint:
    def test_normalization_gcd_inequality(self):
        # 2i + 3 >= 0  ->  i + floor(3/2) >= 0  ->  i + 1 >= 0
        c = Constraint(2 * E("i") + 3, False)
        assert c.expr == E("i") + 1

    def test_normalization_infeasible_equality(self):
        # 2i + 3 == 0 has no integer solution
        c = Constraint(2 * E("i") + 3, True)
        assert c.is_trivially_false()

    def test_eq_canonical_sign(self):
        a = Constraint.eq(E("i") - E("j"))
        b = Constraint.eq(E("j") - E("i"))
        assert a == b

    def test_negation_of_inequality(self):
        c = Constraint.ge(E("i"), 5)  # i >= 5
        (n,) = c.negated()
        assert n.satisfied_by({"i": 4})
        assert not n.satisfied_by({"i": 5})

    def test_negation_of_equality_two_pieces(self):
        c = Constraint.eq(E("i"), 3)
        pieces = c.negated()
        assert len(pieces) == 2
        assert any(p.satisfied_by({"i": 4}) for p in pieces)
        assert any(p.satisfied_by({"i": 2}) for p in pieces)
        assert not any(p.satisfied_by({"i": 3}) for p in pieces)


class TestBasicSet:
    def test_contains_and_enumerate(self):
        bs = BasicSet(["i"], [Constraint.ge(E("i"), 0), Constraint.le(E("i"), 4)])
        assert bs.contains((3,))
        assert not bs.contains((5,))
        assert list(bs.enumerate_points()) == [(0,), (1,), (2,), (3,), (4,)]

    def test_project_out_inner(self):
        # {[i,j] : 0<=i<=3, i<=j<=i+1} project j -> {0<=i<=3}
        bs = BasicSet(
            ["i", "j"],
            [
                Constraint.ge(E("i"), 0),
                Constraint.le(E("i"), 3),
                Constraint.ge(E("j"), E("i")),
                Constraint.le(E("j"), E("i") + 1),
            ],
        )
        p = bs.project_out(["j"])
        assert p.dims == ("i",)
        assert set(p.enumerate_points()) == {(0,), (1,), (2,), (3,)}
        assert p.exact

    def test_emptiness_symbolic(self):
        bs = BasicSet(
            ["i"], [Constraint.ge(E("i"), E("N") + 1), Constraint.le(E("i"), E("N"))]
        )
        assert bs.is_empty()

    def test_nonempty_symbolic_not_proven_empty(self):
        bs = BasicSet(["i"], [Constraint.ge(E("i"), E("N")), Constraint.le(E("i"), E("N") + 2)])
        assert not bs.is_empty()

    def test_exists_membership(self):
        # even numbers: i = 2k
        bs = BasicSet(
            ["i"],
            [Constraint.eq(E("i"), 2 * E("k")), Constraint.ge(E("i"), 0), Constraint.le(E("i"), 6)],
            exists=["k"],
        )
        assert bs.contains((4,))
        assert not bs.contains((3,))
        assert set(bs.enumerate_points()) == {(0,), (2,), (4,), (6,)}

    def test_unbound_parameter_errors(self):
        bs = BasicSet(["i"], [Constraint.le(E("i"), E("N")), Constraint.ge(E("i"), 0)])
        with pytest.raises(KeyError):
            list(bs.enumerate_points())

    def test_bounds_of(self):
        bs = BasicSet(
            ["i", "j"],
            [
                Constraint.ge(E("i"), 1),
                Constraint.le(E("i"), 8),
                Constraint.ge(E("j"), E("i")),
                Constraint.le(E("j"), 10),
            ],
        )
        assert bs.bounds_of("i", {}) == (1, 8)
        assert bs.bounds_of("j", {"i": 5}) == (5, 10)

    def test_intersect_renames_clashing_exists(self):
        a = BasicSet(["i"], [Constraint.eq(E("i"), 2 * E("k"))], exists=["k"])
        b = BasicSet(["i"], [Constraint.eq(E("i"), 3 * E("k"))], exists=["k"])
        both = a.intersect(b)
        # multiples of 6
        assert both.contains((6,))
        assert not both.contains((2,))
        assert not both.contains((3,))


class TestISet:
    def test_union_subtract_intersect(self):
        a = box(["i"], [(0, 10)])
        b = box(["i"], [(5, 20)])
        assert (a | b).points({}) == {(i,) for i in range(21)}
        assert (a & b).points({}) == {(i,) for i in range(5, 11)}
        assert (a - b).points({}) == {(i,) for i in range(5)}
        assert (b - a).points({}) == {(i,) for i in range(11, 21)}

    def test_subtract_is_sound_overapprox_with_exists(self):
        evens = ISet(
            ["i"],
            [
                BasicSet(
                    ["i"],
                    [Constraint.eq(E("i"), 2 * E("k")), Constraint.ge(E("i"), 0), Constraint.le(E("i"), 10)],
                    exists=["k"],
                )
            ],
        )
        a = box(["i"], [(0, 10)])
        diff = a - evens
        # over-approximation may keep extra points but must keep all odds
        assert {(i,) for i in range(1, 10, 2)} <= diff.points({})

    def test_subset_symbolic(self):
        inner = ISet.from_constraints(
            ["i"], [Constraint.ge(E("i"), E("p") * 4 + 1), Constraint.le(E("i"), E("p") * 4 + 2)]
        )
        outer = ISet.from_constraints(
            ["i"], [Constraint.ge(E("i"), E("p") * 4), Constraint.le(E("i"), E("p") * 4 + 3)]
        )
        assert inner.is_subset(outer)
        assert not outer.is_subset(inner)

    def test_empty_universe(self):
        assert empty(["i"]).is_empty()
        assert not universe(["i"]).is_empty()
        assert (empty(["i"]) | box(["i"], [(1, 3)])).points({}) == {(1,), (2,), (3,)}

    def test_bind_params(self):
        s = box(["i"], [(0, "N")])
        assert s.bind({"N": 2}).points() == {(0,), (1,), (2,)}

    def test_space_mismatch_raises(self):
        with pytest.raises(ValueError):
            box(["i"], [(0, 1)]).union(box(["i", "j"], [(0, 1), (0, 1)]))


class TestAffineMap:
    def test_apply_compose_identity(self):
        m = AffineMap(["i", "j"], [E("j") - 1, E("i") + 2])
        ident = AffineMap.identity(["i", "j"])
        assert m((3, 7)) == (6, 5)
        assert m.compose(ident)((3, 7)) == (6, 5)

    def test_inverse_roundtrip(self):
        m = AffineMap(["i", "j"], [E("j") - 1, E("i") + 2])
        inv = m.inverse()
        for pt in [(0, 0), (3, 7), (-2, 5)]:
            assert inv(m(pt)) == pt

    def test_inverse_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            AffineMap(["i", "j"], [E("i") + E("j"), E("i")]).inverse()
        with pytest.raises(ValueError):
            AffineMap(["i"], [2 * E("i")]).inverse()

    def test_image_preimage_duality(self):
        m = AffineMap(["i"], [E("i") + 3])
        s = box(["i"], [(0, 4)])
        img = m.image(s, ["o"])
        assert img.points({}) == {(i + 3,) for i in range(5)}
        pre = m.preimage(box(["o"], [(3, 7)]), ["i"])
        assert pre.points({}) == {(i,) for i in range(5)}

    def test_image_with_params(self):
        m = AffineMap(["i"], [E("i") + E("N")])
        s = box(["i"], [(0, 2)])
        img = m.image(s, ["o"])
        assert img.points({"N": 10}) == {(10,), (11,), (12,)}


class TestExactBeyondFloat:
    """Constants past 2**53: every bound is computed with ``//``, never
    through a float (``terms.py``: arbitrary precision everywhere)."""

    BIG = 2**62

    def test_normalisation_floors_exactly(self):
        c = Constraint(LinExpr({"x": 3}, self.BIG + 1), False)
        assert c.expr == LinExpr({"x": 1}, (self.BIG + 1) // 3)
        assert str(c) == "x+1537228672809129301 >= 0"
        # negative constants floor toward -inf, as floor(c/g) does
        c = Constraint(LinExpr({"x": 3}, -(self.BIG + 1)), False)
        assert c.expr.constant == -((self.BIG + 1) // 3) - 1

    def test_bounds_of_is_exact(self):
        lo, hi = self.BIG + 1, self.BIG + 3
        bs = BasicSet(("x",), [Constraint.ge(E("x"), lo), Constraint.le(E("x"), hi)])
        assert bs.bounds_of("x", {}) == (lo, hi)

    def test_point_enumeration_is_exact(self):
        lo = self.BIG + 1
        # y couples to x, so the lattice scan (bounds_of per prefix) runs
        bs = BasicSet(
            ("x", "y"),
            [
                Constraint.ge(E("x"), lo),
                Constraint.le(E("x"), lo + 1),
                Constraint.ge(E("y"), E("x")),
                Constraint.le(E("y"), E("x") + 1),
            ],
        )
        assert list(bs.enumerate_points()) == [
            (lo, lo), (lo, lo + 1), (lo + 1, lo + 1), (lo + 1, lo + 2),
        ]
        s = box(["x"], [(lo, lo + 2)])
        assert s.cardinality() == 3 == len(s.points({}))
