"""Fourier-Motzkin internals: exactness flags, dark shadow, blowup guards."""

from hypothesis import given, settings, strategies as st

from repro.isets import BasicSet, Constraint
from repro.isets.terms import E


class TestEliminationExactness:
    def test_unit_coefficient_elimination_exact(self):
        bs = BasicSet(
            ["i", "j"],
            [
                Constraint.ge(E("j"), E("i")),
                Constraint.le(E("j"), E("i") + 3),
                Constraint.ge(E("i"), 0),
                Constraint.le(E("i"), 5),
            ],
        )
        p = bs.project_out(["j"])
        assert p.exact
        assert set(p.enumerate_points()) == {(i,) for i in range(6)}

    def test_equality_substitution_exact(self):
        bs = BasicSet(
            ["i", "j"],
            [
                Constraint.eq(E("j"), E("i") + 2),
                Constraint.ge(E("i"), 0),
                Constraint.le(E("i"), 4),
            ],
        )
        p = bs.project_out(["j"])
        assert p.exact
        assert p.count() == 5

    def test_block_ownership_projection_dark_shadow(self):
        """Eliminating the processor coordinate from a BLOCK ownership set:
        both combined coefficients equal the block size, and the dark
        shadow condition B(B-1) >= (B-1)^2 holds — the projection keeps
        every element (each has an owner)."""
        B, P, N = 4, 4, 16
        bs = BasicSet(
            ["t"],
            [
                Constraint.ge(E("t"), E("p") * B),
                Constraint.le(E("t"), E("p") * B + B - 1),
                Constraint.ge(E("p"), 0),
                Constraint.le(E("p"), P - 1),
                Constraint.ge(E("t"), 0),
                Constraint.le(E("t"), N - 1),
            ],
            exists=["p"],
        )
        flat = bs.eliminate_exists()
        pts = set(flat.enumerate_points())
        assert pts == {(t,) for t in range(N)}

    def test_nonunit_equality_flags_approximate(self):
        # j = 2i projected out by scale-substitution loses divisibility
        bs = BasicSet(
            ["i", "j"],
            [
                Constraint.eq(E("j"), 2 * E("i")),
                Constraint.ge(E("j"), 0),
                Constraint.le(E("j"), 8),
            ],
        )
        p = bs.project_out(["i"])
        # may be approximate (the even-only structure is lost)
        if p.exact:
            assert set(p.enumerate_points()) == {(j,) for j in range(0, 9, 2)}
        else:
            assert {(j,) for j in range(0, 9, 2)} <= set(p.enumerate_points())

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(-3, 3), st.integers(0, 8)
    )
    def test_projection_soundness_random_strides(self, a, b, off, width):
        """Projection must never LOSE integer points, exact flag or not."""
        # {i : exists k . a*k + off <= i <= a*k + off + width, 0 <= k <= 3}
        bs = BasicSet(
            ["i"],
            [
                Constraint.ge(E("i"), E("k") * a + off),
                Constraint.le(E("i"), E("k") * a + off + width),
                Constraint.ge(E("k"), 0),
                Constraint.le(E("k"), 3),
            ],
            exists=["k"],
        )
        true_pts = {
            (i,)
            for k in range(4)
            for i in range(a * k + off, a * k + off + width + 1)
        }
        flat = bs.eliminate_exists()
        got = set(flat.enumerate_points())
        assert true_pts <= got
        if flat.exact:
            assert got == true_pts


class TestConstraintCapBehavior:
    def test_large_constraint_sets_do_not_explode(self):
        """The _MAX_CONSTRAINTS backstop keeps FM from quadratic blowup."""
        cons = []
        for k in range(30):
            cons.append(Constraint.ge(E("x") * 1 + E(f"y{k}"), -k))
            cons.append(Constraint.le(E("x") - E(f"y{k}"), k))
        bs = BasicSet(["x"], cons)
        out = bs.project_out([f"y{k}" for k in range(30)])
        assert isinstance(out, BasicSet)  # completes without blowup
