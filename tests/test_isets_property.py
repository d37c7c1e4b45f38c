"""Property-based tests: integer set algebra vs brute-force enumeration.

Random small basic sets over a bounded universe are compared point-by-point
against Python set semantics for union / intersection / difference /
subset / projection / affine image.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isets import AffineMap, BasicSet, Constraint, ISet, LinExpr
from repro.isets.core import _dedup
from repro.isets.terms import E

UNIVERSE = range(-4, 7)
DIMS = ("i", "j")


@st.composite
def linexprs(draw, dims=DIMS, maxc=3):
    coeffs = {d: draw(st.integers(-maxc, maxc)) for d in dims}
    const = draw(st.integers(-6, 6))
    return LinExpr(coeffs, const)


@st.composite
def basic_sets(draw, dims=DIMS, max_constraints=3):
    cons = [Constraint.ge(E(d), UNIVERSE.start) for d in dims] + [
        Constraint.le(E(d), UNIVERSE.stop - 1) for d in dims
    ]
    n = draw(st.integers(0, max_constraints))
    for _ in range(n):
        e = draw(linexprs(dims))
        is_eq = draw(st.booleans())
        cons.append(Constraint(e, is_eq and not e.is_constant()))
    return ISet(dims, [BasicSet(dims, cons)])


def brute(s: ISet) -> set:
    return s.points({})


@settings(max_examples=60, deadline=None)
@given(basic_sets(), basic_sets())
def test_union_matches_python_sets(a, b):
    assert brute(a | b) == brute(a) | brute(b)


@settings(max_examples=60, deadline=None)
@given(basic_sets(), basic_sets())
def test_intersection_matches_python_sets(a, b):
    assert brute(a & b) == brute(a) & brute(b)


@settings(max_examples=60, deadline=None)
@given(basic_sets(), basic_sets())
def test_difference_matches_python_sets(a, b):
    assert brute(a - b) == brute(a) - brute(b)


def _unit_coeffs(s: ISet) -> bool:
    return all(
        all(abs(v) <= 1 for v in c.expr.coeffs.values())
        for p in s.parts
        for c in p.constraints
    )


@settings(max_examples=60, deadline=None)
@given(basic_sets(), basic_sets())
def test_subset_decision_is_sound(a, b):
    # is_subset may be conservative (a semi-decision: emptiness of the
    # difference is proven rationally), but must never claim subset when it
    # is not.
    if a.is_subset(b):
        assert brute(a) <= brute(b)
    # completeness is only promised on unit-coefficient systems, where
    # Fourier-Motzkin is exact over the integers (the HPF analysis sets).
    if brute(a) <= brute(b) and _unit_coeffs(a) and _unit_coeffs(b):
        assert a.is_subset(b)


@settings(max_examples=60, deadline=None)
@given(basic_sets())
def test_projection_contains_all_shadows(s):
    p = s.project_out(["j"])
    shadow = {(i,) for (i, _) in brute(s)}
    got = p.points({})
    # projection must cover the true shadow; exact projections equal it
    assert shadow <= got
    if p.is_exact():
        assert shadow == got


@settings(max_examples=60, deadline=None)
@given(basic_sets(), st.integers(-3, 3), st.integers(-3, 3))
def test_affine_image_matches_pointwise_map(s, da, db):
    m = AffineMap(DIMS, [E("i") + da, E("j") + db])
    img = m.image(s, ["a", "b"])
    assert img.points({}) == {(i + da, j + db) for i, j in brute(s)}


@settings(max_examples=60, deadline=None)
@given(basic_sets())
def test_emptiness_agrees_with_enumeration(s):
    if s.is_empty():
        assert brute(s) == set()
    if brute(s) == set() and s.is_exact():
        # exact empty sets must be detected (rational infeasibility suffices
        # for conjunctions of unit-coefficient constraints; allow slack for
        # rational-feasible integer-empty corner cases)
        pass  # documented: is_empty is a semi-decision; soundness is above


@settings(max_examples=40, deadline=None)
@given(basic_sets(), basic_sets(), basic_sets())
def test_union_intersect_distributivity(a, b, c):
    lhs = a & (b | c)
    rhs = (a & b) | (a & c)
    assert brute(lhs) == brute(rhs)


# ---------------------------------------------------------------------------
# The trusted-construction fast paths against the validating constructor
# ---------------------------------------------------------------------------

#: names whose sort order differs from any natural drawing order
NAMES = ("N", "_t", "a$0", "e'0", "i", "j", "p$1")


@st.composite
def sparse_exprs(draw, maxc=4):
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    coeffs = {n: draw(st.integers(-maxc, maxc)) for n in names}
    return LinExpr(coeffs, draw(st.integers(-9, 9)))


def _oracle(terms, const=0):
    """The public, validating constructor on ``sum(k * expr) + const``."""
    coeffs: dict = {}
    for k, e in terms:
        const += k * e.constant
        for n, c in e.coeffs.items():
            coeffs[n] = coeffs.get(n, 0) + k * c
    return LinExpr(coeffs, const)


def _assert_canonical_equal(got: LinExpr, want: LinExpr) -> None:
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert list(got.coeffs.items()) == list(want.coeffs.items())  # key order
    assert all(type(v) is int and v != 0 for v in got.coeffs.values())
    assert type(got.constant) is int
    assert Constraint(got, False) is Constraint(want, False)  # same intern key


@settings(max_examples=200, deadline=None)
@given(sparse_exprs(), sparse_exprs(), st.integers(-5, 5))
def test_arithmetic_equals_validated_construction(a, b, k):
    _assert_canonical_equal(a + b, _oracle([(1, a), (1, b)]))
    _assert_canonical_equal(a - b, _oracle([(1, a), (-1, b)]))
    _assert_canonical_equal(-a, _oracle([(-1, a)]))
    _assert_canonical_equal(a * k, _oracle([(k, a)]))
    _assert_canonical_equal(k * a, _oracle([(k, a)]))
    _assert_canonical_equal(a + k, _oracle([(1, a)], k))
    _assert_canonical_equal(k + a, _oracle([(1, a)], k))
    _assert_canonical_equal(a - k, _oracle([(1, a)], -k))
    _assert_canonical_equal(k - a, _oracle([(-1, a)], k))
    _assert_canonical_equal(LinExpr.const(k), LinExpr({}, k))
    for name in NAMES:
        c, rest = a.as_fraction_of(name)
        assert c == a.coeff(name)
        _assert_canonical_equal(
            rest, _oracle([(1, a), (-c, LinExpr({name: 1}))])
        )


@settings(max_examples=200, deadline=None)
@given(
    sparse_exprs(),
    st.dictionaries(
        st.sampled_from(NAMES),
        st.one_of(sparse_exprs(), st.integers(-5, 5), st.sampled_from(NAMES)),
        max_size=4,
    ),
)
def test_substitute_equals_validated_construction(a, binding):
    terms = []
    for n, c in a.coeffs.items():
        terms.append((c, LinExpr.of(binding[n]) if n in binding else LinExpr({n: 1})))
    _assert_canonical_equal(a.substitute(binding), _oracle(terms, a.constant))
    ints = {n: v for n, v in binding.items() if isinstance(v, int)}
    _assert_canonical_equal(a.evaluate_partial(ints), a.substitute(ints))


@settings(max_examples=200, deadline=None)
@given(
    sparse_exprs(),
    st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES), max_size=4),
)
def test_rename_equals_validated_construction(a, mapping):
    # two names may collapse onto one and cancel
    terms = [(c, LinExpr({mapping.get(n, n): 1})) for n, c in a.coeffs.items()]
    _assert_canonical_equal(a.rename(mapping), _oracle(terms, a.constant))


def test_public_constructor_still_validates():
    with pytest.raises(TypeError, match="coefficient for 'i' must be int, got float"):
        LinExpr({"i": 1.0})
    with pytest.raises(TypeError, match="constant must be int, got float"):
        LinExpr({"i": 1}, 2.0)
    with pytest.raises(TypeError, match="constant must be int, got str"):
        LinExpr.const("3")
    with pytest.raises(ValueError, match="invalid variable name '2i'"):
        LinExpr({"2i": 1})
    with pytest.raises(ValueError, match="invalid variable name"):
        LinExpr.var("i j")
    # names handed to the engine by a caller are still checked
    with pytest.raises(ValueError, match="invalid variable name 'not ok'"):
        LinExpr({"i": 1}).rename({"i": "not ok"})
    with pytest.raises(ValueError, match="invalid variable name"):
        LinExpr({"i": 1}).substitute({"i": "not ok"})
    with pytest.raises(TypeError):
        LinExpr({"i": 1}).substitute({"i": 1.5})
    with pytest.raises(TypeError):
        LinExpr({"i": 1}) * 2.0


def _dedup_reference(constraints):
    """``_dedup`` as it stood before it kept what it kept: survivors
    rebuilt through the public constructors."""
    eqs: list = []
    best: dict = {}
    for c in constraints:
        if c.is_trivially_true():
            continue
        if c.is_eq:
            if c not in eqs:
                eqs.append(c)
            continue
        key = tuple(c.expr.coeffs.items())
        const = c.expr.constant
        if key not in best or const < best[key]:
            best[key] = const
    ineqs = [Constraint(LinExpr(dict(k), v), False) for k, v in best.items()]
    return eqs + ineqs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(sparse_exprs(maxc=2), st.booleans()), max_size=12))
def test_dedup_equals_reference(raw):
    cons = [Constraint(e, is_eq) for e, is_eq in raw]
    got, want = _dedup(cons), _dedup_reference(cons)
    assert got == want  # same elements, same order
    assert [str(c) for c in got] == [str(c) for c in want]
    for g in got:
        # a survivor is one of the interned constraints it was handed
        assert any(g is c for c in cons)
        assert Constraint(g.expr, g.is_eq) == g
