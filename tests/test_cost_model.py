"""Unit tests: LogGP machine-model edges and closed-form iset counting.

The cost analyzer's arithmetic must be exact at the edges (zero latency,
single rank, degenerate bandwidth) and its closed-form cardinality must
agree with brute-force enumeration on every set shape it claims to count
(single boxes, overlapping unions via inclusion–exclusion, subtraction
results, and the enumeration fallback for non-box sets).
"""

import random

import pytest

from repro.isets import BasicSet, Constraint, ISet, LinExpr
from repro.isets.terms import E
from repro.runtime.model import MachineModel, TEST_MACHINE


class TestLogGPEdges:
    def test_zero_latency_machine_is_valid(self):
        m = MachineModel(name="zl", flop_time=1e-9, alpha=0.0, beta=1e-8)
        assert m.loggp_time(3, 100) == pytest.approx(100 * 1e-8)
        assert m.msg_time(100) == pytest.approx(100 * 1e-8)

    def test_single_message_pays_full_latency_and_overheads(self):
        m = MachineModel(
            name="og", flop_time=1e-9, alpha=1e-5, beta=1e-8, o=2e-6, g=3e-6
        )
        # one message: alpha + 2o + beta*b, and no gap term
        assert m.loggp_time(1, 8) == pytest.approx(1e-5 + 4e-6 + 8e-8)
        # n messages insert n-1 gaps
        assert m.loggp_time(3, 0) == pytest.approx(3 * (1e-5 + 4e-6) + 2 * 3e-6)

    def test_zero_messages_cost_nothing(self):
        assert TEST_MACHINE.loggp_time(0, 0) == 0.0
        assert TEST_MACHINE.loggp_time(0, 10**9) == 0.0
        assert TEST_MACHINE.loggp_time(-1, 8) == 0.0

    def test_degenerate_bandwidth_beta_zero(self):
        m = MachineModel(name="inf-bw", flop_time=1e-9, alpha=1e-5, beta=0.0)
        assert m.loggp_time(2, 10**9) == pytest.approx(2e-5)

    def test_default_o_g_match_postal_model(self):
        # with o = g = 0 loggp_time degenerates to the VM's postal charge
        m = TEST_MACHINE
        assert m.o == 0.0 and m.g == 0.0
        assert m.loggp_time(5, 400) == pytest.approx(
            5 * m.alpha + 400 * m.beta
        )
        assert m.msg_time(64) == pytest.approx(m.alpha + 64 * m.beta)

    @pytest.mark.parametrize("kw", [
        {"o": -1e-6}, {"g": -1e-6}, {"alpha": -1.0}, {"beta": -1.0},
        {"flop_time": 0.0}, {"word_bytes": 0},
    ])
    def test_invalid_parameters_raise(self, kw):
        base = dict(name="bad", flop_time=1e-9, alpha=1e-5, beta=1e-8)
        base.update(kw)
        with pytest.raises(ValueError):
            MachineModel(**base)


def _box(dims, extents):
    cons = []
    for d, (lo, hi) in zip(dims, extents):
        cons.append(Constraint.ge(E(d), lo))
        cons.append(Constraint.le(E(d), hi))
    return BasicSet(dims, cons)


def _brute(s: ISet, lo=-2, hi=12) -> int:
    dims = s.dims
    if len(dims) == 1:
        return sum(1 for x in range(lo, hi + 1) if s.contains((x,)))
    return sum(
        1
        for x in range(lo, hi + 1)
        for y in range(lo, hi + 1)
        if s.contains((x, y))
    )


class TestCardinality:
    def test_single_box(self):
        s = ISet(("x", "y"), [_box(("x", "y"), [(0, 4), (1, 3)])])
        assert s.cardinality() == 5 * 3 == _brute(s)

    def test_empty_box(self):
        s = ISet(("x",), [_box(("x",), [(5, 2)])])
        assert s.cardinality() == 0

    def test_overlapping_union_inclusion_exclusion(self):
        # [0,5] u [3,8] has 9 points, not 12
        s = ISet(("x",), [
            _box(("x",), [(0, 5)]), _box(("x",), [(3, 8)]),
        ])
        assert s.cardinality() == 9 == _brute(s)

    def test_three_way_overlap_2d(self):
        parts = [
            _box(("x", "y"), [(0, 4), (0, 4)]),
            _box(("x", "y"), [(2, 6), (2, 6)]),
            _box(("x", "y"), [(4, 8), (0, 8)]),
        ]
        s = ISet(("x", "y"), parts)
        assert s.cardinality() == _brute(s)

    def test_subtraction_result_counts_exactly(self):
        big = ISet(("x", "y"), [_box(("x", "y"), [(0, 9), (0, 9)])])
        hole = ISet(("x", "y"), [_box(("x", "y"), [(3, 6), (3, 6)])])
        diff = big.subtract(hole)
        assert diff.cardinality() == 100 - 16 == _brute(diff)

    def test_parameter_binding(self):
        dims = ("x",)
        cons = [Constraint.ge(E("x"), 1), Constraint.le(E("x"), E("n"))]
        s = ISet(dims, [BasicSet(dims, cons)])
        assert s.cardinality({"n": 7}) == 7
        assert s.bind({"n": 7}).cardinality() == 7

    def test_box_parts_is_the_public_reading_of_the_recogniser(self):
        """Per-disjunct inclusive extents in disjunct order, overlaps kept,
        empty disjuncts dropped; None as soon as one disjunct is not a box
        (what ``cardinality`` and guard binding branch on)."""
        dims = ("x", "y")
        a, b = [(0, 4), (0, 4)], [(2, 6), (2, 6)]
        s = ISet(dims, [_box(dims, a), _box(dims, [(5, 2), (0, 1)]), _box(dims, b)])
        assert s.box_parts() == [a, b]
        assert ISet(dims, []).box_parts() == []
        n_box = BasicSet(("x",), [Constraint.ge(E("x"), 1), Constraint.le(E("x"), E("n"))])
        assert ISet(("x",), [n_box]).box_parts({"n": 7}) == [[(1, 7)]]
        assert ISet(("x",), [n_box]).box_parts() is None  # unbound parameter
        coupled = BasicSet(dims, [Constraint.le(LinExpr({"x": 1, "y": 1}, 0), 6)])
        assert ISet(dims, [_box(dims, a), coupled]).box_parts() is None

    def test_non_box_sets_fall_back_to_enumeration(self):
        # x + y <= 6 couples the dims: closed form must defer to count()
        dims = ("x", "y")
        cons = [
            Constraint.ge(E("x"), 0), Constraint.le(E("x"), 6),
            Constraint.ge(E("y"), 0), Constraint.le(E("y"), 6),
            Constraint.le(LinExpr({"x": 1, "y": 1}, 0), 6),
        ]
        s = ISet(dims, [BasicSet(dims, cons)])
        assert s.cardinality() == s.count() == _brute(s) == 28

    @pytest.mark.parametrize("seed", range(25))
    def test_random_box_unions_match_brute_force(self, seed):
        rng = random.Random(seed)
        dims = ("x", "y")
        parts = []
        for _ in range(rng.randint(1, 4)):
            ext = []
            for _d in dims:
                lo = rng.randint(-2, 8)
                ext.append((lo, lo + rng.randint(0, 6)))
            parts.append(_box(dims, ext))
        s = ISet(dims, parts)
        assert s.cardinality() == _brute(s, -2, 16)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_affine_sets_match_count(self, seed):
        rng = random.Random(1000 + seed)
        dims = ("x", "y")
        cons = [
            Constraint.ge(E("x"), 0), Constraint.le(E("x"), 8),
            Constraint.ge(E("y"), 0), Constraint.le(E("y"), 8),
        ]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            c = rng.randint(-4, 10)
            cons.append(Constraint.ge(LinExpr({"x": a, "y": b}, -c), 0))
        s = ISet(dims, [BasicSet(dims, cons)])
        assert s.cardinality() == s.count() == _brute(s, 0, 8)
