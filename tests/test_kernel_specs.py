"""`repro.nas.specs` is the one kernel table: every consumer's
(source, nprocs, params) comes from it, and its `bitwise_identical` is
strict about shape as well as bytes."""

from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

import repro
from repro.check import targets
from repro.compile import serve
from repro.eval import cost, diffstats
from repro.nas import kernels, specs
from repro.nas.classes import CLASSES

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture
def table(monkeypatch):
    """key -> (source, nprocs, params), Fig 6.1's built subroutine replaced
    by a comparable stand-in."""
    monkeypatch.setattr(specs, "fig61_subroutine", lambda: "<fig6.1 inlined>")
    return {
        s.key: (s.program(), s.nprocs, s.params)
        for s in specs.all_specs()
    }


def test_table_sizes_come_from_nas_classes(table):
    s = CLASSES["S"].problem_size
    assert [k for k, (_, _, p) in table.items() if p["n"] == s] == [
        "sp-exact-rhs-s", "sp-rhs-s", "bt-rhs-s", "sp-class-s"]
    assert len(table) == 10  # keys are unique


def test_check_targets_read_the_table(table, monkeypatch):
    seen = []

    def record(source, nprocs, params, subject):
        seen.append((source, nprocs, params))

    monkeypatch.setattr(targets, "_compiled", record)
    monkeypatch.setattr(targets, "verify_source", record)
    available = targets.available_targets()
    for name, (key, _subject) in targets.SPEC_TARGETS.items():
        available[name]()
        assert seen[-1] == table[key], name
    assert {"fig4.1", "fig4.2", "fig5.1", "fig6.1", "exact-rhs",
            "bt-class-s"} <= set(targets.SPEC_TARGETS)


def test_prewarm_jobs_read_the_table(table):
    jobs = serve.prewarm_jobs()
    assert len(jobs) == 8
    triples = [(j.source, j.nprocs, j.params) for j in jobs]
    assert triples[:4] == [
        table[k] for k in ("fig4.1", "fig4.2", "exact-rhs", "sp-rhs-s")]
    source, _, params = table["sp-rhs-s"]
    assert triples[4:] == [
        (kernels.scaled(source), p, params) for p in (4, 9, 16, 25)]


def test_diffstats_compiles_read_the_table(table):
    compiled = [specs.kernel_spec(key) for _label, key in diffstats.COMPILES]
    assert [s.key for s in compiled] == ["fig4.1", "fig4.2", "exact-rhs"]
    assert all(isinstance(table[s.key][0], str) for s in compiled)


def test_validation_matrix_reads_the_table(table):
    matrix = cost.validation_matrix()
    assert len(matrix) == 8
    for spec, nprocs, wildcard in matrix:
        assert (spec.program(), spec.nprocs, spec.params) == table[spec.key]
        assert wildcard == (nprocs != spec.nprocs)
        assert wildcard <= spec.class_s
    assert sorted(n for s, n, _ in matrix if s.class_s) == [4, 4, 8, 8]


def test_one_inline_recipe_and_no_private_class_s():
    text = {p: p.read_text() for p in SRC.rglob("*.py")}
    hits = [p.name for p, t in text.items()
            if 'inline_calls(prog, "x_solve_cell"' in t]
    assert hits == ["specs.py"]
    assert not [p.name for p, t in text.items() if "CLASS_S = " in t]


def _arrays(**named):
    return {name: NS(data=np.asarray(v, dtype=float)) for name, v in named.items()}


class TestBitwiseIdentical:
    def test_equal_results_in_both_shapes(self):
        ranks = [_arrays(u=[1, 2], v=[3]), _arrays(u=[4, 5], v=[6])]
        same = [_arrays(u=[1, 2], v=[3]), _arrays(u=[4, 5], v=[6])]
        assert specs.bitwise_identical(ranks, same)
        assert specs.bitwise_identical(ranks[0], same[0])

    def test_one_differing_byte(self):
        assert not specs.bitwise_identical(
            [_arrays(u=[1, 2])], [_arrays(u=[1, 2.0000000000000004])])
        assert not specs.bitwise_identical(_arrays(u=[0.0]), _arrays(u=[-0.0]))

    def test_missing_rank_is_a_mismatch(self):
        ranks = [_arrays(u=[1]), _arrays(u=[2])]
        assert not specs.bitwise_identical([], ranks)
        assert not specs.bitwise_identical(ranks, ranks[:1])
        assert not specs.bitwise_identical(ranks[:1], ranks)

    def test_missing_or_extra_array_is_a_mismatch(self):
        small, big = _arrays(u=[1]), _arrays(u=[1], v=[2])
        assert not specs.bitwise_identical([small], [big])
        assert not specs.bitwise_identical([big], [small])
        assert not specs.bitwise_identical(small, big)

    def test_shapes_do_not_mix(self):
        one = _arrays(u=[1])
        assert not specs.bitwise_identical([one], one)
        assert not specs.bitwise_identical(one, [one])
