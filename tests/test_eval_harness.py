"""Evaluation harness tests: tables, space-time figures, diff stats."""

import json

import pytest

from repro.eval import diff_stats, format_table, render_spacetime, spacetime_figure
from repro.eval.diffstats import strip_hpf
from repro.eval.tables import PAPER_TIMES, build_table, table_8_2
from repro.nas import kernels
from repro.runtime.model import IBM_SP2


@pytest.fixture(scope="module")
def sp_table_a():
    return build_table("sp", "A", [4, 16, 25], IBM_SP2, niter_model=1)


class TestTables:
    def test_row_structure(self, sp_table_a):
        assert [r.nprocs for r in sp_table_a] == [4, 16, 25]
        for r in sp_table_a:
            assert set(r.time) == {"handmpi", "dhpf", "pgi"}
            assert all(t is None or t > 0 for t in r.time.values())

    def test_reference_speedup_is_four(self, sp_table_a):
        assert sp_table_a[0].speedup["handmpi"] == pytest.approx(4.0)

    def test_efficiency_below_one_and_declining(self, sp_table_a):
        effs = [r.efficiency["dhpf"] for r in sp_table_a]
        assert all(e is not None and 0 < e <= 1.05 for e in effs)
        assert effs[-1] < effs[0]  # efficiency declines with P (paper trend)

    def test_dhpf_beats_pgi_for_sp(self, sp_table_a):
        for r in sp_table_a:
            assert r.time["dhpf"] < r.time["pgi"]

    def test_nonsquare_procs_skip_hand(self):
        rows = build_table("sp", "A", [8], IBM_SP2, niter_model=1)
        assert rows[0].time["handmpi"] is None
        assert rows[0].time["dhpf"] is not None

    def test_format_table_renders(self, sp_table_a):
        text = format_table("Table 8.1", {"A": sp_table_a})
        assert "Class A" in text
        assert "paper" in text
        assert str(sp_table_a[0].nprocs) in text

    def test_paper_reference_values_present(self):
        assert PAPER_TIMES["sp"]["A"][25] == (88, 149, 198)
        assert PAPER_TIMES["bt"]["A"][4] == (650, 609, 590)

    def test_bt_class_b_reference_is_16(self):
        rows = table_8_2(classes=("B",), procs=(16, 25))["B"]
        assert rows[0].nprocs == 16
        assert rows[0].speedup["handmpi"] == pytest.approx(16.0)


class TestSpacetime:
    @pytest.fixture(scope="class")
    def fig(self):
        return spacetime_figure("8.2", nprocs=4)

    def test_figure_mapping(self):
        from repro.eval.spacetime import FIGURES

        assert FIGURES["8.1"] == ("sp", "handmpi")
        assert FIGURES["8.4"] == ("bt", "dhpf")

    def test_ascii_rendering(self, fig):
        art = fig.ascii(width=60)
        lines = art.splitlines()
        assert "Figure 8.2" in lines[0]
        rows = [l for l in lines if l.startswith("P")]
        assert len(rows) == 4
        assert all(len(r) == len(rows[0]) for r in rows)
        assert any("#" in r for r in rows)

    def test_idle_fractions_in_range(self, fig):
        f = fig.idle_fractions()
        assert len(f) == 4
        assert all(0.0 <= x <= 1.0 for x in f)

    def test_json_export(self, fig):
        doc = json.loads(fig.to_json())
        assert doc["figure"] == "8.2"
        assert doc["trace"]["nprocs"] == 4
        assert doc["trace"]["events"]

    def test_hand_code_less_idle_than_dhpf(self):
        """Figures 8.1 vs 8.2, quantified."""
        hand = spacetime_figure("8.1", nprocs=4)
        dhpf = spacetime_figure("8.2", nprocs=4)
        assert hand.mean_idle() < dhpf.mean_idle()

    def test_render_empty_window(self):
        fig = spacetime_figure("8.1", nprocs=4)
        art = render_spacetime(fig.trace, width=20, t0=0.0, t1=fig.trace.makespan())
        assert art.count("\n") == 4


class TestDiffStats:
    def test_strip_hpf_removes_directives(self):
        s = strip_hpf(kernels.LHSY_SP)
        assert "chpf$" not in s.lower()
        assert "do k" in s

    def test_directive_only_changes(self):
        serial = strip_hpf(kernels.LHSY_SP)
        st = diff_stats(serial, kernels.LHSY_SP)
        assert st.removed == 0
        assert st.added == st.directive_lines > 0

    def test_fraction_counts_modifications(self):
        serial = "a = 1\nb = 2\nc = 3\n"
        hpf = "a = 1\nb = 5\nc = 3\nchpf$ independent\n"
        st = diff_stats(serial, hpf)
        assert st.added == 2 and st.removed == 1
        assert st.fraction == pytest.approx(3 / 3)

    def test_identical_sources(self):
        st = diff_stats("x = 1\n", "x = 1\n")
        assert st.modified == 0
        assert st.fraction == 0.0


_SEED_SCRIPT = """
import hashlib
from types import SimpleNamespace as NS
import numpy as np
from repro.nas.specs import seed_init

def arrays():
    return {name: NS(data=np.zeros((3, 4))) for name in ("u", "rhs", "lhs")}

A = arrays()
seed_init(NS(make_arrays=arrays))(0, A)
print(hashlib.sha256(b"".join(A[n].data.tobytes() for n in sorted(A))).hexdigest())
"""


def test_seeded_inputs_do_not_depend_on_the_hash_seed():
    """`seed_init` feeds every scalar==vector / VM==process / cost==trace
    comparison; `str` hashes are randomised per interpreter, so the seed
    of each array must not come from `hash(name)`."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT], env=env, check=True,
            capture_output=True, text=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
