"""Phase-breakdown report tests (quantified Figure 8.1/8.2 discussion)."""

import pytest

from repro.eval.phases import PHASES, format_phase_table, phase_breakdown


@pytest.fixture(scope="module")
def breakdowns():
    return {
        s: phase_breakdown("sp", s, nprocs=16) for s in ("handmpi", "dhpf", "pgi")
    }


def test_phases_cover_most_of_the_timestep(breakdowns):
    for b in breakdowns.values():
        total = sum(d for d, _ in b.phases.values())
        # windows overlap slightly (pipelines), but must roughly tile the step
        assert total >= 0.8 * b.makespan


def test_dhpf_dominated_by_wavefront_solves(breakdowns):
    """§8.1: 'the largest loss of efficiency is in the wavefront
    computations of the y_solve and z_solve phases'."""
    b = breakdowns["dhpf"]
    longest = max(b.phases, key=lambda p: b.phases[p][0])
    assert longest in ("y_solve", "z_solve")
    # and those phases have the worst busy fractions
    eff = {p: e for p, (d, e) in b.phases.items() if d > 0}
    worst = min(eff, key=eff.get)
    assert worst in ("y_solve", "z_solve", "add")


def test_hand_solves_stay_busy(breakdowns):
    b = breakdowns["handmpi"]
    for phase in ("x_solve", "y_solve", "z_solve"):
        assert b.phases[phase][1] > 0.85  # multipartitioning: high utilization


def test_pgi_z_solve_inflated_by_transposes(breakdowns):
    b = breakdowns["pgi"]
    z = b.phases["z_solve"][0]
    y = b.phases["y_solve"][0]
    assert z > 1.4 * y  # the copy-transposes land in the z phase


def test_format_renders(breakdowns):
    text = format_phase_table(list(breakdowns.values()))
    assert "y_solve" in text and "busy" in text
    assert text.count("timestep") == 3


def test_phase_lists_match_strategies():
    assert "copy_faces" in PHASES["handmpi"]
    assert "copy_faces" not in PHASES["dhpf"]
