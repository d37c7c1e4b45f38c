"""Mutation testing of the static SPMD verifier (tentpole proof).

Every seeded compiler bug must be flagged with the exact diagnostic code
of the analysis designed to catch it, and the unmutated pipelines must
verify with zero errors.  Subjects are the paper kernels (Figure 4.2
compiled end to end; Figure 5.1 at analysis level).
"""

import pytest

from repro.check import Severity, verify_kernel, verify_unit
from repro.check.mutate import MUTATIONS, _fig42_kernel, _y_solve_unit, run_mutation


def clean_reports():
    """The unmutated subjects — all must verify with zero errors."""
    return {
        "fig4.2": verify_kernel(_fig42_kernel()),
        "fig5.1": verify_unit(_y_solve_unit()),
    }


@pytest.fixture(scope="module")
def clean():
    return clean_reports()


class TestUnmutatedPipelinesAreClean:
    def test_no_errors(self, clean):
        for name, report in clean.items():
            assert report.ok, f"{name}:\n{report.format(Severity.ERROR)}"

    def test_subjects_exercise_all_event_kinds(self, clean):
        """The harness is only meaningful if the subjects have reads,
        write-backs, LOCALIZE exclusions and a real schedule."""
        from repro.check.mutate import _fig42_kernel, _y_solve_unit

        kernel = _fig42_kernel()
        kinds = {
            e.kind for _r, p in kernel.nest_plans for e in p.live_events()
        }
        assert "read" in kinds
        assert kernel.localized_arrays
        assert any(r for routes in kernel._routes for r in routes)
        unit = _y_solve_unit()
        kinds = {e.kind for _r, p in unit.nest_plans for e in p.live_events()}
        assert "writeback" in kinds


class TestEveryMutationIsCaught:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_caught_by_intended_analysis(self, name):
        result = run_mutation(name)
        assert result.caught, (
            f"mutation {name} ({result.description}) expected "
            f"{result.expect_code} but verifier reported:\n"
            f"{result.report.format(Severity.ERROR)}"
        )

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_restores_its_subject(self, name, clean):
        """Mutations must not leak state into the cached subjects."""
        run_mutation(name)
        for subject, report in clean_reports().items():
            assert report.ok, f"{name} leaked into {subject}"

    def test_distinct_analyses_are_exercised(self):
        codes = {spec[1] for spec in MUTATIONS.values()}
        assert len(MUTATIONS) >= 4
        assert codes == {
            "E-COVERAGE", "E-LOCAL", "E-OVERLAP", "E-MATCH", "E-RACE"
        }
