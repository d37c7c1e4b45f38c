"""NPB-style verification: residuals pinned against stored references."""

import pytest

from repro.nas import BTSolver, SPSolver
from repro.nas.verify import (
    BT_REFERENCE_RESIDUALS,
    SP_REFERENCE_RESIDUALS,
    VERIFY_GRID,
    VERIFY_STEPS,
    serial_reference,
    verify,
)
from repro.parallel import run_parallel
from repro.runtime.model import TEST_MACHINE


@pytest.mark.parametrize("bench", ["sp", "bt"])
def test_serial_run_verifies(bench):
    _u, verified = serial_reference(bench)
    assert verified


@pytest.mark.parametrize("bench", ["sp", "bt"])
def test_wrong_values_fail(bench):
    bad = [r * 1.001 for r in SP_REFERENCE_RESIDUALS]
    assert not verify(bench, bad, 0.0)


@pytest.mark.parametrize("bench,strategy", [
    ("sp", "dhpf"), ("sp", "pgi"), ("bt", "dhpf"), ("bt", "pgi"),
])
def test_parallel_runs_verify(bench, strategy):
    """The parallel codes must pass the same NPB-style verification as the
    serial solver — computed from the assembled global field."""
    from repro.nas import ops

    r = run_parallel(bench, strategy, 4, VERIFY_GRID, VERIFY_STEPS,
                     TEST_MACHINE, functional=True)
    solver = (SPSolver if bench == "sp" else BTSolver)(VERIFY_GRID)
    solver.u = r.u
    assert verify(bench, solver.residual_norms(), solver.checksum())


def test_references_distinct_between_benchmarks():
    assert SP_REFERENCE_RESIDUALS != BT_REFERENCE_RESIDUALS
