"""NAS-style verification: reference residual values for the test problem.

The real NPB suite ships per-class reference residuals and declares a run
VERIFIED when the computed values match to a relative tolerance.  We do
the same for the functional test problem (12^3 grid, 5 timesteps): the
constants below were produced by the serial solvers and pin the numerics
of every future change — solver, parallel schedule, or compiler — since
all of those are required to match the serial results exactly.
"""

from __future__ import annotations

import numpy as np

#: (grid, steps) the reference values correspond to
VERIFY_GRID = (12, 12, 12)
VERIFY_STEPS = 5

#: per-component RMS residuals after VERIFY_STEPS on VERIFY_GRID
SP_REFERENCE_RESIDUALS = (
    5.717226568764649e-05,
    1.3459051643002634e-04,
    1.936167397218951e-04,
    1.4329131481784324e-04,
    4.969266847073233e-05,
)
BT_REFERENCE_RESIDUALS = (
    6.107534086572592e-05,
    1.4115465438665418e-04,
    2.0076324515777927e-04,
    1.4853229316546857e-04,
    5.362242307440975e-05,
)

#: sum(|u|) checksums after the same run
SP_REFERENCE_CHECKSUM = 11170.863388391183
BT_REFERENCE_CHECKSUM = 11170.999247798054

EPSILON = 1e-8  # relative tolerance, as in NPB verification


def verify(bench: str, residuals, checksum: float) -> bool:
    """NPB-style verification of a (12^3, 5-step) run."""
    ref = SP_REFERENCE_RESIDUALS if bench == "sp" else BT_REFERENCE_RESIDUALS
    ref_ck = SP_REFERENCE_CHECKSUM if bench == "sp" else BT_REFERENCE_CHECKSUM
    ok = all(
        abs(r - e) <= EPSILON * max(abs(e), 1e-30)
        for r, e in zip(residuals, ref)
    )
    return ok and abs(checksum - ref_ck) <= EPSILON * ref_ck


def serial_reference(
    bench: str, shape=VERIFY_GRID, niter: int = VERIFY_STEPS
) -> tuple[np.ndarray, bool]:
    """*niter* serial steps on *shape*: the final field, and whether the
    run is NPB-verified against the pinned residuals and checksum (always
    True off the reference problem, which has no pinned values)."""
    from .bt import BTSolver
    from .sp import SPSolver

    solver = (SPSolver if bench == "sp" else BTSolver)(shape)
    solver.run(niter)
    if (tuple(shape), niter) != (VERIFY_GRID, VERIFY_STEPS):
        return solver.u, True
    return solver.u, bool(verify(bench, solver.residual_norms(),
                                 solver.checksum()))


def verify_field(
    bench: str, u, shape=VERIFY_GRID, niter: int = VERIFY_STEPS
) -> bool:
    """Check a parallel run's final field ``u``: bitwise equal to *niter*
    serial steps on *shape* and, on the reference problem, NPB-verified
    against the pinned residuals and checksum as well."""
    serial, verified = serial_reference(bench, shape, niter)
    return verified and bool(np.array_equal(u, serial))
