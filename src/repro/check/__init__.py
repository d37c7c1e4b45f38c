"""Static SPMD verification (see DESIGN.md, "Static SPMD verification").

Four analyses over a compiled program's communication plans, CP
assignments and emitted schedule, reported as :mod:`repro.diag` records.
Coverage, races and overlap are differences of canonical box covers
checked at every rank (and rank pair) of the grid, messages read from
each live event's ``CommEvent.flows`` — the covers the routes and the
cost model are built from:

1. **comm coverage** — every read at rank r is owned, received in a flow
   into r, or locally produced (``E-COVERAGE`` / ``E-LOCAL``);
2. **race/ordering** — cross-processor flow dependences are replicated
   or routed through the owner's copy (``E-RACE``);
3. **send/recv matching** — the static schedule balances per
   ``(src, dst, tag)`` (``E-MATCH``);
4. **overlap bounds** — what flows into a rank fits its overlap region
   (``E-OVERLAP``).

A set that cannot be evaluated per rank is ``W-UNPROVEN``.  The mutation
harness (:mod:`repro.check.mutate`) proves the checker's teeth: seeded
compiler bugs must each be caught by the intended analysis.
"""

from ..diag import (
    E_COVERAGE,
    E_LOCAL,
    E_MATCH,
    E_OVERLAP,
    E_RACE,
    I_CLEAN,
    I_FALLBACK,
    I_SCALE_LIMIT,
    I_TRIP,
    W_COMM_HOT,
    W_IMBALANCE,
    W_REPLICATED,
    W_SCALAR_WAVEFRONT,
    W_UNPROVEN,
    Diagnostic,
    Severity,
)
from .cost import (
    CostValidation,
    CurvePoint,
    KernelCost,
    analysis_cost,
    cost_advisories,
    kernel_cost,
    predicted_curve,
    sweep_cost,
    validate_against_trace,
)
from .diagnostics import CheckReport, VerificationError
from .schedule import ScheduleOp, StaticSchedule, check_matching
from .verifier import (
    VerifyUnit,
    verify_kernel,
    verify_nest,
    verify_source,
    verify_unit,
)

__all__ = [
    "CheckReport",
    "Diagnostic",
    "Severity",
    "VerificationError",
    "ScheduleOp",
    "StaticSchedule",
    "check_matching",
    "VerifyUnit",
    "verify_kernel",
    "verify_nest",
    "verify_source",
    "verify_unit",
    "E_COVERAGE",
    "E_LOCAL",
    "E_MATCH",
    "E_OVERLAP",
    "E_RACE",
    "W_UNPROVEN",
    "I_CLEAN",
    "I_FALLBACK",
    "I_TRIP",
    "W_COMM_HOT",
    "W_REPLICATED",
    "W_SCALAR_WAVEFRONT",
    "W_IMBALANCE",
    "I_SCALE_LIMIT",
    "KernelCost",
    "CurvePoint",
    "CostValidation",
    "kernel_cost",
    "analysis_cost",
    "sweep_cost",
    "predicted_curve",
    "cost_advisories",
    "validate_against_trace",
]
