"""Static SPMD verification (see DESIGN.md, "Static SPMD verification").

Four analyses over a compiled program's communication plans, CP
assignments and emitted schedule, reported as :mod:`repro.diag` records.
They read one plan record — a compiled kernel or the analysis it was
built from (:class:`~repro.compile.pipeline.AnalysisArtifact`), which
carry the same routes, guard plan and per-nest dependences; nothing is
derived a second time.  Coverage, races and overlap are differences of
canonical box covers checked at every rank (and rank pair) of the grid,
over what the program runs: a statement's iterations are its guard-plan
covers, the data a reference touches their image through its
subscripts, and messages the routes' per-pair covers:

1. **comm coverage** — every read at rank r is owned, received in a flow
   into r, or locally produced (``E-COVERAGE`` / ``E-LOCAL``);
2. **race/ordering** — cross-processor flow dependences are replicated
   or routed through the owner's copy (``E-RACE``);
3. **send/recv matching** — the static schedule balances per
   ``(src, dst, tag)`` (``E-MATCH``);
4. **overlap bounds** — what flows into a rank fits its overlap region
   (``E-OVERLAP``).

The guards they read must unite to the loop bounds (``E-GUARD``).  A set
that cannot be evaluated per rank is ``W-UNPROVEN``.  The mutation
harness (:mod:`repro.check.mutate`) proves the checker's teeth: seeded
compiler bugs must each be caught by the intended analysis.
"""

from ..diag import (
    E_COVERAGE, E_GUARD, E_LOCAL, E_MATCH, E_OVERLAP, E_RACE, I_CLEAN,
    I_FALLBACK, I_SCALE_LIMIT, I_TRIP, W_COMM_HOT, W_IMBALANCE, W_REPLICATED,
    W_SCALAR_WAVEFRONT, W_UNPROVEN, Diagnostic, Severity,
)
from .cost import (
    CostValidation, CurvePoint, KernelCost, analysis_cost, cost_advisories,
    kernel_cost, predicted_curve, sweep_cost, validate_against_trace,
)
from .diagnostics import CheckReport
from .schedule import ScheduleOp, StaticSchedule, check_matching
from .verifier import verify_kernel, verify_source, verify_unit

__all__ = [
    "CheckReport", "Diagnostic", "Severity", "ScheduleOp", "StaticSchedule",
    "check_matching", "verify_kernel", "verify_source",
    "verify_unit", "E_COVERAGE", "E_GUARD", "E_LOCAL", "E_MATCH", "E_OVERLAP",
    "E_RACE", "W_UNPROVEN", "I_CLEAN", "I_FALLBACK", "I_TRIP", "W_COMM_HOT",
    "W_REPLICATED", "W_SCALAR_WAVEFRONT", "W_IMBALANCE", "I_SCALE_LIMIT",
    "KernelCost", "CurvePoint", "CostValidation", "kernel_cost",
    "analysis_cost", "sweep_cost", "predicted_curve", "cost_advisories",
    "validate_against_trace",
]
