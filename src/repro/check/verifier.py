"""Driver of the static SPMD verifier.

Entry points:

- :func:`verify_kernel` — a :class:`~repro.codegen.spmd.CompiledKernel`
  (all four analyses, including send/recv matching over the message
  routes it will execute — each event's per-pair covers);
- :func:`verify_source` — any single-unit HPF source, via the analysis
  half of the compile pipeline only, so kernels the code generator
  rejects (pipelined communication) are still verifiable;
- :func:`verify_nest` — one loop nest with explicit CPs and plan
  (the granularity the unit tests and the mutation harness use).

Strategy: prove each obligation symbolically with ISet algebra; when a
proof fails (the difference operator over-approximates in the presence of
existential variables), fall back to a concrete per-rank recheck from
primitive point sets.  Concrete counterexamples are errors; a concretely
clean recheck is a ``W-UNPROVEN`` warning.

Findings are :class:`repro.diag.Diagnostic` records (codes in the
:mod:`repro.diag` table) collected in a
:class:`~repro.check.diagnostics.CheckReport`; a compiled kernel's own
sink records are appended to its report as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..comm.analyzer import CommAnalyzer, CommPlan
from ..cp.select import StatementCP
from ..diag import I_CLEAN, I_TRIP, Diagnostic, Severity
from ..distrib.layout import DistributionContext
from ..ir.stmt import DoLoop, Stmt
from ..isets import ISet
from .concrete import ConcreteEvaluator
from .coverage import check_nest_coverage, check_overlap
from .diagnostics import CheckReport
from .races import check_races
from .schedule import StaticSchedule, check_matching


@dataclass
class VerifyUnit:
    """Everything the four analyses need about one program unit."""

    subject: str
    sub: object  # Subroutine
    ctx: DistributionContext
    params: dict[str, int]
    cps: Mapping[int, StatementCP]
    nest_plans: list[tuple[DoLoop, CommPlan]]
    grid: object = None  # ProcessorGrid | None
    #: per-array overlap regions (ISet over a$ dims); defaults to the
    #: declared bounds — pass tighter boxes to model real overlap areas
    overlap: Optional[dict[str, ISet]] = None
    schedule: Optional[StaticSchedule] = None
    #: region for dependence analysis (defaults to sub.body)
    region: Optional[list[Stmt]] = None


def verify_unit(unit: VerifyUnit) -> CheckReport:
    """Run all four analyses (coverage, overlap, races, matching) over a
    :class:`VerifyUnit` and collect the findings into a report."""
    report = CheckReport(unit.subject)
    ev = ConcreteEvaluator(unit.ctx, unit.params, unit.grid)
    for idx, (root, plan) in enumerate(unit.nest_plans):
        report.extend(check_nest_coverage(unit, idx, root, plan, ev))
        report.extend(check_overlap(unit, idx, plan, ev))
        for loop in plan.unknown_trip_loops(unit.params):
            report.add(Diagnostic(
                Severity.INFO, I_TRIP,
                f"trip count of loop {loop.var} is not statically known — "
                "message counts for events inside it are lower bounds",
                stmt_sid=loop.sid, nest=idx,
            ))
    if unit.grid is not None:
        report.extend(check_races(unit, ev))
    if unit.schedule is not None:
        report.extend(check_matching(unit.schedule))
    for idx, (_root, plan) in enumerate(unit.nest_plans):
        nest_errors = [d for d in report.errors() if d.nest == idx]
        if not plan.live_events() and not nest_errors:
            report.add(Diagnostic(
                Severity.INFO, I_CLEAN,
                "nest is communication-free and every read is proven local",
                nest=idx,
            ))
    return report


def verify_kernel(
    kernel,
    overlap: Optional[dict[str, ISet]] = None,
    schedule: Optional[StaticSchedule] = None,
    cost_model=None,
) -> CheckReport:
    """All four analyses over a compiled kernel (the message routes the
    generated node program will execute are checked for matching), plus
    the static cost analyzer's performance advisories.

    Structural advisories (``W-REPLICATED``, ``W-SCALAR-WAVEFRONT``,
    ``W-IMBALANCE``) always run; pass a :class:`~repro.runtime.model.
    MachineModel` as *cost_model* to additionally get the model-dependent
    ones (``W-COMM-HOT``).  The advisory layer is best-effort: a failure
    inside it never turns a verifiable kernel into a failed report."""
    unit = VerifyUnit(
        subject=kernel.sub.name,
        sub=kernel.sub,
        ctx=kernel.ctx,
        params=dict(kernel.params),
        cps=kernel.cps,
        nest_plans=kernel.nest_plans,
        grid=kernel.grid,
        overlap=overlap,
        schedule=schedule if schedule is not None
        else StaticSchedule.from_kernel(kernel),
    )
    report = verify_unit(unit)
    sink = getattr(kernel, "sink", None)
    if sink is not None:
        report.extend(sink.diagnostics)
    try:
        from .cost import cost_advisories, kernel_cost

        report.extend(cost_advisories(
            kernel_cost(kernel), kernel=kernel, model=cost_model
        ))
    except Exception:  # advisories must never break verification
        pass
    return report


def analyzed_unit(
    source_or_sub,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    overlap: Optional[dict[str, ISet]] = None,
    subject: Optional[str] = None,
) -> VerifyUnit:
    """The :class:`VerifyUnit` of a source analyzed but not code-generated
    (:func:`repro.compile.pipeline.analyze_source`)."""
    from ..compile.pipeline import analyze_source

    art = analyze_source(source_or_sub, nprocs, params)
    try:
        grid = art.ctx.the_grid()
    except ValueError:
        grid = None
    return VerifyUnit(
        subject=subject or art.sub.name,
        sub=art.sub,
        ctx=art.ctx,
        params=art.merged,
        cps=art.cps,
        nest_plans=art.nest_plans,
        grid=grid,
        overlap=overlap,
    )


def verify_source(
    source_or_sub,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    overlap: Optional[dict[str, ISet]] = None,
    subject: Optional[str] = None,
) -> CheckReport:
    """Analyze and verify without generating code — this path accepts the
    pipelined-communication kernels ``compile_kernel`` rejects (§5)."""
    return verify_unit(
        analyzed_unit(source_or_sub, nprocs, params, overlap, subject)
    )


def verify_nest(
    root: DoLoop,
    cps: Mapping[int, StatementCP],
    ctx: DistributionContext,
    params: Mapping[str, int] | None = None,
    plan: Optional[CommPlan] = None,
    subject: str = "nest",
    overlap: Optional[dict[str, ISet]] = None,
) -> CheckReport:
    """Verify one loop nest (plan recomputed when not supplied)."""
    params = dict(params or {})
    if plan is None:
        plan = CommAnalyzer(root, cps, ctx, params).analyze()
    try:
        grid = ctx.the_grid()
    except ValueError:
        grid = None
    unit = VerifyUnit(
        subject=subject,
        sub=ctx.sub,
        ctx=ctx,
        params=params,
        cps=cps,
        nest_plans=[(root, plan)],
        grid=grid,
        overlap=overlap,
        region=[root],
    )
    return verify_unit(unit)
