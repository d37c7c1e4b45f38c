"""The SPMD compiler driver and the generated-code runtime library."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from ..analysis.privatize import check_privatizable
from ..comm import CommAnalyzer, CommEvent, CommPlan, Placement
from ..cp.loopdist import CPGrouper
from ..cp.localize import propagate_localize_cps
from ..cp.model import CP, PointSub, cp_key
from ..cp.nest import NestInfo, nest_for
from ..cp.privatizable import propagate_new_cps
from ..cp.select import CPSelector, StatementCP
from ..diag import E_UNSUPPORTED, W_BUDGET, DiagnosticSink
from ..distrib.layout import PDIM, DistributionContext, proc_binding
from ..ir.expr import ArrayRef, Var
from ..ir.interp import FortranArray, fortran_mod, fortran_nint, fortran_sign
from ..ir.interp import fortran_trunc_div
from ..ir.program import Program, Subroutine
from ..ir.stmt import Assign, Continue, DoLoop, IfThen, Return, Stmt
from ..ir.visit import (
    build_parent_map, collect_array_refs, enclosing_loops, reads_of, walk_stmts,
)
from ..isets import BudgetExceeded, IsetBudget, active_budget
from ..isets.profile import phase as profile_phase
from ..runtime.model import MachineModel
from ..runtime.sim import Rank, VirtualMachine
from .guards import Guards, guard_cover
from .pyemit import emit_assign_target, emit_expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.pipeline import AnalysisArtifact


class CodegenUnsupported(Exception):
    """A strict compile refuses the kernel: the soundness screen found a
    construct the analysis or the code generator does not cover (CALL
    statements, pipelined communication, ...).  The message is the reason
    a lenient compile reports in its ``I-FALLBACK``."""


# ---------------------------------------------------------------------------
# compile driver
# ---------------------------------------------------------------------------

@dataclass
class NestSelection:
    """The rank-symbolic half of one nest's analysis: CP choices,
    privatization scopes, and the comm-exempt array names.  Contains no
    communication sets, so it holds for *any* processor count with the
    same distribution layout — computed once at a canonical grid
    (:func:`repro.distrib.layout.canonical_nprocs`) and specialized per
    target ``nprocs`` by :func:`analyze_program`.  ``failure`` records
    why selection degraded (lenient mode only); such nests replay the
    replicated fallback at specialization time.  ``nest`` carries the
    nest's structure and dependences from grouping to communication
    analysis and the soundness screen, and rides in the pickle with the
    selection: pickled together with the parsed unit (as in a
    :class:`~repro.compile.pipeline.SelectionArtifact`), its edges still
    name that unit's statements, so a selection served from the plan
    cache analyzes no dependences again."""

    cps: "dict[int, StatementCP]"
    private_arrays: "set[str]"
    localized_arrays: "set[str]"
    no_comm: "frozenset[str]"
    failure: "str | None" = None
    nest: "NestInfo | None" = None


@dataclass
class ProgramSelection:
    """Per-nest :class:`NestSelection` skeletons for every top-level DO
    nest of one subroutine, in body order, stamped with the canonical
    ``nprocs`` they were computed at."""

    nprocs: int
    nests: "list[NestSelection]"


def _select_one_nest(
    item: DoLoop,
    ctx: DistributionContext,
    merged: dict[str, int],
    sel: CPSelector,
    grouper: CPGrouper,
) -> NestSelection:
    """One nest of :func:`select_program`: CP selection, NEW/LOCALIZE
    propagation, comm-sensitive grouping."""
    nest = NestInfo(item, merged)
    with profile_phase("cp-select"):
        cps = sel.select(item, merged)
    # NEW anywhere in this nest: propagate across the whole nest (the
    # paper's privatization scope is the enclosing parallel loop; uses
    # live in sibling loops of the definition)
    new_vars: list[str] = []
    for loop in walk_stmts([item]):
        if isinstance(loop, DoLoop) and loop.directive:
            new_vars.extend(loop.directive.new_vars)
    privs = {v.lower() for v in new_vars}
    with profile_phase("propagate"):
        if new_vars:
            propagate_new_cps(item, new_vars, cps, nest, ctx)
        # LOCALIZE scope
        locs: set[str] = set()
        if item.directive and item.directive.localize_vars:
            locs = {v.lower() for v in item.directive.localize_vars}
            propagate_localize_cps(
                item, item.directive.localize_vars, cps, ctx, merged
            )
    # communication-sensitive grouping for the remaining local choices
    deps = nest.deps  # first computed here: its own "deps" phase, not group's
    with profile_phase("group"):
        res = grouper.group(item, cps=cps, deps=deps, params=merged)
    cps = res.cps
    no_comm: set[str] = set()
    for loop in walk_stmts([item]):
        if isinstance(loop, DoLoop) and loop.directive:
            no_comm |= {v.lower() for v in loop.directive.new_vars}
            no_comm |= {v.lower() for v in loop.directive.localize_vars}
    return NestSelection(cps, privs, locs, frozenset(no_comm), nest=nest)


def _comm_one_nest(
    item: DoLoop,
    nsel: NestSelection,
    nest: NestInfo,
    ctx: DistributionContext,
    merged: dict[str, int],
) -> "tuple[CommPlan, dict]":
    """Specialize one selected nest at a concrete processor count:
    communication analysis under *ctx* with the skeleton's CP choices.
    Returns the plan and the analyzer's per-statement iteration sets."""
    with profile_phase("comm"):
        comm = CommAnalyzer(
            item, nsel.cps, ctx, merged, exclude_arrays=nsel.no_comm,
            nest=nest,
        )
        return comm.analyze(), comm.iteration_sets


def _expr_scalar_names(e) -> set[str]:
    """Lower-cased names of every scalar Var in an expression tree."""
    return {n.name.lower() for n in e.walk() if isinstance(n, Var)}


def _loop_bound_exprs(loop: DoLoop) -> tuple:
    return (loop.lo, loop.hi) + ((loop.step,) if loop.step is not None else ())


def _stmt_array_refs(s: Stmt, reads_only: bool = False) -> "list[ArrayRef]":
    """Every ArrayRef a statement (and its children) touches; with
    *reads_only*, all but the assigned references themselves (their
    subscripts are still reads)."""
    refs: list[ArrayRef] = []
    for u in walk_stmts([s]):
        if isinstance(u, Assign):
            refs.extend(collect_array_refs(u.rhs))
            if isinstance(u.lhs, ArrayRef):
                if not reads_only:
                    refs.append(u.lhs)
                for e in u.lhs.subscripts:
                    refs.extend(collect_array_refs(e))
        elif isinstance(u, IfThen):
            refs.extend(collect_array_refs(u.cond))
        elif isinstance(u, DoLoop):
            for e in _loop_bound_exprs(u):
                refs.extend(collect_array_refs(e))
    return refs


def screen_program(sub: Subroutine, ctx: DistributionContext) -> "str | None":
    """The program-level half of the soundness screen, run before any
    analysis: why *sub* as a whole cannot be compiled distributed, or None.
    The per-nest half is :func:`_nest_degrade_reason`.

    A grid that does not have ``ctx.nprocs`` processors is the caller's
    error under either sink and raises ``ValueError``."""
    grid = ctx.the_grid()
    if grid.size != ctx.nprocs:
        raise ValueError(
            f"processor grid {grid.name} has size {grid.size}, "
            f"but nprocs={ctx.nprocs}"
        )
    # Top-level statements outside any DO nest that touch distributed arrays
    # have no nest plan to carry their communication; the stripped program
    # (nothing distributed) executes them correctly on every rank.
    for s in sub.body:
        if isinstance(s, DoLoop):
            continue
        for ref in _stmt_array_refs(s):
            if ctx.is_distributed(ref.name):
                return f"top-level statement touches distributed array {ref.name!r}"
    return None


def _reads_first(name: str, stmts) -> bool:
    """Whether the first reference to scalar *name* in *stmts*, in textual
    order (the order :func:`check_privatizable` reads a loop body in), is
    a read — one that may see the value it had before *stmts*."""
    for u in walk_stmts(stmts):
        if any(isinstance(r, Var) and r.name.lower() == name for r in reads_of(u)):
            return True
        if isinstance(u, Assign) and isinstance(u.lhs, Var) and u.lhs.name.lower() == name:
            return False
    return False


def _following(stmt: Stmt, parents, top) -> list:
    """The statements textually after *stmt* that run after it, out to
    the unit's top-level list *top*."""
    parent = parents.get(stmt.sid)
    body = top if parent is None else next(
        b for b in parent.body_lists() if any(x is stmt for x in b))
    rest = body[[x is stmt for x in body].index(True) + 1:]
    return rest if parent is None else rest + _following(parent, parents, top)


def _split_vars(cp: CP, ctx: DistributionContext) -> set[str]:
    """The names in the subscripts *cp*'s ON_HOME terms place on
    distributed dimensions: the loops whose iterations it splits."""
    out: set[str] = set()
    for term in cp.terms:
        layout = ctx.layout(term.array)
        for d, _axis in layout.distributed_array_dims() if layout else ():
            sub = term.subs[d]
            for e in (sub.expr,) if isinstance(sub, PointSub) else (sub.lo, sub.hi):
                out |= {name.lower() for name in e.coeffs}
    return out


def _scalar_write_reason(s: Assign, cp: CP, ctx, parents, top) -> "str | None":
    """Why a partitioned write to scalar ``s.lhs`` is unsound, or None.

    A rank runs only its own iterations of the loops *cp* splits (those
    inside the innermost one run whole), so it ends them holding its own
    last iteration's value.  That is sound only if no iteration of those
    loops or of the loops around them reads an earlier one's value (the
    scalar is privatizable on each) and nothing after them reads it
    before rewriting it."""
    name = s.lhs.name.lower()
    loops = enclosing_loops(s, parents)
    split = _split_vars(cp, ctx)
    deepest = max(
        (k for k, loop in enumerate(loops) if loop.var.lower() in split),
        default=len(loops) - 1,
    )
    for loop in loops[: deepest + 1]:
        if not check_privatizable(loop, name):
            return (
                f"partitioned write to scalar {name!r} carries a value "
                f"across iterations of loop {loop.var!r}"
            )
    loop = loops[deepest]
    if _reads_first(name, _following(loop, parents, top)):
        return f"partitioned write to scalar {name!r} is read after loop {loop.var!r}"
    return None


def _nest_degrade_reason(
    item: DoLoop,
    nest: NestInfo,
    cps: "dict[int, StatementCP]",
    plan: CommPlan,
    ctx: DistributionContext,
    merged: Mapping[str, int],
    top: "list[Stmt]",
    private: "frozenset[str] | set[str]" = frozenset(),
) -> "str | None":
    """The per-nest half of the soundness screen: why generated code for
    this *analyzed* nest would be incorrect (or unbuildable), or None if
    the analysis covered everything.  Every compile runs it; the sink
    decides what the verdict means (:func:`analyze_program`).

    These are exactly the constructs the analysis pipeline silently skips —
    non-affine subscripts or bounds, runtime-scalar subscripts/trip counts,
    distributed reads in IF conditions, partitioned or read-modify writes to
    undistributed (replicated) arrays, pipelined placements — for which
    emitted code would read stale non-local data, race on shared data, or
    fail route binding — plus a REDUCTION clause, which no partitioning
    may honour under the bitwise contract, and a partitioned write to a
    scalar that is not private to each iteration or is read after its
    loop (:func:`_scalar_write_reason`; *top* is the unit's body).
    ``private`` names NEW/LOCALIZE arrays whose partitioned handling is
    already correct by construction.  *nest* is the nest's one
    ``NestInfo``, the one its communication analysis read."""
    known = set(merged)
    loop_vars = {
        s.var.lower() for s in walk_stmts([item]) if isinstance(s, DoLoop)
    }
    dist_touch = False
    shared_repl_writes: set[str] = set()
    parents = build_parent_map([item])
    for s in walk_stmts([item]):
        if isinstance(s, IfThen):
            for ref in collect_array_refs(s.cond):
                if ctx.is_distributed(ref.name):
                    return f"IF condition reads distributed array {ref.name!r}"
        elif isinstance(s, DoLoop):
            if s.directive is not None and s.directive.reduction_vars:
                return (
                    f"REDUCTION({', '.join(s.directive.reduction_vars)}) is "
                    "not honoured because a rank-partial sum is not bitwise "
                    "the serial order"
                )
            for e in _loop_bound_exprs(s):
                for ref in collect_array_refs(e):
                    if ctx.is_distributed(ref.name):
                        return f"loop bound reads distributed array {ref.name!r}"
        elif isinstance(s, Assign):
            scp = cps.get(s.sid)
            partitioned = scp is not None and not scp.cp.is_replicated
            if partitioned and isinstance(s.lhs, Var):
                reason = _scalar_write_reason(s, scp.cp, ctx, parents, top)
                if reason is not None:
                    return reason
            if isinstance(s.lhs, ArrayRef):
                lname = s.lhs.name.lower()
                if lname not in private and ctx.layout(lname) is None:
                    if partitioned:
                        # each rank would write only its slice of an array
                        # every rank is supposed to hold in full
                        return (
                            f"partitioned write to undistributed array {lname!r}"
                        )
                    shared_repl_writes.add(lname)
            drefs = [r for r in _stmt_array_refs(s) if ctx.is_distributed(r.name)]
            if not drefs:
                continue
            dist_touch = True
            if partitioned and nest.bounds_of(s) is None:
                return "non-affine loop structure around a partitioned statement"
            for r in drefs:
                if r.affine_subscripts() is None:
                    return f"non-affine subscript on distributed array {r.name!r}"
                for sub_e in r.subscripts:
                    free = _expr_scalar_names(sub_e) - loop_vars - known
                    if free:
                        return (
                            f"subscript of {r.name!r} uses runtime scalar "
                            f"{sorted(free)[0]!r}"
                        )
            if (
                partitioned
                and isinstance(s.lhs, ArrayRef)
                and ctx.is_distributed(s.lhs.name)
                and s.lhs.name.lower() not in private
            ):
                # NEW/LOCALIZE arrays are per-rank private copies, so a
                # non-owner-computes write cannot race across ranks
                reason = _output_race_reason(s, scp, nest, ctx)
                if reason is not None:
                    return reason
    # an array both written in the nest and fetched by a hoisted read event
    # has an intra-nest cross-rank dependence; the MPI target's pre-nest
    # copy-in handles the anti direction, but the shmem target realizes the
    # event as a bare barrier, so another rank's write can overtake the read
    written_names = {
        s.lhs.name.lower()
        for s in walk_stmts([item])
        if isinstance(s, Assign) and isinstance(s.lhs, ArrayRef)
    }
    read_names = {
        r.name.lower() for r in _stmt_array_refs(item, reads_only=True)
    }
    for ev in plan.live_events():
        if ev.kind == "read" and ev.array.lower() in written_names:
            return (
                f"array {ev.array!r} is both communicated and written "
                "within the nest"
            )
        # a writeback means non-owner ranks hold the fresh values until the
        # post-nest merge, so any same-nest read of that array on the owner
        # sees stale data (a flow dependence routed through the writeback)
        if ev.kind == "writeback" and ev.array.lower() in read_names:
            return (
                f"array {ev.array!r} is read in the nest but written "
                "non-owner-computes (stale reads before the writeback merges)"
            )
    racy = shared_repl_writes & read_names
    if racy:
        # replicated writes to a shared (undistributed) array the nest also
        # reads are not idempotent under the shmem target's concurrent
        # re-execution; degraded nests run single-writer there instead
        return (
            f"replicated write to shared array {sorted(racy)[0]!r} "
            "that the nest also reads"
        )
    if dist_touch or plan.live_events():
        for s in walk_stmts([item]):
            if isinstance(s, DoLoop):
                for e in _loop_bound_exprs(s):
                    free = _expr_scalar_names(e) - loop_vars - known
                    if free:
                        return f"loop bound uses runtime scalar {sorted(free)[0]!r}"
    return _pipelined_reason(plan)


def _pipelined_reason(plan: CommPlan) -> "str | None":
    """The screen's verdict on communication left inside a loop: the code
    generator has no pipelined sends (wavefront kernels are executed by
    :mod:`repro.parallel.dhpf`)."""
    for ev in plan.live_events():
        if ev.placement.pipelined:
            return f"pipelined communication for array {ev.array!r}"
    return None


def _output_race_reason(s: Assign, scp: StatementCP, nest, ctx) -> "str | None":
    """Cross-rank output-race check for a partitioned distributed write.

    Owner-computes (the CP's home is the lhs reference itself) serializes
    same-element writes on the owning rank, preserving serial order.  Under
    any other home, writes reach the owner via write-back messages from
    whichever ranks execute the writing iterations — safe only if distinct
    iterations write distinct elements, i.e. the lhs subscripts use each
    enclosing loop variable in exactly one position."""
    from ..cp.model import OnHomeRef

    lhs_term = OnHomeRef.from_ref(s.lhs)
    lhs_key = cp_key(lhs_term, ctx) if lhs_term is not None else None
    term_keys = {cp_key(t, ctx) for t in scp.cp.terms}
    if lhs_key is not None and lhs_key in term_keys:
        return None  # owner-computes
    enclosing = {loop.var.lower() for loop in nest.loops_of(s)}
    sub_vars = [_expr_scalar_names(e) & enclosing for e in s.lhs.subscripts]
    flat = [v for vs in sub_vars for v in vs]
    injective = (
        set(flat) == enclosing
        and len(flat) == len(set(flat))
        and all(len(vs) <= 1 for vs in sub_vars)
    )
    if not injective:
        return (
            f"possible cross-rank output race writing {s.lhs.name!r} "
            "under a non-owner-computes partitioning"
        )
    return None


def _replicated_nest(
    item: DoLoop, ctx: DistributionContext,
) -> "tuple[dict[int, StatementCP], CommPlan]":
    """Conservative fallback plan for one nest: every rank executes every
    iteration (CP = replicated) on data made consistent by one pre-nest
    broadcast per distributed array the nest reads (each rank fetches the
    declared-bounds box minus its own elements from the owners).

    Correct by construction: after the broadcast every rank holds the
    owner's value of every element it may read; all ranks then compute
    identical values — including each owner for its own elements — so no
    write-back is needed and later nests still see owner-valid data.
    """
    from contextlib import nullcontext

    cps: dict[int, StatementCP] = {
        s.sid: StatementCP(s, CP.replicated(), [], 0.0, source="fallback")
        for s in walk_stmts([item])
        if isinstance(s, Assign)
    }
    read_arrays = {
        ref.name.lower() for ref in _stmt_array_refs(item, reads_only=True)
    }
    events: list[CommEvent] = []
    budget = active_budget()
    with budget.suspend() if budget is not None else nullcontext():
        for name in sorted(read_arrays):
            layout = ctx.layout(name)
            if layout is None:
                continue
            data = ctx.declared_bounds_set(name).subtract(layout.ownership())
            if data.is_empty():
                continue
            events.append(CommEvent(name, "read", item, None, data, Placement(0), ()))
    return cps, CommPlan(events, (item,), frozenset())


def select_program(
    sub: Subroutine,
    ctx: DistributionContext,
    merged: Mapping[str, int],
    sink: "DiagnosticSink | None" = None,
) -> ProgramSelection:
    """Run the rank-symbolic half of the analysis pipeline (CP selection,
    NEW/LOCALIZE propagation, comm-sensitive grouping — everything but
    communication analysis, which is :func:`analyze_program`) on every
    top-level nest of *sub*.

    The result references only the distribution layout's structure, not
    concrete communication sets, so a selection computed at the canonical
    processor count (:func:`repro.distrib.layout.canonical_nprocs`) can be
    specialized to any target count by :func:`analyze_program`.  With a
    lenient *sink*, a nest whose selection fails
    records a ``failure`` reason instead of raising; specialization then
    degrades exactly those nests to replicated execution.
    """
    merged = dict(merged)
    sel = CPSelector(ctx, eval_params=merged)
    grouper = CPGrouper(ctx, sel)
    lenient = sink is not None and not sink.strict
    nests: list[NestSelection] = []
    for item in sub.body:
        if not isinstance(item, DoLoop):
            continue
        try:
            nests.append(_select_one_nest(item, ctx, merged, sel, grouper))
        except Exception as exc:
            if not lenient:
                raise
            # degrade at specialization, never crash
            reason = _nest_failure(exc, sink, len(nests))
            nests.append(
                NestSelection({}, set(), set(), frozenset(), failure=reason)
            )
    return ProgramSelection(ctx.nprocs, nests)


def _nest_failure(exc: Exception, sink: DiagnosticSink, nest_idx: int) -> str:
    """Lenient mode: why nest *nest_idx* degrades after *exc* escaped its
    analysis.  A tripped iset budget (the active one) also warns
    ``W-BUDGET`` and opens a fresh op window for the remaining nests."""
    if isinstance(exc, BudgetExceeded):
        budget = active_budget()
        if budget is not None:
            budget.reset_ops()
        sink.warn(str(exc), code=W_BUDGET, pass_name="isets", nest=nest_idx)
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def analyze_program(
    sub: Subroutine,
    ctx: DistributionContext,
    merged: Mapping[str, int],
    selection: ProgramSelection,
    sink: "DiagnosticSink | None" = None,
) -> tuple:
    """Specialize a *selection* (from :func:`select_program`, usually made
    at a different — canonical — processor count) to the processor count of
    *ctx*: communication analysis of every top-level nest of *sub* under
    the skeleton's CP choices, then the soundness screen
    (:func:`_nest_degrade_reason`) over each analyzed nest.

    Returns ``(cps, nest_plans, private_arrays, localized_arrays,
    verdicts, nests, iteration_sets)``.  ``nests`` holds each nest's
    :class:`NestInfo` (None where selection failed), dependences and all,
    for the vector planner; ``iteration_sets`` maps the sid of each
    statement of an analyzed, undegraded nest to the iteration set the
    communication analysis derived for it, which the code generator
    reads its guards off.  ``verdicts`` maps a nest's index to the screen's reason
    why code generated from its plan would be wrong; the plan is returned
    all the same, because the static verifier and the cost model
    (:mod:`repro.check`) stop here and work on plans ``stage_codegen``
    refuses (pipelined communication, §5).

    With a lenient *sink* (``DiagnosticSink(strict=False)``) no verdict is
    left standing: any nest the pipeline cannot analyze soundly — a
    ``failure`` recorded by selection, a raised analysis error, a verdict
    of the screen, or a tripped iset budget (the active one) — degrades
    to the replicated fallback of :func:`_replicated_nest` with an
    ``I-FALLBACK`` (or ``W-BUDGET``) diagnostic.  Strict analysis raises
    what lenient analysis catches.
    """
    merged = dict(merged)
    cps_all: dict[int, StatementCP] = {}
    nest_plans: list[tuple[DoLoop, CommPlan]] = []
    infos: list = []
    iter_sets: dict = {}
    private_arrays: set[str] = set()
    localized_arrays: set[str] = set()
    verdicts: dict[int, str] = {}
    degraded = False
    lenient = sink is not None and not sink.strict
    nests = [item for item in sub.body if isinstance(item, DoLoop)]
    if len(nests) != len(selection.nests):
        raise ValueError("selection skeleton does not match program nests")
    for nest_idx, (item, nsel) in enumerate(zip(nests, selection.nests)):
        reason = nsel.failure
        if reason is not None and not lenient:
            raise ValueError(f"selection failed for nest {nest_idx}: {reason}")
        cps = nsel.cps
        privs = set(nsel.private_arrays)
        locs = set(nsel.localized_arrays)
        plan = nest = None
        iters = {}
        if reason is None:
            nest = nest_for(item, nsel.nest, merged)
            try:
                plan, iters = _comm_one_nest(item, nsel, nest, ctx, merged)
                reason = _nest_degrade_reason(
                    item, nest, cps, plan, ctx, merged, private=privs | locs,
                    top=sub.body,
                )
            except Exception as exc:
                if not lenient:
                    raise
                reason = _nest_failure(exc, sink, nest_idx)
        if reason is not None and lenient:
            sink.fallback(
                f"nest degraded to replicated execution: {reason}",
                pass_name="cp", nest=nest_idx,
            )
            cps, plan = _replicated_nest(item, ctx)
            privs, locs = set(), set()
            degraded = True
            iters = {}
        elif reason is not None:
            # a refusal names pipelined communication before anything else
            # the screen found in the nest: such a kernel belongs to another
            # executor, whatever else about it is rewritten
            verdicts[nest_idx] = _pipelined_reason(plan) or reason
        private_arrays |= privs
        localized_arrays |= locs
        cps_all.update(cps)
        iter_sets.update(iters)
        nest_plans.append((item, plan))
        infos.append(nest)
    if degraded and (private_arrays or localized_arrays):
        # NEW arrays are per-rank and LOCALIZE suppresses owner write-backs
        # (owners may hold stale data) — a replicated nest reading either
        # would see garbage.  Only the whole-program fallback is safe.
        raise ValueError(
            "degraded nest coexists with NEW/LOCALIZE arrays; "
            "replicated execution cannot read privatized data"
        )
    return (cps_all, nest_plans, private_arrays, localized_arrays, verdicts,
            infos, iter_sets)


def _strip_directives(sub: Subroutine) -> Subroutine:
    """Deep copy of *sub* with every HPF directive removed (declarative and
    loop-level).  With no DISTRIBUTE in scope nothing is distributed, so CP
    selection replicates every statement and no communication is generated —
    the maximally conservative, trivially correct compilation."""
    import copy

    bare = copy.deepcopy(sub)
    bare.processors = []
    bare.templates = []
    bare.aligns = []
    bare.distributes = []
    for s in walk_stmts(bare.body):
        if isinstance(s, DoLoop):
            s.directive = None
    return bare


def _flatten_program(prog: Program, sink: DiagnosticSink) -> Subroutine:
    """Lenient handling of multi-unit programs: inline every call bottom-up
    (callee-first) and return the root unit.  Raises a typed
    :class:`CompileError` (via *sink*) if a call cannot be inlined."""
    from ..transform.inline import InlineError, inline_calls

    order = prog.bottom_up_order()  # CompileError on recursion propagates
    called = {c.name.lower() for u in order for c in u.calls()}
    root = prog.main
    if root is None:
        uncalled = [u for u in order if u.name.lower() not in called]
        root = uncalled[-1] if uncalled else order[-1]
    for callee in order:
        if callee is root:
            continue
        for caller in order:
            if any(c.name.lower() == callee.name.lower() for c in caller.calls()):
                try:
                    n = inline_calls(prog, caller.name, callee.name)
                except InlineError as exc:
                    sink.error(
                        f"cannot inline CALL {callee.name}: {exc}",
                        code=E_UNSUPPORTED,
                        pass_name="ir",
                    )
                    raise sink.as_error()
                if n:
                    sink.fallback(
                        f"inlined {n} call(s) to {callee.name} into "
                        f"{caller.name} for single-unit compilation",
                        pass_name="ir",
                    )
    return root


def compile_kernel(
    source_or_sub: "str | Subroutine | Program",
    nprocs: int,
    params: Mapping[str, int] | None = None,
    backend: str = "vector",
    strict: bool = True,
    sink: "DiagnosticSink | None" = None,
    budget: "IsetBudget | None" = None,
) -> "CompiledKernel":
    """Run the full dHPF pipeline on a single program unit and build the
    executable SPMD kernel.

    ``backend`` selects the node-code emission strategy: ``"vector"``
    (default) lowers dependence-free innermost affine loops to NumPy slice
    assignments, falling back to per-element emission statement-by-statement
    whenever safety cannot be proven; ``"scalar"`` always emits per-element
    loops.  Both backends produce bitwise-identical arrays.

    Every compile runs the same pipeline and the same soundness screen
    (:func:`screen_program`, :func:`_nest_degrade_reason`); ``strict``
    only says what a verdict means.  Constructs the analyses cannot handle
    (non-affine subscripts, runtime trip counts, CALLs, pipelined
    communication, ...) make a strict compile raise a typed
    :class:`CodegenUnsupported` naming the screen's reason; with
    ``strict=False`` they — and a tripped iset budget — degrade the
    enclosing nest, or when necessary the whole program, to replicated
    execution, each with an ``I-FALLBACK`` diagnostic carrying that same
    reason on the kernel's :class:`~repro.diag.DiagnosticSink`.  On
    well-formed input lenient compilation never raises; ill-formed source
    still raises a single :class:`~repro.diag.CompileError` carrying *all*
    collected diagnostics.  Pass ``sink``/``budget`` to observe diagnostics
    and iset resource usage; fresh ones are created otherwise.

    The static SPMD verifier is a separate step:
    ``repro.check.verify_kernel(compile_kernel(...))``.

    Since PR 7 this is a thin wrapper over the staged pipeline in
    :mod:`repro.compile.pipeline`.  String sources are routed through the
    content-addressed plan cache (:mod:`repro.compile.cache`): a warm hit
    deserializes the compiled kernel and replays its recorded diagnostics
    into *sink* instead of re-running analysis, producing a
    bitwise-identical kernel.  Passing an explicit *budget* bypasses cache
    reads (the caller is observing analysis cost); ``Program``/
    ``Subroutine`` inputs and in-flight failures are never cached.
    """
    if backend not in ("vector", "scalar"):
        raise ValueError(f"unknown codegen backend {backend!r}")
    if sink is None:
        sink = DiagnosticSink(strict=strict)
    params = dict(params or {})

    from ..compile.cache import active_cache
    from ..compile.pipeline import build_kernel, cached_compile

    cache = active_cache() if isinstance(source_or_sub, str) else None
    if cache is not None:
        return cached_compile(
            source_or_sub, nprocs, params, backend, sink, budget, cache
        )
    return build_kernel(source_or_sub, nprocs, params, backend, sink, budget)


# ---------------------------------------------------------------------------
# compiled kernel
# ---------------------------------------------------------------------------

@dataclass
class _Route:
    """Concrete element routing for one hoisted communication event."""

    array: str
    kind: str  # 'read' | 'writeback'
    #: (src_rank, dst_rank) -> cover of the elements sent (``CommEvent.flows``);
    #: None when the event's data reads a run-time scalar
    pairs: "dict[tuple[int, int], tuple] | None"
    tag: int


def build_routes(nest_plans, ctx: DistributionContext, params: Mapping[str, int],
                 grid) -> "list[list[_Route]]":
    """Each nest's message routes: per hoisted live event, its
    ``CommEvent.flows`` on *grid* and a tag unique in the kernel.  An
    event whose data reads a run-time scalar has no static routing
    (``pairs`` None): only a strict analysis the screen refused holds
    one, and no code is generated from that."""
    pdims = {PDIM(g) for g in range(len(grid.shape))}
    return [
        [
            _Route(ev.array, ev.kind,
                   None if ev.data.params() - pdims - params.keys()
                   else ev.flows(ctx, params, grid),
                   1000 + nest_idx * 64 + ei)
            for ei, ev in enumerate(plan.live_events())
            if ev.placement.hoisted  # the others are guarded at compile time
        ]
        for nest_idx, (_root, plan) in enumerate(nest_plans)
    ]


class CompiledKernel:
    """An executable SPMD kernel produced by :func:`compile_kernel`."""

    #: numpy namespace for generated vector code
    np = np

    # math namespace for generated code.  numpy's scalar ufunc paths are used
    # (not ``math.*``) so the scalar and vector backends evaluate
    # transcendentals through the same ufunc implementation — a prerequisite
    # for their bitwise-identical-arrays contract.
    class m:
        sqrt = staticmethod(np.sqrt)
        exp = staticmethod(np.exp)
        log = staticmethod(np.log)
        sin = staticmethod(np.sin)
        cos = staticmethod(np.cos)
        tan = staticmethod(np.tan)
        atan = staticmethod(np.arctan)

    def __init__(self, art: "AnalysisArtifact", backend: str = "vector",
                 sink: "DiagnosticSink | None" = None):
        self.sub, self.ctx, self.params = art.sub, art.ctx, art.params
        self.cps, self.nest_plans, self.nprocs = art.cps, art.nest_plans, art.nprocs
        #: node-code emission strategy ("vector" | "scalar")
        self.backend = backend
        #: per-innermost-loop vectorization decisions, filled during emission
        #: (sid -> repro.codegen.vectorize.LoopReport)
        self.vector_report: dict[int, Any] = {}
        self._vector_plans: dict[int, Any] = {}
        #: array name -> the declared lower bounds the vector backend folded
        #: into its subscripts (checked by :meth:`rank_node`)
        self.folded_lower: dict[str, tuple] = {}
        #: NEW (privatizable) arrays: per-rank private in the shmem target
        self.private_arrays = set(art.private_arrays)
        #: each nest's NestInfo from analysis, dependences computed: the
        #: vector planner and the verifier read them instead of a pass of
        #: their own (run-time state of the compile, not pickled)
        self.nests = tuple(art.nests)
        #: LOCALIZE'd arrays: partially replicated, no comm (§4.2)
        self.localized_arrays = set(art.localized_arrays)
        #: structured diagnostics collected while building this kernel
        self.sink = sink
        #: True when built under a lenient (strict=False) sink
        self.lenient = sink is not None and not sink.strict
        #: indices into nest_plans whose statements run replicated (fallback)
        fallback = {sid for sid, scp in self.cps.items() if scp.source == "fallback"}
        self.degraded_nests = {
            idx
            for idx, (item, _) in enumerate(self.nest_plans)
            if fallback and any(s.sid in fallback for s in walk_stmts([item]))
        }
        #: iset resource budget charged during analysis (set by compile_kernel)
        self.budget: "IsetBudget | None" = None
        self._dropped_sids: set[int] = set()
        self.grid = self.ctx.the_grid()
        if self.grid.size != self.nprocs:
            raise ValueError(f"grid size {self.grid.size} != nprocs {self.nprocs}")
        #: per nest, the message routes of its hoisted live events
        self.routes = art.routes
        group, sets, entries = art.guards
        #: ``(group, sets)``: the symbolic iteration sets behind the guards,
        #: which the vector planner proves coverage on (compile state, like
        #: ``nests``: not pickled)
        self._symbolic_guards = (group, sets)
        #: ``(group, entries)``: what :meth:`bind_guards` evaluates per rank
        #: (compile output, carried by the pickled kernel)
        self.guard_plan = (group, entries)
        self._guard_cache: dict[int, Guards] = {}
        self._sources: dict[str, str] = {}
        self._fns: dict[str, Callable] = {}

    # -- pickling (plan-cache artifacts) ------------------------------------------
    def __getstate__(self):
        # exec'd node-program functions don't pickle; they rebuild on
        # demand from _sources, which round-trips verbatim — so a warm
        # kernel emits bitwise-identical node programs
        state = self.__dict__.copy()
        state["_fns"] = {}
        # bound guards (every rank's boxes and query answers) are run-time
        # state: they rebind on demand from the guard plan, which is
        # compile output and rides along.  The symbolic sets the plan was
        # read off, the analysis nests and the vector planner's memo are
        # compile state, dead once both node programs are emitted.
        state["_guard_cache"] = {}
        for name in ("_symbolic_guards", "_parents", "nests", "_vector_plans"):
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    @property
    def diagnostics(self) -> list:
        """All structured diagnostics collected while compiling this kernel
        (empty for strict compilations that attached no sink)."""
        return list(self.sink.diagnostics) if self.sink is not None else []

    @property
    def fallback_diagnostics(self) -> list:
        """Just the ``I-FALLBACK`` degradation records."""
        return self.sink.fallbacks() if self.sink is not None else []

    # -- helpers exposed to generated code (the `K` object) -----------------------
    @staticmethod
    def fdiv(a, b):
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            return fortran_trunc_div(a, b)  # truncates toward zero
        return a / b

    # Fortran intrinsic semantics for negative operands (MOD keeps the sign
    # of the first argument; NINT rounds halves away from zero; SIGN
    # transfers the sign bit) — shared with the serial interpreter so the
    # reference and generated code agree bit-for-bit.
    fmod = staticmethod(fortran_mod)
    nint = staticmethod(fortran_nint)
    fsign = staticmethod(fortran_sign)

    @staticmethod
    def do_range(lo, hi, step=1):
        return range(int(lo), int(hi) + (1 if step > 0 else -1), int(step))

    @staticmethod
    def guard(G: Guards, sid: int, point: tuple) -> bool:
        try:
            points = G.tables[sid]
        except KeyError:
            points = G.point_table(sid)
        return True if points is None else point in points

    @staticmethod
    def boxed(value):
        """*value* as a 0-d object array: a message payload whose
        ``.item()`` is the value itself, its type (int, float or numpy
        scalar) intact."""
        return np.array(value, dtype=object)

    # -- vector-backend runtime helpers ---------------------------------------
    #: read-only backing store for :meth:`arange` (grown on demand; shared
    #: across ranks, which is safe precisely because it is immutable)
    _arange_base = np.arange(0)

    @classmethod
    def arange(cls, lo, hi):
        """Inclusive Fortran-style index vector ``[lo..hi]``.

        Generated code only ever reads these (index vectors appear on the
        right-hand side), so non-negative ranges are served as views of one
        cached, write-protected base array instead of a fresh allocation
        per guard segment."""
        lo = int(lo)
        hi = int(hi)
        if lo < 0:
            return np.arange(lo, hi + 1)
        if hi >= cls._arange_base.size:
            base = np.arange(max(hi + 1, 2 * cls._arange_base.size, 64))
            base.setflags(write=False)
            CompiledKernel._arange_base = base
        return cls._arange_base[lo:hi + 1]

    @staticmethod
    def xtemp(arr, *axes):
        """Block temporary (an ndarray) of a NEW array expanded along a
        nest's sunk loops: *arr*'s axes plus one per sunk loop, given as
        flat ``position, lo, hi`` triples in ascending position; a sunk
        axis is indexed from its loop's lower bound.  Only elements the
        nest writes are ever read (the planner's coverage proof)."""
        shape = list(arr.data.shape)
        for pos, lo, hi in zip(axes[::3], axes[1::3], axes[2::3]):
            shape.insert(pos, max(int(hi) - int(lo) + 1, 0))
        return np.empty(shape, dtype=arr.data.dtype, order="F")

    @staticmethod
    def vdiv(a, b):
        """Elementwise ``/`` with Fortran integer-division semantics when
        both operands are integral (matches :meth:`fdiv` elementwise)."""
        if _integral(a) and _integral(b):
            q = np.floor_divide(a, b)
            r = a - q * b
            return q + ((r != 0) & (q < 0))  # floor -> trunc where signs differ
        return a / b

    @staticmethod
    def vmod(a, b):
        """Elementwise Fortran MOD (sign of the first argument)."""
        if _integral(a) and _integral(b):
            return a - b * CompiledKernel.vdiv(a, b)
        return np.fmod(a, b)

    @staticmethod
    def vnint(x):
        """Elementwise Fortran NINT (halves away from zero)."""
        return np.where(
            np.asarray(x) >= 0, np.floor(np.asarray(x) + 0.5), np.ceil(np.asarray(x) - 0.5)
        ).astype(np.int64)

    @staticmethod
    def vint(x):
        """Elementwise Fortran INT (truncation toward zero)."""
        return np.trunc(x).astype(np.int64)

    @staticmethod
    def vdbl(x):
        return np.asarray(x, dtype=np.float64)

    @staticmethod
    def vsign(a, b):
        """Elementwise Fortran SIGN; integer arguments keep integer type."""
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.dtype.kind in "iu" and b_arr.dtype.kind in "iu":
            return np.where(b_arr >= 0, np.abs(a_arr), -np.abs(a_arr))
        return np.copysign(np.abs(a_arr), b_arr)

    # -- guards ---------------------------------------------------------------
    #: see ``__init__``
    _symbolic_guards: tuple | None = None
    nests: tuple = ()
    #: see :meth:`guard_vars`
    _parents: dict | None = None

    def guard_vars(self, stmt: Stmt) -> list[str]:
        """The loop variables of *stmt*'s guard tuple: its enclosing loops,
        outermost first, the layout of its guard set (``K.guard`` points,
        ``G.boxes`` templates).  The parent map behind it is built at the
        first ask and kept (run-time state: not pickled)."""
        if self._parents is None:
            self._parents = build_parent_map(self.sub.body)
        return [loop.var for loop in enclosing_loops(stmt, self._parents)]

    def nest_info(self, stmt: Stmt) -> NestInfo:
        """The :class:`NestInfo` of the top-level nest holding *stmt*: the
        one analysis built (its dependences already computed) when this
        kernel has it, else a fresh one."""
        for idx, (root, _plan) in enumerate(self.nest_plans):
            if any(s is stmt for s in walk_stmts([root])):
                nest = self.nests[idx] if idx < len(self.nests) else None
                return nest_for(root, nest, self.params)
        raise KeyError(stmt.sid)

    def bind_guards(self, rank_id: int) -> Guards:
        """Per-statement concrete iteration sets for one rank (cached): the
        guard plan's entries covered at the rank's grid coordinates
        (:func:`~repro.codegen.guards.guard_cover`)."""
        out = self._guard_cache.get(rank_id)
        if out is not None:
            return out
        with profile_phase("bind-guards"):
            group, entries = self.guard_plan
            pbind = proc_binding(self.grid.delinearize(rank_id))
            bound = [guard_cover(entry, pbind) for entry in entries]
            out = self._guard_cache[rank_id] = Guards(
                (sid, None if g is None else bound[g]) for sid, g in group.items()
            )
        return out

    def bind_all_guards(self) -> None:
        """Bind every rank's guards on the calling thread.  The executors
        do this before they start rank threads or fork a gang, so the node
        program's ``K.bind_guards(rank.rank)`` is a dict hit: binding
        inside P threads sharing the GIL takes P times as long, and a
        forked worker's bindings die with it."""
        for rank_id in range(self.nprocs):
            self.bind_guards(rank_id)

    # -- communication routing -----------------------------------------------------
    def exec_comm(self, rank: Rank, A: Mapping[str, FortranArray], nest_idx: int, kind: str) -> None:
        """Execute the hoisted communication of one nest (generated code
        calls this before ['read'] and after ['writeback'] the nest).  A
        message is its cover's box views, each raveled, in cover order."""
        me = rank.rank
        for route in self.routes[nest_idx]:
            if route.kind != kind:
                continue
            arr = A[route.array]
            for (src, dst), cover in route.pairs.items():
                if src == me:
                    buf = np.concatenate([v.ravel() for v in _views(arr, cover)])
                    rank.send(dst, buf.astype(np.float64, copy=False), tag=route.tag)
            for (src, dst), cover in route.pairs.items():
                if dst == me:
                    buf = rank.recv(src, tag=route.tag)
                    off = 0
                    for view in _views(arr, cover):
                        view[...] = buf[off:off + view.size].reshape(view.shape)
                        off += view.size

    # -- code generation -----------------------------------------------------------
    def python_source(self, target: str = "mpi") -> str:
        """The generated node program (real, exec-able Python).

        ``target`` selects dHPF's two back ends (§2: "node programs ...
        that use either MPI message-passing primitives or shared-memory
        communication"): ``"mpi"`` realizes the hoisted communication
        events as messages; ``"shmem"`` shares one address space across
        ranks and replaces each communication point with a barrier (data
        written by the owner is directly visible after synchronization).
        """
        if target not in ("mpi", "shmem"):
            raise ValueError(f"unknown codegen target {target!r}")
        if target in self._sources:
            return self._sources[target]
        lines: list[str] = [
            f"# SPMD node program generated by dhpf-py for {self.sub.name}",
            f"# target {target}, backend {self.backend}, "
            f"grid {self.grid.shape}, params {self.params}",
            "def node_program(rank, A, S, K):",
            "    G = K.bind_guards(rank.rank)",
        ]
        nest_idx = 0
        for item in self.sub.body:
            if isinstance(item, DoLoop):
                degraded = nest_idx in self.degraded_nests
                if target == "mpi":
                    lines.append(f"    K.exec_comm(rank, A, {nest_idx}, 'read')")
                else:
                    lines.append(f"    rank.barrier(tag={6000 + nest_idx})")
                if degraded and target == "shmem":
                    # Replicated fallback nests may read-modify-write; with a
                    # shared address space every rank re-applying the update
                    # would double-count, so rank 0 computes for everyone
                    # (visible to all after the post-nest barrier).
                    lines.append("    if rank.rank == 0:")
                    self._emit_stmt(item, lines, indent=2, locals_=set())
                else:
                    self._emit_stmt(item, lines, indent=1, locals_=set())
                if target == "mpi":
                    lines.append(f"    K.exec_comm(rank, A, {nest_idx}, 'writeback')")
                else:
                    lines.append(f"    rank.barrier(tag={6100 + nest_idx})")
                if degraded and target == "shmem":
                    self._emit_scalar_publish(item, nest_idx, lines)
                nest_idx += 1
            else:
                self._emit_stmt(item, lines, indent=1, locals_=set())
        lines.append("    return A")
        self._sources[target] = "\n".join(lines) + "\n"
        return self._sources[target]

    @staticmethod
    def _emit_scalar_publish(nest: DoLoop, nest_idx: int, lines: list[str]) -> None:
        """After a degraded nest on shmem, which only rank 0 ran: send the
        scalars it assigns to the other ranks, whose scalar environments
        are their own."""
        names = sorted({
            s.lhs.name.lower() for s in walk_stmts([nest])
            if isinstance(s, Assign) and isinstance(s.lhs, Var)
        })
        if not names:
            return
        tag = 6200 + nest_idx
        lines += [
            f"    for _name in {tuple(names)!r}:",
            "        if rank.rank == 0:",
            "            for _dst in range(1, rank.size):",
            f"                rank.send(_dst, K.boxed(S[_name]), tag={tag})",
            "        else:",
            f"            S[_name] = rank.recv(0, tag={tag}).item()",
        ]

    def _emit_stmt(self, s: Stmt, lines: list[str], indent: int, locals_: set[str]) -> None:
        pad = "    " * indent
        if isinstance(s, Assign):
            rhs = emit_expr(s.rhs, locals_)
            target = emit_assign_target(s.lhs, rhs, locals_)
            scp = self.cps.get(s.sid)
            if scp is not None and not scp.cp.is_replicated and locals_:
                point = ", ".join(self.guard_vars(s))
                lines.append(f"{pad}if K.guard(G, {s.sid}, ({point},)):")
                lines.append(f"{pad}    {target}")
            else:
                lines.append(f"{pad}{target}")
            return
        if isinstance(s, DoLoop):
            if self.backend == "vector":
                from .vectorize import try_emit_vector_loop

                if try_emit_vector_loop(self, s, lines, indent, locals_):
                    return
            lo = emit_expr(s.lo, locals_)
            hi = emit_expr(s.hi, locals_)
            step = emit_expr(s.step, locals_)
            lines.append(f"{pad}for {s.var} in K.do_range({lo}, {hi}, {step}):")
            inner = set(locals_) | {s.var}
            if not s.body:
                lines.append(f"{pad}    pass")
            for c in s.body:
                self._emit_stmt(c, lines, indent + 1, inner)
            return
        if isinstance(s, IfThen):
            lines.append(f"{pad}if {emit_expr(s.cond, locals_)}:")
            if not s.then_body:
                lines.append(f"{pad}    pass")
            for c in s.then_body:
                self._emit_stmt(c, lines, indent + 1, locals_)
            if s.else_body:
                lines.append(f"{pad}else:")
                for c in s.else_body:
                    self._emit_stmt(c, lines, indent + 1, locals_)
            return
        if isinstance(s, (Continue, Return)):
            lines.append(f"{pad}pass")
            return
        if self.lenient:
            # Side-effect-free from the arrays' point of view (PRINT and
            # friends): drop from generated code, once per statement.
            if self.sink is not None and s.sid not in self._dropped_sids:
                self._dropped_sids.add(s.sid)
                self.sink.fallback(
                    f"{type(s).__name__} dropped from generated code",
                    pass_name="codegen",
                    stmt_sid=s.sid,
                )
            lines.append(f"{pad}pass")
            return
        raise CodegenUnsupported(f"cannot emit {type(s).__name__}")

    # -- execution ------------------------------------------------------------------
    def node_program(self, target: str = "mpi") -> Callable:
        """Compile (exec) the generated source for one back end."""
        if target not in self._fns:
            src = self.python_source(target)
            ns: dict[str, Any] = {}
            exec(compile(src, f"<dhpf:{self.sub.name}:{target}>", "exec"), ns)
            self._fns[target] = ns["node_program"]
        return self._fns[target]

    def make_arrays(self) -> dict[str, FortranArray]:
        """Fresh full-shape arrays for one rank (valid only where owned or
        received — the compiler's 'overlap everything' simplification)."""
        out: dict[str, FortranArray] = {}
        for decl in self.sub.symbols.all():
            if decl.is_array:
                out[decl.name.lower()] = FortranArray.from_decl(decl, self.params)
        return out

    def rank_node(
        self,
        target: str,
        scalars: Mapping[str, Any],
        arrays=None,
        init: Callable[[int, dict[str, FortranArray]], None] | None = None,
    ) -> Callable[[Rank], Any]:
        """The function each rank of an executor runs: the emitted node
        program of *target* on that rank's arrays, with a scalar
        environment of its own (*scalars*, then the compile-time params).
        Guards are bound and the program exec'd here, on the calling
        thread, before any rank thread starts or gang forks.

        ``"mpi"``: every rank computes on a private array set — entry
        ``rank`` of *arrays* when the caller allocated them, else made on
        the rank — seeded by ``init(rank_id, arrays)``, and returns it.
        ``"shmem"``: *arrays* is the one shared, already seeded set;
        privatizable (NEW) temporaries get per-rank storage — their HPF
        semantics — and nothing is returned.  The arrays handed in must
        have the lower bounds the vector backend folded (``ValueError``)."""
        fn = self.node_program(target)
        for A in [arrays] if target == "shmem" else arrays or ():
            for name, lower in self.folded_lower.items():
                if name in A and tuple(A[name].lower) != lower:
                    raise ValueError(
                        f"array {name!r} has lower bounds {tuple(A[name].lower)}"
                        f"; the node program was emitted for {lower}")
        self.bind_all_guards()

        def node(rank: Rank):
            if target == "shmem":
                A = dict(arrays)
                for name in self.private_arrays:
                    if name in A:
                        A[name] = FortranArray.from_decl(
                            self.sub.symbols.require(name), self.params
                        )
            else:
                A = arrays[rank.rank] if arrays is not None else self.make_arrays()
                if init is not None:
                    init(rank.rank, A)
            S = dict(scalars)
            for k, v in self.params.items():
                S.setdefault(k, v)
            fn(rank, A, S, self)
            return A if target == "mpi" else None

        return node

    def run(
        self,
        scalars: Mapping[str, Any],
        init: Callable[[int, dict[str, FortranArray]], None] | None = None,
        vm: VirtualMachine | None = None,
    ) -> list[dict[str, FortranArray]]:
        """Execute on all ranks of a VirtualMachine; returns per-rank arrays.

        ``init(rank_id, arrays)`` seeds input data (every rank must seed at
        least its owned elements; seeding everything replicates the serial
        initial state, which is the common test setup).  Real processes
        run the same node program through
        :func:`repro.runtime.procexec.run_kernel`.
        """
        vm = vm or VirtualMachine(self.nprocs, record_trace=False)
        # the caller receives these arrays and frees them, so the caller
        # allocates them: made by the short-lived rank threads they land in
        # per-thread malloc arenas whose freed space the next run's threads
        # do not find again, and resident memory creeps from run to run
        # (fig6.1 n=13: +6 MB over 40 runs, flat when allocated here)
        arrays = [self.make_arrays() for _ in range(self.nprocs)]
        return vm.run(self.rank_node("mpi", scalars, arrays, init))

    def run_shmem(
        self,
        scalars: Mapping[str, Any],
        init: Callable[[dict[str, FortranArray]], None] | None = None,
    ) -> dict[str, FortranArray]:
        """Execute the shared-memory back end: one shared array set, ranks
        as threads, barriers at the points where the MPI target would
        communicate.  Returns the shared arrays.

        ``init(arrays)`` seeds the single shared address space.  Safe by
        construction: within a nest the CP guards make cross-rank writes
        disjoint (partial replication writes identical values), and the
        generated barriers order producer nests before consumer nests.
        :func:`repro.runtime.procexec.run_kernel` with ``target="shmem"``
        maps the arrays onto ``multiprocessing.shared_memory`` segments
        and runs one real OS process per rank.
        """
        vm = VirtualMachine(self.nprocs, _SMP, record_trace=False)
        shared = self.make_arrays()
        if init is not None:
            init(shared)
        vm.run(self.rank_node("shmem", scalars, shared))
        return shared


#: the shmem target's machine: sync via very-low-latency "messages"
_SMP = MachineModel("smp", flop_time=1e-9, alpha=2e-6, beta=1 / 300e6)


def _integral(x) -> bool:
    """An integer ndarray or integer scalar (``vdiv``/``vmod`` operands)."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iu"
    return isinstance(x, (int, np.integer))


def _views(arr: FortranArray, cover: tuple):
    """The views of *arr* its cover's boxes select, in cover order."""
    for box in cover:
        yield arr.data[tuple(
            slice(a - lo, b - lo + 1)
            for a, b, lo in zip(box[::2], box[1::2], arr.lower)
        )]
