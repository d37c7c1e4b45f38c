"""Communication-coverage and overlap-area checks (analyses 1 and 4).

For every read of a distributed array the verifier forms, per
representative processor,

    uncovered = read_footprint(stmt, ref)
                − owned(array)
                − received_before(array)          (live read events)
                − produced_before(array)          (earlier local writes)

and requires it to be empty: every non-local value a statement consumes
must arrive through a live communication event, be computed locally under
partial replication, or already be owned.  NEW/LOCALIZE'd arrays are
excluded from communication by construction (§4.1/§4.2), so their reads
must be covered by earlier local writes alone (``E-LOCAL`` otherwise).

The fourth analysis bounds every live event's received data by the
array's overlap region (its declared bounds by default — the compiler's
"overlap everything" storage simplification; a caller may pass tighter
regions per array to model real overlap areas).
"""

from __future__ import annotations

from typing import Optional

from ..comm.analyzer import CommPlan
from ..cp.nest import NestInfo, statement_access_set
from ..diag import (
    E_COVERAGE,
    E_LOCAL,
    E_OVERLAP,
    W_UNPROVEN,
    Diagnostic,
    Severity,
)
from ..ir.expr import ArrayRef
from ..ir.stmt import DoLoop
from ..ir.visit import collect_array_refs
from ..isets import ISet
from .concrete import ConcreteEvaluator, union_points


def _fmt_points(pts: frozenset, limit: int = 4) -> str:
    shown = sorted(pts)[:limit]
    extra = len(pts) - len(shown)
    body = ", ".join(str(p) for p in shown)
    return body + (f", ... (+{extra} more)" if extra > 0 else "")


#: symbolic difference chains beyond this many subtrahend disjuncts are
#: skipped in favor of the concrete per-rank recheck (difference is
#: exponential in the subtrahend's constraint count)
_SYMBOLIC_BUDGET = 16


def _syntactic_subset(a: ISet, covers: "list[ISet]") -> bool:
    """Fast symbolic proof of ``a ⊆ ∪ covers`` by disjunct matching: every
    part of *a* is literally one of the covering parts, or has a superset
    of some covering part's constraints (= is contained in it).  This is
    the common case by construction — a read's non-local set is one of the
    disjuncts unioned into the coalesced event data."""
    cover_parts = [p for s in covers for p in s.parts]
    for part in a.parts:
        ok = False
        for q in cover_parts:
            if part == q or (
                set(q.constraints) <= set(part.constraints)
                and q.exists == part.exists
            ):
                ok = True
                break
        if not ok:
            return False
    return True


def _chain_within_budget(subtrahends: "list[ISet]") -> bool:
    return sum(len(s.parts) for s in subtrahends) <= _SYMBOLIC_BUDGET


def check_nest_coverage(
    unit,
    nest_idx: int,
    root: DoLoop,
    plan: CommPlan,
    ev: ConcreteEvaluator,
) -> list[Diagnostic]:
    """Prove every read in the nest is covered: footprint minus owned,
    minus received, minus locally-produced-earlier must be empty
    (``E-COVERAGE``; ``E-LOCAL`` for LOCALIZE'd arrays)."""
    diags: list[Diagnostic] = []
    nest = NestInfo(root, unit.params)

    # union of live fetched halo data per array (coalescing already folded
    # absorbed events into the survivor's data set)
    received: dict[str, list[ISet]] = {}
    for e in plan.live_events():
        if e.kind == "read":
            received.setdefault(e.array, []).append(e.data)

    # local production: (textual order, access set) per array, for writes
    # whose footprint the verifier can compute
    produced: dict[str, list[tuple[int, ISet]]] = {}
    footprints: dict[tuple[int, int], Optional[ISet]] = {}

    def footprint(ref: ArrayRef, stmt) -> Optional[ISet]:
        key = (stmt.sid, id(ref))
        if key not in footprints:
            scp = unit.cps.get(stmt.sid)
            footprints[key] = (
                None
                if scp is None
                else statement_access_set(ref, stmt, scp.cp, nest, unit.ctx, unit.params)
            )
        return footprints[key]

    assigns = nest.assignments()
    for stmt in assigns:
        if isinstance(stmt.lhs, ArrayRef) and unit.cps.get(stmt.sid) is not None:
            fp = footprint(stmt.lhs, stmt)
            if fp is not None:
                produced.setdefault(stmt.lhs.name.lower(), []).append(
                    (nest.order[stmt.sid], fp)
                )

    def produced_before(name: str, order: int) -> list[ISet]:
        return [s for o, s in produced.get(name, ()) if o < order]

    for stmt in assigns:
        scp = unit.cps.get(stmt.sid)
        if scp is None:
            continue  # not part of the analyzed region (no CP selected)
        if nest.bounds_of(stmt) is None:
            diags.append(Diagnostic(
                Severity.WARN, W_UNPROVEN,
                "non-affine loop bounds: communication was not derived for "
                "this statement and its reads cannot be verified",
                stmt_sid=stmt.sid, nest=nest_idx,
            ))
            continue
        for ref in collect_array_refs(stmt.rhs):
            name = ref.name.lower()
            excluded = name in plan.excluded_arrays
            layout = unit.ctx.layout(name)
            if not excluded and layout is None:
                continue  # replicated scalar-like array: no distribution
            fp = footprint(ref, stmt)
            if fp is None:
                diags.append(Diagnostic(
                    Severity.WARN, W_UNPROVEN,
                    f"non-affine subscripts in {ref}: no communication was "
                    "derived for this read and coverage cannot be proven",
                    stmt_sid=stmt.sid, array=name, nest=nest_idx,
                ))
                continue
            local_prod = produced_before(name, nest.order[stmt.sid])
            if excluded:
                diags.extend(_check_excluded_read(
                    unit, nest_idx, stmt, name, fp, local_prod, ev,
                ))
            else:
                diags.extend(_check_distributed_read(
                    unit, nest_idx, stmt, name, fp,
                    received.get(name, []), local_prod, layout, ev,
                ))
    return diags


def _subtract_all(base: ISet, subtrahends: list[ISet]) -> ISet:
    out = base
    for s in subtrahends:
        out = out.subtract(s)
        if out.is_empty():
            break
    return out


def _check_distributed_read(
    unit, nest_idx, stmt, name, fp, received, local_prod, layout, ev,
) -> list[Diagnostic]:
    nl = fp.subtract(layout.ownership())
    if nl.is_empty():
        return []
    if _syntactic_subset(nl, received):
        return []
    rest = received + local_prod
    if _chain_within_budget(rest):
        uncovered = _subtract_all(nl, rest)
        if uncovered.is_empty():
            return []
    else:
        uncovered = nl  # proof skipped: report the non-local set instead
    # symbolic proof failed (possibly from inexact difference) — recheck
    # concretely on every rank from primitive point sets
    bad: dict[int, frozenset] = {}
    unknown = False
    for rank in ev.ranks():
        pts = ev.points(fp, rank, key=("fp", stmt.sid, name, id(fp)))
        if pts is None:
            unknown = True
            continue
        covered = union_points(
            [ev.owned(name, rank)]
            + [ev.points(s, rank, key=("rcv", nest_idx, name, i))
               for i, s in enumerate(received)]
            + [ev.points(s, rank, key=("prd", nest_idx, name, i))
               for i, s in enumerate(local_prod)]
        )
        if covered is None:
            unknown = True
            continue
        left = pts - covered
        if left:
            bad[rank] = left
    if bad:
        rank, pts = next(iter(sorted(bad.items())))
        return [Diagnostic(
            Severity.ERROR, E_COVERAGE,
            f"read of {name} is not covered: rank {rank} consumes "
            f"{_fmt_points(pts)} which it neither owns, receives, nor "
            f"computes locally ({len(bad)} of {len(ev.ranks())} ranks affected)",
            stmt_sid=stmt.sid, array=name, iset=uncovered, nest=nest_idx,
        )]
    sev_msg = (
        "symbolic coverage proof failed (inexact set difference) but the "
        "concrete per-rank recheck found no uncovered element"
        if not unknown else
        "coverage could not be proven symbolically or rechecked concretely"
    )
    return [Diagnostic(
        Severity.WARN, W_UNPROVEN, f"read of {name}: {sev_msg}",
        stmt_sid=stmt.sid, array=name, iset=uncovered, nest=nest_idx,
    )]


def _check_excluded_read(
    unit, nest_idx, stmt, name, fp, local_prod, ev,
) -> list[Diagnostic]:
    """NEW/LOCALIZE'd arrays carry no communication: every element a CP
    instance reads must have been written locally by an earlier statement
    executed under the (propagated) definition CPs."""
    if _syntactic_subset(fp, local_prod):
        return []
    if _chain_within_budget(local_prod):
        uncovered = _subtract_all(fp, local_prod)
        if uncovered.is_empty():
            return []
    else:
        uncovered = fp
    bad: dict[int, frozenset] = {}
    unknown = False
    for rank in ev.ranks():
        pts = ev.points(fp, rank, key=("fp", stmt.sid, name, id(fp)))
        if pts is None:
            unknown = True
            continue
        covered = union_points(
            [ev.points(s, rank, key=("prd", nest_idx, name, i))
             for i, s in enumerate(local_prod)]
        )
        if covered is None:
            unknown = True
            continue
        left = pts - covered
        if left:
            bad[rank] = left
    if bad:
        rank, pts = next(iter(sorted(bad.items())))
        return [Diagnostic(
            Severity.ERROR, E_LOCAL,
            f"{name} is excluded from communication (NEW/LOCALIZE) but rank "
            f"{rank} reads {_fmt_points(pts)} it never produced locally — "
            "the privatization/localization contract is violated",
            stmt_sid=stmt.sid, array=name, iset=uncovered, nest=nest_idx,
        )]
    if unknown:
        return [Diagnostic(
            Severity.WARN, W_UNPROVEN,
            f"local production of excluded array {name} could not be proven",
            stmt_sid=stmt.sid, array=name, iset=uncovered, nest=nest_idx,
        )]
    return [Diagnostic(
        Severity.WARN, W_UNPROVEN,
        f"read of excluded array {name}: symbolic proof failed but the "
        "concrete per-rank recheck found every element locally produced",
        stmt_sid=stmt.sid, array=name, iset=uncovered, nest=nest_idx,
    )]


def check_overlap(
    unit, nest_idx: int, plan: CommPlan, ev: ConcreteEvaluator
) -> list[Diagnostic]:
    """Analysis 4: every received halo element must fall inside the
    array's overlap region (storage exists for it on the receiving rank)."""
    diags: list[Diagnostic] = []
    overlap = unit.overlap or {}
    for event in plan.live_events():
        if event.kind != "read":
            continue
        region = overlap.get(event.array)
        if region is None:
            try:
                region = unit.ctx.declared_bounds_set(event.array)
            except (KeyError, ValueError):
                continue
        gap = event.data.subtract(region)
        if gap.is_empty():
            continue
        bad: dict[int, frozenset] = {}
        unknown = False
        for rank in ev.ranks():
            pts = ev.points(event.data, rank, key=("ev", nest_idx, id(event)))
            if pts is None:
                unknown = True
                continue
            # membership test, not enumeration — the region is a full
            # declared-bounds box, far larger than the halo
            binding = ev.binding(rank)
            left = frozenset(
                p for p in pts if not region.contains(p, binding)
            )
            if left:
                bad[rank] = left
        if bad:
            rank, pts = next(iter(sorted(bad.items())))
            diags.append(Diagnostic(
                Severity.ERROR, E_OVERLAP,
                f"received halo of {event.array} exceeds its overlap region: "
                f"rank {rank} receives {_fmt_points(pts)} outside the "
                "declared storage",
                stmt_sid=event.stmt.sid, array=event.array, iset=gap,
                nest=nest_idx,
            ))
        elif unknown:
            diags.append(Diagnostic(
                Severity.WARN, W_UNPROVEN,
                f"overlap bound of {event.array} could not be proven "
                "(event data depends on outer loop variables)",
                stmt_sid=event.stmt.sid, array=event.array, iset=gap,
                nest=nest_idx,
            ))
        else:
            diags.append(Diagnostic(
                Severity.WARN, W_UNPROVEN,
                f"overlap bound of {event.array}: symbolic proof failed but "
                "all concretely received elements fall inside the region",
                stmt_sid=event.stmt.sid, array=event.array, iset=gap,
                nest=nest_idx,
            ))
    return diags
