"""Communication-coverage and overlap-area checks (analyses 1 and 4).

Both are differences of canonical box covers (:mod:`repro.isets.box`)
checked at every rank ``r`` of the grid.  For every read of a distributed
array,

    need(r) ⊆ owned(r) ∪ ⋃_q flows(q → r) ∪ produced_before(r)

where ``flows`` are the live read events' :meth:`~repro.comm.events.
CommEvent.flows` — the covers the message routes and the cost model are
built from — and ``produced_before`` the footprints of earlier local
writes.  Every non-local value a statement consumes must arrive in a
message, be computed locally under partial replication, or already be
owned (``E-COVERAGE``).  NEW/LOCALIZE'd arrays are excluded from
communication by construction (§4.1/§4.2), so only ``produced_before(r)``
counts for their reads (``E-LOCAL``).

The fourth analysis bounds what each rank receives by the array's overlap
region (its declared bounds by default — the compiler's "overlap
everything" storage simplification; a caller may pass tighter regions per
array to model real overlap areas): ``⋃_q flows(q → r) ⊆ region(r)``.

A set that cannot be evaluated at a rank (non-affine, or it does not bind
to a finite set) is a ``W-UNPROVEN`` warning.
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
from ..distrib.layout import proc_binding
from ..ir.expr import ArrayRef
from ..ir.visit import collect_array_refs
from ..isets import ISet, box, empty
from ..isets.box import cover_of_set, cover_points, subtract_covers, volume


class RankCovers:
    """One unit's sets read as per-rank covers on its grid, each computed
    once per verify and keyed by content.  A per-rank list holds rank
    ``r``'s cover at index ``r``; it is None when the set cannot be
    evaluated (non-affine, or it does not bind to a finite set)."""

    def __init__(self, unit):
        self.unit = unit
        self.ranks = range(unit.grid.size)
        self.binds = [
            {**unit.params, **proc_binding(unit.grid.delinearize(r))}
            for r in self.ranks
        ]
        self.nests = [NestInfo(root, unit.params) for root, _ in unit.nest_plans]
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def bound(self, iset: ISet) -> Optional[list]:
        """*iset* bound at each rank, read as a cover."""
        try:
            return [cover_of_set(iset.bind(b)) for b in self.binds]
        except (KeyError, ValueError):
            return None

    def access_set(self, nest_idx: int, stmt, ref: ArrayRef) -> Optional[ISet]:
        """The data *ref* touches when *stmt* runs under its CP, symbolic
        in the processor coordinates; None when non-affine or no CP."""
        def build():
            scp = self.unit.cps.get(stmt.sid)
            if scp is None:
                return None
            return statement_access_set(
                ref, stmt, scp.cp, self.nests[nest_idx], self.unit.ctx,
                self.unit.params,
            )
        return self._once(("set", stmt.sid, ref), build)

    def access(self, nest_idx: int, stmt, ref: ArrayRef) -> Optional[list]:
        """:meth:`access_set` bound at each rank."""
        def build():
            s = self.access_set(nest_idx, stmt, ref)
            return None if s is None else self.bound(s)
        return self._once(("access", stmt.sid, ref), build)

    def owned(self, name: str) -> Optional[list]:
        """Every element a rank holds (replicas included) within bounds."""
        ctx = self.unit.ctx
        return self._once(("owned", name), lambda: self.bound(
            ctx.layout(name).ownership().intersect(ctx.declared_bounds_set(name))
        ))

    def primary(self, name: str) -> Optional[list]:
        """The elements a rank is the one owner of (``owner_coords_of``)."""
        ctx = self.unit.ctx
        return self._once(("primary", name), lambda: self.bound(
            ctx.layout(name).primary_ownership().intersect(
                ctx.declared_bounds_set(name))
        ))

    def flows(self, nest_idx: int, ei: int) -> Optional[dict]:
        """``CommEvent.flows`` of the nest's *ei*-th live event."""
        def build():
            event = self.unit.nest_plans[nest_idx][1].live_events()[ei]
            try:
                return event.flows(self.unit.ctx, self.unit.params, self.unit.grid)
            except (KeyError, ValueError):
                return None
        return self._once(("flows", nest_idx, ei), build)

    def moved(self, nest_idx: int, name: str, kind: str, ei: Optional[int] = None):
        """Per rank, the boxes of *name* the nest's live *kind* events
        (only the *ei*-th when given) move for it: what a rank receives
        (read) or returns to the owners (write-back).  None when an
        event's flows cannot be evaluated."""
        def build():
            per: list[list] = [[] for _ in self.ranks]
            for i, e in enumerate(self.unit.nest_plans[nest_idx][1].live_events()):
                if e.array != name or e.kind != kind or ei not in (None, i):
                    continue
                flows = self.flows(nest_idx, i)
                if flows is None:
                    return None
                for (src, dst), cover in flows.items():
                    per[dst if kind == "read" else src].extend(cover)
            return per
        return self._once(("moved", nest_idx, name, kind, ei), build)


def fmt_points(cover, limit: int = 4) -> str:
    """The first *limit* points of a cover, and how many more it has."""
    shown = []
    for p in cover_points(cover):
        if len(shown) == limit:
            break
        shown.append(p)
    extra = volume(cover) - len(shown)
    body = ", ".join(str(p) for p in shown)
    return body + (f", ... (+{extra} more)" if extra > 0 else "")


def _as_set(dims, cover) -> ISet:
    """A concrete cover as the union of its boxes over *dims*."""
    out = empty(dims)
    for b in cover:
        out = out.union(box(dims, list(zip(b[::2], b[1::2]))))
    return out


def _first_bad(left: list) -> "tuple[int, tuple, int] | None":
    """``(rank, cover, count)``: the first rank with a non-empty *left*
    cover, and how many ranks have one."""
    bad = [r for r, cover in enumerate(left) if cover]
    return (bad[0], left[bad[0]], len(bad)) if bad else None


def check_nest_coverage(
    cov: RankCovers, nest_idx: int, plan: CommPlan
) -> list[Diagnostic]:
    """Every read in the nest is covered at every rank: its footprint
    minus owned, minus received, minus locally produced earlier is empty
    (``E-COVERAGE``; ``E-LOCAL`` for LOCALIZE'd arrays)."""
    unit = cov.unit
    diags: list[Diagnostic] = []
    nest: NestInfo = cov.nests[nest_idx]
    assigns = nest.assignments()

    def unproven(stmt, name, message: str) -> Diagnostic:
        return Diagnostic(
            Severity.WARN, W_UNPROVEN, message,
            stmt_sid=stmt.sid, array=name, nest=nest_idx,
        )

    for stmt in assigns:
        if unit.cps.get(stmt.sid) is None:
            continue  # not part of the analyzed region (no CP selected)
        if nest.bounds_of(stmt) is None:
            diags.append(Diagnostic(
                Severity.WARN, W_UNPROVEN,
                "non-affine loop bounds: communication was not derived for "
                "this statement and its reads cannot be verified",
                stmt_sid=stmt.sid, nest=nest_idx,
            ))
            continue
        order = nest.order[stmt.sid]
        for ref in collect_array_refs(stmt.rhs):
            name = ref.name.lower()
            excluded = name in plan.excluded_arrays
            if not excluded and unit.ctx.layout(name) is None:
                continue  # replicated scalar-like array: no distribution
            if cov.access_set(nest_idx, stmt, ref) is None:
                diags.append(unproven(
                    stmt, name, f"non-affine subscripts in {ref}: no "
                    "communication was derived for this read and coverage "
                    "cannot be proven",
                ))
                continue
            sources = [
                cov.access(nest_idx, w, w.lhs) for w in assigns
                if isinstance(w.lhs, ArrayRef) and w.lhs.name.lower() == name
                and nest.order[w.sid] < order
                and cov.access_set(nest_idx, w, w.lhs) is not None
            ]
            if not excluded:
                sources += [cov.owned(name), cov.moved(nest_idx, name, "read")]
            need = cov.access(nest_idx, stmt, ref)
            if need is None or None in sources:
                diags.append(unproven(
                    stmt, name, f"read of {name}: its footprint, the owned "
                    "data, the messages or the earlier local writes cannot "
                    "be evaluated per rank",
                ))
                continue
            left = [
                subtract_covers(need[r], [b for per in sources for b in per[r]])
                for r in cov.ranks
            ]
            found = _first_bad(left)
            if found is None:
                continue
            rank, cover, n_bad = found
            what = (
                f"{name} is excluded from communication (NEW/LOCALIZE) but "
                f"rank {rank} reads {fmt_points(cover)} it never produced "
                "locally — the privatization/localization contract is "
                "violated" if excluded else
                f"read of {name} is not covered: rank {rank} consumes "
                f"{fmt_points(cover)} which it neither owns, receives, nor "
                "computes locally"
            )
            diags.append(Diagnostic(
                Severity.ERROR, E_LOCAL if excluded else E_COVERAGE,
                f"{what} ({n_bad} of {len(left)} ranks affected)",
                stmt_sid=stmt.sid, array=name, nest=nest_idx,
                iset=_as_set(cov.access_set(nest_idx, stmt, ref).dims, cover),
            ))
    return diags


def check_overlap(cov: RankCovers, nest_idx: int, plan: CommPlan) -> list[Diagnostic]:
    """Analysis 4: every element a rank receives falls inside the array's
    overlap region on that rank (storage exists for it there)."""
    unit = cov.unit
    diags: list[Diagnostic] = []
    overlap = unit.overlap or {}
    for ei, event in enumerate(plan.live_events()):
        if event.kind != "read":
            continue
        name = event.array
        try:
            declared = unit.ctx.declared_bounds_set(name)
        except (KeyError, ValueError):
            continue
        region = overlap.get(name)
        per_rank = cov._once(("region", name), lambda: cov.bound(
            declared if region is None else region.intersect(declared)))
        received = cov.moved(nest_idx, name, "read", ei)
        if per_rank is None or received is None:
            diags.append(Diagnostic(
                Severity.WARN, W_UNPROVEN,
                f"overlap bound of {name} cannot be evaluated per rank",
                stmt_sid=event.stmt.sid, array=name, nest=nest_idx,
            ))
            continue
        found = _first_bad([
            subtract_covers(received[r], per_rank[r])
            for r in cov.ranks
        ])
        if found is not None:
            rank, cover, _ = found
            diags.append(Diagnostic(
                Severity.ERROR, E_OVERLAP,
                f"received halo of {name} exceeds its overlap region: "
                f"rank {rank} receives {fmt_points(cover)} outside the "
                "declared storage",
                stmt_sid=event.stmt.sid, array=name,
                iset=_as_set(event.data.dims, cover), nest=nest_idx,
            ))
    return diags
