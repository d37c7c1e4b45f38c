"""Coverage and overlap-area checks (analyses 1 and 4), and the guard check.

All are differences of canonical box covers (:mod:`repro.isets.box`)
checked at every rank ``r`` of the grid, over what the compiler built:
a statement's iterations are its guard-plan covers, the data a reference
touches their image through its subscripts, and messages the routes'
pairs (:meth:`RankCovers.pairs`).  For every read of a distributed array,

    need(r) ⊆ owned(r) ∪ ⋃_q pairs(q → r) ∪ produced_before(r)

where ``produced_before`` is the footprints of earlier local writes.
Every non-local value a statement consumes must arrive in a message, be
computed locally under partial replication, or already be owned
(``E-COVERAGE``).  NEW/LOCALIZE'd arrays are excluded from communication
by construction (§4.1/§4.2), so only ``produced_before(r)`` counts for
their reads (``E-LOCAL``).

The fourth analysis bounds what each rank receives by the array's overlap
region (its declared bounds by default — the compiler's "overlap
everything" storage simplification; a caller may pass tighter regions per
array to model real overlap areas): ``⋃_q pairs(q → r) ⊆ region(r)``.
The guards get a check of their own: united over the ranks, each
guard-plan entry's covers are its statement's loop bounds (``E-GUARD``).

A set that cannot be evaluated at a rank (non-affine, or it does not bind
to a finite set) is a ``W-UNPROVEN`` warning.
"""

from __future__ import annotations

from itertools import islice, zip_longest
from typing import Optional

from ..codegen.guards import guard_cover
from ..comm.analyzer import CommPlan
from ..cp.nest import NestInfo, nest_for
from ..diag import E_COVERAGE, E_GUARD, E_LOCAL, E_OVERLAP, W_UNPROVEN, Diagnostic, Severity
from ..distrib.layout import Layout, proc_binding
from ..ir.expr import ArrayRef
from ..ir.visit import collect_array_refs
from ..isets import ISet, box, empty
from ..isets.box import (
    cover_of_boxes, cover_of_set, cover_points, image_of_cover, subtract_covers, volume,
)


class RankCovers:
    """One plan's sets read as per-rank covers on its grid, each computed
    once per verify and keyed by content.  *plan* is a compiled kernel or
    an analysis (the names both expose); *overlap* the per-array overlap
    regions (declared bounds by default).  A per-rank list holds rank
    ``r``'s cover at index ``r``; it is None when the set cannot be
    evaluated (non-affine, or it does not bind to a finite set).
    ``nests`` are the plan's own ``NestInfo``s where it carries them (their
    dependences computed once per compile), else fresh ones."""

    def __init__(self, plan, overlap: Optional[dict] = None):
        self.plan = plan
        self.overlap = overlap or {}
        self.ranks = range(plan.grid.size)
        self.binds = [{**plan.params, **proc_binding(plan.grid.delinearize(r))}
                      for r in self.ranks]
        self.nests = [nest_for(root, nest, plan.params) for (root, _), nest
                      in zip_longest(plan.nest_plans, plan.nests)]
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

    def bounds(self, nest_idx: int, stmt) -> Optional[ISet]:
        """*stmt*'s loop bounds (None when non-affine)."""
        return self._once(("bounds", stmt.sid), lambda: self.nests[nest_idx].bounds_of(stmt))

    def serial(self, nest_idx: int, stmt) -> Optional[tuple]:
        """The cover of *stmt*'s loop bounds (the same at every rank)."""
        bounds = self.bounds(nest_idx, stmt)
        per = None if bounds is None else self._once(
            ("serial", stmt.sid), lambda: self.bound(bounds))
        return None if per is None else per[0]

    def iterations(self, nest_idx: int, stmt) -> Optional[list]:
        """What *stmt* runs at each rank: its guard-plan entry's covers, or
        its loop bounds on every rank when it is unguarded (replicated)."""
        group, entries = self.plan.guard_plan
        if (g := group.get(stmt.sid)) is None:
            serial = self.serial(nest_idx, stmt)
            return None if serial is None else [serial for _ in self.ranks]
        try:
            return self._once(("guard", g), lambda: [
                guard_cover(entries[g], b) for b in self.binds])
        except (KeyError, ValueError):
            return None  # it does not bind

    def derived(self, nest_idx: int, stmt, ref: ArrayRef) -> bool:
        """Communication analysis derived the data *ref* touches in
        *stmt*: it has a CP, affine loop bounds and subscripts."""
        return (self.plan.cps.get(stmt.sid) is not None
                and self.bounds(nest_idx, stmt) is not None
                and ref.affine_subscripts() is not None)

    def access(self, nest_idx: int, stmt, ref: ArrayRef) -> Optional[list]:
        """Per rank, the data *ref* touches when *stmt* runs its
        :meth:`iterations`: their image through its subscripts."""
        def build():
            if not self.derived(nest_idx, stmt, ref):
                return None
            dims = self.nests[nest_idx].dims_of(stmt)
            subs = [e.evaluate_partial(self.plan.params) for e in ref.affine_subscripts()]
            iters = self.iterations(nest_idx, stmt)
            if iters is None or any(e.vars() - set(dims) for e in subs):
                return None  # or a subscript reads a run-time scalar
            return [image_of_cover(c, dims, subs) for c in iters]
        return self._once(("access", stmt.sid, ref), build)

    def owned(self, name: str) -> Optional[list]:
        """Every element a rank holds (replicas included) within bounds."""
        ctx = self.plan.ctx
        return self._once(("owned", name), lambda: self.bound(
            ctx.layout(name).ownership().intersect(ctx.declared_bounds_set(name))
        ))

    def primary(self, name: str) -> Optional[list]:
        """The elements a rank is the one owner of (``owner_coords_of``)."""
        ctx = self.plan.ctx
        return self._once(("primary", name), lambda: self.bound(
            ctx.layout(name).primary_ownership().intersect(
                ctx.declared_bounds_set(name))
        ))

    def pairs(self, nest_idx: int, ei: int) -> Optional[dict]:
        """``{(src, dst): cover}`` of the nest's *ei*-th live event: its
        route's, what ``exec_comm`` sends, when it is hoisted; else its
        ``CommEvent.flows``."""
        def build():
            events = self.plan.nest_plans[nest_idx][1].live_events()
            if events[ei].placement.hoisted:
                k = sum(e.placement.hoisted for e in events[:ei])
                return self.plan.routes[nest_idx][k].pairs
            try:
                return events[ei].flows(self.plan.ctx, self.plan.params, self.plan.grid)
            except (KeyError, ValueError):
                return None
        return self._once(("pairs", nest_idx, ei), build)

    def moved(self, nest_idx: int, name: str, kind: str, ei: Optional[int] = None):
        """Per rank, the boxes of *name* the nest's live *kind* events
        (only the *ei*-th when given) move for it: what a rank receives
        (read) or returns to the owners (write-back).  None when an
        event's pairs cannot be evaluated."""
        def build():
            per: list[list] = [[] for _ in self.ranks]
            for i, e in enumerate(self.plan.nest_plans[nest_idx][1].live_events()):
                if e.array != name or e.kind != kind or ei not in (None, i):
                    continue
                pairs = self.pairs(nest_idx, i)
                if pairs is None:
                    return None
                for (src, dst), cover in pairs.items():
                    per[dst if kind == "read" else src].extend(cover)
            return per
        return self._once(("moved", nest_idx, name, kind, ei), build)


def fmt_points(cover, limit: int = 4) -> str:
    """The first *limit* points of a cover, and how many more it has."""
    shown = list(islice(cover_points(cover), limit))
    extra = volume(cover) - len(shown)
    return ", ".join(map(str, shown)) + (f", ... (+{extra} more)" if extra > 0 else "")


def _as_set(cover, dims=None) -> ISet:
    """A concrete cover as the union of its boxes over *dims* (the data
    dims ``a$k`` by default)."""
    dims = dims or tuple(Layout.dim_name(k) for k in range(len(cover[0]) // 2))
    out = empty(dims)
    for b in cover:
        out = out.union(box(dims, list(zip(b[::2], b[1::2]))))
    return out


def unproven(message: str, sid=None, array=None, nest=None) -> Diagnostic:
    """A ``W-UNPROVEN`` warning: a set could not be evaluated per rank."""
    return Diagnostic(Severity.WARN, W_UNPROVEN, message, stmt_sid=sid, array=array, nest=nest)


def _first_bad(left: list) -> "tuple[int, tuple, int] | None":
    """``(rank, cover, count)``: the first rank with a non-empty *left*
    cover, and how many ranks have one."""
    bad = [r for r, cover in enumerate(left) if cover]
    return (bad[0], left[bad[0]], len(bad)) if bad else None


def check_nest_coverage(
    cov: RankCovers, nest_idx: int, comm: CommPlan
) -> list[Diagnostic]:
    """Every read in the nest is covered at every rank: its footprint
    minus owned, minus received, minus locally produced earlier is empty
    (``E-COVERAGE``; ``E-LOCAL`` for LOCALIZE'd arrays)."""
    plan = cov.plan
    diags: list[Diagnostic] = []
    nest: NestInfo = cov.nests[nest_idx]
    assigns = nest.assignments()

    for stmt in assigns:
        if plan.cps.get(stmt.sid) is None:
            continue  # not part of the analyzed region (no CP selected)
        if cov.bounds(nest_idx, stmt) is None:
            diags.append(unproven(
                "non-affine loop bounds: communication was not derived for "
                "this statement and its reads cannot be verified", stmt.sid, nest=nest_idx,
            ))
            continue
        order = nest.order[stmt.sid]
        for ref in collect_array_refs(stmt.rhs):
            name = ref.name.lower()
            excluded = name in comm.excluded_arrays
            if not excluded and plan.ctx.layout(name) is None:
                continue  # replicated scalar-like array: no distribution
            if ref.affine_subscripts() is None:
                diags.append(unproven(
                    f"non-affine subscripts in {ref}: no communication was derived "
                    "for this read and coverage cannot be proven", stmt.sid, name, nest_idx,
                ))
                continue
            sources = [
                cov.access(nest_idx, w, w.lhs) for w in assigns
                if isinstance(w.lhs, ArrayRef) and w.lhs.name.lower() == name
                and nest.order[w.sid] < order
                and cov.derived(nest_idx, w, w.lhs)
            ]
            if not excluded:
                sources += [cov.owned(name), cov.moved(nest_idx, name, "read")]
            need = cov.access(nest_idx, stmt, ref)
            if need is None or None in sources:
                diags.append(unproven(
                    f"read of {name}: its footprint, the owned data, the messages or "
                    "the earlier local writes cannot be evaluated per rank",
                    stmt.sid, name, nest_idx,
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
                iset=_as_set(cover),
            ))
    return diags


def check_overlap(cov: RankCovers, nest_idx: int, comm: CommPlan) -> list[Diagnostic]:
    """Analysis 4: every element a rank receives falls inside the array's
    overlap region on that rank (storage exists for it there)."""
    diags: list[Diagnostic] = []
    for ei, event in enumerate(comm.live_events()):
        if event.kind != "read":
            continue
        name = event.array
        try:
            declared = cov.plan.ctx.declared_bounds_set(name)
        except (KeyError, ValueError):
            continue
        region = cov.overlap.get(name)
        per_rank = cov._once(("region", name), lambda: cov.bound(
            declared if region is None else region.intersect(declared)))
        received = cov.moved(nest_idx, name, "read", ei)
        if per_rank is None or received is None:
            diags.append(unproven(
                f"overlap bound of {name} cannot be evaluated per rank",
                event.stmt.sid, name, nest_idx,
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
                iset=_as_set(cover), nest=nest_idx,
            ))
    return diags


def check_guards(cov: RankCovers) -> list[Diagnostic]:
    """Each guard-plan entry's covers, united over the ranks, are its
    statements' loop bounds: no iteration lost or invented (``E-GUARD``)."""
    diags: list[Diagnostic] = []
    group, seen = cov.plan.guard_plan[0], set()
    for idx, nest in enumerate(cov.nests):
        for stmt in nest.assignments():
            g = group.get(stmt.sid)
            if g is None or g in seen:
                continue
            seen.add(g)  # a share group's statements run under one loop
            iters, serial = cov.iterations(idx, stmt), cov.serial(idx, stmt)
            if iters is None or serial is None:
                diags.append(unproven(
                    f"guard of s{stmt.sid} cannot be evaluated per rank", stmt.sid, nest=idx))
                continue
            union = cover_of_boxes([b for cover in iters for b in cover])
            lost = subtract_covers(serial, union)
            odd = lost or subtract_covers(union, serial)
            if odd:
                what = "no rank runs {}" if lost else "the ranks run {} outside them"
                diags.append(Diagnostic(
                    Severity.ERROR, E_GUARD, f"guard of s{stmt.sid} does not "
                    "cover its loop bounds: " + what.format(fmt_points(odd)),
                    stmt_sid=stmt.sid, nest=idx, iset=_as_set(odd, nest.dims_of(stmt)),
                ))
    return diags
