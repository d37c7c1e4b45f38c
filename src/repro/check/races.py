"""Cross-processor race / ordering check (analysis 2).

For every true (flow) dependence whose source and sink can execute on
different processors, the value must travel.  At every rank pair
``(p, q)``, ``p ≠ q``, the element set

    S(p, q) = W_p ∩ R_q      (the source's writes at p, the sink's reads at q)

minus what q computes itself (partial replication — the CP machinery
makes both ranks execute the defining instance), minus what is routed
through the owner, must be empty.  An element is routed when the owner's
copy was updated — p owns it, or it is in a write-back flow out of p —
and the reader reaches it — q owns it, or it is in a read flow into q.
Everything else is a read of a stale copy: ``E-RACE`` with the processor
pair and the offending elements.  All of it is cover algebra
(:mod:`repro.isets.box`) over what the compiler built: writes and reads
are images of the guard plan's per-rank iterations, flows the routes'
pairs (:class:`~repro.check.coverage.RankCovers`).  The dependences are
the plan's too: within a nest the analysis's own (``NestInfo.deps``),
across nests every write paired with every later nest's read of the same
array whose covers, united over the ranks, meet.

The same analysis enforces the *owner-update* obligation: a non-owner
write whose element the owner does not itself produce (partial
replication) must be in a write-back flow out of the writer — otherwise
the owner's authoritative copy is stale for every later consumer, inside
this unit or after it returns.  This is what the y_solve pipeline's
write-backs are for (§5): dropping them leaves the boundary rows wrong on
their owners even though every in-nest consumer was satisfied by
replication.

A set that cannot be evaluated per rank is a ``W-UNPROVEN`` warning.
"""

from __future__ import annotations

from ..analysis.dependence import LI, Dependence
from ..diag import E_RACE, Diagnostic, Severity
from ..ir.expr import ArrayRef
from ..ir.stmt import Assign
from ..ir.visit import reads_of, walk_stmts
from ..isets.box import cover_of_boxes, intersect_covers, subtract_covers
from .coverage import RankCovers, fmt_points, unproven

#: per-dependence cap on reported pairs (one witness is enough to act on)
_MAX_PAIRS_REPORTED = 2


def _spread(cov: RankCovers, idx: int, stmt, ref: ArrayRef):
    """The elements *ref* touches in *stmt* on any rank (None when that
    cannot be evaluated per rank)."""
    per = cov.access(idx, stmt, ref)
    return None if per is None else cov._once(
        ("spread", stmt.sid, ref), lambda: cover_of_boxes([b for c in per for b in c]))


def _nest_flows(cov: RankCovers, idx: int) -> dict:
    """The nest's flow dependences by array, in the order its analysis
    lists them (``NestInfo.deps``: computed once per compile, or once here
    for a plan that does not carry them)."""
    def build():
        out: dict[str, list] = {}
        for d in cov.nests[idx].deps:
            if d.kind == "flow":
                out.setdefault(d.var, []).append(d)
        return out
    return cov._once(("flows", idx), build)


def _flow_dependences(cov: RankCovers, tracked):
    """``(source nest, sink nest, dependence)`` for every flow dependence
    on a *tracked* array between statements of the plan's nests, in the
    order a dependence analysis of the whole unit lists them: array by
    first reference, then write, read and level.  Within a nest they are
    the nest's own.  Across nests every write is paired with every later
    nest's read of the same array (level LI), unless what the two touch,
    united over all ranks, is disjoint or cannot be evaluated."""
    plan = cov.plan
    nest_of = {s.sid: idx for idx, (root, _comm) in enumerate(plan.nest_plans)
               for s in walk_stmts([root])}
    sites: dict[str, list] = {}  # array -> (nest, stmt, ref, is_write), in order
    for stmt in walk_stmts(plan.sub.body):
        if isinstance(stmt, Assign):
            for ref in (stmt.lhs, *reads_of(stmt)):
                if isinstance(ref, ArrayRef) and tracked(ref.name.lower()):
                    sites.setdefault(ref.name.lower(), []).append(
                        (nest_of.get(stmt.sid), stmt, ref, ref is stmt.lhs))
    for name, refs in sites.items():
        refs = [site for site in refs if site[0] is not None]
        for i, src, w, _ in (site for site in refs if site[3]):
            for d in _nest_flows(cov, i).get(name, ()):
                if d.src_ref is w:
                    yield i, i, d
            for j, dst, r, _ in (site for site in refs if site[0] > i and not site[3]):
                ws, rs = _spread(cov, i, src, w), _spread(cov, j, dst, r)
                if ws is not None and rs is not None and intersect_covers(ws, rs):
                    yield i, j, Dependence(src, dst, name, "flow", LI, w, r)


def check_races(cov: RankCovers) -> list[Diagnostic]:
    """Flag cross-processor flow dependences that are neither replicated
    nor routed through the owner, and non-owner writes that leave the
    owner's copy stale without a write-back flow (``E-RACE``)."""
    plan = cov.plan
    diags: list[Diagnostic] = []
    excluded = {a for _root, comm in plan.nest_plans for a in comm.excluded_arrays}

    def tracked(name: str) -> bool:
        # excluded reads are locally produced (checked by E-LOCAL); an
        # undistributed array is replicated storage every rank produces
        return name not in excluded and plan.ctx.layout(name) is not None

    seen_sections: set[tuple] = set()
    for src_idx, dst_idx, d in _flow_dependences(cov, tracked):
        name = d.var.lower()
        w = cov.access(src_idx, d.src, d.src_ref)
        r = cov.access(dst_idx, d.dst, d.dst_ref)
        if w is None or r is None:
            continue  # coverage warns for the read, the owner update for a write
        wb = cov.moved(src_idx, name, "writeback")
        rd = cov.moved(dst_idx, name, "read")
        own = cov.primary(name)
        if None in (wb, rd, own):
            diags.append(unproven(
                f"flow dependence on {name} (s{d.src.sid} -> s{d.dst.sid}) "
                "cannot be evaluated per rank", d.dst.sid, name, dst_idx,
            ))
            continue
        has_owner = cover_of_boxes([b for cover in own for b in cover])
        reported = 0
        for p in cov.ranks:
            updated = list(own[p]) + wb[p]
            for q in cov.ranks:
                if q == p or reported >= _MAX_PAIRS_REPORTED:
                    continue
                section = intersect_covers(w[p], r[q])
                if not section:
                    continue
                routed = intersect_covers(updated, list(own[q]) + rd[q])
                racy = intersect_covers(
                    subtract_covers(section, list(w[q]) + list(routed)), has_owner
                )
                sect_key = (d.src.sid, d.dst.sid, name, p, q)
                if not racy or sect_key in seen_sections:
                    continue
                seen_sections.add(sect_key)
                reported += 1
                diags.append(Diagnostic(
                    Severity.ERROR, E_RACE,
                    f"flow dependence on {name} (s{d.src.sid} -> "
                    f"s{d.dst.sid}, level {d.level}) crosses processors "
                    f"without carrying communication: rank {p} produces "
                    f"{fmt_points(racy)} consumed by rank {q}, but no live "
                    "event moves the value",
                    stmt_sid=d.dst.sid, array=name, procs=(p, q), nest=dst_idx,
                ))

    for idx, nest in enumerate(cov.nests):
        writes: dict[str, list] = {}
        for stmt in nest.assignments():
            if not isinstance(stmt.lhs, ArrayRef):
                continue
            name = stmt.lhs.name.lower()
            if tracked(name) and cov.derived(idx, stmt, stmt.lhs):
                writes.setdefault(name, []).append(stmt)
        for name, stmts in writes.items():
            diags.extend(_check_owner_updates(cov, idx, name, stmts))
    return diags


def _check_owner_updates(cov: RankCovers, idx: int, name: str, stmts) -> list[Diagnostic]:
    """Non-owner writes the owner does not replicate must be written back."""
    wb = cov.moved(idx, name, "writeback")
    own, owned = cov.primary(name), cov.owned(name)
    if None in (wb, own, owned):
        return [unproven(f"owner update of {name} cannot be evaluated per rank",
                         stmts[0].sid, name, idx)]
    covers = [cov.access(idx, stmt, stmt.lhs) for stmt in stmts]
    # everything the nest writes per rank — the owner's replicated writes
    written = [[b for w in covers if w for b in w[q]] for q in cov.ranks]
    diags: list[Diagnostic] = []
    for stmt, w in zip(stmts, covers):
        if w is None:
            diags.append(unproven(
                f"write of {name} cannot be evaluated per rank", stmt.sid, name, idx))
            continue
        for p in cov.ranks:
            non_owned = subtract_covers(w[p], owned[p])
            if not non_owned:
                continue
            stale = {}
            for q in cov.ranks:
                if q != p:
                    part = intersect_covers(non_owned, own[q])
                    if part:
                        part = subtract_covers(part, written[q] + wb[p])
                    if part:
                        stale[q] = part
            if stale:
                shown = cover_of_boxes([b for c in stale.values() for b in c])
                diags.append(Diagnostic(
                    Severity.ERROR, E_RACE,
                    f"rank {p} writes {fmt_points(shown)} of {name} it does "
                    "not own, the owner never computes them, and no "
                    "write-back event returns the values — the owner's copy "
                    "is left stale",
                    stmt_sid=stmt.sid, array=name, procs=(p, min(stale)),
                    nest=idx,
                ))
    return diags
