"""Cross-processor race / ordering check (analysis 2).

For every true (flow) dependence whose source and sink can execute on
different processors, the value must travel: the element set

    S(p, q) = writes(src, p) ∩ reads(dst, q),      p ≠ q

must be carried by live communication.  An element ``e ∈ S`` is safe when

- q also computes ``e`` itself (partial replication — the CP machinery
  makes both ranks execute the defining instance), or
- the *owner's* copy was updated (``owner(e) = p``, or ``e`` is in one of
  p's write-back events) **and** the reader reaches it (``owner(e) = q``,
  or ``e`` is in one of q's read events).

Everything else is a read of a stale copy: flag ``E-RACE`` with the
processor pair and the offending elements.  The check is concrete by
construction (dependence sections of the kernels are small); on grids
larger than the exhaustive limit only corner/center ranks are paired.

The same analysis enforces the *owner-update* obligation: a non-owner
write whose element the owner does not itself produce (partial
replication) must appear in the writer's write-back events — otherwise
the owner's authoritative copy is stale for every later consumer, inside
this unit or after it returns.  This is what the y_solve pipeline's
write-backs are for (§5): dropping them leaves the boundary rows wrong on
their owners even though every in-nest consumer was satisfied by
replication.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.dependence import DependenceAnalyzer
from ..cp.nest import NestInfo, statement_access_set
from ..diag import E_RACE, Diagnostic, Severity
from ..ir.visit import walk_stmts
from ..isets import ISet
from .concrete import ConcreteEvaluator
from .coverage import _fmt_points

#: per-dependence cap on reported pairs (one witness is enough to act on)
_MAX_PAIRS_REPORTED = 2


def check_races(unit, ev: ConcreteEvaluator) -> list[Diagnostic]:
    """Flag cross-processor flow dependences that are neither replicated
    nor routed through the owner, and non-owner writes that leave the
    owner's copy stale without a write-back event (``E-RACE``)."""
    diags: list[Diagnostic] = []
    if ev.grid is None:
        return diags

    # map statements to their nest (events live per nest)
    nest_of: dict[int, int] = {}
    nests: dict[int, NestInfo] = {}
    for idx, (root, _plan) in enumerate(unit.nest_plans):
        nests[idx] = NestInfo(root, unit.params)
        for s in walk_stmts([root]):
            nest_of[s.sid] = idx

    excluded: set[str] = set()
    for _root, plan in unit.nest_plans:
        excluded |= set(plan.excluded_arrays)

    region = unit.region if unit.region is not None else unit.sub.body
    deps = DependenceAnalyzer(region, unit.params).dependences()

    sym_cache: dict[tuple[int, int], Optional[ISet]] = {}

    def sym_set(ref, stmt) -> Optional[ISet]:
        key = (stmt.sid, id(ref))
        if key not in sym_cache:
            idx = nest_of.get(stmt.sid)
            scp = unit.cps.get(stmt.sid)
            sym_cache[key] = (
                None
                if idx is None or scp is None
                else statement_access_set(
                    ref, stmt, scp.cp, nests[idx], unit.ctx, unit.params
                )
            )
        return sym_cache[key]

    def event_points(nest_idx: int, array: str, kind: str, rank: int) -> Optional[frozenset]:
        _root, plan = unit.nest_plans[nest_idx]
        out: frozenset = frozenset()
        for e in plan.live_events():
            if e.array != array or e.kind != kind:
                continue
            pts = ev.points(e.data, rank, key=("race-ev", nest_idx, id(e)))
            if pts is None:
                return None  # pipelined data depending on outer loop vars
            out |= pts
        return out

    ranks = ev.ranks()
    seen_sections: set[tuple] = set()
    for d in deps:
        if d.kind != "flow" or d.src_ref is None or d.dst_ref is None:
            continue
        name = d.var.lower()
        if name in excluded:
            continue  # reads are locally produced — checked by E-LOCAL
        layout = unit.ctx.layout(name)
        if layout is None:
            continue  # replicated storage: every rank runs the producer
        src_idx, dst_idx = nest_of.get(d.src.sid), nest_of.get(d.dst.sid)
        if src_idx is None or dst_idx is None:
            continue
        w_sym = sym_set(d.src_ref, d.src)
        r_sym = sym_set(d.dst_ref, d.dst)
        if w_sym is None or r_sym is None:
            continue  # non-affine: coverage already warned

        reported = 0
        for p in ranks:
            if reported >= _MAX_PAIRS_REPORTED:
                break
            wp = ev.points(w_sym, p, key=("race-w", d.src.sid, id(d.src_ref)))
            if wp is None:
                continue
            for q in ranks:
                if q == p or reported >= _MAX_PAIRS_REPORTED:
                    continue
                rq = ev.points(r_sym, q, key=("race-r", d.dst.sid, id(d.dst_ref)))
                if rq is None:
                    continue
                section = wp & rq
                if not section:
                    continue
                prod_q = ev.points(
                    w_sym, q, key=("race-w", d.src.sid, id(d.src_ref))
                ) or frozenset()
                wb_p = event_points(src_idx, name, "writeback", p)
                rd_q = event_points(dst_idx, name, "read", q)
                racy = []
                for elem in section:
                    if elem in prod_q:
                        continue  # q computes the value itself
                    owner = ev.owner_rank(name, elem)
                    if owner is None:
                        continue
                    updated = owner == p or (wb_p is not None and elem in wb_p)
                    if wb_p is None and owner != p:
                        updated = True  # unknown writeback extent: trust it
                    reaches = owner == q or (rd_q is not None and elem in rd_q)
                    if rd_q is None and owner != q:
                        reaches = True
                    if not (updated and reaches):
                        racy.append(elem)
                if racy:
                    sect_key = (d.src.sid, d.dst.sid, name, p, q)
                    if sect_key in seen_sections:
                        continue
                    seen_sections.add(sect_key)
                    reported += 1
                    diags.append(Diagnostic(
                        Severity.ERROR, E_RACE,
                        f"flow dependence on {name} (s{d.src.sid} -> "
                        f"s{d.dst.sid}, level {d.level}) crosses processors "
                        f"without carrying communication: rank {p} produces "
                        f"{_fmt_points(frozenset(racy))} consumed by rank "
                        f"{q}, but no live event moves the value",
                        stmt_sid=d.dst.sid, array=name, procs=(p, q),
                        nest=dst_idx,
                    ))

    diags.extend(_check_owner_updates(
        unit, ev, nest_of, nests, excluded, sym_set, event_points, ranks
    ))
    return diags


def _check_owner_updates(
    unit, ev, nest_of, nests, excluded, sym_set, event_points, ranks
) -> list[Diagnostic]:
    """Non-owner writes the owner does not replicate must be written back."""
    from ..ir.expr import ArrayRef

    diags: list[Diagnostic] = []
    # all concrete writes per (nest, array, rank) — replication lookup
    writes: dict[tuple[int, str], list] = {}
    for idx, nest in nests.items():
        for stmt in nest.assignments():
            if not isinstance(stmt.lhs, ArrayRef):
                continue
            name = stmt.lhs.name.lower()
            if name in excluded or unit.ctx.layout(name) is None:
                continue
            w_sym = sym_set(stmt.lhs, stmt)
            if w_sym is not None:
                writes.setdefault((idx, name), []).append((stmt, w_sym))

    def written_by(idx: int, name: str, rank: int) -> frozenset:
        out: frozenset = frozenset()
        for stmt, w_sym in writes.get((idx, name), ()):
            pts = ev.points(w_sym, rank, key=("race-w", stmt.sid, id(stmt.lhs)))
            if pts is not None:
                out |= pts
        return out

    for (idx, name), entries in writes.items():
        for stmt, w_sym in entries:
            for p in ranks:
                wp = ev.points(w_sym, p, key=("race-w", stmt.sid, id(stmt.lhs)))
                if wp is None:
                    continue
                non_owned = wp - ev.owned(name, p)
                if not non_owned:
                    continue
                wb_p = event_points(idx, name, "writeback", p)
                stale = []
                for elem in non_owned:
                    owner = ev.owner_rank(name, elem)
                    if owner is None or owner == p:
                        continue
                    if elem in written_by(idx, name, owner):
                        continue  # the owner replicates this write
                    if wb_p is None or elem not in wb_p:
                        stale.append(elem)
                if stale:
                    diags.append(Diagnostic(
                        Severity.ERROR, E_RACE,
                        f"rank {p} writes {_fmt_points(frozenset(stale))} of "
                        f"{name} it does not own, the owner never computes "
                        "them, and no write-back event returns the values — "
                        "the owner's copy is left stale",
                        stmt_sid=stmt.sid, array=name,
                        procs=(p, ev.owner_rank(name, stale[0])), nest=idx,
                    ))
    return diags
