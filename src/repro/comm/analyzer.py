"""Deriving, placing, coalescing and filtering communication events."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..analysis.availability import AvailabilityAnalyzer
from ..cp.model import cp_iteration_set
from ..cp.nest import NestInfo, access_data_set
from ..cp.select import StatementCP
from ..distrib.layout import DistributionContext
from ..ir.expr import ArrayRef, to_affine
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import collect_array_refs, walk_stmts
from .events import CommEvent, Placement


@dataclass
class CommPlan:
    """All communication of one loop nest, plus summary helpers."""

    events: list[CommEvent]
    nest_loops: tuple[DoLoop, ...]
    #: arrays suppressed from this plan (NEW / LOCALIZE exclusions) — the
    #: static verifier must prove their reads are produced locally instead
    excluded_arrays: frozenset = frozenset()

    def live_events(self) -> list[CommEvent]:
        return [
            e
            for e in self.events
            if not e.eliminated_by_availability and e.coalesced_into is None
        ]

    @staticmethod
    def _trip(loop: DoLoop, binding: Mapping[str, int]) -> Optional[int]:
        """Trip count of one loop under *binding*, or an explicit ``None``
        when a bound is non-affine or references an unbound name.  Callers
        treat ``None`` as "at least one" and must surface the uncertainty
        (the static checker reports it as an info finding) rather than
        silently assuming a single iteration."""
        lo, hi = to_affine(loop.lo), to_affine(loop.hi)
        if lo is None or hi is None:
            return None
        try:
            return max(hi.evaluate(dict(binding)) - lo.evaluate(dict(binding)) + 1, 0)
        except KeyError:
            return None

    def unknown_trip_loops(self, binding: Mapping[str, int]) -> list[DoLoop]:
        """Loops whose trip count the analyzer cannot evaluate — message
        counts involving them are lower bounds, not exact."""
        out: list[DoLoop] = []
        seen: set[int] = set()
        for e in self.live_events():
            for loop in e.loops[: e.placement.level]:
                if loop.sid in seen:
                    continue
                seen.add(loop.sid)
                if self._trip(loop, binding) is None:
                    out.append(loop)
        return out

    def total_volume(self, binding: Mapping[str, int]) -> int:
        return sum(e.volume(binding) for e in self.live_events())

    def total_bytes(self, binding: Mapping[str, int], word_bytes: int = 8) -> int:
        """Payload bytes of the plan per nest execution (per processor)."""
        return self.total_volume(binding) * word_bytes

    def total_messages(self, binding: Mapping[str, int]) -> int:
        return sum(
            e.message_count(binding, self._trip) for e in self.live_events()
        )

    def pipelined_events(self) -> list[CommEvent]:
        return [e for e in self.live_events() if e.placement.pipelined]

    def summary(self, binding: Mapping[str, int]) -> dict:
        return {
            "events": len(self.events),
            "live": len(self.live_events()),
            "eliminated": sum(1 for e in self.events if e.eliminated_by_availability),
            "coalesced": sum(1 for e in self.events if e.coalesced_into is not None),
            "volume": self.total_volume(binding),
            "messages": self.total_messages(binding),
            "pipelined": len(self.pipelined_events()),
        }


class CommAnalyzer:
    """Communication analysis for one loop nest with selected CPs."""

    def __init__(
        self,
        root: DoLoop,
        cps: Mapping[int, StatementCP],
        ctx: DistributionContext,
        params: Mapping[str, int] | None = None,
        use_availability: bool = True,
        coalesce: bool = True,
        exclude_arrays: "tuple[str, ...] | list[str] | set[str]" = (),
        nest: NestInfo | None = None,
    ):
        self.root = root
        self.cps = cps
        self.ctx = ctx
        self.params = dict(params or {})
        self.use_availability = use_availability
        self.coalesce = coalesce
        #: arrays needing no communication in this nest: NEW (privatizable —
        #: every consumed value is computed locally, §4.1) and LOCALIZE'd
        #: (partial replication guarantees local copies and suppresses
        #: finalization write-backs, §4.2)
        self.exclude = {a.lower() for a in exclude_arrays}
        #: *nest* is the ``NestInfo(root, params)`` CP selection already
        #: built, when there is one: its dependences are not re-analyzed
        self.nest = nest if nest is not None else NestInfo(root, self.params)
        self.deps = self.nest.deps

    # -- placement ----------------------------------------------------------------
    def _read_placement(self, stmt: Assign, ref: ArrayRef) -> Placement:
        """Outermost legal position for the read's communication: inside the
        deepest loop carrying a flow dependence into this reference (the
        producing iteration must complete first); hoisted pre-nest if the
        values are nest-invariant (no carried flow into the read)."""
        level = 0
        for d in self.deps:
            if d.kind == "flow" and d.dst.sid == stmt.sid and d.dst_ref is ref:
                level = max(level, d.level)
        return Placement(level)

    def _write_placement(self, stmt: Assign) -> Placement:
        """Write-backs must reach the owner before a later iteration (of the
        carrying loop) consumes the value on a third processor."""
        level = 0
        for d in self.deps:
            if d.kind == "flow" and d.src.sid == stmt.sid and d.src_ref is stmt.lhs:
                level = max(level, d.level)
        return Placement(level)

    # -- event derivation ------------------------------------------------------------
    def analyze(self) -> CommPlan:
        events: list[CommEvent] = []
        avail_elim: set = set()
        if self.use_availability:
            avail = AvailabilityAnalyzer(
                self.root, self.cps, self.ctx, self.params, nest=self.nest
            )
            avail_elim = avail.eliminated_refs()

        for stmt in walk_stmts([self.root]):
            if not isinstance(stmt, Assign):
                continue
            scp = self.cps.get(stmt.sid)
            if scp is None:
                continue
            dims = self.nest.dims_of(stmt)
            bounds = self.nest.bounds_of(stmt)
            if bounds is None:
                continue
            loops = tuple(self.nest.loops_of(stmt))
            iters = cp_iteration_set(
                scp.cp, dims, bounds.bind(self.params), self.ctx
            )
            # reads
            for ref in collect_array_refs(stmt.rhs):
                if ref.name.lower() in self.exclude:
                    continue
                layout = self.ctx.layout(ref.name)
                if layout is None:
                    continue
                data = access_data_set(ref, iters, dims)
                if data is None:
                    continue
                nl = data.subtract(layout.ownership())
                if nl.is_empty():
                    continue
                ev = CommEvent(
                    ref.name.lower(),
                    "read",
                    stmt,
                    ref,
                    nl,
                    self._read_placement(stmt, ref),
                    loops,
                    eliminated_by_availability=(stmt.sid, ref) in avail_elim,
                )
                events.append(ev)
            # write-back
            if isinstance(stmt.lhs, ArrayRef) and stmt.lhs.name.lower() not in self.exclude:
                layout = self.ctx.layout(stmt.lhs.name)
                if layout is not None:
                    data = access_data_set(stmt.lhs, iters, dims)
                    if data is not None:
                        nl = data.subtract(layout.ownership())
                        if not nl.is_empty():
                            events.append(
                                CommEvent(
                                    stmt.lhs.name.lower(),
                                    "writeback",
                                    stmt,
                                    stmt.lhs,
                                    nl,
                                    self._write_placement(stmt),
                                    loops,
                                )
                            )
        if self.coalesce:
            self._coalesce(events)
        root_loops = tuple(self.nest.loops_of(next(walk_stmts([self.root]))))
        return CommPlan(events, root_loops, frozenset(self.exclude))

    # -- coalescing --------------------------------------------------------------
    def _coalesce(self, events: list[CommEvent]) -> None:
        """Message coalescing: events for the same array, kind and placement
        merge into one message (the survivor's data set becomes the union)."""
        by_key: dict[tuple, int] = {}
        for idx, e in enumerate(events):
            if e.eliminated_by_availability:
                continue
            key = (e.array, e.kind, e.placement.level)
            if key in by_key:
                survivor = events[by_key[key]]
                survivor.data = survivor.data.union(e.data)
                e.coalesced_into = by_key[key]
            else:
                by_key[key] = idx
