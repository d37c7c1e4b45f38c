"""Communication event model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..distrib.layout import proc_binding
from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, DoLoop
from ..isets import ISet, box
from ..isets.box import cover_of_points, cover_of_set, cover_points, intersect_covers


@dataclass(frozen=True)
class Placement:
    """Where a communication event is placed.

    ``level`` 0 means hoisted before the whole nest (fully vectorized —
    one message per partner for the entire nest).  ``level`` k > 0 means
    inside the k-th loop of the nest (pipelined: one message per iteration
    of loops 1..k).
    """

    level: int

    @property
    def hoisted(self) -> bool:
        return self.level == 0

    @property
    def pipelined(self) -> bool:
        return self.level > 0

    def __str__(self) -> str:
        return "pre-nest" if self.hoisted else f"inside-L{self.level}"


@dataclass
class CommEvent:
    """One communication requirement of the representative processor."""

    array: str
    kind: str  # 'read' | 'writeback'
    stmt: Assign
    ref: Optional[ArrayRef]
    data: ISet  # symbolic non-local set over a$ dims (p$ params free)
    placement: Placement
    #: loops enclosing the statement, outermost first (for trip counts)
    loops: tuple[DoLoop, ...] = ()
    eliminated_by_availability: bool = False
    coalesced_into: Optional[int] = None  # index of the surviving event

    # -- concrete metrics -------------------------------------------------------
    def volume(self, binding: Mapping[str, int]) -> int:
        """Elements moved per nest execution (per processor)."""
        try:
            return self.data.bind(dict(binding)).close_params().cardinality()
        except ValueError:
            return 0

    def message_count(self, binding: Mapping[str, int], trip_of) -> int:
        """Messages per nest execution: product of trip counts of the loops
        outside the placement level (>= 1).  ``trip_of`` may return ``None``
        for a loop it cannot evaluate; such loops contribute a factor of 1,
        making the result a lower bound (see CommPlan.unknown_trip_loops)."""
        if self.placement.hoisted:
            return 1
        n = 1
        for loop in self.loops[: self.placement.level]:
            trip = trip_of(loop, binding)
            n *= max(trip, 1) if trip is not None else 1
        return n

    def flows(self, ctx, params: Mapping[str, int], grid) -> dict[tuple[int, int], tuple]:
        """Who sends what for this event on *grid*: ``{(src, dst): cover}``,
        the canonical cover of the elements that move.  Each rank's bound
        need set, read as a cover, is intersected with every other rank's
        primary ownership cover (one sender per element), read inside the
        hull of all needs (it is unbounded along an array dim no template
        dim is aligned with).  A read flows owner -> needer, a write-back
        needer -> owner.  Owner sets that are not unions of boxes (CYCLIC,
        MULTI) split the need's points by ``owner_coords_of`` instead."""
        layout = ctx.layout(self.array)
        binds = [{**params, **proc_binding(grid.delinearize(r))} for r in range(grid.size)]
        needs = [cover_of_set(self.data.bind(b)) for b in binds]
        cols = list(zip(*(x for need in needs for x in need)))
        if not cols:
            return {}
        hull = box(self.data.dims, list(zip(map(min, cols[::2]), map(max, cols[1::2]))))
        primary = layout.primary_ownership()
        owned = [primary.bind(b).intersect(hull).box_cover() for b in binds]
        out: dict[tuple[int, int], tuple] = {}
        for r, need in enumerate(needs):
            if not need:
                continue
            if None not in owned:
                split = {q: intersect_covers(need, own) for q, own in enumerate(owned)}
            else:
                by_owner: dict[int, list] = {}
                for elem in cover_points(need):
                    q = grid.linearize(layout.owner_coords_of(elem))
                    by_owner.setdefault(q, []).append(elem)
                split = {q: cover_of_points(by_owner[q]) for q in sorted(by_owner)}
            for q, cover in split.items():
                if q != r and cover:
                    out[(q, r) if self.kind == "read" else (r, q)] = cover
        return out

    def __repr__(self) -> str:
        flags = []
        if self.eliminated_by_availability:
            flags.append("avail-elim")
        if self.coalesced_into is not None:
            flags.append(f"coalesced->{self.coalesced_into}")
        f = f" [{','.join(flags)}]" if flags else ""
        return f"<Comm {self.kind} {self.array} @{self.placement} s{self.stmt.sid}{f}>"
