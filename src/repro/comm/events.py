"""Communication event model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, DoLoop
from ..isets import ISet


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

    def __repr__(self) -> str:
        flags = []
        if self.eliminated_by_availability:
            flags.append("avail-elim")
        if self.coalesced_into is not None:
            flags.append(f"coalesced->{self.coalesced_into}")
        f = f" [{','.join(flags)}]" if flags else ""
        return f"<Comm {self.kind} {self.array} @{self.placement} s{self.stmt.sid}{f}>"
