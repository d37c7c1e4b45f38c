"""§7 — Data availability analysis.

dHPF's communication model says the *owner* always holds the authoritative
value, so a non-local read normally fetches from the owner.  But when the
reading processor itself produced the value (a non-local *write* under a
non-owner CP), the data is already available locally and the fetch — which
in SP's pipelined solves flows *against* the pipeline and wrecks it — can
be eliminated.

For each non-local read reference R we find the last write W producing the
values R consumes (the deepest flow dependence into R; kill analysis is
unavailable so only the last write is considered, exactly the paper's
conservative choice) and test, symbolically over the representative
processor's coordinates,

    nonLocalReadData(R)  ⊆  nonLocalWriteData(W).

Containment ⇒ the communication for R is redundant.  Both sets are the
communication analyzer's own events — R's read event and W's write-back
event — so the test derives nothing itself (:func:`mark_available`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..ir.expr import ArrayRef
from ..ir.stmt import Assign

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm.events import CommEvent
    from ..cp.nest import NestInfo


def last_write_into(nest: "NestInfo", stmt: Assign, ref: ArrayRef) -> Optional[Assign]:
    """The deepest flow dependence whose sink is this read reference."""
    best: tuple[int, int, Assign] | None = None
    for d in nest.deps:
        if d.kind != "flow" or d.dst.sid != stmt.sid:
            continue
        if d.dst_ref is not ref:
            continue
        if not isinstance(d.src, Assign):
            continue
        # deepest dependence wins; textual order breaks ties (the later
        # statement in the body is the later writer within an iteration)
        key = (d.level, nest.order.get(d.src.sid, 0))
        if best is None or key > best[:2]:
            best = (key[0], key[1], d.src)
    return best[2] if best else None


def mark_available(events: "list[CommEvent]", nest: "NestInfo") -> None:
    """Set ``eliminated_by_availability`` on every read event of one nest
    whose non-local data its last writer's write-back already covers.
    *events* are the nest's events as derived, before coalescing merges
    their data sets."""
    writeback_of = {e.stmt.sid: e for e in events if e.kind == "writeback"}
    for e in events:
        if e.kind != "read":
            continue
        w = last_write_into(nest, e.stmt, e.ref)
        wb = writeback_of.get(w.sid) if w is not None else None
        e.eliminated_by_availability = wb is not None and e.data.is_subset(wb.data)
