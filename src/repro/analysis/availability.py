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

Containment ⇒ the communication for R is redundant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..cp.model import CP, cp_iteration_set
from ..cp.nest import NestInfo, access_data_set
from ..cp.select import StatementCP
from ..distrib.layout import DistributionContext
from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import collect_array_refs, walk_stmts
from ..isets import ISet


@dataclass
class AvailabilityDecision:
    """Outcome for one non-local read reference."""

    stmt: Assign
    ref: ArrayRef
    nonlocal_read: ISet
    covering_write: Optional[Assign]
    eliminated: bool

    def __repr__(self) -> str:
        verdict = "ELIMINATED" if self.eliminated else "kept"
        return f"<Avail s{self.stmt.sid} {self.ref}: {verdict}>"


class AvailabilityAnalyzer:
    """Runs the §7 analysis over one loop nest with CPs already selected."""

    def __init__(
        self,
        root: DoLoop,
        cps: Mapping[int, StatementCP],
        ctx: DistributionContext,
        params: Mapping[str, int] | None = None,
        nest: NestInfo | None = None,
    ):
        self.root = root
        self.cps = cps
        self.ctx = ctx
        self.params = dict(params or {})
        #: *nest* is the caller's ``NestInfo(root, params)`` when it has
        #: one (the comm analyzer does), so the dependences are shared
        self.nest = nest if nest is not None else NestInfo(root, self.params)
        self.deps = self.nest.deps

    # -- per-reference sets -------------------------------------------------
    def nonlocal_read_set(self, stmt: Assign, ref: ArrayRef) -> Optional[ISet]:
        """Data of *ref* read by the representative processor but not owned
        by it (symbolic in the processor coordinates)."""
        layout = self.ctx.layout(ref.name)
        if layout is None:
            return None
        scp = self.cps.get(stmt.sid)
        if scp is None:
            return None
        dims = self.nest.dims_of(stmt)
        bounds = self.nest.bounds_of(stmt)
        if bounds is None:
            return None
        iters = cp_iteration_set(scp.cp, dims, bounds.bind(self.params), self.ctx)
        data = access_data_set(ref, iters, dims)
        if data is None:
            return None
        return data.subtract(layout.ownership())

    def nonlocal_write_set(self, stmt: Assign) -> Optional[ISet]:
        """Data written by the representative processor that it does not own."""
        if not isinstance(stmt.lhs, ArrayRef):
            return None
        return self.nonlocal_read_set_for_lhs(stmt)

    def nonlocal_read_set_for_lhs(self, stmt: Assign) -> Optional[ISet]:
        layout = self.ctx.layout(stmt.lhs.name)
        if layout is None:
            return None
        scp = self.cps.get(stmt.sid)
        if scp is None:
            return None
        dims = self.nest.dims_of(stmt)
        bounds = self.nest.bounds_of(stmt)
        if bounds is None:
            return None
        iters = cp_iteration_set(scp.cp, dims, bounds.bind(self.params), self.ctx)
        data = access_data_set(stmt.lhs, iters, dims)
        if data is None:
            return None
        return data.subtract(layout.ownership())

    # -- last write -----------------------------------------------------------
    def last_write_into(self, stmt: Assign, ref: ArrayRef) -> Optional[Assign]:
        """The deepest flow dependence whose sink is this read reference."""
        best: tuple[int, int, Assign] | None = None
        for d in self.deps:
            if d.kind != "flow" or d.dst.sid != stmt.sid:
                continue
            if d.dst_ref is not ref:
                continue
            if not isinstance(d.src, Assign):
                continue
            # deepest dependence wins; textual order breaks ties (the later
            # statement in the body is the later writer within an iteration)
            key = (d.level, self.nest.order.get(d.src.sid, 0))
            if best is None or key > best[:2]:
                best = (key[0], key[1], d.src)
        return best[2] if best else None

    # -- main ----------------------------------------------------------------
    def analyze(self) -> list[AvailabilityDecision]:
        out: list[AvailabilityDecision] = []
        for stmt in walk_stmts([self.root]):
            if not isinstance(stmt, Assign):
                continue
            for ref in collect_array_refs(stmt.rhs):
                nl = self.nonlocal_read_set(stmt, ref)
                if nl is None or nl.is_empty():
                    continue
                w = self.last_write_into(stmt, ref)
                if w is None:
                    out.append(AvailabilityDecision(stmt, ref, nl, None, False))
                    continue
                wset = self.nonlocal_write_set(w)
                elim = wset is not None and nl.is_subset(wset)
                out.append(AvailabilityDecision(stmt, ref, nl, w, elim))
        return out

    def eliminated_refs(self) -> set[tuple[int, ArrayRef]]:
        return {
            (d.stmt.sid, d.ref) for d in self.analyze() if d.eliminated
        }
