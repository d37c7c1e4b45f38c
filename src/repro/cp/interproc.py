"""§6 — Interprocedural selection of computation partitionings.

Large data-parallel codes call leaf routines inside parallel loops to do
pointwise/columnwise work (BT's ``matvec_sub`` / ``matmul_sub`` /
``binvcrhs``).  The algorithm is one bottom-up pass over the call graph:

1. Leaf procedures run the local CP selection unchanged; the resulting CP
   is summarized at the procedure entry in terms of a chosen *anchor* dummy
   argument (the distributed output parameter — for ``matvec_sub`` the CP
   is "owner of the rhs argument", exactly owner-computes over the body).
2. In callers, the candidate CP set of a CALL statement is restricted to a
   single choice: the callee's entry CP translated to the call site.
   Translation goes through template space: the callee CP "owner of dummy
   d" becomes "owner of the actual reference bound to d" — when the actual
   is an array-element reference ``A(e...)``, the translated CP is simply
   ``ON_HOME A(e...)``; if the caller has no equivalent template for the
   actual, one is synthesized (the actual's own layout plays that role).

The anchor choice mirrors the paper: the dummy argument that is (a) an
array, (b) *written* in the callee, and (c) listed last among written
dummies (Fortran convention puts outputs last); ties break toward the
argument with the most write sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..distrib.layout import DistributionContext
from ..ir.expr import ArrayRef, Var
from ..ir.program import Program, Subroutine
from ..ir.stmt import Assign, CallStmt
from ..ir.visit import walk_stmts
from .model import CP, OnHomeRef


@dataclass
class EntryCP:
    """A callee's CP summary: owner of the *anchor* dummy argument."""

    sub: str
    anchor_arg: str        # dummy argument name
    anchor_index: int      # its position in the argument list

    def __repr__(self) -> str:
        return f"<EntryCP {self.sub}: ON_HOME {self.anchor_arg}(...) (arg #{self.anchor_index})>"


class InterproceduralCP:
    """Bottom-up interprocedural CP selection over a whole program."""

    def __init__(
        self,
        program: Program,
        ctx_of: Mapping[str, DistributionContext],
        eval_params: Mapping[str, int] | None = None,
    ):
        self.program = program
        self.ctx_of = dict(ctx_of)
        self.eval_params = dict(eval_params or {})
        self.entry_cps: dict[str, EntryCP] = {}
        self.call_cps: dict[int, CP] = {}

    # -- callee summaries ------------------------------------------------------
    def summarize_entry(self, sub: Subroutine) -> Optional[EntryCP]:
        """Choose the anchor output dummy and record the entry CP."""
        written: dict[str, int] = {}
        for s in walk_stmts(sub.body):
            if isinstance(s, Assign):
                name = s.target_name.lower()
                decl = sub.symbols.lookup(name)
                if decl is not None and decl.is_dummy_arg and decl.is_array:
                    written[name] = written.get(name, 0) + 1
        if not written:
            return None
        args_lower = [a.lower() for a in sub.args]
        # last written dummy in argument order; break ties by write count
        best = max(
            written,
            key=lambda n: (args_lower.index(n), written[n]),
        )
        e = EntryCP(sub.name.lower(), best, args_lower.index(best))
        self.entry_cps[sub.name.lower()] = e
        return e

    # -- call-site translation ---------------------------------------------------
    def translate_to_call_site(
        self, call: CallStmt, entry: EntryCP, caller_ctx: DistributionContext
    ) -> CP:
        """The callee's entry CP expressed at the call site.

        The actual bound to the anchor dummy must be an array-element
        reference for a distributed translation ("templates": the actual's
        layout *is* the synthesized template).  Whole-array actuals of
        undistributed arrays, or scalar actuals, yield a replicated CP.
        """
        if entry.anchor_index >= len(call.args):
            return CP.replicated()
        actual = call.args[entry.anchor_index]
        if isinstance(actual, ArrayRef) and caller_ctx.is_distributed(actual.name):
            t = OnHomeRef.from_ref(actual)
            if t is not None:
                return CP((t,))
        if isinstance(actual, Var) and caller_ctx.is_distributed(actual.name):
            # whole-array actual: the callee sweeps the whole array — the
            # call executes wherever any of it lives; without interface
            # blocks dHPF cannot do better (the paper's temp_lhs/temp_rhs
            # copies exist for exactly this reason). Replicate.
            return CP.replicated()
        return CP.replicated()

    # -- driver ---------------------------------------------------------------
    def run(self) -> dict[int, CP]:
        """Process the program bottom-up; returns CPs for every CALL stmt."""
        for sub in self.program.bottom_up_order():
            # summarize this unit for its callers
            self.summarize_entry(sub)
            ctx = self.ctx_of.get(sub.name.lower())
            if ctx is None:
                continue
            for call in sub.calls():
                entry = self.entry_cps.get(call.name.lower())
                if entry is None:
                    self.call_cps[call.sid] = CP.replicated()
                    continue
                self.call_cps[call.sid] = self.translate_to_call_site(call, entry, ctx)
        return self.call_cps

    def statement_cp(self, call: CallStmt) -> CP:
        return self.call_cps.get(call.sid, CP.replicated())
