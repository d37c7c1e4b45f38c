"""Mutation harness: prove the verifier catches the bugs it claims to.

Each mutation seeds one representative compiler bug into a freshly
analyzed program and re-runs the verifier; the harness asserts the
*intended* analysis flags it (exact diagnostic code), and that the
unmutated pipelines stay error-free.  The seven kinds:

================  =============================================  ==========
mutation          seeded bug                                     caught by
================  =============================================  ==========
drop_read         comm generation loses a fetch event            E-COVERAGE
drop_flow         one read event's flows lose the pair that      E-COVERAGE
                  delivers to an interior rank of a 5×5 grid
widen_availability  availability analysis (§7) eliminates a      E-COVERAGE
                  fetch whose data is not actually available
skip_localize     LOCALIZE propagation (§4.2) skipped: defs      E-LOCAL
                  stay owner-computes but comm stays suppressed
shrink_overlap    overlap areas sized to owned data only (no     E-OVERLAP
                  halo storage)
drop_send         schedule emission loses one send endpoint      E-MATCH
drop_writeback    non-owner writes never returned to the owner   E-RACE
                  (y_solve pipeline, §5)
================  =============================================  ==========

Subjects are the paper kernels: ``compute_rhs`` (Figure 4.2, the
LOCALIZE kernel, compiled end to end), SP ``compute_rhs`` on a 5×5 grid
(``drop_flow``: the receiver is neither a corner nor the centre, so only
a check at every rank sees it) and ``y_solve`` (Figure 5.1, verified at
analysis level because its pipelined communication is not
code-generated).  Sizes are small (class-S-like) to keep the harness
fast; every subject is verified clean before mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..cp.model import CP
from ..diag import E_COVERAGE, E_LOCAL, E_MATCH, E_OVERLAP, E_RACE
from ..ir.expr import ArrayRef
from .diagnostics import CheckReport
from .schedule import StaticSchedule
from .verifier import VerifyUnit, analyzed_unit, verify_kernel, verify_unit

#: harness problem sizes — small but large enough that halos cross ranks
FIG42_PARAMS: Mapping[str, int] = {"n": 9}
FIG42_NPROCS = 8
Y_SOLVE_PARAMS: Mapping[str, int] = {"n": 11, "m": 0}
Y_SOLVE_NPROCS = 4

_cache: dict[str, object] = {}


def _fig42_kernel():
    """Compiled Figure 4.2 (compute_rhs, the LOCALIZE kernel)."""
    if "fig4.2" not in _cache:
        from ..codegen import compile_kernel
        from ..nas import kernels

        _cache["fig4.2"] = compile_kernel(
            kernels.COMPUTE_RHS_BT, FIG42_NPROCS, dict(FIG42_PARAMS)
        )
    return _cache["fig4.2"]


def _y_solve_unit() -> VerifyUnit:
    """Figure 5.1 (y_solve) at analysis level — pipelined comm."""
    if "fig5.1" not in _cache:
        from ..nas import kernels

        _cache["fig5.1"] = analyzed_unit(
            kernels.Y_SOLVE_SP, Y_SOLVE_NPROCS, Y_SOLVE_PARAMS,
            subject="y_solve",
        )
    return _cache["fig5.1"]


@dataclass
class MutationResult:
    name: str
    description: str
    expect_code: str
    report: CheckReport

    @property
    def caught(self) -> bool:
        """The intended analysis flagged the seeded bug as an *error*."""
        return any(d.code == self.expect_code for d in self.report.errors())


# -- the mutations (each restores its subject before returning) ---------------

def _mut_drop_read() -> CheckReport:
    kernel = _fig42_kernel()
    for _root, plan in kernel.nest_plans:
        for event in plan.live_events():
            if event.kind == "read":
                plan.events.remove(event)
                try:
                    return verify_kernel(kernel)
                finally:
                    plan.events.append(event)
    raise RuntimeError("subject has no live read event to drop")


def _interior(grid, rank: int) -> bool:
    """Off every face of the grid, and not its centre."""
    coords = grid.delinearize(rank)
    centre = tuple(s // 2 for s in grid.shape)
    return coords != centre and all(0 < c < s - 1 for c, s in zip(coords, grid.shape))


def _mut_drop_flow() -> CheckReport:
    """Compile SP compute_rhs on a 5×5 grid with ``CommEvent.flows``
    losing, for the first read event with one, the pair that delivers to
    an interior rank: the routes, the schedule and the verifier all read
    the same flows, as they would from a compiler with this bug."""
    from ..codegen import compile_kernel
    from ..comm.events import CommEvent
    from ..compile.cache import cache_disabled
    from ..nas import kernels

    flows = CommEvent.flows
    victim: dict = {}  # (kind, array, sid) of the event -> the lost pair

    def buggy(event, ctx, params, grid):
        out = flows(event, ctx, params, grid)
        key = (event.kind, event.array, event.stmt.sid)
        if event.kind == "read" and not victim:
            pair = next((p for p in sorted(out) if _interior(grid, p[1])), None)
            if pair is not None:
                victim[key] = pair
        return {pair: c for pair, c in out.items() if pair != victim.get(key)}

    CommEvent.flows = buggy
    try:
        with cache_disabled():
            kernel = compile_kernel(
                kernels.scaled(kernels.COMPUTE_RHS_SP), 25, {"n": 12}
            )
        if not victim:
            raise RuntimeError("subject delivers nothing to an interior rank")
        return verify_kernel(kernel)
    finally:
        CommEvent.flows = flows


def _mut_widen_availability() -> CheckReport:
    kernel = _fig42_kernel()
    for _root, plan in kernel.nest_plans:
        for event in plan.live_events():
            if event.kind == "read":
                event.eliminated_by_availability = True
                try:
                    return verify_kernel(kernel)
                finally:
                    event.eliminated_by_availability = False
    raise RuntimeError("subject has no live read event to eliminate")


def _mut_skip_localize() -> CheckReport:
    kernel = _fig42_kernel()
    saved: dict[int, CP] = {}
    for sid, scp in kernel.cps.items():
        if scp.source == "localize" and isinstance(scp.stmt.lhs, ArrayRef):
            saved[sid] = scp.cp
            scp.cp = CP.on_home(scp.stmt.lhs)
    if not saved:
        raise RuntimeError("subject has no LOCALIZE-propagated CPs")
    try:
        return verify_kernel(kernel)
    finally:
        for sid, cp in saved.items():
            kernel.cps[sid].cp = cp


def _mut_shrink_overlap() -> CheckReport:
    kernel = _fig42_kernel()
    overlap = {}
    for _root, plan in kernel.nest_plans:
        for event in plan.live_events():
            if event.kind == "read":
                layout = kernel.ctx.layout(event.array)
                overlap[event.array] = layout.ownership()
    if not overlap:
        raise RuntimeError("subject receives no halo to bound")
    return verify_kernel(kernel, overlap=overlap)


def _mut_drop_send() -> CheckReport:
    kernel = _fig42_kernel()
    schedule = StaticSchedule.from_kernel(kernel)
    sends = schedule.sends()
    if not sends:
        raise RuntimeError("subject schedule has no sends")
    return verify_kernel(kernel, schedule=schedule.without(sends[0]))


def _mut_drop_writeback() -> CheckReport:
    unit = _y_solve_unit()
    dropped = []
    for _root, plan in unit.nest_plans:
        for event in plan.live_events():
            if event.kind == "writeback":
                dropped.append((plan, event))
    if not dropped:
        raise RuntimeError("subject has no writeback events")
    for plan, event in dropped:
        plan.events.remove(event)
    try:
        return verify_unit(unit)
    finally:
        for plan, event in dropped:
            plan.events.append(event)


MUTATIONS: dict[str, tuple[str, str, Callable[[], CheckReport]]] = {
    "drop_read": (
        "communication generation loses a fetch event",
        E_COVERAGE, _mut_drop_read,
    ),
    "drop_flow": (
        "one read event's flows lose the pair delivering to an interior "
        "rank of a 5x5 grid",
        E_COVERAGE, _mut_drop_flow,
    ),
    "widen_availability": (
        "availability analysis eliminates a fetch that is not available",
        E_COVERAGE, _mut_widen_availability,
    ),
    "skip_localize": (
        "LOCALIZE defs stay owner-computes while comm stays suppressed",
        E_LOCAL, _mut_skip_localize,
    ),
    "shrink_overlap": (
        "overlap areas sized to owned data only",
        E_OVERLAP, _mut_shrink_overlap,
    ),
    "drop_send": (
        "schedule emission loses one send endpoint",
        E_MATCH, _mut_drop_send,
    ),
    "drop_writeback": (
        "non-owner writes are never returned to the owner",
        E_RACE, _mut_drop_writeback,
    ),
}


def run_mutation(name: str) -> MutationResult:
    """Seed the named compiler bug, verify, and restore the subject."""
    description, code, fn = MUTATIONS[name]
    return MutationResult(name, description, code, fn())
