"""Send/recv matching over the emitted SPMD schedule (analysis 3).

The compiled kernel's message routes — each hoisted event's per-pair
covers (``CommEvent.flows``) — are flattened into a static per-rank
operation list (the messages ``exec_comm`` will issue, one per pair, of
the cover's volume).  The check requires, for every ``(src, dst, tag)``
key, that the send multiset and the receive multiset balance — an
unmatched receive is a static deadlock on the blocking virtual machine,
an unmatched send is silent data loss, and an element-count mismatch
corrupts the unpack loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diag import E_MATCH, Diagnostic, Severity
from ..isets.box import volume


@dataclass(frozen=True)
class ScheduleOp:
    """One message endpoint in the static schedule."""

    rank: int
    op: str  # 'send' | 'recv'
    peer: int
    tag: int
    count: int  # elements
    nest: int
    array: str

    def __str__(self) -> str:
        arrow = "->" if self.op == "send" else "<-"
        return (f"rank {self.rank} {self.op} {arrow} {self.peer} "
                f"(tag {self.tag}, {self.count} elems, {self.array})")


@dataclass
class StaticSchedule:
    """All message endpoints of a compiled kernel, in emission order."""

    ops: list[ScheduleOp] = field(default_factory=list)

    @classmethod
    def from_kernel(cls, kernel) -> "StaticSchedule":
        ops: list[ScheduleOp] = []
        for nest_idx, routes in enumerate(kernel.routes):
            for route in routes:
                for (src, dst), cover in sorted(route.pairs.items()):
                    ops.append(ScheduleOp(src, "send", dst, route.tag,
                                          volume(cover), nest_idx, route.array))
                    ops.append(ScheduleOp(dst, "recv", src, route.tag,
                                          volume(cover), nest_idx, route.array))
        return cls(ops)

    def sends(self) -> list[ScheduleOp]:
        return [o for o in self.ops if o.op == "send"]

    def recvs(self) -> list[ScheduleOp]:
        return [o for o in self.ops if o.op == "recv"]

    def without(self, op: ScheduleOp) -> "StaticSchedule":
        """A copy with one endpoint removed (mutation harness)."""
        out = list(self.ops)
        out.remove(op)
        return StaticSchedule(out)


def check_matching(schedule: StaticSchedule) -> list[Diagnostic]:
    """Balance sends against receives per (src, dst, tag) — unmatched
    receives deadlock, unmatched sends lose data, self-messages indicate
    a broken ownership test (``E-MATCH``)."""
    diags: list[Diagnostic] = []
    sends: dict[tuple[int, int, int], list[ScheduleOp]] = {}
    recvs: dict[tuple[int, int, int], list[ScheduleOp]] = {}
    for o in schedule.ops:
        if o.rank == o.peer:
            diags.append(Diagnostic(
                Severity.ERROR, E_MATCH,
                f"self-message in the schedule: {o} — owned data must not "
                "be routed through the transport",
                array=o.array, procs=(o.rank, o.peer), nest=o.nest,
            ))
            continue
        key = (o.rank, o.peer, o.tag) if o.op == "send" else (o.peer, o.rank, o.tag)
        (sends if o.op == "send" else recvs).setdefault(key, []).append(o)

    for key in sorted(set(sends) | set(recvs)):
        src, dst, tag = key
        s, r = sends.get(key, []), recvs.get(key, [])
        if len(s) != len(r):
            if len(s) < len(r):
                msg = (f"rank {dst} posts {len(r)} receive(s) from rank {src} "
                       f"(tag {tag}) but only {len(s)} send(s) exist — the "
                       "blocking receive deadlocks")
            else:
                msg = (f"rank {src} posts {len(s)} send(s) to rank {dst} "
                       f"(tag {tag}) but only {len(r)} receive(s) exist — "
                       "data is silently dropped")
            diags.append(Diagnostic(
                Severity.ERROR, E_MATCH, msg,
                array=(s or r)[0].array, procs=(src, dst),
                nest=(s or r)[0].nest,
            ))
            continue
        ns, nr = sum(o.count for o in s), sum(o.count for o in r)
        if ns != nr:
            diags.append(Diagnostic(
                Severity.ERROR, E_MATCH,
                f"element-count mismatch on ({src} -> {dst}, tag {tag}): "
                f"{ns} sent vs {nr} expected — the unpack loop misassigns",
                array=s[0].array, procs=(src, dst), nest=s[0].nest,
            ))
    return diags
