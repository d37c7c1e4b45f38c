"""Execution traces for space-time diagrams (paper Figures 8.1-8.4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TraceEvent:
    """One interval on a rank's timeline.

    kind: 'compute' | 'send' | 'recv' | 'idle'.  ``peer`` is the other rank
    for send/recv; ``phase`` is the application phase label active when the
    event was recorded (e.g. 'y_solve').
    """

    rank: int
    kind: str
    t0: float
    t1: float
    peer: Optional[int] = None
    nbytes: int = 0
    phase: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class RankCommStats:
    """Cumulative message/byte counters for one rank of a run.

    The static cost analyzer (:mod:`repro.check.cost`) asserts its
    predicted counts equal these *exactly* on fault-free runs."""

    rank: int
    sent_messages: int = 0
    sent_bytes: int = 0
    recv_messages: int = 0
    recv_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "sent_messages": self.sent_messages,
            "sent_bytes": self.sent_bytes,
            "recv_messages": self.recv_messages,
            "recv_bytes": self.recv_bytes,
        }


class Trace:
    """Per-rank event log of one VirtualMachine run."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.events: list[TraceEvent] = []

    def add(self, ev: TraceEvent) -> None:
        self.events.append(ev)

    def for_rank(self, rank: int) -> list[TraceEvent]:
        return sorted(
            (e for e in self.events if e.rank == rank), key=lambda e: e.t0
        )

    def messages(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "send"]

    # -- cumulative per-rank communication accounting ----------------------
    def comm_stats(self, rank: int) -> RankCommStats:
        """Cumulative messages/bytes sent and received by one rank."""
        sm = sb = rm = rb = 0
        for e in self.events:
            if e.rank != rank:
                continue
            if e.kind == "send":
                sm += 1
                sb += e.nbytes
            elif e.kind == "recv":
                rm += 1
                rb += e.nbytes
        return RankCommStats(rank, sm, sb, rm, rb)

    def comm_stats_all(self) -> list[RankCommStats]:
        """Per-rank cumulative counters for every rank of the run."""
        return [self.comm_stats(r) for r in range(self.nprocs)]

    def total_messages(self) -> int:
        """Messages sent across all ranks (each message counted once, on
        its sender)."""
        return sum(1 for e in self.events if e.kind == "send")

    def total_bytes(self) -> int:
        """Payload bytes sent across all ranks."""
        return sum(e.nbytes for e in self.events if e.kind == "send")

    def makespan(self) -> float:
        return max((e.t1 for e in self.events), default=0.0)

    def busy_time(self, rank: int) -> float:
        return sum(e.duration for e in self.for_rank(rank) if e.kind == "compute")

    def idle_fraction(self, rank: int) -> float:
        total = self.makespan()
        if total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_time(rank) / total)

    def phase_window(self, phase: str) -> tuple[float, float]:
        evs = [e for e in self.events if e.phase == phase]
        if not evs:
            return (0.0, 0.0)
        return (min(e.t0 for e in evs), max(e.t1 for e in evs))

    def to_series(self) -> dict:
        """JSON-serializable form (used by the figure harness)."""
        return {
            "nprocs": self.nprocs,
            "makespan": self.makespan(),
            "comm": [s.as_dict() for s in self.comm_stats_all()],
            "events": [
                {
                    "rank": e.rank,
                    "kind": e.kind,
                    "t0": e.t0,
                    "t1": e.t1,
                    "peer": e.peer,
                    "nbytes": e.nbytes,
                    "phase": e.phase,
                }
                for e in sorted(self.events, key=lambda e: (e.rank, e.t0))
            ],
        }
