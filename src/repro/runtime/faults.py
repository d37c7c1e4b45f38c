"""Deterministic fault injection for the virtual machine.

A :class:`FaultPlan` decides, from a seed and nothing else, which messages
are dropped and which ranks crash at a chosen *virtual* time.  Every
decision is a pure function of ``(seed, src, dst, tag, seq, attempt)``
hashed through blake2b, so a plan is reproducible across runs, platforms,
and host thread schedules — the same property the virtual clock gives
timing.

Faults are costed in virtual time: a dropped message shows up as
retransmission backoff added to its arrival time (see
:mod:`repro.runtime.reliable`), and a crash as a :class:`RankCrashed`
raised when the rank's clock crosses the fault time.  Host wall-clock time
never enters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence


class RankCrashed(RuntimeError):
    """An injected rank failure (:class:`RankFault`) fired."""

    def __init__(self, rank: int, time: float):
        super().__init__(
            f"rank {rank} crashed at virtual t={time:.6f}s (injected fault)"
        )
        self.rank = rank
        self.time = time


@dataclass(frozen=True)
class RankFault:
    """Crash one rank when its virtual clock reaches ``time``:
    :class:`RankCrashed` is raised out of the rank's node program.

    The fault fires a single time even if the same plan drives several
    runs — this is what lets a checkpoint/restart harness re-run the
    program under the same plan and have the restarted attempt survive.
    """

    rank: int
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be a non-negative virtual time")


class FaultPlan:
    """Seed-driven fault schedule for one virtual machine.

    ``drop_rate`` is in [0, 1): each transmission attempt of each message
    (identified by its reliable-transport sequence number) draws whether
    it is lost, deterministically.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_rate: float = 0.0,
        rank_faults: Sequence[RankFault] = (),
    ):
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate!r}")
        self.seed = int(seed)
        self.drop_rate = drop_rate
        by_rank: dict[int, RankFault] = {}
        for f in rank_faults:
            if f.rank in by_rank:
                raise ValueError(f"multiple faults for rank {f.rank}")
            by_rank[f.rank] = f
        self._by_rank = by_rank
        self._fired: set[RankFault] = set()

    def drops(self, src: int, dst: int, tag: int, seq: int, attempt: int) -> bool:
        """Is transmission ``attempt`` of this message lost (data or ack)?
        A uniform [0, 1) draw from a stable hash of the seed and the key."""
        if self.drop_rate <= 0.0:
            return False
        material = f"{self.seed}|drop|{src}|{dst}|{tag}|{seq}|{attempt}"
        h = hashlib.blake2b(material.encode(), digest_size=8).digest()
        return int.from_bytes(h, "big") / 2**64 < self.drop_rate

    # -- rank faults -----------------------------------------------------------
    def fault_for(self, rank: int) -> Optional[RankFault]:
        return self._by_rank.get(rank)

    def fired(self, fault: RankFault) -> bool:
        return fault in self._fired

    def mark_fired(self, fault: RankFault) -> None:
        self._fired.add(fault)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, drop={self.drop_rate}, "
            f"rank_faults={sorted(self._by_rank)})"
        )
