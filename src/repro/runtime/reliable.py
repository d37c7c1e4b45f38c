"""Reliable transport for the virtual machine: seq/ack/retransmit.

Every message carries a per-(src, dst, tag) sequence number, which keys
the fault plan's drop draws; the sender retransmits a lost copy after a
timeout that backs off exponentially.  All of it is *modeled* in virtual
time through the LogGP
:class:`~repro.runtime.model.MachineModel` rather than executed with real
timers:

- the virtual machine knows (from the :class:`~repro.runtime.faults.FaultPlan`)
  which transmission attempts are lost, so the arrival time of the copy
  that finally gets through is ``t_send + sum(RTO_i for each lost attempt)
  + alpha + beta*nbytes``;
- a lost *ack* is indistinguishable from lost data to the sender, so the
  plan's per-attempt drop decision covers both;
- retransmissions are handled by an offloaded NIC engine: they occupy the
  wire (and show up as ``resend`` trace events on the sender's timeline)
  but do not advance the sender's program clock, which has long since
  moved on — the standard zero-copy send-and-forget approximation.

The virtual machine appends each (dst, src, tag) mailbox in send order,
so delivery is in sequence order without a receive-side counter.

With no plan (or a plan with a zero drop rate) every code path
reduces to the seed runtime's arithmetic exactly: one attempt, arrival
``t_send + msg_time(nbytes)``, FIFO delivery — traces are bitwise
identical and the transport costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .faults import FaultPlan
from .model import MachineModel


#: initial retransmission timeout, as a multiple of the model's latency
#: ``alpha`` *on top of* one data+ack round trip — a sender declares a copy
#: lost only after the ack had a comfortable margin to return
RTO_ALPHAS = 8.0
#: multiplicative RTO growth per successive loss
BACKOFF = 2.0
#: cap on modeled backoff doublings.  The transport never gives up — after
#: ``MAX_RETRIES`` lost copies the next one is forced through — so a plan
#: with ``drop_rate < 1`` cannot wedge the machine; the cap only bounds
#: the modeled cost
MAX_RETRIES = 16
#: size of the acknowledgement message
ACK_BYTES = 16


@dataclass(frozen=True)
class SendSchedule:
    """Virtual-time outcome of one logical send."""

    arrival: float  # when the first successful copy lands
    attempts: int  # 1 + number of lost copies
    resend_windows: tuple[tuple[float, float], ...]  # NIC occupancy per retry


class ReliableTransport:
    """Per-VM send scheduling: pure computation over the model and plan."""

    def __init__(self, model: MachineModel, plan: Optional[FaultPlan] = None):
        self.model = model
        self.plan = plan

    def schedule(
        self, src: int, dst: int, tag: int, seq: int, nbytes: int, t_send: float
    ) -> SendSchedule:
        """Cost out one logical send, including retransmits."""
        base = self.model.msg_time(nbytes)
        plan = self.plan
        if plan is None or plan.drop_rate <= 0.0:
            return SendSchedule(t_send + base, 1, ())
        rtt = base + self.model.msg_time(ACK_BYTES)
        rto = RTO_ALPHAS * self.model.alpha + rtt
        t = t_send
        windows: list[tuple[float, float]] = []
        attempt = 0
        while attempt < MAX_RETRIES and plan.drops(src, dst, tag, seq, attempt):
            t += rto
            windows.append((t, t + self.model.beta * nbytes))
            rto *= BACKOFF
            attempt += 1
        return SendSchedule(t + base, attempt + 1, tuple(windows))
