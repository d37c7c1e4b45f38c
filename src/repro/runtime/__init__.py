"""Simulated distributed-memory runtime.

A :class:`VirtualMachine` runs one Python callable per MPI rank (in real
threads, computing on real numpy data) under a *virtual clock*: each rank
advances its own local time by modeled compute costs, and message matching
advances the receiver to ``max(local, send_completion + alpha + beta *
bytes)`` — the standard LogGP-style postal model.  Timing is therefore
deterministic (independent of host thread scheduling) while numerical
results are exact.

This substitutes for the paper's experimental platform (a 32-node IBM SP2
with 120 MHz P2SC nodes, IBM MPI, xlf -O3), which no longer exists;
:data:`IBM_SP2` is calibrated so the hand-written 4-processor Class A
numbers land on the paper's scale.  See DESIGN.md "Substitutions".
"""

from .faults import FaultPlan, RankCrashed, RankFault
from .model import MachineModel, IBM_SP2
from .procexec import (
    ExecutorError,
    ExecutorTimeout,
    ExecutorUnavailable,
    ProcConfig,
    ProcFault,
    ProcessExecutor,
    WorkerCrashed,
    WorkerTimeout,
)
from .reliable import ReliableTransport
from .sim import VirtualMachine, Rank, DeadlockError
from .trace import RankCommStats, Trace, TraceEvent

__all__ = [
    "MachineModel",
    "IBM_SP2",
    "VirtualMachine",
    "Rank",
    "DeadlockError",
    "FaultPlan",
    "RankFault",
    "RankCrashed",
    "ReliableTransport",
    "TraceEvent",
    "Trace",
    "RankCommStats",
    "ProcessExecutor",
    "ProcConfig",
    "ProcFault",
    "ExecutorError",
    "ExecutorUnavailable",
    "WorkerCrashed",
    "WorkerTimeout",
    "ExecutorTimeout",
]
