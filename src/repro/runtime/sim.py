"""The virtual machine: per-rank threads, mailboxes, virtual clocks.

Numerical execution is real (numpy on real data); *time* is simulated.
Each rank has a private clock advanced by modeled compute and communication
costs.  A receive completes at ``max(receiver_clock, sender_clock_at_send +
alpha + beta*bytes)`` — so wait time (white space in the paper's space-time
diagrams) appears whenever a processor out-runs its producer, exactly the
pipeline-fill/drain behavior the paper analyzes.

Timing is deterministic: each (dst, src, tag) mailbox is appended in
sender program order and consumed FIFO, and every clock update depends
only on program order and the model, never on host thread scheduling.

Resilience (see DESIGN.md "Fault model & chaos harness"):

- an optional :class:`~repro.runtime.faults.FaultPlan` injects message
  drops and rank crashes, both costed in virtual time;
- the :class:`~repro.runtime.reliable.ReliableTransport` masks drops
  with sequence numbers, acks, and modeled exponential-backoff
  retransmission — with no plan active it is bitwise-invisible;
- blocked receives are watched by a wait-for-graph cycle detector instead
  of a wall-clock timeout: a genuine deadlock (or a wait on a terminated
  rank) raises :class:`DeadlockError` immediately with a per-rank
  diagnostic of phase, virtual clock, awaited (src, tag), and pending
  mailbox keys.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .faults import FaultPlan, RankCrashed
from .model import MachineModel, TEST_MACHINE
from ..supervise import ExecutorTimeout
from .reliable import ReliableTransport
from .trace import Trace, TraceEvent


class DeadlockError(RuntimeError):
    """A cycle in the wait-for graph (or a wait on a terminated rank)."""


@dataclass(eq=False)
class Message:
    src: int
    dst: int
    tag: int
    payload: Any  # numpy array (functional mode) or None (work model)
    nbytes: int
    arrival: float  # virtual arrival time at the receiver
    seq: int = 0  # per-(src, dst, tag) sequence number (keys drop draws)


class Rank:
    """The per-rank API handed to node programs (mpi4py-flavored)."""

    def __init__(self, vm: "VirtualMachine", rank: int):
        self.vm = vm
        self.rank = rank
        self.size = vm.nprocs
        self.t = 0.0
        self.phase = ""
        self._trace = vm.trace
        self._send_seq: dict[tuple[int, int], int] = {}
        self._fault = vm.faults.fault_for(rank) if vm.faults is not None else None
        vm._register(self)

    # -- bookkeeping -----------------------------------------------------------
    def set_phase(self, name: str) -> None:
        """Label subsequent trace events with an application phase."""
        self.phase = name

    def _record(self, kind: str, t0: float, t1: float, peer: int | None = None, nbytes: int = 0) -> None:
        if self._trace is not None:
            self._trace.add(TraceEvent(self.rank, kind, t0, t1, peer, nbytes, self.phase))

    def _fault_check(self) -> None:
        """Fire a pending crash fault once the clock crosses its time."""
        f = self._fault
        if f is None or self.t < f.time or self.vm.faults.fired(f):
            return
        self._fault = None  # fire at most once per rank per run
        self.vm.faults.mark_fired(f)
        self._record("crash", self.t, self.t)
        raise RankCrashed(self.rank, self.t)

    # -- compute ------------------------------------------------------------------
    def compute(self, flops: float) -> None:
        """Advance the clock by modeled computation."""
        if flops <= 0:
            return
        t0 = self.t
        self.t += self.vm.model.compute_time(flops)
        self._record("compute", t0, self.t)
        self._fault_check()

    # -- point-to-point ----------------------------------------------------------
    def send(self, dst: int, data: Optional[np.ndarray] = None, tag: int = 0,
             nelems: int | None = None) -> None:
        """Non-blocking-style send: the sender pays only its overhead; the
        payload arrives at ``t + alpha + beta*bytes`` (later if the fault
        plan drops copies — see :mod:`repro.runtime.reliable`).  In
        work-model mode pass ``nelems`` instead of data."""
        if data is not None:
            payload: Any = np.ascontiguousarray(data).copy()
            nbytes = payload.nbytes
        else:
            if nelems is None:
                raise ValueError("send needs data or nelems")
            payload = None
            nbytes = nelems * self.vm.model.word_bytes
        t0 = self.t
        # LogGP-style: the sender's NIC is occupied for the full payload
        # (this is what serializes a node's outgoing all-to-all traffic),
        # and the message lands after the wire latency on top of that.
        self.t += self.vm.model.alpha / 2 + self.vm.model.beta * nbytes
        key = (dst, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        sched = self.vm.transport.schedule(self.rank, dst, tag, seq, nbytes, t0)
        self._record("send", t0, self.t, dst, nbytes)
        for r0, r1 in sched.resend_windows:
            self._record("resend", r0, r1, dst, nbytes)
        self.vm._deliver(Message(self.rank, dst, tag, payload, nbytes, sched.arrival, seq))
        self._fault_check()

    def recv(self, src: int, tag: int = 0) -> Any:
        """Blocking receive: returns the payload (or the byte count in
        work-model mode) and advances the clock to the arrival time."""
        msg = self.vm._take(self.rank, src, tag)
        t0 = self.t
        self.t = max(self.t + self.vm.model.alpha / 2, msg.arrival)
        self._record("recv", t0, self.t, src, msg.nbytes)
        self._fault_check()
        return msg.payload if msg.payload is not None else msg.nbytes

    # -- collectives (built on p2p; enough for the NAS codes) ------------------------
    def barrier(self, tag: int = -1) -> None:
        """Dissemination barrier."""
        k = 1
        while k < self.size:
            self.send((self.rank + k) % self.size, nelems=0, tag=tag)
            self.recv((self.rank - k) % self.size, tag=tag)
            k *= 2

    def __repr__(self) -> str:
        return f"<Rank {self.rank}/{self.size} t={self.t:.6f}>"


#: host seconds a blocked receive waits before declaring a rank thread
#: hung.  Virtual-time deadlocks never wait for it: the wait-for graph
#: catches them at once.
RECV_TIMEOUT = 120.0


class VirtualMachine:
    """Runs one callable per rank on real threads with a virtual clock."""

    def __init__(
        self,
        nprocs: int,
        model: MachineModel = TEST_MACHINE,
        record_trace: bool = True,
        faults: Optional[FaultPlan] = None,
    ):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.model = model
        self.trace: Optional[Trace] = Trace(nprocs) if record_trace else None
        self.faults = faults
        self.transport = ReliableTransport(model, faults)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._mail: dict[tuple[int, int, int], deque[Message]] = {}
        self._ranks: dict[int, Rank] = {}
        self._blocked: dict[int, tuple[int, int]] = {}
        self._done: set[int] = set()
        self._deadlock: dict[int, str] = {}
        self._expired = False  # set by run(timeout=...); unwinds blocked ranks
        self._trace_lock = threading.Lock()
        if self.trace is not None:
            orig_add = self.trace.add

            def locked_add(ev: TraceEvent) -> None:
                with self._trace_lock:
                    orig_add(ev)

            self.trace.add = locked_add  # type: ignore[method-assign]

    def _register(self, rank: Rank) -> None:
        with self._lock:
            self._ranks[rank.rank] = rank

    # -- messaging internals ------------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        with self._cond:
            self._mail.setdefault((msg.dst, msg.src, msg.tag), deque()).append(msg)
            self._cond.notify_all()

    def _match(self, key: tuple[int, int, int], pop: bool) -> Optional[Message]:
        """The next message of a mailbox (consumed if ``pop``), or None.

        Called with the mailbox lock held.  The sender appends in program
        order, so the head is always the next in sequence.
        """
        q = self._mail.get(key)
        if not q:
            return None
        return q.popleft() if pop else q[0]

    # -- deadlock detection ------------------------------------------------------
    def _pending_keys(self, rank: int) -> list[tuple[int, int]]:
        return sorted(
            (k[1], k[2]) for k, q in self._mail.items() if k[0] == rank and q
        )

    def _describe_rank(self, r: int) -> str:
        obj = self._ranks.get(r)
        phase = obj.phase if obj is not None and obj.phase else "-"
        t = obj.t if obj is not None else 0.0
        if r in self._blocked:
            src, tag = self._blocked[r]
            state = f"blocked on (src={src}, tag={tag})"
        elif r in self._done:
            state = "terminated"
        else:  # pragma: no cover - only stuck ranks are described
            state = "running"
        return (
            f"  rank {r}: phase={phase!r} t={t:.6f} {state}; "
            f"pending (src, tag) in mailbox: {self._pending_keys(r)}"
        )

    def _check_wait_graph(self, start: int) -> None:
        """Raise DeadlockError if ``start`` can provably never be woken.

        Follows wait-for edges (each blocked rank points at the rank it
        awaits a message from).  A chain is deadlocked when it closes into
        a cycle of blocked ranks with no deliverable messages, or ends at a
        terminated rank that can never send again.  Called with the lock
        held; flags every rank on the chain so peers raise too.
        """
        chain: list[int] = []
        index: dict[int, int] = {}
        node = start
        dead_end: Optional[int] = None
        while True:
            if node in self._done:
                dead_end = node
                break
            wait = self._blocked.get(node)
            if wait is None:
                return  # still running: progress is possible
            if self._match((node, wait[0], wait[1]), pop=False) is not None:
                return  # a deliverable message exists: it will wake up
            if node in index:
                break  # cycle among blocked ranks
            index[node] = len(chain)
            chain.append(node)
            node = wait[0]
        if dead_end is not None:
            head = (
                f"rank(s) {chain} blocked waiting on rank {dead_end}, "
                f"which has terminated and can never send"
            )
            described = chain + [dead_end]
        else:
            cycle = chain[index[node]:]
            head = f"wait-for-graph cycle among ranks {cycle} (blocked ranks: {chain})"
            described = chain
        msg = "deadlock detected: " + head + "\n" + "\n".join(
            self._describe_rank(r) for r in described
        )
        for r in chain:
            self._deadlock[r] = msg
        self._cond.notify_all()
        raise DeadlockError(self._deadlock.pop(start))

    def _take(self, dst: int, src: int, tag: int) -> Message:
        key = (dst, src, tag)
        with self._cond:
            self._blocked[dst] = (src, tag)
            try:
                while True:
                    msg = self._match(key, pop=True)
                    if msg is not None:
                        return msg
                    if self._expired:
                        raise ExecutorTimeout(
                            f"rank {dst} unwound: run() wall-clock budget "
                            f"expired while waiting for (src={src}, tag={tag})",
                            rank=dst,
                        )
                    if dst in self._deadlock:
                        raise DeadlockError(self._deadlock.pop(dst))
                    self._check_wait_graph(dst)
                    if not self._cond.wait(timeout=RECV_TIMEOUT):
                        # wall-clock fallback: only a host-level hang (a
                        # stuck rank thread) can get here — virtual-time
                        # deadlocks are caught by the wait-for graph above.
                        raise DeadlockError(
                            f"rank {dst} timed out after {RECV_TIMEOUT}s of "
                            f"host time waiting for ({src}, tag {tag}) — no "
                            f"wait-for-graph cycle, so a rank thread is hung"
                        )
            finally:
                self._blocked.pop(dst, None)

    # -- running --------------------------------------------------------------
    def run(
        self,
        node_fn: Callable[[Rank], Any],
        timeout: Optional[float] = None,
    ) -> list[Any]:
        """Execute ``node_fn(rank)`` on every rank; returns per-rank results.

        Any exception in a rank thread is re-raised in the caller.  When a
        failing rank takes blocked peers down with secondary
        ``DeadlockError``s, the root cause — the first non-deadlock
        exception by rank order — is the one re-raised.

        ``timeout`` is an overall *wall-clock* budget in host seconds: when
        it expires, blocked ranks are woken and unwound, and the run raises
        a typed :class:`~repro.supervise.ExecutorTimeout` (the same
        error the real-process executor raises) naming the unfinished
        ranks.  A rank stuck in pure compute cannot be unwound — its daemon
        thread is abandoned — so a pathological kernel still cannot hang
        the harness.
        """
        results: list[Any] = [None] * self.nprocs
        errors: list[tuple[int, BaseException]] = []
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._cond:
            self._done.clear()
            self._deadlock.clear()
            self._expired = False

        def runner(r: int) -> None:
            try:
                results[r] = node_fn(Rank(self, r))
            except BaseException as exc:  # noqa: BLE001 - propagate everything
                errors.append((r, exc))
            finally:
                with self._cond:
                    self._done.add(r)
                    self._cond.notify_all()

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True, name=f"rank-{r}")
            for r in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            if deadline is None:
                t.join()
            else:
                t.join(max(0.0, deadline - _time.monotonic()))
        if deadline is not None and any(t.is_alive() for t in threads):
            with self._cond:
                self._expired = True  # blocked ranks raise out of _take
                self._cond.notify_all()
            for t in threads:
                t.join(timeout=1.0)  # grace for the unwind to finish
            stuck = [r for r, t in enumerate(threads) if t.is_alive()]
            unfinished = sorted(set(range(self.nprocs)) - self._done) or stuck
            raise ExecutorTimeout(
                f"virtual-machine run exceeded its {timeout:.3g}s wall-clock "
                f"budget with rank(s) {unfinished} unfinished"
                + (f"; rank(s) {stuck} are compute-bound and were abandoned"
                   if stuck else ""),
                rank=unfinished[0] if unfinished else None,
            )
        if errors:
            errors.sort(key=lambda e: e[0])
            primary = next(
                (e for e in errors if not isinstance(e[1], DeadlockError)), errors[0]
            )
            raise primary[1]
        return results

    def makespan(self) -> float:
        if self.trace is None:
            raise RuntimeError("trace recording disabled")
        return self.trace.makespan()
