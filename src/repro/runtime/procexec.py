"""Supervised real-process execution backend.

The virtual machine (:mod:`repro.runtime.sim`) runs every rank inside one
Python process — perfect for modeling, fault injection, and deterministic
timing, useless for multi-core wall clock.  This module runs the *same*
node programs on actual OS processes:

- ranks are ``fork``-ed ``multiprocessing`` workers (fork, not spawn: node
  programs are closures over compiled kernels and checkpoint stores, and
  copy-on-write inheritance is what makes restart-from-checkpoint work);
- mpi-style message routes are per-rank inbox queues (one multi-producer
  ``mp.Queue`` per destination; per-(src, tag) matching is buffered on the
  receiver, preserving the virtual machine's per-sender FIFO semantics);
- the shared-memory codegen target maps its arrays onto
  ``multiprocessing.shared_memory`` segments, so every rank addresses the
  same physical numpy buffers (see :func:`run_kernel`).

Real workers fail in real ways — crashes, hangs, partial writes — so the
backend is supervised from day one, on the same core as the compile pool
(:mod:`repro.supervise`: heartbeat slab, verdict, drain, reaping, typed
errors).  The parent-side monitor watches the heartbeat slab, each
worker's exit code, and an overall wall-clock deadline.  Every worker
beats from a tiny daemon thread (and
additionally on every rank-API call), so a live worker keeps beating
even through a long rank-API-free vectorized compute nest; a stale
heartbeat therefore means a *frozen* process — SIGSTOPped, wedged in the
kernel — while a runaway-but-live program is bounded by the overall
``timeout=`` budget instead.  Failures surface as typed errors carrying
rank, phase, and the time since the last heartbeat:

- :class:`WorkerCrashed` — a worker died (signal or nonzero exit) without
  delivering its result, including the exited-cleanly-but-sent-nothing
  partial-write case;
- :class:`WorkerTimeout` — a worker's heartbeat went stale (the process
  is frozen, not merely busy);
- :class:`ExecutorTimeout` — the whole run overran its ``timeout=`` budget
  (also raised by the virtual machine's wall-clock guard, so one typed
  error covers both executors);
- :class:`ExecutorError` — base class; also the verdict for an exception
  raised *by* the node program (deterministic, so never retried).

Crashes and heartbeat timeouts trigger a bounded gang restart with
exponential backoff: the whole gang is killed, pending checkpoint
messages are drained into the parent's
:class:`~repro.parallel.checkpoint.CheckpointStore`, and the re-forked
gang resumes from the latest *coordinated* checkpoint (node programs
already consult the store on startup — the child inherits the parent's
updated store by fork).  Every exit path — success, crash, timeout,
``KeyboardInterrupt`` — kills and reaps all children and closes/unlinks
every shared-memory segment; an ``atexit`` sweep backstops even a parent
dying mid-run.  Never a silent hang, never an orphaned worker.

Worker-side checkpoint saves are mirrored to the parent through the
control queue (``CheckpointStore._publish``); a worker SIGKILLed mid-put
can only lose its *own* in-flight message, and
``CheckpointStore.latest_complete`` already ignores iterations any rank
is missing, so a torn write can never be resumed from.
"""

from __future__ import annotations

import os
import queue as _queue
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .. import supervise
from ..supervise import (  # noqa: F401 - the typed family is re-exported here
    ExecutorError,
    ExecutorTimeout,
    ExecutorUnavailable,
    WorkerCrashed,
    WorkerTimeout,
)
from .model import MachineModel, TEST_MACHINE

_SEG_PREFIX = "repro_px"


@dataclass(frozen=True)
class ProcFault:
    """A real fault injected into a live gang by the supervisor (the
    chaos harness's process-backend mode).

    ``kind='kill'`` SIGKILLs the worker; ``kind='stall'`` SIGSTOPs it (the
    worker stops beating and is detected as :class:`WorkerTimeout`).  The
    trigger is ``after_iteration`` (fires once the supervisor has seen the
    rank's checkpoint for that iteration — guaranteeing restartable
    progress exists) or ``after_seconds`` of gang wall-clock.  Fires once
    per run, so the restarted gang survives.
    """

    rank: int
    kind: str = "kill"  # 'kill' | 'stall'
    after_iteration: Optional[int] = None
    after_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "stall"):
            raise ValueError(f"unknown process fault kind {self.kind!r}")
        if self.after_iteration is None and self.after_seconds is None:
            raise ValueError("fault needs after_iteration or after_seconds")


@dataclass
class ProcConfig:
    """Supervision policy for one :class:`ProcessExecutor`.

    ``heartbeat_timeout`` bounds how long a worker may go without beating.
    Beats come from a per-worker daemon thread every
    ``heartbeat_interval`` (plus every rank-API call), so only a frozen
    process — not a long compute nest — trips it.  ``max_restarts`` bounds
    gang restarts after crashes/timeouts; each waits
    ``restart_backoff * 2**attempt`` seconds first.
    """

    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 20.0
    max_restarts: int = 2
    restart_backoff: float = 0.05
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff out of range")


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

class _ProcVM:
    """What node programs read off ``rank.vm``: the machine model."""

    __slots__ = ("model", "nprocs")

    def __init__(self, model: MachineModel, nprocs: int):
        self.model = model
        self.nprocs = nprocs


class ProcRank:
    """The per-rank API inside a worker process — same surface as
    :class:`repro.runtime.sim.Rank`, but messages travel through real
    queues and ``t`` is the modeled lower bound (wall clock is what the
    harness measures; the numerics are what must match bitwise)."""

    def __init__(
        self,
        rank: int,
        nprocs: int,
        model: MachineModel,
        inboxes: list,
        hb,
        ctrl,
        hb_interval: float,
    ):
        self.rank = rank
        self.size = nprocs
        self.t = 0.0
        self.phase = ""
        self.vm = _ProcVM(model, nprocs)
        self._inboxes = inboxes
        self._inbox = inboxes[rank]
        self._pending: dict[tuple[int, int], deque] = {}
        self._hb = hb
        self._ctrl = ctrl
        self._hb_interval = hb_interval
        self._beat()

    def _beat(self) -> None:
        self._hb[self.rank] = time.monotonic()

    # -- bookkeeping -----------------------------------------------------------
    def set_phase(self, name: str) -> None:
        self.phase = name
        self._ctrl.put(("phase", self.rank, name))
        self._beat()

    # -- compute ---------------------------------------------------------------
    def compute(self, flops: float) -> None:
        if flops > 0:
            self.t += self.vm.model.compute_time(flops)
            self._beat()

    def elapse(self, seconds: float) -> None:
        if seconds > 0:
            self.t += seconds
            self._beat()

    # -- point-to-point --------------------------------------------------------
    def send(self, dst: int, data: Optional[np.ndarray] = None, tag: int = 0,
             nelems: int | None = None) -> None:
        """Non-blocking send (the queue's feeder thread absorbs the payload,
        so a send can never deadlock against a peer's send).

        The payload is copied before it is enqueued — ``mp.Queue`` pickles
        lazily in the feeder thread *after* ``put`` returns, so without
        the copy a sender mutating its buffer after ``send`` (legal on the
        virtual machine, which copies at sim.py's ``Rank.send``) would
        race the feeder and could deliver corrupted bytes."""
        if data is not None:
            payload: Any = np.ascontiguousarray(data).copy()
            nbytes = payload.nbytes
        else:
            if nelems is None:
                raise ValueError("send needs data or nelems")
            payload = None
            nbytes = nelems * self.vm.model.word_bytes
        self.t += self.vm.model.alpha / 2 + self.vm.model.beta * nbytes
        self._inboxes[dst].put((self.rank, tag, payload, nbytes))
        self._beat()

    isend = send

    def recv(self, src: int, tag: int = 0) -> Any:
        """Blocking receive, matched by (src, tag).  Beats while polling:
        a rank legitimately waiting on a live peer is not "hung"."""
        key = (src, tag)
        while True:
            q = self._pending.get(key)
            if q:
                s, t_, payload, nbytes = q.popleft()
                self.t += self.vm.model.alpha / 2
                self._beat()
                return payload if payload is not None else nbytes
            try:
                msg = self._inbox.get(timeout=self._hb_interval)
            except _queue.Empty:
                self._beat()
                continue
            self._pending.setdefault((msg[0], msg[1]), deque()).append(msg)
            self._beat()

    # -- collectives (identical algorithms to the virtual machine) -------------
    def barrier(self, tag: int = -1) -> None:
        k = 1
        while k < self.size:
            self.send((self.rank + k) % self.size, nelems=0, tag=tag)
            self.recv((self.rank - k) % self.size, tag=tag)
            k *= 2

    def allreduce_max(self, value: float, tag: int = -2) -> float:
        k = 1
        out = value
        while k < self.size:
            self.send((self.rank + k) % self.size, np.array([out]), tag=tag)
            other = self.recv((self.rank - k) % self.size, tag=tag)
            out = max(out, float(other[0]))
            k *= 2
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcRank {self.rank}/{self.size} t={self.t:.6f}>"


def _worker_main(
    rank_id: int,
    nprocs: int,
    node_fn: Callable,
    inboxes: list,
    ctrl,
    hb,
    model: MachineModel,
    checkpoint,
    hb_interval: float,
) -> None:
    """Entry point of one forked worker."""
    # the parent owns Ctrl-C: it tears the gang down deliberately instead
    # of every child racing it to a half-flushed queue
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        # beats come from a thread, so a worker deep in a rank-API-free
        # compute nest never goes stale
        supervise.start_beating(hb, rank_id, hb_interval)
        if checkpoint is not None:
            checkpoint.store._publish = (
                lambda it, r, state: ctrl.put(("ckpt", it, r, state))
            )
        rank = ProcRank(rank_id, nprocs, model, inboxes, hb, ctrl, hb_interval)
        result = node_fn(rank)
        ctrl.put(("done", rank_id, result))
    except BaseException as exc:  # noqa: BLE001 - report, then die nonzero
        supervise.report_error(ctrl, exc, rank_id)
        sys.exit(1)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

class _Gang:
    """One launched generation of workers plus its plumbing."""

    def __init__(self, workers, inboxes, ctrl):
        self.workers: list[supervise.Supervised] = workers  # by rank
        self.inboxes = inboxes
        self.ctrl = ctrl
        self.t0 = time.monotonic()
        self.iters: dict[int, int] = {}   # rank -> newest checkpointed iter


def leaked_segments(prefix: str | None = None) -> list[str]:
    """Shared-memory segments left in /dev/shm by *this* process — the
    orphan-detection probe used by the leak regression tests."""
    prefix = prefix or f"{_SEG_PREFIX}_{os.getpid()}_"
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(n for n in os.listdir(base) if n.startswith(prefix))


class ProcessExecutor:
    """Runs one callable per rank on supervised OS processes.

    Mirrors ``VirtualMachine.run``'s contract — per-rank results in rank
    order, exceptions re-raised in the caller — with real parallelism and
    the failure model documented in the module docstring.
    """

    def __init__(
        self,
        nprocs: int,
        model: MachineModel = TEST_MACHINE,
        config: Optional[ProcConfig] = None,
    ):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.model = model
        self.config = config or ProcConfig()
        self.restarts = 0  # gang restarts consumed by the last run()
        self._gang: Optional[_Gang] = None
        self._segment_counter = 0
        #: test hook: called once per supervision poll (chaos/CTRL-C tests)
        self._poll_hook: Optional[Callable[[], None]] = None
        self._ctx = supervise.fork_context(self.config.start_method)

    # -- lifecycle -------------------------------------------------------------
    def run(
        self,
        node_fn: Callable,
        *,
        checkpoint=None,
        timeout: Optional[float] = None,
        fault: Optional[ProcFault] = None,
        on_restart: Optional[Callable[[], None]] = None,
    ) -> list:
        """Execute ``node_fn(rank)`` on every rank and supervise the gang.

        ``checkpoint`` is the same :class:`CheckpointConfig` the node
        programs consult; worker saves are mirrored into its store so a
        restarted gang resumes instead of recomputing.  ``timeout`` is an
        overall wall-clock budget (:class:`ExecutorTimeout`).  ``fault``
        injects one real fault (chaos mode).  ``on_restart`` runs before
        each retry — :func:`run_kernel` uses it to restore shared-memory
        arrays that a dead gang may have partially written.
        """
        if fault is not None and not 0 <= fault.rank < self.nprocs:
            raise ValueError(f"fault rank {fault.rank} out of range")
        deadline = None if timeout is None else time.monotonic() + timeout
        fault_state = {"fired": False}
        self.restarts = 0
        last_error: Optional[ExecutorError] = None
        for attempt in range(self.config.max_restarts + 1):
            if attempt:
                backoff = self.config.restart_backoff * 2 ** (attempt - 1)
                if deadline is not None \
                        and time.monotonic() + backoff >= deadline:
                    # the budget cannot survive the backoff: raise now
                    # instead of sleeping into the deadline and launching
                    # a doomed gang
                    assert last_error is not None
                    raise ExecutorTimeout(
                        f"wall-clock budget exhausted before gang restart "
                        f"{attempt}/{self.config.max_restarts} "
                        f"(last failure: {last_error})",
                        rank=last_error.rank, phase=last_error.phase,
                    ) from last_error
                self.restarts = attempt
                time.sleep(backoff)
                if on_restart is not None:
                    on_restart()
            self._launch(node_fn, checkpoint)
            try:
                return self._supervise(deadline, fault, fault_state, checkpoint)
            except (WorkerCrashed, WorkerTimeout) as exc:
                last_error = exc
            finally:
                self._teardown(checkpoint)
        assert last_error is not None
        raise last_error

    def _segment_name(self) -> str:
        self._segment_counter += 1
        return f"{_SEG_PREFIX}_{os.getpid()}_{self._segment_counter}"

    def _launch(self, node_fn: Callable, checkpoint) -> None:
        cfg = self.config
        inboxes = [self._ctx.Queue() for _ in range(self.nprocs)]
        ctrl = self._ctx.Queue()
        hb = supervise.heartbeat_slab(self._ctx, self.nprocs)
        workers = [
            supervise.Supervised(self._ctx.Process(
                target=_worker_main,
                args=(r, self.nprocs, node_fn, inboxes, ctrl, hb, self.model,
                      checkpoint, cfg.heartbeat_interval),
                daemon=True,
                name=f"procexec-rank-{r}",
            ), hb, r)
            for r in range(self.nprocs)
        ]
        self._gang = _Gang(workers, inboxes, ctrl)
        supervise.guard(self, ProcessExecutor._teardown)
        for w in workers:
            w.proc.start()

    # -- supervision -----------------------------------------------------------
    def _drain(self, done: dict, phases: dict, checkpoint, block: bool) -> None:
        """Pull control messages: results, errors, checkpoints, phases.

        A message torn by a SIGKILLed writer is dropped by
        :func:`repro.supervise.drain` — safe: coordinated-complete
        checkpoint semantics ignore iterations missing any rank, and a
        lost ``done`` is re-detected as a crash.
        """
        gang = self._gang
        assert gang is not None
        for msg in supervise.drain(gang.ctrl, block):
            kind = msg[0]
            if kind == "done":
                done[msg[1]] = msg[2]
            elif kind == "err":
                _, r, etype, emsg, tb = msg
                err = ExecutorError(
                    f"rank {r} raised {etype}: {emsg}",
                    rank=r, phase=phases.get(r),
                )
                err.worker_traceback = tb
                raise err
            elif kind == "ckpt":
                _, it, r, state = msg
                gang.iters[r] = max(gang.iters.get(r, 0), it)
                if checkpoint is not None:
                    checkpoint.store.save(it, r, state)
            elif kind == "phase":
                phases[msg[1]] = msg[2]

    def _fault_due(self, fault: ProcFault, now: float) -> bool:
        gang = self._gang
        assert gang is not None
        if fault.after_iteration is not None:
            return gang.iters.get(fault.rank, 0) >= fault.after_iteration
        return now - gang.t0 >= (fault.after_seconds or 0.0)

    def _fire_fault(self, fault: ProcFault) -> None:
        gang = self._gang
        assert gang is not None
        p = gang.workers[fault.rank].proc
        if p.pid is None or not p.is_alive():  # pragma: no cover - raced exit
            return
        sig = signal.SIGKILL if fault.kind == "kill" else signal.SIGSTOP
        try:
            os.kill(p.pid, sig)
        except ProcessLookupError:  # pragma: no cover - raced exit
            pass

    def _supervise(self, deadline, fault, fault_state, checkpoint) -> list:
        gang = self._gang
        assert gang is not None
        cfg = self.config
        done: dict[int, Any] = {}
        phases: dict[int, str] = {}
        while True:
            if self._poll_hook is not None:
                self._poll_hook()
            self._drain(done, phases, checkpoint, block=True)
            if len(done) == self.nprocs:
                return [done[r] for r in range(self.nprocs)]
            now = time.monotonic()
            if deadline is not None and now > deadline:
                waiting = sorted(set(range(self.nprocs)) - set(done))
                raise ExecutorTimeout(
                    f"run exceeded its wall-clock budget with rank(s) "
                    f"{waiting} unfinished",
                    rank=waiting[0], phase=phases.get(waiting[0]),
                    last_heartbeat=gang.workers[waiting[0]].since_beat(now),
                )
            if fault is not None and not fault_state["fired"] \
                    and self._fault_due(fault, now):
                fault_state["fired"] = True
                self._fire_fault(fault)
            for r, w in enumerate(gang.workers):
                if r in done:
                    continue
                state, what = w.verdict(now, cfg.heartbeat_timeout)
                if state == supervise.ALIVE:
                    continue
                if state == supervise.FROZEN:
                    raise WorkerTimeout(
                        f"rank {r} stopped heartbeating",
                        rank=r, phase=phases.get(r),
                        last_heartbeat=w.since_beat(now),
                    )
                # exited: its result may already be on the control queue
                self._drain(done, phases, checkpoint, block=False)
                if r in done or state == supervise.PENDING:
                    continue
                raise WorkerCrashed(
                    f"rank {r} {what}",
                    exitcode=w.proc.exitcode, rank=r, phase=phases.get(r),
                    last_heartbeat=w.since_beat(now),
                )

    # -- cleanup ---------------------------------------------------------------
    def _teardown(self, checkpoint=None) -> None:
        """Kill and reap every child, salvage buffered checkpoint messages,
        release the queues.  Safe to call twice."""
        gang = self._gang
        if gang is None:
            return
        self._gang = None
        supervise.unguard(self)
        supervise.kill_and_reap(w.proc for w in gang.workers)
        # checkpoints already in the pipe survive their writer's death;
        # bank them so the next gang resumes as far forward as possible
        if checkpoint is not None:
            try:
                self._gang = gang
                self._drain({}, {}, checkpoint, block=False)
            finally:
                self._gang = None
        supervise.release_queues(*gang.inboxes, gang.ctrl)


# ---------------------------------------------------------------------------
# compiled-kernel front end
# ---------------------------------------------------------------------------

def _shared_clone(proto, shm) -> Any:
    """A FortranArray whose storage is a shared-memory segment."""
    from ..ir.interp import FortranArray

    data = np.ndarray(
        proto.data.shape, dtype=proto.data.dtype, buffer=shm.buf, order="F"
    )
    data[:] = proto.data
    return FortranArray(proto.data.shape, proto.lower, data=data)


def run_kernel(
    kernel,
    scalars,
    init: Optional[Callable] = None,
    target: str = "mpi",
    model: Optional[MachineModel] = None,
    config: Optional[ProcConfig] = None,
    timeout: Optional[float] = None,
    fault: Optional[ProcFault] = None,
):
    """Execute a :class:`~repro.codegen.spmd.CompiledKernel`'s generated
    node program on real processes.

    ``target='mpi'`` mirrors ``CompiledKernel.run``: every rank builds its
    own arrays (``init(rank_id, arrays)`` seeds them) and the hoisted
    communication events travel as real queue messages; returns the
    per-rank array dicts.  ``target='shmem'`` mirrors ``run_shmem``: the
    arrays live in ``multiprocessing.shared_memory`` segments mapped by
    every worker (``init(arrays)`` seeds the single shared set, NEW arrays
    stay per-rank private) and the generated barriers synchronize the
    ranks; returns the final shared arrays, copied out before the
    segments are unlinked.  Both are bitwise-identical to the virtual
    machine: same generated function, same guards, same numpy ufuncs.

    On a gang restart the mpi target is restart-safe by construction
    (fresh per-rank arrays); the shmem target restores the seeded initial
    state first, discarding any partial writes of the dead gang.
    """
    if target not in ("mpi", "shmem"):
        raise ValueError(f"unknown target {target!r}")
    ex = ProcessExecutor(kernel.nprocs, model=model or TEST_MACHINE, config=config)

    # rank_node execs the program and binds the guards here, before the
    # fork: the children inherit both instead of redoing them per worker
    if target == "mpi":
        return ex.run(
            kernel.rank_node("mpi", scalars, init=init),
            timeout=timeout, fault=fault,
        )

    from multiprocessing import shared_memory

    from ..ir.interp import FortranArray

    proto = kernel.make_arrays()
    shared: dict[str, Any] = {}
    segments: list = []
    try:
        for name in sorted(proto):
            shm = shared_memory.SharedMemory(
                create=True,
                name=ex._segment_name(),
                size=max(1, proto[name].data.nbytes),
            )
            segments.append(shm)
            shared[name] = _shared_clone(proto[name], shm)
        if init is not None:
            init(shared)
        pristine = {name: fa.data.copy() for name, fa in shared.items()}

        def reset():
            for name, data in pristine.items():
                shared[name].data[:] = data

        ex.run(
            kernel.rank_node("shmem", scalars, shared),
            timeout=timeout, fault=fault, on_restart=reset,
        )
        return {
            name: FortranArray(fa.data.shape, fa.lower, data=fa.data.copy())
            for name, fa in shared.items()
        }
    finally:
        shared.clear()
        for shm in segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - exported-buffer races
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
