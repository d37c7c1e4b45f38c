"""The one supervision core for forked workers.

Two subsystems run forked workers under supervision: the compile pool
(:mod:`repro.compile.pool`) and the real-process executor
(:mod:`repro.runtime.procexec`).  This module owns everything they must
agree on — *how a forked worker is judged finished, dead or frozen, how
it reports, and how it is reaped*:

- the typed error family (:class:`ExecutorError` and its subclasses);
- :func:`fork_context` — the start method, or :class:`ExecutorUnavailable`;
- the heartbeat slab (:func:`heartbeat_slab`, an anonymous shared array
  inherited by fork) and the worker-side daemon beat thread
  (:func:`start_beating`);
- :func:`report_error` — the worker-side "tell the parent what I raised";
- :func:`drain` — the parent-side control-queue read that survives an
  empty queue, a torn-down queue and a frame torn by a killed writer;
- :class:`Supervised` — the verdict on one worker: alive, *frozen* (stale
  beat), exited with its result possibly still in flight (*pending*,
  inside :data:`EXIT_GRACE`), or *crashed*;
- :func:`kill_and_reap`, :func:`release_queues`, and one ``atexit`` sweep
  over one weak registry (:func:`guard` / :func:`unguard`).

Policy is deliberately *not* here: what to do about a crashed or frozen
worker (replace one worker and retry or quarantine its job; kill the gang
and restart from a checkpoint) and what the messages mean stay with each
caller.  Stdlib only.
"""

from __future__ import annotations

import atexit
import os
import queue as _queue
import signal
import threading
import time
import traceback
import weakref
from typing import Callable, Iterable, Iterator, Optional

#: seconds a cleanly-exited worker's result may stay in flight before the
#: exit is ruled a crash
EXIT_GRACE = 2.0
#: seconds one blocking control-queue read waits (the supervision tick)
POLL_INTERVAL = 0.02


# ---------------------------------------------------------------------------
# typed failures
# ---------------------------------------------------------------------------

class ExecutorError(RuntimeError):
    """A failure of (or inside) the real-process execution backend.

    ``rank``/``phase``/``last_heartbeat`` identify the failing worker:
    which rank, what application phase it last reported, and how many
    wall-clock seconds before detection it last proved liveness.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: Optional[int] = None,
        phase: Optional[str] = None,
        last_heartbeat: Optional[float] = None,
    ):
        detail = []
        if rank is not None:
            detail.append(f"rank {rank}")
        if phase:
            detail.append(f"phase {phase!r}")
        if last_heartbeat is not None:
            detail.append(f"last heartbeat {last_heartbeat:.2f}s ago")
        if detail:
            message = f"{message} ({', '.join(detail)})"
        super().__init__(message)
        self.rank = rank
        self.phase = phase
        self.last_heartbeat = last_heartbeat


class ExecutorUnavailable(ExecutorError):
    """The process backend cannot run here (no fork start method)."""


class WorkerCrashed(ExecutorError):
    """A worker process died (signal, nonzero exit, or a clean exit that
    never delivered a result — a partial write)."""

    def __init__(self, message: str, *, exitcode: Optional[int] = None, **kw):
        super().__init__(message, **kw)
        self.exitcode = exitcode


class WorkerTimeout(ExecutorError):
    """A worker stopped heartbeating.

    Workers beat from a background thread, so this means the process is
    *frozen* (SIGSTOP, kernel wedge) — a live worker stuck in a long
    compute keeps beating and is bounded by ``timeout=`` instead."""


class ExecutorTimeout(ExecutorError):
    """The overall wall-clock ``timeout=`` budget was exhausted.

    Raised by both executors — the process supervisor and the virtual
    machine's ``run(timeout=...)`` guard — so harnesses catch one type.
    """


# ---------------------------------------------------------------------------
# launching
# ---------------------------------------------------------------------------

def fork_context(start_method: str = "fork"):
    """The ``multiprocessing`` context supervised workers start from.

    Workers are closures over compiled kernels, checkpoint stores and
    (in tests) patched build functions, and the heartbeat slab is
    anonymous shared memory — all inherited by fork, none picklable."""
    import multiprocessing as mp

    if start_method not in mp.get_all_start_methods():
        raise ExecutorUnavailable(
            f"start method {start_method!r} is unavailable "
            f"(have {mp.get_all_start_methods()}); supervised workers "
            "need fork to inherit their closures and heartbeat slab"
        )
    return mp.get_context(start_method)


def heartbeat_slab(ctx, n: int):
    """*n* heartbeat slots (monotonic seconds), all stamped now."""
    slab = ctx.Array("d", n, lock=False)
    slab[:] = [time.monotonic()] * n
    return slab


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def start_beating(beats, slot: int, interval: float) -> None:
    """Stamp ``beats[slot]`` every *interval* seconds from a daemon
    thread, for the life of this (worker) process.  A live worker keeps
    beating through any compute; SIGSTOP or a kernel wedge stops this
    thread too — exactly what a stale beat is meant to detect."""

    def _beat() -> None:
        while True:
            beats[slot] = time.monotonic()
            time.sleep(interval)

    threading.Thread(target=_beat, daemon=True, name=f"heartbeat-{slot}").start()


def report_error(ctrl, exc: BaseException, *ident) -> bool:
    """Queue ``("err", *ident, type, message, traceback)`` for the parent.
    Call inside the ``except`` block.  False when the queue is gone."""
    try:
        ctrl.put((
            "err", *ident, type(exc).__name__, str(exc), traceback.format_exc(),
        ))
    except Exception:  # torn queue: nothing left to report to
        return False
    return True


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def drain(ctrl, block: bool) -> Iterator[tuple]:
    """Yield every control message now readable; with *block*, wait up to
    :data:`POLL_INTERVAL` for the first.

    A SIGKILLed worker can tear its last message mid-pipe; unpickling
    garbage is treated as a lost message — callers re-detect a lost
    result as a crash.  A queue torn down or closed under the reader
    ends the drain."""
    while True:
        try:
            msg = ctrl.get(timeout=POLL_INTERVAL) if block else ctrl.get_nowait()
        except (_queue.Empty, EOFError, OSError, ValueError):
            return  # nothing (more) to read / torn down / closed
        except Exception:  # corrupted frame from a killed writer
            continue
        finally:
            block = False
        yield msg


ALIVE, FROZEN, PENDING, CRASHED = "alive", "frozen", "pending", "crashed"


class Supervised:
    """One forked worker as its supervisor sees it: the process, its
    heartbeat slot, and when its exit was first noticed."""

    def __init__(self, proc, beats, slot: int):
        self.proc = proc
        self.beats = beats
        self.slot = slot
        self.exit_seen: Optional[float] = None

    def since_beat(self, now: float) -> float:
        """Seconds since the worker last proved liveness."""
        return now - float(self.beats[self.slot])

    def verdict(self, now: float, heartbeat_timeout: float) -> tuple[str, str]:
        """``(state, detail)`` for a worker that has not delivered yet.

        ``ALIVE``; ``FROZEN`` (running, but its beat is older than
        *heartbeat_timeout*); ``PENDING`` (exited cleanly less than
        :data:`EXIT_GRACE` ago — its result may still be traveling);
        ``CRASHED`` (died, or the grace window passed with nothing
        delivered).  *detail* says why for ``FROZEN``/``CRASHED``."""
        ec = self.proc.exitcode
        if ec is None:
            stale = self.since_beat(now)
            if stale > heartbeat_timeout:
                return FROZEN, f"no heartbeat for {stale:.1f}s (frozen process)"
            return ALIVE, ""
        if self.exit_seen is None:
            self.exit_seen = now
        if ec == 0 and now - self.exit_seen < EXIT_GRACE:
            return PENDING, ""
        return CRASHED, (
            f"killed by signal {-ec}" if ec < 0 else
            f"exited with code {ec}" if ec else
            "exited cleanly without delivering a result"
        )


def kill_and_reap(procs: Iterable) -> None:
    """SIGKILL every live process, then join them all.  SIGKILL, not
    SIGTERM: it also fells SIGSTOPped workers, and no worker needs
    child-side cleanup (results are delivered atomically)."""
    procs = [p for p in procs if p.pid is not None]  # started ones
    for p in procs:
        if p.exitcode is None:
            try:
                os.kill(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # raced exit
                pass
    for p in procs:
        p.join(timeout=5.0)


def release_queues(*queues) -> None:
    """Best-effort close of ``multiprocessing`` queues and their feeder
    threads."""
    for q in queues:
        try:
            q.close()
            q.join_thread()
        except Exception:  # pragma: no cover - best-effort release
            pass


# ---------------------------------------------------------------------------
# the atexit backstop
# ---------------------------------------------------------------------------

#: owner -> cleanup(owner), for owners with live children; weak, so a
#: collected owner drops out by itself
_GUARDED: weakref.WeakKeyDictionary[object, Callable] = weakref.WeakKeyDictionary()


def guard(owner, cleanup: Callable[[object], None]) -> None:
    """Have ``cleanup(owner)`` run at interpreter exit unless
    :func:`unguard` is called first — the backstop that reaps children
    when the parent dies mid-run."""
    _GUARDED[owner] = cleanup


def unguard(owner) -> None:
    """Drop *owner* from the backstop (its children are reaped)."""
    _GUARDED.pop(owner, None)


def _atexit_sweep() -> None:  # pragma: no cover - exercised on abrupt exit
    for owner, cleanup in list(_GUARDED.items()):
        try:
            cleanup(owner)
        except Exception:
            pass


atexit.register(_atexit_sweep)


__all__ = [
    "ALIVE",
    "CRASHED",
    "EXIT_GRACE",
    "ExecutorError",
    "ExecutorTimeout",
    "ExecutorUnavailable",
    "FROZEN",
    "PENDING",
    "POLL_INTERVAL",
    "Supervised",
    "WorkerCrashed",
    "WorkerTimeout",
    "drain",
    "fork_context",
    "guard",
    "heartbeat_slab",
    "kill_and_reap",
    "release_queues",
    "report_error",
    "start_beating",
    "unguard",
]
