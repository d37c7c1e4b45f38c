"""Crash-only compile service core: a supervised persistent worker pool.

The only code that supervises compile workers.  It keeps a fixed gang of
long-lived forked workers and layers the service policies the ROADMAP's
"heavy traffic" north star needs on top:

- **persistence** — workers loop over a per-worker task queue, so a
  thousand-job warm-up pays ``workers`` forks, not a thousand; the gang
  forks when the first job that needs a worker is admitted, so a batch
  of warm hits forks nothing;
- **supervision** — on the core shared with the real-process executor
  (:mod:`repro.supervise`): every worker beats from a daemon thread into
  a shared slab, a stale beat means a *frozen* process (SIGSTOP, kernel
  wedge), an exit without a result is a *crash*, and either one respawns
  a replacement worker;
- **retry + backoff** — a job whose worker crashed is retried up to
  ``max_attempts`` times with exponential backoff and *deterministic
  seeded jitter* (``Random(f"{seed}:{digest}:{attempt}")``), so two runs
  of the same chaotic batch make the same scheduling decisions;
- **quarantine** — a job that kills its worker ``max_attempts`` times is
  quarantined: it resolves (and every later submission fails fast) with
  a typed :class:`CompileQuarantined` carrying the full crash history,
  and an ``E-QUARANTINE`` diagnostic.  One poisoned job can never starve
  the queue or grind the pool through endless respawns;
- **backpressure** — admission is bounded by :data:`MAX_QUEUE` distinct
  pending compilations; past it, :meth:`CompilePool.submit` blocks.
  Warm cache hits and coalesced duplicates are admission-free — they
  never charge a queue slot or a worker;
- **single-flight** — submissions coalesce by kernel digest across the
  whole queue: a stampede of identical requests shares one build;
- **selection sharing** — CP selection does not depend on ``nprocs``, so
  strict jobs that differ only in rank count or backend (one
  ``analysis_digest``) select once.  A worker that selects sends the
  pickled :class:`~repro.compile.pipeline.SelectionArtifact` to the
  parent before it specializes; queued twins are held until it arrives
  (an idle worker takes other work meanwhile; the hold lifts if the
  selecting job fails or is retried) and are then dispatched with it.
  A selection already in the plan cache is read at submission, and the
  parent writes each published one there; its in-memory copy lives only
  while a queued or running ticket needs it;
- **graceful drain** — :meth:`shutdown` stops admission, finishes (or,
  on request, cancels with a typed :class:`CompileCancelled`) queued
  work, sends every worker its sentinel, and reaps all children.  No
  exit path — clean, ``KeyboardInterrupt``, or parent death — leaves an
  orphan: leaving the ``with`` block on an exception kills and reaps at
  once, an ``atexit`` sweep backstops the parent, and workers exit on
  their own when the parent disappears (they watch ``getppid``).

Deterministic compile *errors* (the compiler raised — retrying cannot
help) are reported by a live worker over the control queue as
:class:`~repro.compile.driver.CompileFailed` and do **not** cost the
worker its life or the job a retry.

The pool is the engine behind :class:`repro.compile.service.CompileService`,
:func:`repro.compile.driver.compile_many` (a transient pool per batch) and
``python -m repro.eval serve``; ``python -m repro.eval chaos --service``
drives it under seeded faults (:mod:`repro.compile.chaos`).
"""

from __future__ import annotations

import dataclasses
import os
import queue as _queue
import random
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from .. import supervise
from ..diag import E_QUARANTINE, I_RETRY, Diagnostic, DiagnosticSink, Severity
from ..supervise import ExecutorError, WorkerTimeout
from . import key as plan_key
from .cache import PlanCache, active_cache
from .driver import CompileFailed, CompileJob, CompileOutcome
from .pipeline import KernelArtifact, _loads, _replay


# ---------------------------------------------------------------------------
# typed service failures
# ---------------------------------------------------------------------------

class CompileQuarantined(ExecutorError):
    """A poisoned job: it killed its worker ``max_attempts`` times and
    will never be retried again.  ``history`` lists one entry per fatal
    attempt (kind, detail, elapsed seconds)."""

    def __init__(self, message: str, *, digest: str = "",
                 history: "tuple[AttemptRecord, ...]" = (), **kw):
        super().__init__(message, **kw)
        self.digest = digest
        self.history = history


class CompileCancelled(ExecutorError):
    """The job was still queued when the pool drained with
    ``cancel_queued=True`` (SIGTERM path) or shut down without waiting."""


class PoolClosed(ExecutorError):
    """Submission after :meth:`CompilePool.shutdown` began."""


@dataclass(frozen=True)
class AttemptRecord:
    """One fatal attempt in a job's crash history."""

    attempt: int
    kind: str  # 'crash' | 'stall'
    detail: str
    elapsed: float

    def describe(self) -> str:
        return (f"attempt {self.attempt}: {self.kind} after "
                f"{self.elapsed:.2f}s ({self.detail})")


# ---------------------------------------------------------------------------
# configuration and counters
# ---------------------------------------------------------------------------

#: admission bound: *distinct* admitted-but-unfinished compilations;
#: :meth:`CompilePool.submit` blocks at it
MAX_QUEUE = 64
#: growth of the retry backoff per fatal attempt, and its cap (seconds)
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0


@dataclass
class PoolConfig:
    """Supervision and admission policy for one :class:`CompilePool`.

    ``max_attempts`` bounds launches per job (first try + retries);
    attempt ``k``'s backoff is
    ``min(BACKOFF_MAX, backoff_base * BACKOFF_FACTOR**(k-1))`` plus a
    deterministic jitter in ``[0, backoff_base)`` seeded from
    ``(jitter_seed, digest, k)``.
    """

    workers: int = 4
    timeout: Optional[float] = None  # default per-job deadline (seconds)
    heartbeat_interval: float = 0.1
    heartbeat_timeout: float = 15.0
    max_attempts: int = 3
    backoff_base: float = 0.1
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")

    def backoff(self, digest: str, attempt: int) -> float:
        """Deterministic delay before retry *attempt* (2-based: the delay
        applied after fatal attempt ``attempt - 1``)."""
        base = min(
            BACKOFF_MAX, self.backoff_base * BACKOFF_FACTOR ** (attempt - 2),
        )
        jitter = random.Random(
            f"{self.jitter_seed}:{digest}:{attempt}"
        ).uniform(0.0, self.backoff_base)
        return base + jitter


@dataclass
class PoolStats:
    """Service-level counters (surfaced by ``python -m repro.eval
    diffstats`` next to the plan-cache counters)."""

    submitted: int = 0
    warm_hits: int = 0
    #: strict select stages run (and published) by workers
    selects: int = 0
    #: dispatches that carried a selection instead of selecting
    selections_shared: int = 0
    coalesced: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    crashes: int = 0
    stalls: int = 0
    timeouts: int = 0
    quarantined: int = 0
    quarantine_rejections: int = 0
    cancelled: int = 0
    forks: int = 0
    respawns: int = 0
    queue_depth: int = 0
    peak_queue_depth: int = 0

    def as_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in self.__dataclass_fields__.values()  # type: ignore[attr-defined]
        }


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _pool_worker_main(wid: int, task_q, ctrl_q, hb, hb_interval: float) -> None:
    """Loop of one persistent compile worker: take a job, build, report,
    repeat.  A deterministic compile error is reported and the loop
    continues — only the shutdown sentinel (or a lost parent) ends it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    supervise.start_beating(hb, wid, hb_interval)
    while True:
        try:
            item = task_q.get(timeout=1.0)
        except _queue.Empty:
            if os.getppid() != parent:  # orphaned: parent died abruptly
                break
            continue
        except (EOFError, OSError):  # pragma: no cover - torn queue
            break
        if item is None:  # shutdown sentinel
            break
        seq, job, selection = item
        try:
            # resolved at call time so a test/chaos harness that
            # patched the build function before forking this worker
            # (or before a respawn) is honored
            from . import driver as _driver

            _driver.on_select = lambda sel, seq=seq: ctrl_q.put(
                ("selected", wid, seq, sel))
            payload = _driver._build_for_job(job, selection)
            ctrl_q.put(("done", wid, seq, payload))
        except BaseException as exc:  # noqa: BLE001 - typed report
            if not supervise.report_error(ctrl_q, exc, wid, seq):
                break  # pragma: no cover - torn queue
    sys.exit(0)


# ---------------------------------------------------------------------------
# parent-side records
# ---------------------------------------------------------------------------

@dataclass
class PoolTicket:
    """One admitted compilation (shared by every submission that
    coalesced onto it).  States: ``queued`` → ``running`` (→ ``queued``
    again on retry) → ``done`` | ``failed``."""

    digest: str
    job: CompileJob
    #: the job's ``analysis_digest`` when strict (jobs sharing it share one
    #: selection); None for a lenient job, which never shares
    analysis: Optional[str] = None
    #: running without a selection: its twins wait for the one it makes
    selecting: bool = False
    state: str = "queued"
    seq: int = 0
    payload: Optional[bytes] = None
    #: artifact already deserialized while validating a warm cache hit;
    #: consumed (once) by the first waiter so a warm job costs a single
    #: ``_loads`` — later waiters deserialize ``payload`` themselves
    warm_art: Optional[object] = None
    error: Optional[ExecutorError] = None
    cached: bool = False
    attempts: int = 0
    history: "list[AttemptRecord]" = field(default_factory=list)
    not_before: float = 0.0  # backoff gate (monotonic)
    deadline: Optional[float] = None
    submitted_at: float = 0.0
    resolved_at: float = 0.0

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    @property
    def elapsed(self) -> float:
        if not self.done:
            return 0.0
        return max(self.resolved_at - self.submitted_at, 0.0)


class _Worker(supervise.Supervised):
    """One live pool worker and what it is doing."""

    def __init__(self, proc, beats, wid: int, task_q):
        super().__init__(proc, beats, slot=wid)
        self.task_q = task_q
        self.busy: Optional[str] = None  # digest in flight
        self.started = 0.0  # when the in-flight job was dispatched


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------

class CompilePool:
    """A supervised persistent worker pool for plan compilation.

    Thread-safe.  ``cache`` defaults to the active plan cache; warm hits
    resolve at submission without touching a worker, and the worker gang
    forks only once a job needs one.  Use as a context
    manager or call :meth:`shutdown` — both drain gracefully.
    """

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        cache: Optional[PlanCache] = None,
    ):
        self.config = config or PoolConfig()
        self.stats = PoolStats()
        self._cache = cache if cache is not None else active_cache()
        self._ctx = supervise.fork_context()
        self._ctrl = self._ctx.Queue()
        self._hb = supervise.heartbeat_slab(self._ctx, self.config.workers)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)  # ticket resolutions
        self._space = threading.Condition(self._lock)  # admission slots
        self._tickets: dict[str, PoolTicket] = {}
        self._queue: list[str] = []  # admitted digests awaiting a worker
        self._quarantine: dict[str, CompileQuarantined] = {}
        #: analysis digest -> pickled selection, while a ticket needs it
        self._selections: dict[str, bytes] = {}
        #: source text -> canonical form: a batch lexes each text once
        self._canonical: dict[str, str] = {}
        self._workers: list[_Worker] = []  # forked on first need
        self._seq = 0
        self._closed = False
        self._stopped = False
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True, name="compile-pool"
        )
        self._supervisor.start()
        supervise.guard(self, _abort)

    # -- client surface ----------------------------------------------------
    def submit(self, job: CompileJob) -> PoolTicket:
        """Admit one compilation; returns its (possibly shared) ticket.

        Resolution order: already-tracked digest → coalesce (no admission
        charge); quarantined digest → instant typed failure; plan-cache
        hit → instant warm ticket (no admission charge, no worker);
        otherwise (a strict job also reading the selection tier) a queue
        slot is taken, blocking while ``MAX_QUEUE`` are pending.  Raises
        :class:`PoolClosed` after shutdown began.
        """
        key = self._key(job)
        digest = key.kernel_digest
        analysis = key.analysis_digest if job.strict else None
        with self._lock:
            self.stats.submitted += 1
            if self._closed:
                raise PoolClosed("compile pool is shut down")
            ticket = self._share_locked(digest)
            if ticket is not None:
                return ticket
            probe_selection = (analysis is not None
                               and analysis not in self._selections)
            err = self._quarantine.get(digest)
            if err is not None:
                self.stats.quarantine_rejections += 1
                ticket = PoolTicket(
                    digest=digest, job=job, state="failed", error=err,
                    submitted_at=time.monotonic(),
                    resolved_at=time.monotonic(),
                )
                self._tickets[digest] = ticket
                return ticket
        # cache probe outside the lock: disk IO must not stall the pool
        payload = self._cache.get(digest) if self._cache is not None else None
        art = _loads(payload) if payload is not None else None
        if isinstance(art, KernelArtifact):
            with self._lock:
                ticket = self._tickets.get(digest)
                if ticket is None or ticket.state == "failed":
                    now = time.monotonic()
                    ticket = PoolTicket(
                        digest=digest, job=job, state="done",
                        payload=payload, warm_art=art, cached=True,
                        submitted_at=now, resolved_at=now,
                    )
                    self._tickets[digest] = ticket
                    self.stats.warm_hits += 1
                return ticket
        selection = None
        if probe_selection and self._cache is not None:
            # a corrupt entry reads as None; one that will not unpickle
            # makes the worker select for itself
            selection = self._cache.get(analysis)
        with self._space:
            if self._closed:
                raise PoolClosed("compile pool is shut down")
            ticket = self._share_locked(digest)
            if ticket is not None:
                return ticket
            while len(self._queue) >= MAX_QUEUE:
                self._space.wait()
                if self._closed:
                    raise PoolClosed("compile pool is shut down")
            ticket = PoolTicket(
                digest=digest, job=job, analysis=analysis,
                submitted_at=time.monotonic(),
            )
            self._tickets[digest] = ticket
            if selection is not None:
                self._selections.setdefault(analysis, selection)
            self._queue.append(digest)
            depth = len(self._queue)
            self.stats.queue_depth = depth
            self.stats.peak_queue_depth = max(
                self.stats.peak_queue_depth, depth
            )
            self._wake.notify_all()  # supervisor may be idle-waiting
            return ticket

    def wait(
        self, ticket: PoolTicket, timeout: Optional[float] = None,
    ) -> CompileOutcome:
        """Block until *ticket* resolves; materialize a fresh
        :class:`CompileOutcome` (every waiter gets its own deserialized
        kernel and replayed diagnostic sink).  Raises ``TimeoutError``
        if *timeout* seconds pass first."""
        with self._wake:
            if not self._wake.wait_for(lambda: ticket.done, timeout=timeout):
                raise TimeoutError(
                    f"compile {ticket.digest[:12]} still {ticket.state} "
                    f"after {timeout}s"
                )
        return self._materialize(ticket)

    def run_batch(
        self,
        jobs: "list[CompileJob]",
        timeout: Optional[float] = None,
        progress: Optional[Callable[[CompileOutcome], None]] = None,
    ) -> "list[CompileOutcome]":
        """The ``compile_many`` surface on pool workers: submit every job
        (admission blocks at ``MAX_QUEUE``), wait for all,
        return outcomes in input order with ``shared`` marked on
        duplicate-digest riders.  Always one outcome per job: when a
        drain begins mid-admission, the refused job and every later one
        resolve as typed :class:`CompileCancelled`."""
        tickets: list[PoolTicket] = []
        for job in jobs:
            if timeout is not None and job.timeout is None:
                job = dataclasses.replace(job, timeout=timeout)
            try:
                tickets.append(self.submit(job))
            except PoolClosed:
                break  # draining: this job and the rest are cancelled below
        outcomes: list[CompileOutcome] = []
        first_of: dict[str, int] = {}
        for i, job in enumerate(jobs):
            if i < len(tickets):
                out = self.wait(tickets[i])
                out.shared = first_of.setdefault(tickets[i].digest, i) != i
            else:
                out = CompileOutcome(job=job, index=i, error=CompileCancelled(
                    f"compile job {job.describe()} was not admitted "
                    f"(pool draining)"
                ))
            out.job, out.index = job, i
            outcomes.append(out)
            if progress is not None:
                progress(out)
        return outcomes

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted compilation resolved.  True on
        success, False if *timeout* expired first."""
        with self._wake:
            return self._wake.wait_for(
                lambda: all(t.done for t in self._tickets.values()),
                timeout=timeout,
            )

    def shutdown(self, wait: bool = True, cancel_queued: bool = False) -> None:
        """Stop admission and wind the pool down.

        ``wait=True`` (the default) finishes in-flight *and* queued work
        first — unless ``cancel_queued``, which fails still-queued
        tickets with a typed :class:`CompileCancelled` (the SIGTERM
        drain policy: finish what a worker already started, shed the
        rest).  ``wait=False`` cancels everything unresolved and kills
        workers immediately.  Every path reaps all children.
        """
        with self._space:
            if self._stopped:
                return
            self._closed = True
            if cancel_queued or not wait:
                self._cancel_queued_locked()
            if not wait:
                for ticket in self._tickets.values():
                    if not ticket.done:
                        self._resolve_failure_locked(ticket, CompileCancelled(
                            f"pool shut down with compile "
                            f"{ticket.digest[:12]} in flight"
                        ))
            self._space.notify_all()
        if wait:
            self.drain(timeout=None)
        with self._lock:
            self._stopped = True
            workers = list(self._workers)
        self._supervisor.join(timeout=10.0)
        if wait:  # sentinel per worker: a clean exit, all of them idle
            for w in workers:
                try:
                    w.task_q.put(None)
                except Exception:  # pragma: no cover - torn queue
                    pass
            deadline = time.monotonic() + 10.0
            for w in workers:
                w.proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        supervise.kill_and_reap(w.proc for w in workers)
        supervise.release_queues(*(w.task_q for w in workers), self._ctrl)
        supervise.unguard(self)

    def __enter__(self) -> "CompilePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # an exception (Ctrl-C, a raising progress callback) must not
        # wait for the queue to compile first: kill and reap at once
        self.shutdown(wait=exc_type is None)

    def start(self) -> None:
        """Fork the worker gang now instead of on first need (a harness
        that patches the build function for the first gang only)."""
        with self._lock:
            if not self._stopped:
                self._fork_gang_locked()

    # -- introspection (chaos harness + tests) -----------------------------
    def worker_pids(self) -> "list[int]":
        with self._lock:
            return [w.proc.pid for w in self._workers
                    if w.proc.pid is not None]

    def busy_pids(self) -> "list[int]":
        """PIDs of workers with a job in flight right now."""
        with self._lock:
            return [w.proc.pid for w in self._workers
                    if w.busy is not None and w.proc.pid is not None]

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def selections_held(self) -> int:
        """Selections kept in memory for queued or running tickets."""
        with self._lock:
            return len(self._selections)

    # -- internals ---------------------------------------------------------
    def _key(self, job: CompileJob) -> plan_key.PlanKey:
        """``job.key()``, canonicalizing each distinct source text once."""
        canonical = self._canonical.get(job.source)
        if canonical is None:
            canonical = plan_key.canonicalize_source(job.source)
            self._canonical[job.source] = canonical
        return plan_key.PlanKey._for_canonical(
            canonical, job.nprocs, job.params, job.backend, job.strict
        )

    def _share_locked(self, digest: str) -> Optional[PoolTicket]:
        """The existing ticket for *digest* if the submission should
        coalesce onto it (anything but a retryable failure), else None.
        Lock held."""
        ticket = self._tickets.get(digest)
        if ticket is None:
            return None
        quarantined = isinstance(ticket.error, CompileQuarantined)
        if ticket.state == "failed" and not quarantined:
            return None  # deterministic/timeout failure: allow resubmission
        if not ticket.done:
            self.stats.coalesced += 1
        elif quarantined:
            self.stats.quarantine_rejections += 1
        return ticket

    def _fork_gang_locked(self) -> None:
        if not self._workers:
            self._workers = [self._spawn(wid)
                             for wid in range(self.config.workers)]

    def _spawn(self, wid: int) -> _Worker:
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(wid, task_q, self._ctrl, self._hb,
                  self.config.heartbeat_interval),
            daemon=True, name=f"compile-pool-{wid}",
        )
        self._hb[wid] = time.monotonic()
        proc.start()
        self.stats.forks += 1
        return _Worker(proc, self._hb, wid, task_q)

    def _materialize(self, ticket: PoolTicket) -> CompileOutcome:
        out = CompileOutcome(job=ticket.job, index=0)
        out.cached = ticket.cached
        out.elapsed = ticket.elapsed
        if ticket.error is not None:
            out.error = ticket.error
            if isinstance(ticket.error, CompileQuarantined):
                out.sink.add(Diagnostic(
                    Severity.ERROR, E_QUARANTINE, str(ticket.error),
                    pass_name="service",
                ))
            return out
        assert ticket.payload is not None
        with self._lock:  # first waiter consumes the submit-time artifact
            art, ticket.warm_art = ticket.warm_art, None
        if art is None:
            art = _loads(ticket.payload)
        if not isinstance(art, KernelArtifact):  # pragma: no cover - stale
            out.error = CompileFailed(
                "cached artifact failed to deserialize", etype="PickleError"
            )
            return out
        sink = DiagnosticSink(strict=ticket.job.strict)
        out.kernel = _replay(art.kernel, sink)
        out.sink = sink
        if ticket.history:
            sink.info(
                f"compiled after {len(ticket.history)} "
                f"worker {'crashes' if len(ticket.history) > 1 else 'crash'}"
                f" ({'; '.join(a.describe() for a in ticket.history)})",
                code=I_RETRY, pass_name="service",
            )
        return out

    # (the _resolve/_release/_cancel helpers run with self._lock held)
    def _resolve_success_locked(self, ticket: PoolTicket, payload: bytes) -> None:
        if ticket.done:  # a cancel/timeout raced the result; first wins
            return
        ticket.payload = payload
        ticket.state = "done"
        ticket.resolved_at = time.monotonic()
        self.stats.completed += 1
        if ticket.history:
            self.stats.retries += len(ticket.history)
        self._release_selection_locked(ticket.analysis)
        self._wake.notify_all()

    def _resolve_failure_locked(
        self, ticket: PoolTicket, error: ExecutorError,
    ) -> None:
        if ticket.done:
            return
        ticket.error = error
        ticket.state = "failed"
        ticket.resolved_at = time.monotonic()
        self.stats.failed += 1
        self._release_selection_locked(ticket.analysis)
        self._wake.notify_all()

    def _release_selection_locked(self, analysis: Optional[str]) -> None:
        """Forget the in-memory selection of *analysis* once no queued or
        running ticket needs it (the plan cache keeps it)."""
        if analysis not in self._selections:
            return
        pending = [self._tickets[d] for d in self._queue]
        pending += [self._tickets[w.busy] for w in self._workers if w.busy]
        if not any(t.analysis == analysis and not t.done for t in pending):
            del self._selections[analysis]

    def _cancel_queued_locked(self) -> None:
        for digest in self._queue:
            ticket = self._tickets[digest]
            self._resolve_failure_locked(ticket, CompileCancelled(
                f"compile {digest[:12]} cancelled while queued "
                f"(pool draining)"
            ))
            self.stats.cancelled += 1
        self._queue.clear()
        self.stats.queue_depth = 0
        self._space.notify_all()

    def _fatal_attempt(
        self, ticket: PoolTicket, kind: str, detail: str, now: float,
    ) -> None:
        """Worker-killing failure (crash or stall) of an in-flight job:
        retry with backoff, or quarantine.  Lock held."""
        ticket.history.append(AttemptRecord(
            attempt=ticket.attempts, kind=kind, detail=detail,
            elapsed=now - (ticket.submitted_at or now),
        ))
        counter = "crashes" if kind == "crash" else "stalls"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if ticket.attempts >= self.config.max_attempts:
            err = CompileQuarantined(
                f"compile job {ticket.job.describe()} killed its worker "
                f"{ticket.attempts} times and was quarantined "
                f"[{'; '.join(a.describe() for a in ticket.history)}]",
                digest=ticket.digest, history=tuple(ticket.history),
            )
            self._quarantine[ticket.digest] = err
            self.stats.quarantined += 1
            self._resolve_failure_locked(ticket, err)
            return
        ticket.state = "queued"
        ticket.not_before = now + self.config.backoff(
            ticket.digest, ticket.attempts + 1
        )
        self._queue.append(ticket.digest)

    def _supervise(self) -> None:
        """Dispatch, collect, and police heartbeats/deadlines until the
        pool stops.  Never raises: a supervision bug must not strand
        waiters, so the loop body is defensively wrapped."""
        while True:
            with self._lock:
                if self._stopped:
                    return
            try:
                self._drain_ctrl(block=True)
                self._dispatch()
                self._police()
            except Exception:  # pragma: no cover - defensive
                traceback.print_exc(file=sys.stderr)
                time.sleep(supervise.POLL_INTERVAL)

    def _drain_ctrl(self, block: bool) -> None:
        for msg in supervise.drain(self._ctrl, block):
            kind, wid, seq = msg[0], msg[1], msg[2]
            with self._lock:
                worker = next(
                    (w for w in self._workers if w.slot == wid), None
                )
                digest = worker.busy if worker is not None else None
                ticket = self._tickets.get(digest) if digest else None
                if (ticket is None or ticket.seq != seq
                        or ticket.state != "running"):
                    continue  # a stale result (timeout or retry raced it)
                if kind == "selected":  # only strict jobs publish
                    ticket.selecting = False
                    self._selections[ticket.analysis] = msg[3]
                    self.stats.selects += 1
                else:
                    worker.busy = None
                    self._space.notify_all()
                    if kind != "done":
                        _, _, _, etype, emsg, tb = msg
                        self._resolve_failure_locked(ticket, CompileFailed(
                            f"compilation raised {etype}: {emsg}",
                            etype=etype, tb=tb,
                        ))
                        continue
            payload = msg[3]
            if kind == "selected":
                self._dispatch()  # the twins held on it go before the IO
                if self._cache is not None:
                    self._cache.put(ticket.analysis, payload)
                continue
            # cache write outside the lock (disk IO)
            if self._cache is not None:
                self._cache.put(digest, payload)
            with self._lock:
                self._resolve_success_locked(ticket, payload)

    def _dispatch(self) -> None:
        """Hand ready queued jobs to idle workers, forking the gang on
        first need.  A strict job whose selection is known carries it; one
        whose twin is still selecting is held, and an idle worker takes
        the next ready job instead."""
        now = time.monotonic()
        with self._lock:
            if self._stopped or not self._queue:
                return
            self._fork_gang_locked()
            idle = [w for w in self._workers
                    if w.busy is None and w.proc.exitcode is None]
            running = (self._tickets[w.busy] for w in self._workers if w.busy)
            selecting = {t.analysis for t in running
                         if t.selecting and t.state == "running"}
            for digest in list(self._queue):
                if not idle:
                    break
                ticket = self._tickets[digest]
                if ticket.not_before > now:
                    continue
                shared = self._selections.get(ticket.analysis)
                if shared is None and ticket.analysis in selecting:
                    continue  # held: a twin's selection is on its way
                worker = idle.pop(0)
                self._queue.remove(digest)
                self._seq += 1
                ticket.seq = self._seq
                ticket.state = "running"
                ticket.attempts += 1
                ticket.selecting = (
                    ticket.analysis is not None and shared is None
                )
                per_job = (ticket.job.timeout
                           if ticket.job.timeout is not None
                           else self.config.timeout)
                ticket.deadline = (
                    None if per_job is None else now + per_job
                )
                worker.busy = digest
                worker.started = now
                try:
                    worker.task_q.put((ticket.seq, ticket.job, shared))
                except Exception:  # pragma: no cover - torn queue
                    worker.busy = None
                    ticket.state = "queued"
                    ticket.attempts -= 1
                    self._queue.append(digest)
                    continue
                if ticket.selecting:
                    selecting.add(ticket.analysis)
                if shared is not None:
                    self.stats.selections_shared += 1
            self.stats.queue_depth = len(self._queue)
            self._space.notify_all()

    def _police(self) -> None:
        """Deadlines, heartbeats, and exits — replacing dead workers."""
        now = time.monotonic()
        kill: "list[tuple[_Worker, str, str]]" = []  # worker, kind, detail
        with self._lock:
            if self._stopped:
                return
            for w in self._workers:
                ticket = self._tickets.get(w.busy) if w.busy else None
                state, detail = w.verdict(now, self.config.heartbeat_timeout)
                if (ticket is not None and ticket.deadline is not None
                        and now > ticket.deadline
                        and w.proc.exitcode is None):
                    kill.append((w, "timeout",
                                 f"{now - w.started:.1f}s elapsed"))
                elif state == supervise.FROZEN:
                    kill.append((w, "stall", detail))
                elif state == supervise.CRASHED or (
                    state == supervise.PENDING and w.busy is None
                ):
                    # dead; with a job in flight, PENDING first waits
                    # for a result already on the control queue.  An
                    # idle worker has none coming: replace it at once
                    kill.append((w, "crash", detail))
        for w, kind, detail in kill:
            supervise.kill_and_reap([w.proc])
            with self._lock:
                if self._stopped:
                    return
                ticket = self._tickets.get(w.busy) if w.busy else None
                if ticket is not None and ticket.state == "running":
                    if kind == "timeout":
                        self.stats.timeouts += 1
                        self._resolve_failure_locked(ticket, WorkerTimeout(
                            f"compile job {ticket.job.describe()} exceeded "
                            f"its deadline ({detail})",
                        ))
                    else:
                        self._fatal_attempt(ticket, kind, detail, now)
                idx = self._workers.index(w)
                self.stats.respawns += 1
                self._workers[idx] = self._spawn(w.slot)
                self._space.notify_all()
            supervise.release_queues(w.task_q)


def _abort(pool: CompilePool) -> None:
    """The ``atexit`` backstop of a pool nobody shut down."""
    pool.shutdown(wait=False)


__all__ = [
    "AttemptRecord",
    "CompileCancelled",
    "CompilePool",
    "CompileQuarantined",
    "PoolClosed",
    "PoolConfig",
    "PoolStats",
    "PoolTicket",
]
