"""The compilation-service front door: submit / poll / collect.

:class:`CompileService` is the programmatic shape of "millions of users
submitting kernels": a source-level face on the supervised persistent
worker pool (:mod:`repro.compile.pool`), holding no state of its own:

    svc = CompileService(workers=4)
    ticket = svc.submit(source, nprocs=4, params={"n": 64})
    ...
    if svc.poll(ticket).done:
        kernel = svc.collect(ticket).kernel
    svc.shutdown()

Tickets are the pool's, one per plan key: submitting the same
source/params/nprocs/backend twice returns the same ticket, across the
whole queue (*single-flight*: a stampede of identical submissions shares
one build, even while the first is still compiling).  Through the pool
the service is crash-only:

- a submission whose worker dies is retried with seeded exponential
  backoff; after ``max_attempts`` worker kills it is quarantined with a
  typed :class:`~repro.compile.pool.CompileQuarantined` carrying the
  crash history — one poisoned submission can never starve the queue;
- admission is bounded: past ``max_queue`` pending compilations,
  ``submit`` blocks (``overload="block"``) or raises a typed
  :class:`~repro.compile.pool.ServiceOverloaded` (``"reject"``);
- warm plan-cache hits resolve at submission without charging a queue
  slot or a worker;
- ``shutdown(wait=True)`` stops admission, finishes in-flight and queued
  work (``cancel_queued=True`` sheds the queue with typed
  :class:`~repro.compile.pool.CompileCancelled` failures instead — the
  SIGTERM drain policy), and reaps every worker.  No exit path leaves an
  orphan process.

``python -m repro.eval serve`` is the CLI face: it reads job specs from
a JSON file, compiles them on a pool, drains gracefully on SIGTERM, and
exits nonzero iff any job failed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from .cache import PlanCache
from .driver import CompileJob, CompileOutcome
from .pool import (
    CompileCancelled,
    CompilePool,
    CompileQuarantined,
    PoolClosed,
    PoolConfig,
    PoolTicket,
    ServiceOverloaded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..codegen.spmd import CompiledKernel


class CompileService:
    """Submit sources for compilation; poll and collect kernels.

    Thread-safe.  ``workers`` sizes the persistent worker pool,
    ``timeout`` is the default per-job deadline, ``cache`` defaults to
    the active plan cache (results persist across service instances
    through it), ``max_queue``/``overload`` set the admission policy,
    and ``pool_config`` overrides the whole supervision policy at once
    (retry/backoff/quarantine/heartbeat knobs).
    """

    def __init__(
        self,
        workers: int = 4,
        timeout: Optional[float] = None,
        cache: Optional[PlanCache] = None,
        max_queue: int = 64,
        overload: str = "block",
        pool_config: Optional[PoolConfig] = None,
    ):
        if pool_config is None:
            pool_config = PoolConfig(
                workers=workers, timeout=timeout,
                max_queue=max_queue, overload=overload,
            )
        self._pool = CompilePool(pool_config, cache=cache)

    # -- client surface ----------------------------------------------------
    def submit(
        self,
        source: str,
        nprocs: int,
        params: Mapping[str, int] | None = None,
        backend: str = "vector",
        strict: bool = True,
        label: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> PoolTicket:
        """Enqueue one compilation; returns its ticket (``.digest``,
        ``.job``, ``.state``: ``queued`` → ``running`` → ``done`` |
        ``failed``, a retry bouncing it back to ``queued``; ``.done``).

        Identical submissions (same plan key) coalesce onto one ticket —
        including while the first is still building (single-flight).
        Raises :class:`~repro.compile.pool.PoolClosed` after shutdown,
        and (under the ``"reject"`` admission policy, queue full) a typed
        :class:`~repro.compile.pool.ServiceOverloaded`.
        """
        return self._pool.submit(CompileJob(
            source=source, nprocs=nprocs, params=dict(params or {}),
            backend=backend, strict=strict, label=label, timeout=timeout,
        ))

    def poll(self, ticket: PoolTicket) -> PoolTicket:
        """Return the ticket (``ticket.done`` when terminal); its state
        is live, so this is a convenience for polling loops."""
        return ticket

    def collect(
        self, ticket: PoolTicket, timeout: Optional[float] = None
    ) -> CompileOutcome:
        """Block until the ticket resolves and return its outcome.

        Raises ``TimeoutError`` if *timeout* seconds pass first; a failed
        compilation returns normally with ``outcome.error`` set.
        """
        return self._pool.wait(ticket, timeout=timeout)

    def compile(self, *args, **kw) -> "CompiledKernel":
        """Synchronous convenience: submit + collect; raises the typed
        error on failure."""
        out = self.collect(self.submit(*args, **kw))
        if out.error is not None:
            raise out.error
        assert out.kernel is not None
        return out.kernel

    def stats(self) -> dict:
        """The pool's service-level counters (queue depth, rejections,
        retries, quarantines, forks, ...)."""
        return self._pool.stats.as_dict()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted compilation resolved (admission
        stays open).  True on success, False on *timeout*."""
        return self._pool.drain(timeout=timeout)

    def shutdown(self, wait: bool = True, cancel_queued: bool = False) -> None:
        """Stop accepting submissions and wind the pool down.  With
        ``wait`` (default) in-flight and queued jobs finish first;
        ``cancel_queued`` sheds still-queued jobs with typed
        :class:`~repro.compile.pool.CompileCancelled` failures instead
        (the SIGTERM drain policy).  All workers are reaped."""
        self._pool.shutdown(wait=wait, cancel_queued=cancel_queued)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.__exit__(*exc)  # drains; on an exception kills at once


__all__ = [
    "CompileCancelled",
    "CompileQuarantined",
    "CompileService",
    "PoolClosed",
    "ServiceOverloaded",
]
