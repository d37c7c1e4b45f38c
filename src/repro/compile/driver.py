"""Concurrent batch compilation: jobs, outcomes, and the batch entry point.

:func:`compile_many` compiles a batch of :class:`CompileJob`\\ s on a
transient :class:`~repro.compile.pool.CompilePool` — the one supervisor of
compile workers.  Duplicate jobs (same source/params/nprocs/backend/
strictness) share one compilation, and jobs already in the plan cache
never reach a worker at all.  Failures are typed, from the
:mod:`repro.supervise` family:

- a worker that raises reports :class:`CompileFailed` (deterministic —
  carries the original exception type, message, and traceback);
- a job whose worker dies without delivering (SIGKILL, segfault) is
  retried on a fresh worker; one that keeps killing workers resolves
  :class:`~repro.compile.pool.CompileQuarantined` with its crash history;
- a job that outlives its deadline has its worker SIGKILLed and reports
  :class:`~repro.supervise.WorkerTimeout`.

A failed job never kills the batch: every job gets a
:class:`CompileOutcome` (kernel or typed error), in input order.
Successful compilations are installed in the plan cache, so a re-run of
the same batch is all warm hits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from ..diag import DiagnosticSink
from ..supervise import (
    ExecutorError,
    ExecutorUnavailable,
    WorkerCrashed,
    WorkerTimeout,
)
from .cache import PlanCache
from .key import PlanKey
from .pipeline import KernelArtifact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..codegen.spmd import CompiledKernel


class CompileFailed(ExecutorError):
    """The compilation itself raised inside the worker (deterministic —
    retrying cannot help).  ``etype`` and ``worker_traceback`` carry the
    original exception's identity for triage."""

    def __init__(self, message: str, *, etype: str = "", tb: str = "", **kw):
        super().__init__(message, **kw)
        self.etype = etype
        self.worker_traceback = tb


@dataclass(frozen=True)
class CompileJob:
    """One compilation request: the exact inputs of
    :func:`repro.codegen.compile_kernel` that form its plan key, plus an
    optional display ``label`` and per-job ``timeout`` override."""

    source: str
    nprocs: int
    params: Mapping[str, int] | None = None
    backend: str = "vector"
    strict: bool = True
    label: Optional[str] = None
    timeout: Optional[float] = None

    def key(self) -> PlanKey:
        """The content address this job compiles under."""
        return PlanKey.for_source(
            self.source, self.nprocs, dict(self.params or {}),
            backend=self.backend, strict=self.strict,
        )

    def describe(self) -> str:
        """Short human-readable name for progress lines."""
        return self.label or f"<{self.nprocs}p {self.backend} kernel>"


@dataclass
class CompileOutcome:
    """What happened to one job: exactly one of ``kernel`` / ``error`` is
    set.  ``cached`` tells whether the kernel came from the plan cache
    without spawning a worker; ``shared`` whether it rode along with an
    identical job in the same batch."""

    job: CompileJob
    index: int
    kernel: "CompiledKernel | None" = None
    error: Optional[ExecutorError] = None
    cached: bool = False
    shared: bool = False
    elapsed: float = 0.0
    sink: DiagnosticSink = field(default_factory=DiagnosticSink)

    @property
    def ok(self) -> bool:
        """True when the job produced a kernel."""
        return self.kernel is not None


#: Set by a pool worker before each build (None in every other process):
#: where a strict build that runs its own select stage sends the pickled
#: selection, before it specializes, so twins of the same analysis digest
#: need not select again.
on_select: Optional[Callable[[bytes], None]] = None


# Module-level so tests can monkeypatch it: children are forked, so a
# patched build function is inherited (same trick as the procexec tests).
def _build_for_job(job: CompileJob, selection: Optional[bytes] = None) -> bytes:
    """Compile *job* cold and return the pickled kernel artifact.

    *selection* is a pickled :class:`~repro.compile.pipeline.SelectionArtifact`
    of the job's analysis digest (a twin's, or the selection tier's): it
    stands in for the select stage, exactly as a selection-tier hit does
    in ``cached_compile``.  One that will not unpickle is a miss: the job
    selects for itself and, if strict, hands the result to
    :data:`on_select`."""
    from .pipeline import SelectionArtifact, StageRecord, _dumps, _loads, build_kernel

    shared = _loads(selection) if selection is not None else None
    if not isinstance(shared, SelectionArtifact):
        shared = None
    record = None
    if job.strict and shared is None and on_select is not None:
        record = StageRecord(on_select=on_select)
    sink = DiagnosticSink(strict=job.strict)
    kernel = build_kernel(
        job.source, job.nprocs, dict(job.params or {}), job.backend,
        sink, None, record=record, selection=shared,
    )
    return _dumps(KernelArtifact(kernel=kernel))


def compile_many(
    jobs: "list[CompileJob]",
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache: Optional[PlanCache] = None,
    progress: Optional[Callable[[CompileOutcome], None]] = None,
) -> list[CompileOutcome]:
    """Compile every job, concurrently, under supervision.

    ``workers`` sizes the transient worker pool (default
    ``min(4, cpu_count)``); ``timeout`` is the default per-job deadline
    (``job.timeout`` overrides; None means unbounded); ``cache`` defaults
    to the active plan cache (pass one explicitly for hermetic runs).
    ``progress`` is called with each :class:`CompileOutcome`, in input
    order, as it resolves.  Returns outcomes in input order; failures are
    typed on the outcome, never raised — a poisoned job cannot kill the
    batch.  The pool is gone when this returns: on an exception (Ctrl-C,
    a raising ``progress``) its workers are killed and reaped at once.

    A caller that compiles more than one batch should own a
    :class:`~repro.compile.pool.CompilePool` and call its ``run_batch``.
    """
    from .pool import CompilePool, PoolConfig  # pool imports this module

    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    config = PoolConfig(workers=workers, timeout=timeout)
    with CompilePool(config, cache=cache) as pool:
        return pool.run_batch(list(jobs), progress=progress)


__all__ = [
    # typed errors re-exported so callers catch the full family here
    "CompileFailed",
    "CompileJob",
    "CompileOutcome",
    "ExecutorUnavailable",
    "WorkerCrashed",
    "WorkerTimeout",
    "compile_many",
]
