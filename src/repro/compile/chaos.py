"""The compile service as a chaos subject: its reference and its injectors.

:mod:`repro.eval.chaos` runs one seed → inject → check loop over three
subjects; this module is the compile-service one (``python -m repro.eval
chaos --service``).  Its reference is the fault-free fingerprint of each
job (:func:`baseline_fingerprints`); :data:`INJECTORS` maps a scenario to
a function that drives :class:`CompilePool` and :class:`PlanCache` through
the fault and returns the fingerprints of the kernels that survived:

==============  ==========================================================
``kill``        SIGKILL a busy pool worker mid-compile (retry path)
``stall``       SIGSTOP a busy pool worker (heartbeat detection path)
``corrupt``     flip bytes in disk-cache entries (kernel and selection
                tiers) between put and get
``enospc``      ``_disk_put`` fails with ENOSPC (degrade to memory tier)
``eio``         ``_disk_get`` fails with EIO (degrade to recompile)
``writers``     multi-process cache hammer: concurrent put/get/evict/clear
==============  ==========================================================

The seed picks victims and timing through a per-scenario RNG, so a
``(scenario, seed)`` pair replays the same faults.  A job that fails
under one of these (recoverable) faults is a problem of the row.

:func:`run_cache_hammer` is also used directly by the disk-race
regression tests: N forked processes hammer one cache directory and the
invariant is *zero corrupt reads* — every ``get`` returns either None or
the exact expected payload.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import sys
import threading
import time
from contextlib import contextmanager
from hashlib import sha256
from typing import Optional

from .. import supervise
from ..diag import DiagnosticSink
from ..supervise import ExecutorError
from . import driver as _driver
from .cache import PlanCache, PlanCacheConfig
from .driver import CompileJob, _build_for_job
from .pipeline import KernelArtifact, _loads, _replay
from .pool import CompilePool, PoolConfig

#: small but real kernel family — distinct constants give distinct plan
#: keys, so one scenario exercises several concurrent compilations; the
#: wildcard grid compiles at any rank count
_TEMPLATE = """
      subroutine k(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors procs(*)
chpf$ template t(0:nx)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto procs
      do i = 1, n - 1
         a(i) = b(i-1) + {const}
      enddo
      end
"""

#: seconds each ``pool.wait`` of a scenario may take; a wait that hits it
#: fails the row as hung
SCENARIO_DEADLINE = 120.0


def _chaos_jobs(n: int = 3, nprocs: int = 4) -> "list[CompileJob]":
    return [
        CompileJob(_TEMPLATE.format(const=f"{i}.0"), nprocs, {"n": 8},
                   label=f"chaos-k{i}@{nprocs}", timeout=60.0)
        for i in range(n)
    ]


def _readback_jobs() -> "list[CompileJob]":
    """The scenario jobs plus each source at another rank count: that one
    misses the kernel tier, so it reads back the source's selection."""
    return _chaos_jobs() + _chaos_jobs(nprocs=2)


def _fingerprint(kernel) -> str:
    """Bitwise identity of a compiled kernel: the SHA-256 of both emitted
    backends' sources."""
    text = kernel.python_source("mpi") + "\0" + kernel.python_source("shmem")
    return sha256(text.encode()).hexdigest()


def baseline_fingerprints() -> "dict[str, str]":
    """Fault-free reference: compile each scenario job in-process and
    fingerprint the result, keyed by kernel digest."""
    out: dict[str, str] = {}
    for job in _readback_jobs():
        digest = job.key().kernel_digest
        art = _loads(_build_for_job(job))
        assert isinstance(art, KernelArtifact)
        out[digest] = _fingerprint(_replay(art.kernel, DiagnosticSink()))
    return out


def compare(reference: "dict[str, str]", got: "dict[str, str]", row) -> None:
    """Every surviving kernel fingerprints exactly like its fault-free
    compile."""
    for digest, fp in got.items():
        if fp != reference[digest]:
            row.problems.append(
                f"kernel {digest[:12]} diverged from the fault-free compile "
                f"({fp[:12]} != {reference[digest][:12]})"
            )


# ---------------------------------------------------------------------------
# compiling through a pool under a fault
# ---------------------------------------------------------------------------

@contextmanager
def _slow_builds(delay: float):
    """Slow every build of the pool workers forked inside by *delay*
    seconds (they inherit the patched build function), so a signal lands
    mid-compile; on exit the function that was installed before is back,
    so workers respawned later (the retry path) build at full speed."""
    before = _driver._build_for_job

    def slow(job: CompileJob, selection: Optional[bytes] = None) -> bytes:
        time.sleep(delay)
        return before(job, selection)

    _driver._build_for_job = slow
    try:
        yield
    finally:
        _driver._build_for_job = before


def _signal_busy(
    pool: CompilePool, rng: random.Random, sig: int, budget: int,
    stop: threading.Event, hit: "list[int]",
) -> None:
    """Signal up to *budget* busy pool workers, at seeded moments."""
    deadline = time.monotonic() + 30.0
    while (hit[0] < budget and not stop.is_set()
           and time.monotonic() < deadline):
        pids = sorted(pool.busy_pids())
        if pids:
            victim = pids[rng.randrange(len(pids))]
            time.sleep(rng.uniform(0.0, 0.08))
            try:
                os.kill(victim, sig)
            except (ProcessLookupError, PermissionError):
                continue
            hit[0] += 1
        time.sleep(0.01)


def _compile(
    cache: PlanCache, row, seed: int,
    sig: Optional[int] = None, budget: int = 0,
    jobs: "Optional[list[CompileJob]]" = None, **pool_kw,
) -> "dict[str, str]":
    """Compile *jobs* (default: the scenario jobs) through a fresh pool
    on *cache* and return the survivors' fingerprints by kernel digest.
    With *sig*, up to *budget* busy workers get it mid-compile
    (``row.injected``); pool retries count as ``row.recoveries``; a
    failed job is a problem."""
    if jobs is None:
        jobs = _chaos_jobs()
    config = PoolConfig(workers=2, max_attempts=4, backoff_base=0.02,
                        jitter_seed=seed, **pool_kw)
    pool = CompilePool(config, cache=cache)
    stop, hit = threading.Event(), [0]
    injector = None
    if sig is not None:
        with _slow_builds(0.4):
            pool.start()
        rng = random.Random(f"chaos:{seed}:{row.scenario}")
        injector = threading.Thread(
            target=_signal_busy, args=(pool, rng, sig, budget, stop, hit),
            daemon=True,
        )
        injector.start()
    outcomes = []
    try:
        tickets = [pool.submit(job, block=True) for job in jobs]
        outcomes = [pool.wait(t, timeout=SCENARIO_DEADLINE) for t in tickets]
    except TimeoutError:
        row.problems.append("hung: wait() hit its deadline")
    finally:
        stop.set()
        if injector is not None:
            injector.join(timeout=5.0)
        pool.shutdown(wait=False)
    row.injected += hit[0]
    row.recoveries += pool.stats.retries
    got = {}
    for job, out in zip(jobs, outcomes):
        if out.error is None:
            got[job.key().kernel_digest] = _fingerprint(out.kernel)
            continue
        typed = "" if isinstance(out.error, ExecutorError) else "untyped "
        row.problems.append(
            f"{job.describe()} failed under a recoverable fault: "
            f"{typed}{type(out.error).__name__}: {out.error}"
        )
    return got


def _disk_fault(row, seed: int, op: str, code: int):
    """A seeded :attr:`PlanCache.fault_hook` failing 80% of *op* calls
    with ``OSError(code)``; each failure counts in ``row.injected``."""
    rng = random.Random(f"chaos:{seed}:{row.scenario}")

    def hook(what: str, digest: str) -> None:
        if what == op and rng.random() < 0.8:
            row.injected += 1
            raise OSError(code, os.strerror(code))

    return hook


def _corrupt_entries(cache: PlanCache, rng: random.Random) -> int:
    """Flip the final byte of each (seeded) disk entry's payload — the
    self-validating header must catch every one."""
    count = 0
    for path, size, _mtime in cache._disk_entries():
        if size == 0 or rng.random() < 0.3:
            continue
        with open(path, "r+b") as fh:
            fh.seek(size - 1)
            last = fh.read(1)
            fh.seek(size - 1)
            fh.write(bytes([last[0] ^ 0xFF]))
        count += 1
    return count


# ---------------------------------------------------------------------------
# the injectors: (reference, seed, row, scratch directory) -> fingerprints
# ---------------------------------------------------------------------------

def _cache(scratch: str) -> PlanCache:
    return PlanCache(PlanCacheConfig(directory=scratch))


def _kill(_ref, seed: int, row, scratch: str) -> "dict[str, str]":
    return _compile(_cache(scratch), row, seed, sig=signal.SIGKILL, budget=2)


def _stall(_ref, seed: int, row, scratch: str) -> "dict[str, str]":
    return _compile(_cache(scratch), row, seed, sig=signal.SIGSTOP, budget=1,
                    heartbeat_interval=0.05, heartbeat_timeout=1.0)


def _corrupt(_ref, seed: int, row, scratch: str) -> "dict[str, str]":
    cache = _cache(scratch)
    _compile(cache, row, seed)  # populate the disk tier
    row.injected = _corrupt_entries(cache, random.Random(f"chaos:{seed}:corrupt"))
    cache.clear_lru()  # force the next reads through the disk tier
    before = cache.stats.corrupt_evictions
    got = _compile(cache, row, seed, jobs=_readback_jobs())
    detected = cache.stats.corrupt_evictions - before
    if detected < row.injected:
        row.problems.append(
            f"only {detected} of {row.injected} corrupted entries were detected"
        )
    return got


def _enospc(_ref, seed: int, row, scratch: str) -> "dict[str, str]":
    cache = _cache(scratch)
    cache.fault_hook = _disk_fault(row, seed, "disk_put", errno.ENOSPC)
    got = _compile(cache, row, seed)
    if row.injected and cache.stats.io_errors == 0:
        row.problems.append("ENOSPC faults injected but io_errors stayed 0")
    return got


def _eio(_ref, seed: int, row, scratch: str) -> "dict[str, str]":
    # populate, then fail disk reads: warm probes degrade to recompiles
    # instead of surfacing the IO error
    cache = _cache(scratch)
    _compile(cache, row, seed)
    cache.clear_lru()
    cache.fault_hook = _disk_fault(row, seed, "disk_get", errno.EIO)
    return _compile(cache, row, seed)


def _writers(_ref, seed: int, row, scratch: str) -> "dict[str, str]":
    stats = run_cache_hammer(scratch, processes=3, iters=30, seed=seed)
    row.injected = stats["puts"] + stats["clears"]
    if not stats["ok"]:
        row.problems.append("hammer process died or timed out")
    if stats["corrupt_reads"]:
        row.problems.append(
            f"{stats['corrupt_reads']} corrupt reads out of {stats['gets']}"
        )
    return {}  # nothing compiled: nothing to compare


#: scenario -> injector, in rotation order (seed ``s`` runs scenario
#: ``s % 6``)
INJECTORS = {
    "kill": _kill,
    "stall": _stall,
    "corrupt": _corrupt,
    "enospc": _enospc,
    "eio": _eio,
    "writers": _writers,
}


# ---------------------------------------------------------------------------
# multi-process cache hammer
# ---------------------------------------------------------------------------

_HAMMER_KEYS = tuple(
    sha256(f"hammer-key-{i}".encode()).hexdigest() for i in range(12)
)
_HAMMER_COUNTS = ("puts", "gets", "hits", "corrupt_reads", "clears")


def _hammer_payload(key: str) -> bytes:
    """The one true payload for *key* — deterministic, so any successful
    read has exactly one correct value."""
    return (f"payload:{key}:".encode() * 64)[:4096]


def _hammer_child(directory: str, rank: int, iters: int, seed: int,
                  result_q) -> None:
    rng = random.Random(f"hammer:{seed}:{rank}")
    # no LRU: every get exercises the shared disk tier under contention;
    # a tiny byte budget keeps the evictor racing the writers
    cache = PlanCache(PlanCacheConfig(
        directory=directory, max_lru_entries=0, max_disk_bytes=16 * 1024,
    ))
    counts = dict.fromkeys(_HAMMER_COUNTS, 0)
    for _ in range(iters):
        key = _HAMMER_KEYS[rng.randrange(len(_HAMMER_KEYS))]
        op = rng.random()
        if op < 0.45:
            cache.put(key, _hammer_payload(key))
            counts["puts"] += 1
        elif op < 0.96:
            got = cache.get(key)
            counts["gets"] += 1
            if got is not None:
                counts["hits"] += 1
                if got != _hammer_payload(key):
                    counts["corrupt_reads"] += 1
        else:
            cache.clear()
            counts["clears"] += 1
    result_q.put(counts)
    sys.exit(0)


def _reap(proc) -> None:
    supervise.kill_and_reap([proc])


def run_cache_hammer(
    directory: str,
    processes: int = 4,
    iters: int = 40,
    seed: int = 0,
    timeout: float = 120.0,
) -> dict:
    """Hammer one cache directory from *processes* forked processes, each
    running a seeded mix of put/get/clear (evictions ride along on every
    put via the byte budget).  Returns aggregated counters; the caller
    asserts ``corrupt_reads == 0`` — a reader must see either nothing or
    the exact expected bytes, never a torn or resurrected entry.

    The children are supervised by :mod:`repro.supervise`: reaped on
    every path, and by its ``atexit`` sweep if this process dies first."""
    ctx = supervise.fork_context()
    result_q = ctx.Queue()
    gang = [
        ctx.Process(target=_hammer_child,
                    args=(directory, rank, iters, seed, result_q),
                    daemon=True)
        for rank in range(processes)
    ]
    totals = dict.fromkeys(_HAMMER_COUNTS, 0)
    got = 0
    deadline = time.monotonic() + timeout
    try:
        for p in gang:
            p.start()
            supervise.guard(p, _reap)
        while got < processes and time.monotonic() < deadline:
            # liveness first: a child that has exited flushed its result
            # into the pipe, so a drain after that finds it
            alive = any(p.is_alive() for p in gang)
            msgs = list(supervise.drain(result_q, block=True))
            for counts in msgs:
                for k, v in counts.items():
                    totals[k] += v
            got += len(msgs)
            if not msgs and not alive:
                break
        for p in gang:
            p.join(timeout=max(deadline - time.monotonic(), 0.1))
        ok = got == processes and all(p.exitcode == 0 for p in gang)
    finally:
        supervise.kill_and_reap(gang)
        supervise.release_queues(result_q)
        for p in gang:
            supervise.unguard(p)
    totals["stray_tmp"] = len(_cache(directory).stray_tmp_files())
    totals["ok"] = ok
    return totals


__all__ = [
    "INJECTORS",
    "SCENARIO_DEADLINE",
    "baseline_fingerprints",
    "compare",
    "run_cache_hammer",
]
