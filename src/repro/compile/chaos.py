"""Service-level chaos harness for the compile pool and plan cache.

``python -m repro.eval chaos --service`` drives :class:`CompilePool`
and :class:`PlanCache` under seeded faults and asserts the crash-only
contract the DESIGN doc promises:

- **surviving results are bitwise identical to fault-free** — a kernel
  compiled through any number of worker kills, stalls, cache
  corruptions, or disk faults fingerprints exactly like the baseline;
- **every failure is typed** — anything a scenario surfaces is an
  :class:`~repro.supervise.ExecutorError` subclass, never a bare
  exception or a hang;
- **nothing leaks** — after every scenario all pool workers are reaped
  (no orphan processes) and the cache directory holds no stray ``*.tmp``
  files.

Scenarios (rotated across seeds; the per-seed RNG picks victims and
timing, so a seed replays deterministically):

==============  ==========================================================
``kill``        SIGKILL a busy pool worker mid-compile (retry path)
``stall``       SIGSTOP a busy pool worker (heartbeat detection path)
``corrupt``     flip bytes in disk-cache entries between put and get
``enospc``      ``_disk_put`` fails with ENOSPC (degrade to memory tier)
``eio``         ``_disk_get`` fails with EIO (degrade to recompile)
``writers``     multi-process cache hammer: concurrent put/get/evict/clear
==============  ==========================================================

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
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Optional

from ..diag import DiagnosticSink
from ..supervise import ExecutorError
from . import driver as _driver
from .cache import PlanCache, PlanCacheConfig
from .driver import CompileJob, _build_for_job
from .pipeline import KernelArtifact, _loads, _replay
from .pool import CompilePool, PoolConfig

#: build-side delay (seconds) inherited by pool workers at fork time —
#: the kill/stall scenarios raise it before forking so injected signals
#: reliably land *mid-compile*, then drop it so respawned workers (the
#: retry path) recover at full speed
_BUILD_DELAY = 0.0
_real_build = _build_for_job


def _delayed_build(job: CompileJob) -> bytes:
    if _BUILD_DELAY:
        time.sleep(_BUILD_DELAY)
    return _real_build(job)

#: small but real kernel family — distinct constants give distinct plan
#: keys, so one scenario exercises several concurrent compilations
_TEMPLATE = """
      subroutine k(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors procs(4)
chpf$ template t(0:nx)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto procs
      do i = 1, n - 1
         a(i) = b(i-1) + {const}
      enddo
      end
"""

SCENARIOS = ("kill", "stall", "corrupt", "enospc", "eio", "writers")

#: hard per-scenario wall budget: "never hangs" is an asserted invariant
_SCENARIO_DEADLINE = 120.0


def _chaos_jobs(n: int = 3) -> "list[CompileJob]":
    return [
        CompileJob(_TEMPLATE.format(const=f"{i}.0"), 4, {"n": 8},
                   label=f"chaos-k{i}", timeout=60.0)
        for i in range(n)
    ]


def _fingerprint(kernel) -> str:
    """Bitwise identity of a compiled kernel: the SHA-256 of both emitted
    backends' sources."""
    text = kernel.python_source("mpi") + "\0" + kernel.python_source("shmem")
    return sha256(text.encode()).hexdigest()


def baseline_fingerprints(jobs: "list[CompileJob]") -> "dict[str, str]":
    """Fault-free reference: compile each job in-process and fingerprint
    the result, keyed by kernel digest."""
    out: dict[str, str] = {}
    for job in jobs:
        digest = job.key().kernel_digest
        if digest in out:
            continue
        art = _loads(_build_for_job(job))
        assert isinstance(art, KernelArtifact)
        out[digest] = _fingerprint(_replay(art.kernel, DiagnosticSink()))
    return out


@dataclass
class ScenarioResult:
    """One seeded scenario run and what its invariant checks found."""

    seed: int
    scenario: str
    ok: bool
    injected: int = 0
    retries: int = 0
    elapsed: float = 0.0
    problems: "list[str]" = field(default_factory=list)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        extra = f"; {'; '.join(self.problems)}" if self.problems else ""
        return (f"seed {self.seed:3d} {self.scenario:8s}: {status} "
                f"[{self.injected} faults, {self.retries} retries, "
                f"{self.elapsed:.1f}s]{extra}")


@dataclass
class ServiceChaosReport:
    results: "list[ScenarioResult]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)


def format_service_chaos(report: ServiceChaosReport) -> str:
    """Human-readable per-seed lines + per-scenario summary + verdict."""
    lines = ["Service chaos: supervised pool + plan cache under seeded faults"]
    lines += ["  " + r.describe() for r in report.results]
    by_kind: dict[str, list[ScenarioResult]] = {}
    for r in report.results:
        by_kind.setdefault(r.scenario, []).append(r)
    lines.append("  --")
    for kind in SCENARIOS:
        runs = by_kind.get(kind, [])
        if not runs:
            continue
        good = sum(1 for r in runs if r.ok)
        lines.append(
            f"  {kind:8s}: {good}/{len(runs)} seeds ok, "
            f"{sum(r.injected for r in runs)} faults injected"
        )
    lines.append(
        "  SERVICE CHAOS PASSED: all surviving results bitwise identical, "
        "errors typed, no orphans, no stray tmp files"
        if report.ok else "  SERVICE CHAOS FAILED"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# fault injectors
# ---------------------------------------------------------------------------

def _inject_signals(
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
# the scenarios
# ---------------------------------------------------------------------------

def _check_common(
    result: ScenarioResult,
    outcomes,
    baseline: "dict[str, str]",
    cache: PlanCache,
    pids: "list[int]",
) -> None:
    """The invariants every scenario asserts after its pool shut down."""
    for out in outcomes:
        if out.error is not None:
            if not isinstance(out.error, ExecutorError):
                result.problems.append(
                    f"{out.job.describe()}: untyped error "
                    f"{type(out.error).__name__}"
                )
            continue
        want = baseline[out.job.key().kernel_digest]
        got = _fingerprint(out.kernel)
        if got != want:
            result.problems.append(
                f"{out.job.describe()}: result diverged from fault-free "
                f"baseline ({got[:12]} != {want[:12]})"
            )
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        result.problems.append(f"orphan worker pid {pid} still alive")
    stray = cache.stray_tmp_files()
    if stray:
        result.problems.append(
            f"{len(stray)} stray tmp files: {stray[:2]}"
        )


def _run_pool_scenario(
    result: ScenarioResult,
    seed: int,
    cache: PlanCache,
    baseline: "dict[str, str]",
    *,
    sig: Optional[int] = None,
    budget: int = 0,
    config: Optional[PoolConfig] = None,
    expect_all_ok: bool = True,
) -> None:
    global _BUILD_DELAY

    jobs = _chaos_jobs()
    config = config or PoolConfig(
        workers=2, max_attempts=4, backoff_base=0.02, jitter_seed=seed,
    )
    if sig is not None:
        # slow the *initial* workers' builds (inherited at fork) so the
        # injected signal lands mid-compile; respawned workers fork after
        # the delay is dropped, so retries recover at full speed
        _BUILD_DELAY = 0.4
        _driver._build_for_job = _delayed_build
    try:
        pool = CompilePool(config, cache=cache)
    finally:
        _BUILD_DELAY = 0.0
        _driver._build_for_job = _real_build
    pids: list[int] = []
    stop = threading.Event()
    hit = [0]
    injector = None
    if sig is not None:
        rng = random.Random(f"chaos:{seed}:{result.scenario}")
        injector = threading.Thread(
            target=_inject_signals, args=(pool, rng, sig, budget, stop, hit),
            daemon=True,
        )
        injector.start()
    try:
        tickets = [pool.submit(job, block=True) for job in jobs]
        outcomes = [pool.wait(t, timeout=_SCENARIO_DEADLINE) for t in tickets]
        for out, job in zip(outcomes, jobs):
            out.job = job
    except TimeoutError:
        result.problems.append("scenario hung: wait() hit its deadline")
        outcomes = []
    finally:
        stop.set()
        if injector is not None:
            injector.join(timeout=5.0)
        pids = pool.worker_pids()
        pool.shutdown(wait=False)
    result.injected = hit[0]
    result.retries = pool.stats.retries
    if expect_all_ok:
        for out in outcomes:
            if out.error is not None:
                result.problems.append(
                    f"{out.job.describe()} failed under a recoverable "
                    f"fault: {type(out.error).__name__}: {out.error}"
                )
    _check_common(result, outcomes, baseline, cache, pids)


def _run_corrupt_scenario(
    result: ScenarioResult, seed: int, cache: PlanCache,
    baseline: "dict[str, str]",
) -> None:
    jobs = _chaos_jobs()
    with CompilePool(PoolConfig(workers=2), cache=cache) as pool:
        for t in [pool.submit(j, block=True) for j in jobs]:
            pool.wait(t, timeout=_SCENARIO_DEADLINE)
    rng = random.Random(f"chaos:{seed}:corrupt")
    result.injected = _corrupt_entries(cache, rng)
    cache.clear_lru()  # force the next reads through the disk tier
    before = cache.stats.corrupt_evictions
    pool = CompilePool(PoolConfig(workers=2, jitter_seed=seed), cache=cache)
    try:
        tickets = [pool.submit(j, block=True) for j in jobs]
        outcomes = [pool.wait(t, timeout=_SCENARIO_DEADLINE) for t in tickets]
        for out, job in zip(outcomes, jobs):
            out.job = job
    except TimeoutError:
        result.problems.append("scenario hung: wait() hit its deadline")
        outcomes = []
    finally:
        pids = pool.worker_pids()
        pool.shutdown(wait=False)
    detected = cache.stats.corrupt_evictions - before
    if detected < result.injected:
        result.problems.append(
            f"only {detected} of {result.injected} corrupted entries "
            f"were detected"
        )
    for out in outcomes:
        if out.error is not None:
            result.problems.append(
                f"{out.job.describe()} failed after corruption: "
                f"{type(out.error).__name__}"
            )
    _check_common(result, outcomes, baseline, cache, pids)


def _run_writers_scenario(
    result: ScenarioResult, seed: int, directory: str,
) -> None:
    stats = run_cache_hammer(
        directory, processes=3, iters=30, seed=seed,
    )
    result.injected = stats["puts"] + stats["clears"]
    if not stats["ok"]:
        result.problems.append("hammer process died or timed out")
    if stats["corrupt_reads"]:
        result.problems.append(
            f"{stats['corrupt_reads']} corrupt reads out of {stats['gets']}"
        )
    if stats["stray_tmp"]:
        result.problems.append(f"{stats['stray_tmp']} stray tmp files")


def run_service_chaos(
    seeds: int = 25,
    start_seed: int = 0,
    workdir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ServiceChaosReport:
    """Run *seeds* seeded scenarios (rotating through :data:`SCENARIOS`)
    against fresh hermetic cache directories; every scenario asserts the
    full crash-only invariant set."""
    import tempfile

    jobs = _chaos_jobs()
    if progress:
        progress("computing fault-free baseline fingerprints")
    baseline = baseline_fingerprints(jobs)
    report = ServiceChaosReport()
    root = workdir or tempfile.mkdtemp(prefix="repro-service-chaos-")
    for seed in range(start_seed, start_seed + seeds):
        scenario = SCENARIOS[seed % len(SCENARIOS)]
        result = ScenarioResult(seed=seed, scenario=scenario, ok=False)
        cache_dir = os.path.join(root, f"seed-{seed}")
        cache = PlanCache(PlanCacheConfig(directory=cache_dir))
        t0 = time.monotonic()
        try:
            if scenario == "kill":
                _run_pool_scenario(
                    result, seed, cache, baseline,
                    sig=signal.SIGKILL, budget=2,
                )
            elif scenario == "stall":
                _run_pool_scenario(
                    result, seed, cache, baseline,
                    sig=signal.SIGSTOP, budget=1,
                    config=PoolConfig(
                        workers=2, max_attempts=4, backoff_base=0.02,
                        jitter_seed=seed, heartbeat_interval=0.05,
                        heartbeat_timeout=1.0,
                    ),
                )
            elif scenario == "corrupt":
                _run_corrupt_scenario(result, seed, cache, baseline)
            elif scenario == "enospc":
                rng = random.Random(f"chaos:{seed}:enospc")
                hits = [0]

                def _enospc(op, digest, _rng=rng, _hits=hits):
                    if op == "disk_put" and _rng.random() < 0.8:
                        _hits[0] += 1
                        raise OSError(errno.ENOSPC, "no space left on device")

                cache.fault_hook = _enospc
                _run_pool_scenario(result, seed, cache, baseline)
                result.injected = hits[0]
                if hits[0] and cache.stats.io_errors == 0:
                    result.problems.append(
                        "ENOSPC faults injected but io_errors stayed 0"
                    )
            elif scenario == "eio":
                # populate, then fail disk reads: warm probes degrade to
                # recompiles instead of surfacing the IO error
                with CompilePool(PoolConfig(workers=2), cache=cache) as p:
                    for t in [p.submit(j, block=True) for j in jobs]:
                        p.wait(t, timeout=_SCENARIO_DEADLINE)
                cache.clear_lru()
                rng = random.Random(f"chaos:{seed}:eio")
                hits = [0]

                def _eio(op, digest, _rng=rng, _hits=hits):
                    if op == "disk_get" and _rng.random() < 0.8:
                        _hits[0] += 1
                        raise OSError(errno.EIO, "input/output error")

                cache.fault_hook = _eio
                _run_pool_scenario(result, seed, cache, baseline)
                result.injected = hits[0]
            elif scenario == "writers":
                _run_writers_scenario(result, seed, cache_dir)
        except Exception as exc:  # noqa: BLE001 - a scenario must not abort the sweep
            result.problems.append(
                f"scenario raised {type(exc).__name__}: {exc}"
            )
        result.elapsed = time.monotonic() - t0
        result.ok = not result.problems
        report.results.append(result)
        if progress:
            progress(result.describe())
    return report


# ---------------------------------------------------------------------------
# multi-process cache hammer
# ---------------------------------------------------------------------------

_HAMMER_KEYS = tuple(
    sha256(f"hammer-key-{i}".encode()).hexdigest() for i in range(12)
)


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
    counts = {"puts": 0, "gets": 0, "hits": 0, "corrupt_reads": 0,
              "clears": 0}
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
    result_q.put((rank, counts))
    sys.exit(0)


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
    the exact expected bytes, never a torn or resurrected entry."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    result_q = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer_child,
                    args=(directory, rank, iters, seed, result_q),
                    daemon=True)
        for rank in range(processes)
    ]
    for p in procs:
        p.start()
    totals = {"puts": 0, "gets": 0, "hits": 0, "corrupt_reads": 0,
              "clears": 0}
    got, ok = 0, True
    deadline = time.monotonic() + timeout
    import queue as _queue

    while got < processes and time.monotonic() < deadline:
        try:
            _rank, counts = result_q.get(timeout=0.5)
        except _queue.Empty:
            if not any(p.is_alive() for p in procs):
                break
            continue
        for k, v in counts.items():
            totals[k] += v
        got += 1
    for p in procs:
        p.join(timeout=max(deadline - time.monotonic(), 0.1))
        if p.exitcode is None:
            try:
                os.kill(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            p.join(timeout=5.0)
            ok = False
        elif p.exitcode != 0:
            ok = False
    try:
        result_q.close()
        result_q.join_thread()
    except Exception:  # pragma: no cover - best-effort release
        pass
    if got < processes:
        ok = False
    cache = PlanCache(PlanCacheConfig(directory=directory))
    totals["stray_tmp"] = len(cache.stray_tmp_files())
    totals["ok"] = ok
    return totals


__all__ = [
    "SCENARIOS",
    "ScenarioResult",
    "ServiceChaosReport",
    "baseline_fingerprints",
    "format_service_chaos",
    "run_cache_hammer",
    "run_service_chaos",
]
