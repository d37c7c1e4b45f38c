"""Supervised persistent compile pool: the crash-only service engine.

The pool must keep a fixed gang of forked workers alive across a whole
batch (``workers`` forks, not one per job), retry jobs whose worker
crashed with an ``I-RETRY`` diagnostic, quarantine poisoned jobs with a
typed :class:`CompileQuarantined` and an ``E-QUARANTINE`` diagnostic,
bound admission at ``MAX_QUEUE`` (blocking), coalesce identical
submissions onto one
build, resolve warm cache hits without charging a worker, and reap every
child on shutdown — no exit path leaves an orphan.

Fault injection uses the fork-inheritance idiom: monkeypatching
``driver._build_for_job`` *before* the pool is constructed (or before a
respawn) is visible inside the forked workers, which resolve the build
function at call time.
"""

import os
import signal
import time

import pytest

from repro.compile import PlanCache, PlanCacheConfig, use_cache
from repro.compile import pool as pool_mod
from repro.compile.driver import CompileJob
from repro.compile.pool import (
    CompileCancelled,
    CompilePool,
    CompileQuarantined,
    PoolClosed,
    PoolConfig,
)
from repro.supervise import WorkerTimeout

TEMPLATE = """
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


def _jobs(n, timeout=None):
    """n distinct small jobs (distinct constants -> distinct plan keys)."""
    return [
        CompileJob(TEMPLATE.format(const=f"{i}.0"), 4, {"n": 8},
                   label=f"k{i}", timeout=timeout)
        for i in range(n)
    ]


def _fast_config(**kw):
    """Pool config with backoffs short enough for tests (at most three
    attempts: 0.02 s and 0.04 s plus jitter, under ``BACKOFF_MAX``)."""
    kw.setdefault("workers", 2)
    kw.setdefault("backoff_base", 0.02)
    return PoolConfig(**kw)


@pytest.fixture
def queue_of_one(monkeypatch):
    """Admission blocks past one pending compilation."""
    monkeypatch.setattr(pool_mod, "MAX_QUEUE", 1)


@pytest.fixture
def cache(tmp_path):
    c = PlanCache(PlanCacheConfig(directory=str(tmp_path / "plans")))
    with use_cache(c):
        yield c


def _recording_build(record_path, real):
    """A build fn that appends one line per invocation (O_APPEND from
    forked workers is atomic for these short writes)."""

    def build(job, selection=None):
        with open(record_path, "a") as fh:
            fh.write(f"{job.label}\n")
        return real(job, selection)

    return build


class TestPersistence:
    def test_batch_pays_workers_forks_not_jobs(self, cache):
        with CompilePool(_fast_config(workers=2), cache=cache) as pool:
            outcomes = pool.run_batch(_jobs(5))
            assert all(o.ok for o in outcomes)
            assert pool.stats.forks == 2  # 5 jobs, 2 forks
            assert pool.stats.respawns == 0
            assert pool.stats.completed == 5

    def test_warm_batch_never_charges_a_worker(self, cache, monkeypatch, tmp_path):
        import repro.compile.driver as driver

        jobs = _jobs(3)
        with CompilePool(_fast_config(), cache=cache) as pool:
            assert all(o.ok for o in pool.run_batch(jobs))
        record = tmp_path / "builds.txt"
        monkeypatch.setattr(
            driver, "_build_for_job",
            _recording_build(record, driver._build_for_job),
        )
        with CompilePool(_fast_config(), cache=cache) as pool:
            outcomes = pool.run_batch(jobs)
            assert all(o.ok and o.cached for o in outcomes)
            assert pool.stats.warm_hits == 3
            assert pool.stats.completed == 0  # no build reached a worker
            assert pool.stats.forks == 0  # nor was a worker ever forked
        assert not record.exists()  # and none was even started

    def test_warm_results_match_cold(self, cache):
        jobs = _jobs(2)
        with CompilePool(_fast_config(), cache=cache) as pool:
            cold = pool.run_batch(jobs)
        with CompilePool(_fast_config(), cache=cache) as pool:
            warm = pool.run_batch(jobs)
        for c, w in zip(cold, warm):
            assert c.kernel.python_source("mpi") == \
                w.kernel.python_source("mpi")


class TestKeying:
    def test_one_text_is_canonicalized_once_per_pool(self, cache, monkeypatch):
        """Six tickets over one source text lex it once, and key exactly
        as ``job.key()`` does."""
        from repro.compile import key as key_mod

        source = TEMPLATE.format(const="1.0")
        jobs = [CompileJob(source, 4, {"n": n}, backend=backend)
                for n in (8, 9, 10) for backend in ("vector", "scalar")]
        digests = [job.key().kernel_digest for job in jobs]
        calls = []
        real = key_mod.canonicalize_source

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(key_mod, "canonicalize_source", counting)
        with CompilePool(_fast_config(), cache=cache) as pool:
            tickets = [pool.submit(job) for job in jobs]
            assert len(calls) == 1
            assert [t.digest for t in tickets] == digests
            assert all(pool.wait(t, timeout=120).ok for t in tickets)


class TestSingleFlight:
    def test_stampede_shares_one_build(self, cache, monkeypatch, tmp_path):
        import repro.compile.driver as driver

        record = tmp_path / "builds.txt"
        real = driver._build_for_job
        recording = _recording_build(record, real)

        def slow_recording(job, selection=None):
            time.sleep(0.5)  # hold the build so the stampede overlaps it
            return recording(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow_recording)
        job = _jobs(1)[0]
        with CompilePool(_fast_config(workers=2), cache=cache) as pool:
            tickets = [pool.submit(job) for _ in range(6)]
            assert len({id(t) for t in tickets}) == 1  # all coalesced
            out = pool.wait(tickets[0], timeout=120)
            assert out.ok
            assert pool.stats.coalesced == 5
            assert pool.stats.completed == 1
        assert record.read_text().count("\n") == 1  # exactly one build


class TestRetryAndQuarantine:
    def test_crash_retries_then_succeeds_with_iretry(
        self, cache, monkeypatch, tmp_path,
    ):
        import repro.compile.driver as driver

        marker = tmp_path / "attempts.txt"
        real = driver._build_for_job

        def flaky(job, selection=None):
            if job.label == "flaky":
                with open(marker, "a") as fh:
                    fh.write("x")
                if marker.stat().st_size < 3:  # die on attempts 1 and 2
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", flaky)
        job = CompileJob(TEMPLATE.format(const="5.5"), 4, {"n": 8},
                         label="flaky")
        with CompilePool(
            _fast_config(workers=1, max_attempts=3), cache=cache,
        ) as pool:
            out = pool.wait(pool.submit(job), timeout=120)
            assert out.ok
            assert pool.stats.crashes == 2
            assert pool.stats.retries == 2
            assert pool.stats.respawns == 2  # each crash cost a worker
            retried = out.sink.by_code("I-RETRY")
            assert len(retried) == 1
            assert "2 worker crashes" in retried[0].message

    def test_poisoned_job_is_quarantined_with_history(
        self, cache, monkeypatch,
    ):
        import repro.compile.driver as driver

        real = driver._build_for_job

        def poison(job, selection=None):
            if job.label == "poison":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", poison)
        job = CompileJob(TEMPLATE.format(const="6.6"), 4, {"n": 8},
                         label="poison")
        with CompilePool(
            _fast_config(workers=1, max_attempts=2), cache=cache,
        ) as pool:
            out = pool.wait(pool.submit(job), timeout=120)
            assert not out.ok
            assert isinstance(out.error, CompileQuarantined)
            assert len(out.error.history) == 2
            assert all(a.kind == "crash" for a in out.error.history)
            assert out.sink.by_code("E-QUARANTINE")
            assert pool.stats.quarantined == 1
            # resubmission fails fast: no new attempt, no new respawn
            respawns = pool.stats.respawns
            out2 = pool.wait(pool.submit(job), timeout=10)
            assert isinstance(out2.error, CompileQuarantined)
            assert pool.stats.quarantine_rejections >= 1
            assert pool.stats.respawns == respawns
            # and a healthy job still compiles on the recovered pool
            ok = pool.wait(pool.submit(_jobs(1)[0]), timeout=120)
            assert ok.ok

    def test_timeout_is_typed_and_never_retried(self, cache, monkeypatch):
        import repro.compile.driver as driver

        real = driver._build_for_job

        def sleepy(job, selection=None):
            if job.label == "sleepy":
                time.sleep(60)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", sleepy)
        job = CompileJob(TEMPLATE.format(const="7.7"), 4, {"n": 8},
                         label="sleepy", timeout=1.0)
        with CompilePool(_fast_config(workers=1), cache=cache) as pool:
            t0 = time.monotonic()
            out = pool.wait(pool.submit(job), timeout=120)
            assert time.monotonic() - t0 < 30
            assert isinstance(out.error, WorkerTimeout)
            assert pool.stats.timeouts == 1
            assert pool.stats.retries == 0  # a deadline is final


class TestBackpressure:
    def test_block_policy_bounds_queue_without_losing_jobs(
        self, cache, queue_of_one,
    ):
        with CompilePool(_fast_config(workers=1), cache=cache) as pool:
            outcomes = pool.run_batch(_jobs(4))
            assert all(o.ok for o in outcomes)
            assert pool.stats.peak_queue_depth <= 1

    def test_warm_hits_are_admission_free(
        self, cache, monkeypatch, queue_of_one,
    ):
        import repro.compile.driver as driver

        with CompilePool(_fast_config(), cache=cache) as pool:
            pool.run_batch(_jobs(2))
        real = driver._build_for_job

        def slow(job, selection=None):
            time.sleep(1.5)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow)
        with CompilePool(_fast_config(workers=1), cache=cache) as pool:
            pool.submit(_jobs(3)[2])  # cold: occupies the worker
            deadline = time.monotonic() + 10
            while pool.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            pool.submit(_jobs(4)[3])  # cold: fills the queue
            # warm submissions sail past the full queue instead of
            # blocking behind the 1.5 s builds
            t0 = time.monotonic()
            for t in (pool.submit(j) for j in _jobs(2)):
                assert t.cached and pool.wait(t, timeout=10).ok
            assert time.monotonic() - t0 < 1.0


class TestShutdown:
    def test_shutdown_reaps_every_worker(self, cache):
        pool = CompilePool(_fast_config(workers=3), cache=cache)
        try:
            assert all(o.ok for o in pool.run_batch(_jobs(2)))
            pids = pool.worker_pids()
            assert len(pids) == 3
        finally:
            pool.shutdown()
        deadline = time.monotonic() + 10
        live = set(pids)
        while live and time.monotonic() < deadline:
            for pid in list(live):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    live.discard(pid)
            time.sleep(0.02)
        assert not live  # no orphans

    def test_cancel_queued_fails_typed_finishes_inflight(
        self, cache, monkeypatch,
    ):
        import repro.compile.driver as driver

        real = driver._build_for_job

        def slow(job, selection=None):
            time.sleep(1.0)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow)
        jobs = _jobs(2)
        pool = CompilePool(_fast_config(workers=1), cache=cache)
        t_a = pool.submit(jobs[0])
        deadline = time.monotonic() + 10
        while pool.queue_depth() and time.monotonic() < deadline:
            time.sleep(0.01)
        t_b = pool.submit(jobs[1])  # still queued when the drain starts
        pool.shutdown(wait=True, cancel_queued=True)
        assert pool.wait(t_a, timeout=10).ok  # in-flight work finished
        out_b = pool.wait(t_b, timeout=10)
        assert isinstance(out_b.error, CompileCancelled)
        assert pool.stats.cancelled == 1

    def test_drain_during_blocked_admission_keeps_the_batch(
        self, cache, monkeypatch, queue_of_one,
    ):
        """A drain that starts while run_batch is blocked in admission
        (SIGTERM under ``eval serve`` with more than MAX_QUEUE jobs
        pending) must not lose the batch to PoolClosed: the in-flight job
        finishes, the refused job and every later one come back as typed
        CompileCancelled outcomes, one outcome per job."""
        import threading

        import repro.compile.driver as driver

        real = driver._build_for_job

        def slow(job, selection=None):
            time.sleep(0.5)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow)
        jobs = _jobs(5)
        pool = CompilePool(_fast_config(workers=1), cache=cache)
        timer = threading.Timer(
            0.3, pool.shutdown, kwargs={"cancel_queued": True},
        )
        timer.start()
        try:
            outcomes = pool.run_batch(jobs)
        finally:
            timer.join(timeout=60)
            pool.shutdown(wait=False)
        assert not timer.is_alive()
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert [o.job.label for o in outcomes] == [j.label for j in jobs]
        assert outcomes[0].ok  # already on the worker: finished
        for out in outcomes[1:]:
            assert isinstance(out.error, CompileCancelled)

    def test_submit_after_shutdown_raises(self, cache):
        pool = CompilePool(_fast_config(workers=1), cache=cache)
        pool.shutdown()
        with pytest.raises(PoolClosed):
            pool.submit(_jobs(1)[0])


class TestDeterminism:
    def test_same_source_builds_identical_bytes(self, cache):
        """Sid allocation is reset per compilation, so the same source
        yields byte-identical artifacts regardless of what the process
        compiled before (the chaos harness's identity invariant)."""
        from repro.compile.driver import _build_for_job

        job_a, job_b = _jobs(2)
        first = _build_for_job(job_a)
        _build_for_job(job_b)  # pollute allocator state
        assert _build_for_job(job_a) == first


class TestChaosInjectors:
    def test_kill_scenario_restores_the_build_it_replaced(self, monkeypatch,
                                                          tmp_path):
        """The kill scenario slows builds only while its pool forks; after
        it the build function installed before it is back — a caller's
        patched build is not swapped for the original."""
        import repro.compile.driver as driver
        from repro.eval.chaos import chaos_loop, service_subject

        record = tmp_path / "builds.txt"
        recording = _recording_build(record, driver._build_for_job)
        monkeypatch.setattr(driver, "_build_for_job", recording)
        subject = service_subject()
        subject.injectors = {"kill": subject.injectors["kill"]}
        (row,) = chaos_loop(subject, [0])
        assert row.ok, row.describe()
        assert driver._build_for_job is recording
        assert record.exists()  # the workers built through it


#: TEMPLATE on a wildcard grid: one source compiles at any rank count
WILDCARD = TEMPLATE.replace("procs(4)", "procs(*)")


def _record_selects(monkeypatch, record_path, slow_n=None, delay=0.0):
    """Patch the select stage (inherited by workers forked afterwards) to
    append one line per run to *record_path*; a strict select of
    ``params["n"] == slow_n`` first sleeps *delay* seconds."""
    from repro.compile import pipeline

    real = pipeline.stage_select

    def select(sub, params, sink=None, budget=None):
        strict = sink is None or sink.strict
        with open(record_path, "a") as fh:
            fh.write(f"n={params.get('n')} strict={strict}\n")
        if strict and params.get("n") == slow_n:
            time.sleep(delay)
        return real(sub, params, sink, budget)

    monkeypatch.setattr(pipeline, "stage_select", select)


def _uncached(source, nprocs, params):
    from repro.codegen import compile_kernel
    from repro.compile import cache_disabled

    with cache_disabled():
        return compile_kernel(source, nprocs, params)


def _same_text(kernel, reference):
    for target in ("mpi", "shmem"):
        assert kernel.python_source(target) == reference.python_source(target)


class TestSelectionSharing:
    """CP selection does not depend on nprocs: strict jobs of one
    ``analysis_digest`` select once per pool, and a selection already in
    the plan cache is not made again."""

    def test_rank_sweep_selects_once(self, cache, monkeypatch, tmp_path):
        from repro.compile.service import CompileService
        from repro.nas import kernels
        from repro.nas.classes import CLASSES

        n = CLASSES["S"].problem_size
        source = kernels.scaled(kernels.COMPUTE_RHS_SP)
        params = {"n": n, "nx": n}
        counts = (16, 8, 4)
        reference = {p: _uncached(source, p, params) for p in counts}
        record = tmp_path / "selects.txt"
        _record_selects(monkeypatch, record)
        with CompileService(workers=2, cache=cache) as svc:
            tickets = [svc.submit(source, p, params) for p in counts]
            outs = [svc.collect(t, timeout=300) for t in tickets]
            stats = svc.stats()
            held = svc._pool.selections_held()
        assert record.read_text().count("\n") == 1  # one select stage
        assert stats["selects"] == 1
        assert stats["selections_shared"] == 2
        assert held == 0  # the in-memory map empties as the batch drains
        for p, out in zip(counts, outs):
            assert out.ok
            _same_text(out.kernel, reference[p])

    def test_hold_is_work_conserving(self, cache, monkeypatch, tmp_path):
        """While a@4 selects, its twin a@2 is held and the idle worker
        takes b, queued behind it."""
        record = tmp_path / "selects.txt"
        _record_selects(monkeypatch, record, slow_n=8, delay=1.5)
        source = WILDCARD.format(const="1.0")
        a4, a2 = (CompileJob(source, p, {"n": 8}, label=f"a@{p}")
                  for p in (4, 2))
        b = CompileJob(source, 4, {"n": 9}, label="b")
        with CompilePool(_fast_config(workers=2), cache=cache) as pool:
            t_a4, t_a2, t_b = (pool.submit(j) for j in (a4, a2, b))
            outs = [pool.wait(t, timeout=120) for t in (t_a4, t_a2, t_b)]
            assert all(o.ok for o in outs)
            assert t_b.resolved_at < t_a4.resolved_at
            assert pool.stats.selects == 2  # a once (not a@2 again), b once
            assert pool.stats.selections_shared == 1
        assert record.read_text().count("n=8") == 1

    def test_lenient_and_other_params_never_wait(
        self, cache, monkeypatch, tmp_path,
    ):
        delay = 2.0
        _record_selects(monkeypatch, tmp_path / "selects.txt",
                        slow_n=8, delay=delay)
        source = WILDCARD.format(const="2.0")
        selecting = CompileJob(source, 4, {"n": 8}, label="strict")
        lenient = CompileJob(source, 2, {"n": 8}, strict=False,
                             label="lenient")
        other = CompileJob(source, 2, {"n": 9}, label="other params")
        with CompilePool(_fast_config(workers=3), cache=cache) as pool:
            tickets = [pool.submit(j) for j in (selecting, lenient, other)]
            assert all(pool.wait(t, timeout=120).ok for t in tickets)
            publish_at = tickets[0].submitted_at + delay
            # both finished before the strict twin could publish
            assert all(t.resolved_at < publish_at for t in tickets[1:])
            assert pool.stats.selections_shared == 0

    def test_failed_selection_lifts_the_hold(
        self, cache, monkeypatch, tmp_path,
    ):
        from repro.compile import pipeline
        from repro.compile.driver import CompileFailed

        marker = tmp_path / "failed"
        real = pipeline.stage_select

        def select(sub, params, sink=None, budget=None):
            if not marker.exists():
                marker.write_text("x")
                time.sleep(0.5)  # its twin is queued, and held, meanwhile
                raise RuntimeError("selection failed")
            return real(sub, params, sink, budget)

        monkeypatch.setattr(pipeline, "stage_select", select)
        source = WILDCARD.format(const="3.0")
        jobs = [CompileJob(source, p, {"n": 8}) for p in (4, 2)]
        with CompilePool(_fast_config(workers=2), cache=cache) as pool:
            first, second = pool.run_batch(jobs)
            assert isinstance(first.error, CompileFailed)
            assert second.ok  # selected for itself once the hold lifted
            assert pool.stats.selects == 1
            assert pool.selections_held() == 0
        _same_text(second.kernel, _uncached(source, 2, {"n": 8}))

    def test_selection_tier_serves_new_rank_counts(
        self, cache, monkeypatch, tmp_path,
    ):
        from repro.codegen import compile_kernel

        source = WILDCARD.format(const="4.0")
        compile_kernel(source, 4, {"n": 8})  # fills the selection tier
        counts = (2, 3)
        reference = {p: _uncached(source, p, {"n": 8}) for p in counts}
        record = tmp_path / "selects.txt"
        _record_selects(monkeypatch, record)
        with CompilePool(_fast_config(), cache=cache) as pool:
            outs = pool.run_batch(
                [CompileJob(source, p, {"n": 8}) for p in counts])
            assert pool.stats.selects == 0
            assert pool.stats.selections_shared == 2
            assert pool.selections_held() == 0
        assert not record.exists()
        for p, out in zip(counts, outs):
            _same_text(out.kernel, reference[p])

    def test_unreadable_selection_entry_is_a_miss(self, cache):
        source = WILDCARD.format(const="5.0")
        job = CompileJob(source, 4, {"n": 8})
        cache.put(job.key().analysis_digest, b"not a pickled selection")
        with CompilePool(_fast_config(), cache=cache) as pool:
            (out,) = pool.run_batch([job])
            assert out.ok
            assert pool.stats.selects == 1  # selected cold
        _same_text(out.kernel, _uncached(source, 4, {"n": 8}))

    def test_worker_killed_after_publishing_retries_bitwise(
        self, cache, monkeypatch, tmp_path,
    ):
        """The worker dies after its selection reached the parent: the
        retry specializes that selection and emits the fault-free bytes."""
        import repro.compile.driver as driver
        from repro.compile import pipeline

        source = WILDCARD.format(const="6.0")
        reference = _uncached(source, 4, {"n": 8})
        marker = tmp_path / "killed"
        real = pipeline.stage_specialize

        def specialize(art, nprocs, params, sink=None, budget=None):
            if driver.on_select is not None and not marker.exists():
                marker.write_text("x")
                time.sleep(0.3)  # the published selection is flushed
                os.kill(os.getpid(), signal.SIGKILL)
            return real(art, nprocs, params, sink, budget)

        monkeypatch.setattr(pipeline, "stage_specialize", specialize)
        job = CompileJob(source, 4, {"n": 8})
        with CompilePool(
            _fast_config(workers=1, max_attempts=3), cache=cache,
        ) as pool:
            out = pool.wait(pool.submit(job), timeout=120)
            assert out.ok
            assert pool.stats.crashes == 1 and pool.stats.retries == 1
            assert pool.stats.selects == 1
            assert pool.stats.selections_shared == 1  # the retry's
        _same_text(out.kernel, reference)
