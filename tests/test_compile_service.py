"""Concurrent compile driver and compile service.

``compile_many`` must compile distinct kernels in parallel worker
processes, dedupe jobs that share a plan key, honor per-job timeouts,
and convert worker crashes into typed per-job errors without killing
the rest of the batch.  ``CompileService`` layers ticket-based
coalescing on top.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.compile import PlanCache, PlanCacheConfig, use_cache
from repro.compile.driver import (
    CompileFailed,
    CompileJob,
    WorkerTimeout,
    compile_many,
)
from repro.compile.pool import CompileQuarantined, PoolClosed, PoolConfig

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


def _jobs(n):
    """n distinct small jobs (distinct constants -> distinct plan keys)."""
    return [
        CompileJob(TEMPLATE.format(const=f"{i}.0"), 4, {"n": 8},
                   label=f"k{i}")
        for i in range(n)
    ]


def _pool_leftovers():
    """Live child processes and pool supervisor threads."""
    return multiprocessing.active_children() + [
        t for t in threading.enumerate() if t.name == "compile-pool"
    ]


@pytest.fixture
def cache(tmp_path):
    c = PlanCache(PlanCacheConfig(directory=str(tmp_path / "plans")))
    with use_cache(c):
        yield c


class TestCompileMany:
    def test_four_distinct_kernels(self, cache):
        jobs = _jobs(4)
        seen = []
        outcomes = compile_many(
            jobs, workers=4, cache=cache,
            progress=lambda o: seen.append(o.job.label),
        )
        assert len(outcomes) == 4
        assert all(o.ok for o in outcomes)
        assert sorted(seen) == ["k0", "k1", "k2", "k3"]
        # outcomes come back in job order regardless of completion order
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        sources = {o.kernel.python_source("mpi") for o in outcomes}
        assert len(sources) == 4  # genuinely distinct kernels

    def test_duplicate_jobs_compile_once(self, cache):
        jobs = _jobs(2) + _jobs(2)  # indices 2,3 duplicate 0,1
        outcomes = compile_many(jobs, workers=4, cache=cache)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].kernel.python_source("mpi") == \
            outcomes[2].kernel.python_source("mpi")
        assert sum(1 for o in outcomes if o.shared) >= 2
        # deduped results are still independent objects
        assert outcomes[0].kernel is not outcomes[2].kernel

    def test_warm_batch_uses_no_workers(self, cache):
        jobs = _jobs(3)
        compile_many(jobs, workers=3, cache=cache)
        before = cache.stats.snapshot()
        outcomes = compile_many(jobs, workers=3, cache=cache)
        assert all(o.ok and o.cached for o in outcomes)
        assert cache.stats.delta(before)["hits"] >= 3

    def test_deterministic_failure_is_typed_and_isolated(self, cache):
        jobs = _jobs(2)
        bad = CompileJob(
            TEMPLATE.format(const="1.0").replace(
                "a(i) = b(i-1)", "goto 10"
            ),
            4, {"n": 8}, label="bad",
        )
        outcomes = compile_many(jobs + [bad], workers=3, cache=cache)
        assert outcomes[0].ok and outcomes[1].ok
        assert not outcomes[2].ok
        assert isinstance(outcomes[2].error, CompileFailed)
        assert "GOTO" in str(outcomes[2].error)
        assert outcomes[2].error.worker_traceback  # carries the remote trace

    def test_failures_are_not_cached(self, cache):
        bad = CompileJob(
            TEMPLATE.format(const="1.0").replace(
                "a(i) = b(i-1)", "goto 10"
            ),
            4, {"n": 8},
        )
        compile_many([bad], workers=1, cache=cache)
        outcomes = compile_many([bad], workers=1, cache=cache)
        assert not outcomes[0].ok and not outcomes[0].cached

    def test_timeout_kills_job_not_batch(self, cache, monkeypatch):
        import repro.compile.driver as driver

        real = driver._build_for_job

        def slow_build(job, selection=None):
            if job.label == "slow":
                time.sleep(60)
            return real(job, selection)

        # fork start method: workers inherit the patched module state
        monkeypatch.setattr(driver, "_build_for_job", slow_build)
        jobs = _jobs(2)
        slow = CompileJob(TEMPLATE.format(const="99.0"), 4, {"n": 8},
                          label="slow", timeout=1.5)
        t0 = time.monotonic()
        outcomes = compile_many(jobs + [slow], workers=3, cache=cache)
        elapsed = time.monotonic() - t0
        assert elapsed < 45  # the sleeper was killed, not awaited
        assert outcomes[0].ok and outcomes[1].ok
        assert isinstance(outcomes[2].error, WorkerTimeout)

    def test_crash_is_typed_and_isolated(self, cache, monkeypatch):
        import repro.compile.driver as driver

        real = driver._build_for_job

        def crashy_build(job, selection=None):
            if job.label == "poison":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", crashy_build)
        jobs = _jobs(2)
        poison = CompileJob(TEMPLATE.format(const="77.0"), 4, {"n": 8},
                            label="poison")
        outcomes = compile_many(jobs + [poison], workers=3, cache=cache)
        assert outcomes[0].ok and outcomes[1].ok
        # a dying worker is retried; a job that keeps killing its worker
        # is quarantined with one crash record per attempt
        err = outcomes[2].error
        assert isinstance(err, CompileQuarantined)
        assert len(err.history) == PoolConfig().max_attempts
        assert all(a.kind == "crash" for a in err.history)
        assert outcomes[2].sink.by_code("E-QUARANTINE")

    def test_duplicate_digest_jobs_both_time_out(self, cache, monkeypatch):
        """Jobs that coalesced onto one hung build must all surface the
        same typed WorkerTimeout — no rider left unresolved."""
        import repro.compile.driver as driver

        real = driver._build_for_job

        def slow_build(job, selection=None):
            if job.label == "slow":
                time.sleep(60)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow_build)
        twin = [
            CompileJob(TEMPLATE.format(const="99.0"), 4, {"n": 8},
                       label="slow", timeout=1.5)
            for _ in range(2)
        ]
        t0 = time.monotonic()
        outcomes = compile_many(_jobs(1) + twin, workers=2, cache=cache)
        assert time.monotonic() - t0 < 45
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, WorkerTimeout)
        assert isinstance(outcomes[2].error, WorkerTimeout)

    def test_warm_hit_never_launches_a_worker(self, cache, monkeypatch, tmp_path):
        """A warm batch resolves from the cache probe alone: the build
        function must not run in any child (recorded via an append-only
        file the forked workers would inherit)."""
        import repro.compile.driver as driver

        jobs = _jobs(2)
        compile_many(jobs, workers=2, cache=cache)
        record = tmp_path / "builds.txt"
        real = driver._build_for_job

        def recording_build(job, selection=None):
            with open(record, "a") as fh:
                fh.write(f"{job.label}\n")
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", recording_build)
        outcomes = compile_many(jobs, workers=2, cache=cache)
        assert all(o.ok and o.cached for o in outcomes)
        assert not record.exists()

    def test_leaves_no_worker_or_supervisor_behind(self, cache):
        outcomes = compile_many(_jobs(2), workers=2, cache=cache)
        assert all(o.ok for o in outcomes)
        assert _pool_leftovers() == []

    def test_raising_progress_kills_the_pool_at_once(
        self, cache, monkeypatch, tmp_path,
    ):
        """An exception out of the batch (Ctrl-C, a raising progress
        callback) must kill and reap the transient pool immediately, not
        compile the rest of the queue first."""
        import repro.compile.driver as driver

        record = tmp_path / "builds.txt"
        real = driver._build_for_job

        def slow_recording(job, selection=None):
            with open(record, "a") as fh:
                fh.write(f"{job.label}\n")
            time.sleep(1.0)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow_recording)

        def boom(outcome):
            raise RuntimeError("progress callback failed")

        jobs = _jobs(5)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="progress callback failed"):
            compile_many(jobs, workers=1, cache=cache, progress=boom)
        assert time.monotonic() - t0 < 4.5  # five queued builds sleep >= 5 s
        assert _pool_leftovers() == []
        # the first job finished, the next may have started; the rest
        # of the queue never reached a worker
        assert record.read_text().count("\n") <= 2

    def test_empty_batch(self, cache):
        assert compile_many([], workers=2, cache=cache) == []

    def test_kernels_are_runnable(self, cache):
        outcomes = compile_many(_jobs(2), workers=2, cache=cache)
        for o in outcomes:
            ranks = o.kernel.run({"n": 8})
            assert len(ranks) == 4


class TestCompileService:
    def test_submit_collect(self, cache):
        from repro.compile.service import CompileService

        with CompileService(workers=2, cache=cache) as svc:
            tickets = [
                svc.submit(TEMPLATE.format(const=f"{i}.0"), 4, {"n": 8})
                for i in range(2)
            ]
            outs = [svc.collect(t, timeout=120) for t in tickets]
        assert all(o.ok for o in outs)
        assert len({o.kernel.python_source("mpi") for o in outs}) == 2

    def test_coalescing(self, cache):
        from repro.compile.service import CompileService

        src = TEMPLATE.format(const="1.0")
        with CompileService(workers=2, cache=cache) as svc:
            t1 = svc.submit(src, 4, {"n": 8})
            t2 = svc.submit(src, 4, {"n": 8})
            assert t1 is t2  # same plan key -> same ticket
            out = svc.collect(t1, timeout=120)
            assert out.ok
            assert svc.poll(t1).done

    def test_ticket_carries_job_and_digest(self, cache):
        """The service hands out the pool's own ticket: callers read the
        submitted job (``ticket.job.label``), its digest and live state
        off it, cold or warm."""
        from repro.compile.service import CompileService

        src = TEMPLATE.format(const="4.0")
        with CompileService(workers=1, cache=cache) as svc:
            first = svc.submit(src, 4, {"n": 8}, label="first")
            assert svc.submit(src, 4, {"n": 8}, label="second") is first
            assert first.job.label == "first"
            assert first.digest == first.job.key().kernel_digest
            assert svc.collect(first, timeout=120).ok
            assert first.done and first.state == "done"
        with CompileService(workers=1, cache=cache) as svc:
            warm = svc.submit(src, 4, {"n": 8}, label="warm")
            assert warm.done and warm.job.label == "warm"
            assert svc.submit(src, 4, {"n": 8}) is warm

    def test_sync_compile_raises_typed(self, cache):
        from repro.compile.service import CompileService

        bad = TEMPLATE.format(const="1.0").replace(
            "a(i) = b(i-1)", "goto 10"
        )
        with CompileService(workers=1, cache=cache) as svc:
            with pytest.raises(CompileFailed, match="GOTO"):
                svc.compile(bad, 4, {"n": 8})
            # the service survives a failed job
            k = svc.compile(TEMPLATE.format(const="2.0"), 4, {"n": 8})
            assert k.python_source("mpi")

    def test_shutdown_rejects_new_work(self, cache):
        from repro.compile.service import CompileService

        svc = CompileService(workers=1, cache=cache)
        svc.shutdown()
        with pytest.raises(PoolClosed):
            svc.submit(TEMPLATE.format(const="1.0"), 4, {"n": 8})

    def test_stampede_launches_one_build(self, cache, monkeypatch, tmp_path):
        """Single-flight: N concurrent submissions of the same source
        while the first build is still in flight share one worker launch
        (counted via an append-only file the forked workers inherit)."""
        import repro.compile.driver as driver

        from repro.compile.service import CompileService

        record = tmp_path / "builds.txt"
        real = driver._build_for_job

        def slow_recording(job, selection=None):
            time.sleep(0.5)  # hold the build so the stampede overlaps it
            with open(record, "a") as fh:
                fh.write(f"{job.label}\n")
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow_recording)
        src = TEMPLATE.format(const="3.0")
        with CompileService(workers=2, cache=cache) as svc:
            tickets = [svc.submit(src, 4, {"n": 8}) for _ in range(8)]
            assert len({id(t) for t in tickets}) == 1
            outs = [svc.collect(t, timeout=120) for t in tickets]
        assert all(o.ok for o in outs)
        assert record.read_text().count("\n") == 1  # one launch total

    def test_overload_reject_surfaces_typed_error(self, cache, monkeypatch):
        """The service forwards the pool's backpressure: past max_queue
        with overload='reject', submit raises ServiceOverloaded."""
        import repro.compile.driver as driver

        from repro.compile.service import CompileService, ServiceOverloaded

        real = driver._build_for_job

        def slow(job, selection=None):
            time.sleep(1.5)
            return real(job, selection)

        monkeypatch.setattr(driver, "_build_for_job", slow)
        with CompileService(
            workers=1, cache=cache, max_queue=1, overload="reject",
        ) as svc:
            t_a = svc.submit(TEMPLATE.format(const="10.0"), 4, {"n": 8})
            deadline = time.monotonic() + 10
            while svc._pool.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            t_b = svc.submit(TEMPLATE.format(const="11.0"), 4, {"n": 8})
            with pytest.raises(ServiceOverloaded):
                svc.submit(TEMPLATE.format(const="12.0"), 4, {"n": 8})
            assert svc.collect(t_a, timeout=120).ok
            assert svc.collect(t_b, timeout=120).ok


class TestServeCLI:
    def test_serve_out_reports_one_selection_per_source(self, cache, tmp_path):
        """``eval serve`` writes the pool counters beside the per-job rows:
        one source at three rank counts selects once and shares it twice."""
        import json

        from repro.eval.__main__ import main as eval_main

        source = TEMPLATE.format(const="8.0").replace("procs(4)", "procs(*)")
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"source": source, "nprocs": p, "params": {"n": 8},
             "label": f"k@{p}"}
            for p in (4, 2, 3)
        ]))
        out = tmp_path / "serve.json"
        assert eval_main(["serve", "--jobs", str(jobs), "--serve-out",
                          str(out), "--workers", "2"]) == 0
        report = json.loads(out.read_text())
        assert all(row["ok"] for row in report["jobs"])
        assert report["pool"]["selects"] == 1
        assert report["pool"]["selections_shared"] == 2
        assert _pool_leftovers() == []
