"""The shared supervision core (repro.supervise).

Fast unit tests of what the compile pool and the process executor both
rely on — the verdict on one worker, the control-queue drain, reaping —
against real short-lived forked children, no compiler involved.
"""

import multiprocessing as mp
import os
import signal
import sys
import time

import pytest

from repro import supervise
from repro.supervise import ALIVE, CRASHED, FROZEN, PENDING

NAMES = ("ExecutorError", "ExecutorUnavailable", "WorkerCrashed",
         "WorkerTimeout", "ExecutorTimeout")


@pytest.fixture(autouse=True)
def no_orphans():
    yield
    for p in mp.active_children():
        p.join(timeout=2.0)
    assert mp.active_children() == []


def _start(target, *args, beat=0.01):
    """Fork ``target(*args)`` as a beating supervised worker (slot 0)."""
    ctx = supervise.fork_context()
    beats = supervise.heartbeat_slab(ctx, 1)

    def main():
        supervise.start_beating(beats, 0, beat)
        target(*args)

    proc = ctx.Process(target=main, daemon=True)
    proc.start()
    return supervise.Supervised(proc, beats, 0)


def _await_exit(worker, timeout=10.0):
    worker.proc.join(timeout=timeout)
    assert worker.proc.exitcode is not None


class TestVerdict:
    def test_sigkilled_child(self):
        w = _start(time.sleep, 60)
        assert w.verdict(time.monotonic(), 5.0) == (ALIVE, "")
        os.kill(w.proc.pid, signal.SIGKILL)
        _await_exit(w)
        assert w.verdict(time.monotonic(), 5.0) == (
            CRASHED, "killed by signal 9")

    def test_nonzero_exit(self):
        w = _start(sys.exit, 3)
        _await_exit(w)
        assert w.verdict(time.monotonic(), 5.0) == (
            CRASHED, "exited with code 3")

    def test_clean_exit_is_pending_inside_the_grace_window(self):
        """A clean exit's result may still be traveling: pending first, a
        crash only once EXIT_GRACE passed with nothing delivered."""
        w = _start(lambda: None)
        _await_exit(w)
        seen = time.monotonic()
        assert w.verdict(seen, 5.0) == (PENDING, "")
        assert w.verdict(seen + supervise.EXIT_GRACE / 2, 5.0) == (PENDING, "")
        state, detail = w.verdict(seen + supervise.EXIT_GRACE + 0.01, 5.0)
        assert state == CRASHED
        assert detail == "exited cleanly without delivering a result"

    def test_sigstopped_child_is_frozen_and_still_reapable(self):
        w = _start(time.sleep, 60)
        os.kill(w.proc.pid, signal.SIGSTOP)
        deadline = time.monotonic() + 10
        state = ALIVE
        while state == ALIVE and time.monotonic() < deadline:
            time.sleep(0.05)
            state, detail = w.verdict(time.monotonic(), 0.2)
        assert state == FROZEN
        assert "no heartbeat" in detail
        assert w.since_beat(time.monotonic()) > 0.2
        supervise.kill_and_reap([w.proc])  # SIGKILL fells a stopped process
        assert w.proc.exitcode == -signal.SIGKILL

    def test_live_child_keeps_beating(self):
        w = _start(time.sleep, 60)
        time.sleep(0.3)  # far longer than the beat interval
        assert w.since_beat(time.monotonic()) < 0.2
        assert w.verdict(time.monotonic(), 0.2) == (ALIVE, "")
        supervise.kill_and_reap([w.proc])


class TestDrainAndReport:
    def test_drain_returns_on_empty_queue(self):
        q = supervise.fork_context().Queue()
        t0 = time.monotonic()
        assert list(supervise.drain(q, block=False)) == []
        assert list(supervise.drain(q, block=True)) == []  # one short wait
        assert time.monotonic() - t0 < 5.0
        supervise.release_queues(q)

    def test_drain_returns_on_closed_queue(self):
        q = supervise.fork_context().Queue()
        supervise.release_queues(q)
        assert list(supervise.drain(q, block=True)) == []
        assert list(supervise.drain(q, block=False)) == []

    def test_drain_yields_everything_readable_in_order(self):
        q = supervise.fork_context().Queue()
        for k in range(3):
            q.put(("done", k))
        got = []
        deadline = time.monotonic() + 10
        while len(got) < 3 and time.monotonic() < deadline:
            got += list(supervise.drain(q, block=True))
        assert got == [("done", 0), ("done", 1), ("done", 2)]
        supervise.release_queues(q)

    def test_child_error_report_round_trips(self):
        ctx = supervise.fork_context()
        q = ctx.Queue()

        def child():
            try:
                raise ValueError("kaboom")
            except ValueError as exc:
                assert supervise.report_error(q, exc, 7, "seq")
            sys.exit(1)

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        msgs = []
        deadline = time.monotonic() + 10
        while not msgs and time.monotonic() < deadline:
            msgs = list(supervise.drain(q, block=True))
        supervise.kill_and_reap([proc])
        supervise.release_queues(q)
        (kind, wid, seq, etype, emsg, tb), = msgs
        assert (kind, wid, seq, etype, emsg) == (
            "err", 7, "seq", "ValueError", "kaboom")
        assert "raise ValueError" in tb

    def test_report_error_on_a_torn_queue_is_false(self):
        q = supervise.fork_context().Queue()
        supervise.release_queues(q)
        try:
            raise ValueError("nobody listens")
        except ValueError as exc:
            assert supervise.report_error(q, exc, 0) is False


class TestLaunchAndFamily:
    def test_unknown_start_method_is_typed(self, monkeypatch):
        """A platform without fork cannot run supervised workers."""
        import multiprocessing as mp

        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(supervise.ExecutorUnavailable, match="start method"):
            supervise.fork_context()

    def test_one_error_family_under_three_names(self):
        from repro import runtime
        from repro.runtime import procexec

        for name in NAMES:
            cls = getattr(supervise, name)
            assert getattr(procexec, name) is cls
            assert getattr(runtime, name) is cls
            assert issubclass(cls, supervise.ExecutorError)

    def test_atexit_registry_is_weak_and_explicit(self):
        class Owner:
            pass

        owner = Owner()
        supervise.guard(owner, lambda o: None)
        assert owner in supervise._GUARDED
        supervise.unguard(owner)
        assert owner not in supervise._GUARDED
        supervise.unguard(owner)  # idempotent
        supervise.guard(owner, lambda o: None)
        del owner  # a collected owner drops out by itself
        assert not any(isinstance(o, Owner) for o in supervise._GUARDED)
