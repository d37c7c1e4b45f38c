"""Resilience subsystem tests: fault injection, reliable transport,
wait-for-graph deadlock diagnostics, checkpoint/restart recovery,
wall-clock timeouts, and real-process chaos."""

import time

import numpy as np
import pytest

from repro.nas import SPSolver
from repro.nas.verify import VERIFY_GRID, VERIFY_STEPS, verify
from repro.parallel import run_parallel
from repro.parallel.checkpoint import CheckpointStore
from repro.runtime import (
    DeadlockError,
    ExecutorTimeout,
    FaultPlan,
    ProcFault,
    RankCrashed,
    RankFault,
    VirtualMachine,
)
from repro.runtime import reliable, sim
from repro.runtime.model import IBM_SP2, TEST_MACHINE, MachineModel
from repro.runtime.reliable import ReliableTransport


def ring(rank):
    if rank.rank == 0:
        rank.send(1, np.arange(8.0), tag=1)
        data = rank.recv(rank.size - 1, tag=1)
        return float(data.sum())
    data = rank.recv(rank.rank - 1, tag=1)
    rank.compute(1e5)
    rank.send((rank.rank + 1) % rank.size, data + 1.0, tag=1)
    return float(data.sum())


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=-0.1)

    def test_rank_fault_validated(self):
        with pytest.raises(ValueError, match="virtual time"):
            RankFault(rank=0, time=-1.0)
        with pytest.raises(ValueError, match="multiple faults"):
            FaultPlan(rank_faults=(
                RankFault(rank=1, time=1.0), RankFault(rank=1, time=2.0),
            ))

    def test_decisions_deterministic_and_seed_dependent(self):
        a = FaultPlan(seed=7, drop_rate=0.5)
        b = FaultPlan(seed=7, drop_rate=0.5)
        c = FaultPlan(seed=8, drop_rate=0.5)
        draws_a = [a.drops(0, 1, 3, s, 0) for s in range(200)]
        assert draws_a == [b.drops(0, 1, 3, s, 0) for s in range(200)]
        assert draws_a != [c.drops(0, 1, 3, s, 0) for s in range(200)]
        assert 40 < sum(draws_a) < 160  # rate actually bites

    def test_drop_decisions_monotone_in_rate(self):
        """Same seed: every message dropped at rate r is dropped at r' > r —
        this is what makes drop-sweep makespans monotone."""
        lo = FaultPlan(seed=3, drop_rate=0.1)
        hi = FaultPlan(seed=3, drop_rate=0.3)
        for s in range(300):
            if lo.drops(0, 1, 0, s, 0):
                assert hi.drops(0, 1, 0, s, 0)

    def test_crash_fires_once_with_once_flag(self):
        f = RankFault(rank=0, time=1.0)
        plan = FaultPlan(rank_faults=(f,))
        assert not plan.fired(f)
        plan.mark_fired(f)
        assert plan.fired(f)


class TestReliableTransport:
    def test_no_plan_matches_seed_arithmetic(self):
        tr = ReliableTransport(TEST_MACHINE, None)
        s = tr.schedule(0, 1, 5, 0, 800, 2.0)
        assert s.arrival == 2.0 + TEST_MACHINE.msg_time(800)
        assert s.attempts == 1 and s.resend_windows == ()

    def test_zero_rate_plan_matches_seed_arithmetic(self):
        tr = ReliableTransport(TEST_MACHINE, FaultPlan(seed=1))
        s = tr.schedule(0, 1, 5, 0, 800, 2.0)
        assert s.arrival == 2.0 + TEST_MACHINE.msg_time(800)
        assert s.attempts == 1

    def test_exponential_backoff_on_repeated_drops(self):
        class DropTwice(FaultPlan):
            def drops(self, src, dst, tag, seq, attempt):
                return attempt < 2

        plan = DropTwice(seed=0, drop_rate=0.5)
        tr = ReliableTransport(TEST_MACHINE, plan)
        s = tr.schedule(0, 1, 0, 0, 80, 0.0)
        rtt = TEST_MACHINE.msg_time(80) + TEST_MACHINE.msg_time(reliable.ACK_BYTES)
        rto0 = reliable.RTO_ALPHAS * TEST_MACHINE.alpha + rtt
        assert s.attempts == 3
        # the second copy waits one backed-off timeout longer than the first
        assert s.arrival == pytest.approx(
            rto0 * (1 + reliable.BACKOFF) + TEST_MACHINE.msg_time(80)
        )
        assert len(s.resend_windows) == 2

    def test_max_retries_caps_but_delivers(self):
        class BlackHole(FaultPlan):
            def drops(self, src, dst, tag, seq, attempt):
                return True

        tr = ReliableTransport(TEST_MACHINE, BlackHole(seed=0, drop_rate=0.5))
        s = tr.schedule(0, 1, 0, 0, 80, 0.0)
        assert s.attempts == reliable.MAX_RETRIES + 1  # capped, then forced through
        assert np.isfinite(s.arrival)


class TestFaultyRuns:
    def test_traces_identical_with_inactive_plan(self):
        """Reliable transport with no active faults is bitwise-invisible."""
        vm_seed = VirtualMachine(4, IBM_SP2)
        vm_rel = VirtualMachine(4, IBM_SP2, faults=FaultPlan(seed=9))
        a = vm_seed.run(ring)
        b = vm_rel.run(ring)
        assert a == b
        assert vm_seed.trace.to_series() == vm_rel.trace.to_series()

    def test_drops_recovered_values_exact_time_stretched(self):
        base = VirtualMachine(4, TEST_MACHINE)
        ra = base.run(ring)
        faulty = VirtualMachine(4, TEST_MACHINE, faults=FaultPlan(seed=3, drop_rate=0.4))
        rb = faulty.run(ring)
        assert ra == rb  # numerics untouched
        assert faulty.makespan() > base.makespan()  # retransmits cost time
        assert any(e.kind == "resend" for e in faulty.trace.events)

    def test_crash_raises_rank_crashed_not_deadlock(self, monkeypatch):
        """Peers blocked on the crashed rank die with DeadlockError, but the
        root cause surfaces (error-masking fix)."""
        monkeypatch.setattr(sim, "RECV_TIMEOUT", 30)
        plan = FaultPlan(rank_faults=(RankFault(rank=1, time=1e-7),))
        with pytest.raises(RankCrashed) as ei:
            VirtualMachine(4, TEST_MACHINE, faults=plan).run(ring)
        assert ei.value.rank == 1


class TestFailurePaths:
    def test_rank_exception_propagates_over_secondary_deadlocks(self, monkeypatch):
        """A raising rank must surface its own exception even though rank 0
        blocks on it and dies with a secondary DeadlockError first by rank
        order (the seed runtime's masking bug)."""

        def boom(rank):
            if rank.rank == 2:
                raise ValueError("kaboom in rank 2")
            if rank.rank == 0:
                rank.recv(2, tag=5)  # never satisfied: rank 2 dies first
            return rank.rank

        monkeypatch.setattr(sim, "RECV_TIMEOUT", 30)
        with pytest.raises(ValueError, match="kaboom in rank 2"):
            VirtualMachine(3, TEST_MACHINE).run(boom)

    def test_wait_on_terminated_rank_is_diagnosed(self, monkeypatch):
        def prog(rank):
            if rank.rank == 0:
                rank.recv(1, tag=9)  # rank 1 exits without sending
            return rank.rank

        monkeypatch.setattr(sim, "RECV_TIMEOUT", 3600)
        with pytest.raises(DeadlockError, match="terminated"):
            VirtualMachine(2, TEST_MACHINE).run(prog)

    def test_recv_mismatch_wait_graph_diagnostic(self, monkeypatch):
        """A genuine tag mismatch produces the wait-for-graph report with
        phase, clock, awaited (src, tag), and pending mailbox keys."""

        def prog(rank):
            rank.set_phase("exchange")
            if rank.rank == 0:
                rank.send(1, nelems=4, tag=5)
                rank.recv(1, tag=6)
            else:
                rank.send(0, nelems=4, tag=7)  # wrong tag: 0 wants 6... and 1 wants 5? no
                rank.recv(0, tag=8)  # 0 sent tag 5, never 8

        monkeypatch.setattr(sim, "RECV_TIMEOUT", 3600)
        with pytest.raises(DeadlockError) as ei:
            VirtualMachine(2, TEST_MACHINE).run(prog)
        msg = str(ei.value)
        assert "wait-for-graph cycle" in msg
        assert "rank 0" in msg and "rank 1" in msg
        assert "phase='exchange'" in msg
        assert "tag=6" in msg or "tag=8" in msg
        assert "pending (src, tag)" in msg

    def test_circular_wait_lists_all_blocked_ranks(self, monkeypatch):
        def dead(rank):
            rank.set_phase("spin")
            rank.recv((rank.rank + 1) % rank.size, tag=2)

        monkeypatch.setattr(sim, "RECV_TIMEOUT", 3600)
        with pytest.raises(DeadlockError) as ei:
            VirtualMachine(5, TEST_MACHINE).run(dead)
        msg = str(ei.value)
        for r in range(5):
            assert f"rank {r}" in msg

    def test_machine_model_validation(self):
        with pytest.raises(ValueError, match="flop_time"):
            MachineModel("bad", 0.0, 1e-5, 1e-8)
        with pytest.raises(ValueError, match="alpha"):
            MachineModel("bad", 1e-9, -1e-5, 1e-8)
        with pytest.raises(ValueError, match="beta"):
            MachineModel("bad", 1e-9, 1e-5, -1e-8)
        with pytest.raises(ValueError, match="word_bytes"):
            MachineModel("bad", 1e-9, 1e-5, 1e-8, word_bytes=0)


class TestCheckpointStore:
    def test_roundtrip_and_isolation(self):
        store = CheckpointStore()
        arr = np.arange(6.0)
        store.save(1, 0, arr)
        arr[0] = 99.0  # caller mutation must not leak into the snapshot
        got = store.restore(1, 0)
        assert got[0] == 0.0
        got[1] = 77.0  # nor restore mutation back into the store
        assert store.restore(1, 0)[1] == 1.0

    def test_latest_complete_requires_all_ranks(self):
        store = CheckpointStore()
        store.save(1, 0, None)
        store.save(1, 1, None)
        store.save(2, 0, None)  # rank 1 missing at iteration 2
        assert store.latest_complete(2) == 1
        store.save(2, 1, None)
        assert store.latest_complete(2) == 2
        assert store.latest_complete(3) == 0


class TestWallClockTimeout:
    """``timeout=`` bounds host wall-clock on the *virtual* path too: a
    pathological node program raises typed ExecutorTimeout, never hangs."""

    def test_vm_run_times_out_on_stuck_rank(self):
        def stuck(rank):
            if rank.rank == 1:
                time.sleep(30)  # host-time hang the virtual clock can't see
            rank.barrier()

        t0 = time.monotonic()
        with pytest.raises(ExecutorTimeout, match="rank"):
            VirtualMachine(2, TEST_MACHINE).run(stuck, timeout=0.5)
        assert time.monotonic() - t0 < 10

    def test_run_parallel_virtual_timeout_is_typed(self):
        with pytest.raises(ExecutorTimeout):
            run_parallel("sp", "dhpf", 4, VERIFY_GRID, 50, functional=True,
                         record_trace=False, timeout=1e-3)

    def test_generous_timeout_changes_nothing(self):
        a = run_parallel("sp", "dhpf", 4, (12, 12, 12), 2, functional=True,
                         record_trace=False)
        b = run_parallel("sp", "dhpf", 4, (12, 12, 12), 2, functional=True,
                         record_trace=False, timeout=600.0)
        assert np.array_equal(a.u, b.u)
        assert a.time == b.time


SHAPE = (12, 12, 12)


class TestEndToEndResilience:
    @pytest.fixture(scope="class")
    def serial_sp(self):
        s = SPSolver(SHAPE)
        s.run(VERIFY_STEPS)
        return s

    def test_sp_trace_identical_under_inactive_plan(self):
        """Class-S SP run: the reliable transport with faults disabled must
        reproduce the seed runtime's trace bitwise."""
        a = run_parallel("sp", "dhpf", 4, SHAPE, 2, TEST_MACHINE, functional=False)
        b = run_parallel("sp", "dhpf", 4, SHAPE, 2, TEST_MACHINE, functional=False,
                         faults=FaultPlan(seed=5))
        assert a.time == b.time
        assert a.trace.to_series() == b.trace.to_series()

    def test_sp_survives_drops_and_verifies(self, serial_sp):
        """Acceptance: class-S SP on 4 ranks with >= 10% message drops
        completes via retransmission and passes NPB verification."""
        r = run_parallel(
            "sp", "dhpf", 4, SHAPE, VERIFY_STEPS, TEST_MACHINE, functional=True,
            faults=FaultPlan(seed=1, drop_rate=0.1),
        )
        assert np.array_equal(r.u, serial_sp.u)
        solver = SPSolver(SHAPE)
        solver.u = r.u
        assert verify("sp", solver.residual_norms(), solver.checksum())

    def test_sp_crash_recovers_from_checkpoint(self, serial_sp):
        """Acceptance: a seeded single-rank crash recovers from the last
        coordinated checkpoint and still verifies."""
        base = run_parallel("sp", "dhpf", 4, SHAPE, VERIFY_STEPS, TEST_MACHINE,
                            functional=True, record_trace=False)
        plan = FaultPlan(
            seed=1, rank_faults=(RankFault(rank=2, time=0.5 * base.time),),
        )
        store = CheckpointStore()
        with pytest.raises(RankCrashed):
            run_parallel("sp", "dhpf", 4, SHAPE, VERIFY_STEPS, TEST_MACHINE,
                         functional=True, faults=plan, checkpoint=store,
                         record_trace=False)
        assert store.latest_complete(4) >= 1  # progress was snapshotted
        r = run_parallel("sp", "dhpf", 4, SHAPE, VERIFY_STEPS, TEST_MACHINE,
                         functional=True, faults=plan, checkpoint=store,
                         record_trace=False)
        assert np.array_equal(r.u, serial_sp.u)
        solver = SPSolver(SHAPE)
        solver.u = r.u
        assert verify("sp", solver.residual_norms(), solver.checksum())

    def test_crash_restart_matches_fault_free_run(self):
        """Chaos + checkpoint integration (ties PR 1's two halves): a rank
        crash mid-run, then restart from the last coordinated checkpoint,
        must reproduce the fault-free run's field bitwise and actually
        resume (not recompute from scratch)."""
        steps = 4
        fault_free = run_parallel("bt", "dhpf", 4, SHAPE, steps, TEST_MACHINE,
                                  functional=True, record_trace=False)
        plan = FaultPlan(
            seed=2, rank_faults=(RankFault(rank=1, time=0.5 * fault_free.time),),
        )
        store = CheckpointStore()
        with pytest.raises(RankCrashed) as ei:
            run_parallel("bt", "dhpf", 4, SHAPE, steps, TEST_MACHINE,
                         functional=True, faults=plan, checkpoint=store,
                         record_trace=False)
        assert ei.value.rank == 1
        completed = store.latest_complete(4)
        assert completed >= 1, "crash happened before any coordinated snapshot"
        resumed = run_parallel("bt", "dhpf", 4, SHAPE, steps, TEST_MACHINE,
                               functional=True, faults=plan, checkpoint=store,
                               record_trace=False)
        assert np.array_equal(resumed.u, fault_free.u)
        # resuming from iteration `completed` does strictly less work than
        # the fault-free from-scratch run
        assert resumed.time < fault_free.time

    def test_handmpi_checkpoint_skips_completed_iterations(self):
        store = CheckpointStore()
        full = run_parallel("sp", "handmpi", 4, SHAPE, 3, TEST_MACHINE,
                            checkpoint=store, record_trace=False)
        assert store.latest_complete(4) == 3
        resumed = run_parallel("sp", "handmpi", 4, SHAPE, 3, TEST_MACHINE,
                               checkpoint=store, record_trace=False)
        assert resumed.time < full.time  # nothing left to do but restart

    def test_checkpoint_rejected_for_pgi(self):
        with pytest.raises(ValueError, match="dhpf and handmpi"):
            run_parallel("sp", "pgi", 2, SHAPE, 1, TEST_MACHINE,
                         checkpoint=CheckpointStore())


class TestRealProcessChaos:
    """Acceptance chaos kill-test: SIGKILL a live OS worker mid-run with
    checkpointing enabled; the supervisor must detect the death within the
    heartbeat interval, restart the gang from the latest coordinated
    checkpoint, and the recovered field must be bitwise-identical to the
    fault-free run."""

    def test_sigkill_recovery_bitwise(self):
        import multiprocessing as mp

        from repro.runtime import ProcConfig, procexec

        cfg = ProcConfig(heartbeat_interval=0.02, max_restarts=2,
                         restart_backoff=0.05)
        fault_free = run_parallel(
            "sp", "dhpf", 4, SHAPE, VERIFY_STEPS, functional=True,
            record_trace=False, executor="process", timeout=300,
            executor_config=cfg,
        )
        assert fault_free.executor == "process"
        store = CheckpointStore()
        chaotic = run_parallel(
            "sp", "dhpf", 4, SHAPE, VERIFY_STEPS, functional=True,
            record_trace=False, executor="process", timeout=300,
            executor_config=cfg,
            proc_fault=ProcFault(rank=1, kind="kill", after_iteration=2),
            checkpoint=store,
        )
        assert chaotic.executor == "process"  # recovered, did not degrade
        assert chaotic.restarts >= 1  # the SIGKILL really was detected
        assert store.latest_complete(4) == VERIFY_STEPS
        assert np.array_equal(chaotic.u, fault_free.u)
        solver = SPSolver(SHAPE)
        solver.u = chaotic.u
        assert verify("sp", solver.residual_norms(), solver.checksum())
        # the supervisor reaped everything: no orphans, no leaked segments
        for p in mp.active_children():
            p.join(timeout=2.0)
        assert mp.active_children() == []
        assert procexec.leaked_segments() == []
