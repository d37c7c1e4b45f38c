"""Virtual machine tests: determinism, causality, deadlock, collectives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import DeadlockError, VirtualMachine, sim
from repro.runtime.model import IBM_SP2, TEST_MACHINE, MachineModel


def ring_program(rank):
    if rank.rank == 0:
        rank.send(1, np.arange(8.0), tag=1)
        data = rank.recv(rank.size - 1, tag=1)
        return float(data.sum()), rank.t
    data = rank.recv(rank.rank - 1, tag=1)
    rank.compute(1e5)
    rank.send((rank.rank + 1) % rank.size, data + 1.0, tag=1)
    return float(data.sum()), rank.t


class TestVirtualMachine:
    def test_data_transport(self):
        res = VirtualMachine(4, TEST_MACHINE).run(ring_program)
        base = sum(range(8))
        # each hop adds +1 to all 8 elements
        assert res[1][0] == base
        assert res[2][0] == base + 8
        assert res[0][0] == base + 24

    def test_timing_determinism(self):
        a = VirtualMachine(6, IBM_SP2).run(ring_program)
        b = VirtualMachine(6, IBM_SP2).run(ring_program)
        assert a == b

    def test_clock_monotone_and_causal(self):
        vm = VirtualMachine(4, IBM_SP2)
        vm.run(ring_program)
        tr = vm.trace
        assert tr is not None
        for r in range(4):
            evs = tr.for_rank(r)
            for e1, e2 in zip(evs, evs[1:]):
                assert e2.t0 >= e1.t0 - 1e-12
        # causality: every recv ends no earlier than matching send start + alpha
        sends = [e for e in tr.events if e.kind == "send"]
        recvs = [e for e in tr.events if e.kind == "recv"]
        for rv in recvs:
            candidates = [
                s for s in sends if s.rank == rv.peer and s.peer == rv.rank
            ]
            assert candidates, "recv without any send from peer"
            assert rv.t1 >= min(s.t0 for s in candidates) + IBM_SP2.alpha - 1e-12

    def test_deadlock_detection(self, monkeypatch):
        def dead(rank):
            rank.recv((rank.rank + 1) % rank.size)

        monkeypatch.setattr(sim, "RECV_TIMEOUT", 5)
        with pytest.raises(DeadlockError):
            VirtualMachine(3, TEST_MACHINE).run(dead)

    def test_exception_propagates(self, monkeypatch):
        def boom(rank):
            if rank.rank == 1:
                raise ValueError("kaboom")
            # others finish normally (no recv from the failed rank)
            rank.compute(10)

        monkeypatch.setattr(sim, "RECV_TIMEOUT", 5)
        with pytest.raises(ValueError, match="kaboom"):
            VirtualMachine(3, TEST_MACHINE).run(boom)

    def test_fifo_per_tag(self):
        def prog(rank):
            if rank.rank == 0:
                for k in range(5):
                    rank.send(1, np.array([float(k)]), tag=7)
                return None
            return [float(rank.recv(0, tag=7)[0]) for _ in range(5)]

        res = VirtualMachine(2, TEST_MACHINE).run(prog)
        assert res[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_tags_demultiplex(self):
        def prog(rank):
            if rank.rank == 0:
                rank.send(1, np.array([1.0]), tag=1)
                rank.send(1, np.array([2.0]), tag=2)
                return None
            # receive in opposite tag order
            b = rank.recv(0, tag=2)
            a = rank.recv(0, tag=1)
            return (float(a[0]), float(b[0]))

        res = VirtualMachine(2, TEST_MACHINE).run(prog)
        assert res[1] == (1.0, 2.0)

    def test_work_model_send(self):
        def prog(rank):
            if rank.rank == 0:
                rank.send(1, nelems=1000)
                return None
            return rank.recv(0)

        res = VirtualMachine(2, IBM_SP2).run(prog)
        assert res[1] == 1000 * IBM_SP2.word_bytes

    def test_barrier_synchronizes_clocks(self):
        def prog(rank):
            rank.compute(1e6 * (rank.rank + 1))
            rank.barrier()
            return rank.t

        res = VirtualMachine(4, IBM_SP2).run(prog)
        slowest_work = IBM_SP2.compute_time(4e6)
        assert all(t >= slowest_work for t in res)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 4))
    def test_ring_scales_with_hops(self, nprocs, rounds):
        def prog(rank):
            for rd in range(rounds):
                if rank.rank == 0:
                    rank.send(1, nelems=10, tag=rd)
                    rank.recv(rank.size - 1, tag=rd)
                else:
                    rank.recv(rank.rank - 1, tag=rd)
                    rank.send((rank.rank + 1) % rank.size, nelems=10, tag=rd)
            return rank.t

        vm = VirtualMachine(nprocs, IBM_SP2)
        res = vm.run(prog)
        # whole ring takes at least nprocs*rounds*alpha of virtual time
        assert max(res) >= nprocs * rounds * IBM_SP2.alpha * 0.9


class TestMachineModel:
    def test_msg_time_components(self):
        m = MachineModel("m", 1e-8, 1e-5, 1e-9)
        assert m.msg_time(0) == pytest.approx(1e-5)
        assert m.msg_time(1000) == pytest.approx(1e-5 + 1e-6)

    def test_sp2_calibration_order_of_magnitude(self):
        # ~55 sustained MFLOPS, ~40us latency, ~35 MB/s
        assert 1 / IBM_SP2.flop_time == pytest.approx(55e6)
        assert IBM_SP2.alpha == pytest.approx(40e-6)
        assert 1 / IBM_SP2.beta == pytest.approx(35e6)
