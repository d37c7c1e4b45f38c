"""Finer-grained fidelity checks against Figure 8.2's narrative.

The paper reads its dHPF-SP space-time diagram closely: the pipelines are
skewed ("the granularity is clearly too large, leading to a loss of
parallelism" for the coarsest one), and the spurious message between
successive pipelines delays each start-up.  We assert those structures in
the traces.
"""

import numpy as np

from repro.parallel import run_parallel
from repro.parallel.dhpf import DhpfOptions
from repro.runtime.model import IBM_SP2

SHAPE = (64, 64, 64)


def sp_trace(options: DhpfOptions, nprocs: int = 16):
    return run_parallel(
        "sp", "dhpf", nprocs, SHAPE, 1, IBM_SP2,
        functional=False, record_trace=True, options=options,
    ).trace


class TestPipelineSkew:
    @staticmethod
    def _serialization_factor(tr) -> float:
        """y_solve wall-window divided by mean per-rank busy time in the
        phase: ~1 = perfectly overlapped pipeline, >>1 = serialized stages
        (the paper's 'processor 0 finishes before processor 2 begins')."""
        t0, t1 = tr.phase_window("y_solve")
        busy = []
        for r in range(tr.nprocs):
            evs = [e for e in tr.for_rank(r) if e.phase == "y_solve" and e.kind == "compute"]
            busy.append(sum(e.duration for e in evs))
        return (t1 - t0) / (sum(busy) / len(busy))

    def test_coarse_granularity_serializes_stages(self):
        coarse = self._serialization_factor(sp_trace(DhpfOptions(granularity=64)))
        fine = self._serialization_factor(sp_trace(DhpfOptions(granularity=2)))
        assert coarse > fine * 1.3
        assert coarse > 2.0  # clearly skewed, as in Figure 8.2

    def test_idle_grows_with_granularity(self):
        idles = {}
        for g in (2, 64):
            tr = sp_trace(DhpfOptions(granularity=g))
            idles[g] = np.mean([tr.idle_fraction(r) for r in range(16)])
        assert idles[64] > idles[2]


class TestPhaseStructure:
    def test_phases_in_order(self):
        tr = sp_trace(DhpfOptions())
        seen = []
        for e in tr.for_rank(0):
            if e.phase and (not seen or seen[-1] != e.phase):
                seen.append(e.phase)
        assert seen == ["compute_rhs", "x_solve", "y_solve", "z_solve", "add"]

    def test_x_solve_is_communication_free(self):
        """x is not distributed: the x_solve phase must contain no messages
        (the paper: 'a totally local computation for the 2D distribution')."""
        tr = sp_trace(DhpfOptions())
        assert not [
            e for e in tr.events if e.phase == "x_solve" and e.kind in ("send", "recv")
        ]

    def test_y_and_z_solves_carry_the_pipeline_messages(self):
        tr = sp_trace(DhpfOptions())
        for phase in ("y_solve", "z_solve"):
            msgs = [e for e in tr.events if e.phase == phase and e.kind == "send"]
            assert msgs, f"expected pipelined messages in {phase}"
