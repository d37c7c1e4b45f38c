"""Unified entry point for the three parallel strategies."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..runtime import Trace, VirtualMachine
from ..runtime.faults import FaultPlan
from ..runtime.model import MachineModel, TEST_MACHINE
from ..runtime.procexec import ProcConfig, ProcessExecutor, ProcFault
from .checkpoint import CheckpointStore
from .dhpf import DhpfOptions, make_dhpf_node


@dataclass
class RunResult:
    """Outcome of one parallel run (virtual machine or real processes)."""

    bench: str
    strategy: str
    nprocs: int
    shape: tuple[int, int, int]
    niter: int
    time: float  # virtual makespan (seconds)
    trace: Optional[Trace]
    u: Optional[np.ndarray] = None  # assembled global field (functional mode)
    per_rank: list = field(default_factory=list)
    executor: str = "virtual"  # executor that ran ("virtual" | "process")
    wall_time: float = 0.0  # host seconds spent executing
    restarts: int = 0  # supervised gang restarts consumed (process executor)

    @property
    def checksum(self) -> Optional[float]:
        if self.u is None:
            return None
        return float(np.sum(np.abs(self.u)))


def _assemble(shape: tuple[int, int, int], results: list[dict]) -> np.ndarray:
    from ..nas import ops

    u = np.zeros(shape + (ops.NV,), dtype=np.float64)
    for r in results:
        own = r["u_own"]
        lo = r["lo"]
        u[
            lo[0] : lo[0] + own.shape[0],
            lo[1] : lo[1] + own.shape[1],
            lo[2] : lo[2] + own.shape[2],
        ] = own
    return u


def run_parallel(
    bench: str,
    strategy: str,
    nprocs: int,
    shape: tuple[int, int, int],
    niter: int,
    model: MachineModel = TEST_MACHINE,
    functional: bool = False,
    options: Any = None,
    record_trace: bool = True,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[CheckpointStore] = None,
    executor: str = "virtual",
    timeout: Optional[float] = None,
    executor_config: Optional[ProcConfig] = None,
    proc_fault: Optional[ProcFault] = None,
) -> RunResult:
    """Run one (benchmark, strategy) configuration.

    bench: 'sp' | 'bt'; strategy: 'dhpf' | 'pgi' | 'handmpi'.
    ``functional=True`` computes real numpy data (small grids; result
    assembled into ``RunResult.u``); otherwise only the work model runs.

    ``executor`` selects where the node programs execute:

    - ``"virtual"`` (default) — the deterministic virtual machine with
      modeled time;
    - ``"process"`` — the supervised real-process backend
      (:mod:`repro.runtime.procexec`): one forked OS process per rank,
      heartbeat monitoring, typed crash/hang detection, bounded
      checkpoint-based restart.  A backend that is unavailable, crashes
      past its restart budget, or freezes raises its typed error
      (:class:`~repro.runtime.procexec.ExecutorUnavailable`,
      ``WorkerCrashed``, ``WorkerTimeout``); the run is never re-done on
      the virtual machine, so a result labelled ``"process"`` came from
      processes.  The numerics are bitwise-identical to the virtual
      machine's.  Event traces are a virtual-machine feature: pass
      ``record_trace=False`` (``True`` raises ``ValueError``).

    ``timeout`` is an overall wall-clock budget in host seconds on either
    executor (typed :class:`~repro.runtime.procexec.ExecutorTimeout` on
    expiry — a timeout is an exhausted budget, so it never triggers
    restart).

    Resilience knobs: ``faults`` injects a deterministic
    :class:`~repro.runtime.faults.FaultPlan`, whose message drops the
    virtual machine's retransmission transport masks (a plan models
    *simulated* failures, so it requires the virtual executor);
    ``checkpoint``, a :class:`~repro.parallel.checkpoint.CheckpointStore`,
    enables coordinated snapshot/restart for the dhpf and handmpi
    strategies; ``proc_fault`` injects one *real* fault
    (SIGKILL/SIGSTOP) into a live process gang — the chaos harness's
    process mode.
    """
    bench = bench.lower()
    strategy = strategy.lower()
    if bench not in ("sp", "bt"):
        raise ValueError(f"unknown benchmark {bench!r}")
    if executor not in ("virtual", "process"):
        raise ValueError(f"unknown executor {executor!r} (virtual | process)")
    if checkpoint is not None and strategy == "pgi":
        raise ValueError(
            "checkpoint/restart supports the dhpf and handmpi strategies only"
        )
    if executor == "process" and faults is not None:
        raise ValueError(
            "a FaultPlan models simulated faults in virtual time "
            "and requires executor='virtual'; real-process faults are injected "
            "via proc_fault (see repro.eval.chaos)"
        )
    if executor == "process" and record_trace:
        raise ValueError(
            "event traces are a virtual-machine feature; pass "
            "record_trace=False with executor='process'"
        )
    if proc_fault is not None and executor != "process":
        raise ValueError("proc_fault requires executor='process'")

    if strategy == "dhpf":
        from ..distrib.grid import ProcessorGrid

        pgrid = ProcessorGrid.square_2d("procs", nprocs).shape
        node, _ = make_dhpf_node(
            bench, shape, niter, pgrid, options or DhpfOptions(), functional,
            checkpoint=checkpoint,
        )
    elif strategy == "pgi":
        from .pgi import PgiOptions, make_pgi_node

        node, _ = make_pgi_node(
            bench, shape, niter, nprocs, options or PgiOptions.for_bench(bench), functional
        )
    elif strategy == "handmpi":
        from .handmpi import HandMpiOptions, make_handmpi_node

        if functional:
            raise ValueError(
                "the multipartitioning baseline is schedule-modeled only "
                "(see DESIGN.md substitutions); use functional=False"
            )
        node, _ = make_handmpi_node(
            bench, shape, niter, nprocs, options or HandMpiOptions.for_bench(bench),
            checkpoint=checkpoint,
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    restarts = 0
    trace: Optional[Trace] = None
    wall0 = _time.monotonic()
    if executor == "process":
        ex = ProcessExecutor(nprocs, model, config=executor_config)
        results = ex.run(
            node, checkpoint=checkpoint, timeout=timeout, fault=proc_fault
        )
        restarts = ex.restarts
    else:
        vm = VirtualMachine(nprocs, model, record_trace=record_trace, faults=faults)
        results = vm.run(node, timeout=timeout)
        trace = vm.trace

    wall = _time.monotonic() - wall0
    time = max(r["t"] for r in results)
    u = _assemble(shape, results) if functional and "u_own" in results[0] else None
    return RunResult(
        bench, strategy, nprocs, shape, niter, time, trace, u, results,
        executor=executor, wall_time=wall, restarts=restarts,
    )
