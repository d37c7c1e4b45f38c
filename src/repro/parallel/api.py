"""Unified entry point for the three parallel strategies."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..diag import Diagnostic, I_FALLBACK, I_NOTRACE, Severity
from ..runtime import Trace, VirtualMachine
from ..runtime.faults import FaultPlan
from ..runtime.model import MachineModel, TEST_MACHINE
from ..runtime.procexec import (
    ExecutorTimeout,
    ExecutorUnavailable,
    ProcConfig,
    ProcessExecutor,
    ProcFault,
    WorkerCrashed,
    WorkerTimeout,
)
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
    executor: str = "virtual"  # executor that actually ran ("virtual" | "process")
    wall_time: float = 0.0  # host seconds spent executing
    restarts: int = 0  # supervised gang restarts consumed (process executor)
    diagnostics: list = field(default_factory=list)  # e.g. I-FALLBACK degradations

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
      checkpoint-based restart.  If the backend is unavailable, crashes
      past its restart budget, or freezes, the run **degrades to the
      virtual machine** and records an ``I-FALLBACK`` diagnostic in
      ``RunResult.diagnostics`` (inspect ``RunResult.executor`` for what
      actually ran); an exception raised *by the node program* is
      deterministic and propagates directly — it is never re-run on the
      virtual machine.  The numerics are bitwise-identical either way.
      Event traces are a virtual-machine feature: with
      ``record_trace=True`` the process path returns ``trace=None`` and
      records an ``I-NOTRACE`` diagnostic.

    ``timeout`` is an overall wall-clock budget in host seconds covering
    both executors (typed :class:`~repro.runtime.procexec.ExecutorTimeout`
    on expiry — a timeout is an exhausted budget, so it never triggers
    restart or degradation).

    Resilience knobs: ``faults`` injects a deterministic
    :class:`~repro.runtime.faults.FaultPlan`, whose message faults the
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

    diagnostics: list[Diagnostic] = []
    used = executor
    restarts = 0
    trace: Optional[Trace] = None
    results: Optional[list] = None
    wall0 = _time.monotonic()

    if executor == "process":
        try:
            ex = ProcessExecutor(nprocs, model, config=executor_config)
            results = ex.run(
                node, checkpoint=checkpoint, timeout=timeout, fault=proc_fault
            )
            restarts = ex.restarts
            if record_trace:
                # event traces are a virtual-machine feature; say so
                # instead of silently handing back trace=None
                diagnostics.append(Diagnostic(
                    Severity.INFO, I_NOTRACE,
                    "record_trace=True is unavailable on the process "
                    "executor; RunResult.trace is None (use "
                    "executor='virtual' for event traces)",
                    pass_name="procexec",
                ))
        except ExecutorTimeout:
            raise  # an exhausted budget is final: no retry, no fallback
        except (ExecutorUnavailable, WorkerCrashed, WorkerTimeout) as exc:
            # infrastructure failure — backend unavailable, crashed past
            # its restart budget, or frozen: degrade to the deterministic
            # virtual machine and say so with a structured diagnostic.
            # A plain ExecutorError (the node program's own exception) is
            # deterministic and propagates instead: re-running it on the
            # virtual machine would only fail again, slower, while
            # misattributing an application bug to executor degradation.
            diagnostics.append(Diagnostic(
                Severity.INFO, I_FALLBACK,
                f"process executor degraded to the virtual machine after "
                f"{type(exc).__name__}: {exc}",
                pass_name="procexec",
            ))
            used = "virtual"

    if results is None:
        remaining = None
        if timeout is not None:
            remaining = timeout - (_time.monotonic() - wall0)
            if remaining <= 0:
                raise ExecutorTimeout(
                    f"wall-clock budget of {timeout:.3g}s exhausted before the "
                    f"virtual-machine fallback could start"
                )
        vm = VirtualMachine(nprocs, model, record_trace=record_trace, faults=faults)
        results = vm.run(node, timeout=remaining)
        trace = vm.trace

    wall = _time.monotonic() - wall0
    time = max(r["t"] for r in results)
    u = _assemble(shape, results) if functional and "u_own" in results[0] else None
    return RunResult(
        bench, strategy, nprocs, shape, niter, time, trace, u, results,
        executor=used, wall_time=wall, restarts=restarts,
        diagnostics=diagnostics,
    )
