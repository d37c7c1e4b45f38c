"""Chaos harness: NAS runs under injected faults, with recovery accounting.

Drives the same :func:`repro.parallel.run_parallel` entry point as the
paper-reproduction tables, but under a deterministic
:class:`~repro.runtime.faults.FaultPlan`, and reports what production
operators care about: did the run complete, did it still pass NPB-style
verification, how many restart attempts it took, and what the resilience
overhead was in virtual time (retransmission stretch + work lost to
crashes and re-done from the last coordinated checkpoint).

Two fault substrates:

- *simulated* (:func:`run_chaos`, :func:`drop_sweep`, :func:`crash_sweep`)
  — deterministic virtual-time faults on the virtual machine;
- *real* (:func:`run_proc_chaos`) — a live worker process of the
  supervised real-process backend is SIGKILLed (or SIGSTOPped) mid-run;
  the supervisor detects it, restarts the gang from the latest coordinated
  checkpoint, and the recovered result is asserted bitwise-identical to
  the fault-free run.

``python -m repro.eval chaos`` prints the standard sweep
(``--real-process`` for the live-worker mode); the functions here are the
library surface used by ``benchmarks/test_chaos.py``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..nas.verify import VERIFY_GRID, VERIFY_STEPS, verify_field
from ..parallel import run_parallel
from ..parallel.checkpoint import CheckpointConfig, CheckpointStore
from ..runtime.faults import FaultPlan, RankCrashed, RankFault
from ..runtime.model import MachineModel, TEST_MACHINE
from ..runtime.procexec import ProcConfig, ProcFault


@dataclass
class ChaosResult:
    """Outcome of one fault-injected configuration."""

    bench: str
    strategy: str
    nprocs: int
    drop_rate: float
    crash_times: list[float] = field(default_factory=list)
    attempts: int = 0
    completed: bool = False
    verified: Optional[bool] = None  # None for work-model runs
    virtual_time: float = 0.0  # total cost incl. failed attempts
    baseline_time: float = 0.0  # fault-free makespan

    @property
    def overhead(self) -> float:
        """Resilience overhead: extra virtual time relative to fault-free."""
        if self.baseline_time <= 0:
            return 0.0
        return self.virtual_time / self.baseline_time - 1.0


def run_chaos(
    bench: str = "sp",
    strategy: str = "dhpf",
    nprocs: int = 4,
    shape: tuple[int, int, int] = VERIFY_GRID,
    niter: int = VERIFY_STEPS,
    model: MachineModel = TEST_MACHINE,
    plan: Optional[FaultPlan] = None,
    functional: bool = True,
    checkpoint_interval: int = 1,
    max_attempts: int = 8,
    baseline_time: Optional[float] = None,
    timeout: Optional[float] = None,
) -> ChaosResult:
    """Run one configuration under ``plan``, restarting from checkpoints.

    Every :class:`RankCrashed` costs the crash's virtual time (the work in
    flight when the rank died) and triggers a restart from the latest
    coordinated checkpoint; message faults are absorbed by the reliable
    transport inside the run.  Functional runs are verified two ways:
    bitwise against the serial solver, and (on the reference problem)
    against the stored NPB residuals via :func:`repro.nas.verify.verify`.

    ``timeout`` bounds each attempt's host wall-clock time (typed
    :class:`~repro.runtime.procexec.ExecutorTimeout` on expiry — a
    pathological kernel cannot hang the sweep).
    """
    if baseline_time is None:
        baseline = run_parallel(
            bench, strategy, nprocs, shape, niter, model,
            functional=functional, record_trace=False, timeout=timeout,
        )
        baseline_time = baseline.time
    out = ChaosResult(
        bench, strategy, nprocs,
        drop_rate=plan.drop_rate if plan is not None else 0.0,
        baseline_time=baseline_time,
    )
    store = CheckpointStore()
    cfg = CheckpointConfig(store=store, interval=checkpoint_interval)
    for _ in range(max_attempts):
        out.attempts += 1
        try:
            r = run_parallel(
                bench, strategy, nprocs, shape, niter, model,
                functional=functional, record_trace=False,
                faults=plan, checkpoint=cfg, timeout=timeout,
            )
        except RankCrashed as crash:
            out.crash_times.append(crash.time)
            out.virtual_time += crash.time
            continue
        out.virtual_time += r.time
        out.completed = True
        if functional:
            out.verified = verify_field(bench, r.u, shape, niter)
        return out
    return out  # never completed within max_attempts


def drop_sweep(
    rates: Sequence[float] = (0.0, 0.05, 0.1, 0.25),
    seed: int = 1,
    **kw,
) -> list[ChaosResult]:
    """Sweep message drop rates; higher rates only stretch virtual time."""
    results = []
    baseline: Optional[float] = None
    for rate in rates:
        plan = FaultPlan(seed=seed, drop_rate=rate) if rate > 0 else None
        res = run_chaos(plan=plan, baseline_time=baseline, **kw)
        baseline = res.baseline_time
        results.append(res)
    return results


def crash_sweep(
    fractions: Sequence[float] = (0.25, 0.5, 0.75),
    seed: int = 1,
    crash_rank: int = 1,
    drop_rate: float = 0.0,
    **kw,
) -> list[ChaosResult]:
    """Crash one rank at a fraction of the fault-free makespan; recover."""
    nprocs = kw.get("nprocs", 4)
    if not 0 <= crash_rank < nprocs:
        raise ValueError(f"crash_rank {crash_rank} out of range for {nprocs} ranks")
    probe = run_chaos(plan=None, **kw)  # fault-free run fixes the timescale
    results = []
    for frac in fractions:
        plan = FaultPlan(
            seed=seed,
            drop_rate=drop_rate,
            rank_faults=(RankFault(rank=crash_rank, time=frac * probe.baseline_time),),
        )
        results.append(run_chaos(plan=plan, baseline_time=probe.baseline_time, **kw))
    return results


@dataclass
class ProcChaosResult:
    """Outcome of one real-process fault-injection run."""

    bench: str
    nprocs: int
    fault: ProcFault
    completed: bool = False
    restarts: int = 0
    bitwise: bool = False  # recovered result == fault-free result, bitwise
    verified: Optional[bool] = None  # NPB verification on the reference grid
    wall_fault_free: float = 0.0
    wall_chaotic: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.completed and self.bitwise and self.verified is not False


def run_proc_chaos(
    bench: str = "sp",
    nprocs: int = 4,
    shape: tuple[int, int, int] = VERIFY_GRID,
    niter: int = VERIFY_STEPS,
    kill_rank: int = 1,
    after_iteration: int = 2,
    kind: str = "kill",
    checkpoint_interval: int = 1,
    timeout: float = 300.0,
    config: Optional[ProcConfig] = None,
) -> ProcChaosResult:
    """SIGKILL (or SIGSTOP) a live worker mid-run and assert recovery.

    Runs the dhpf strategy functionally on the real-process backend twice:
    once fault-free, once with ``kill_rank`` killed after it checkpoints
    ``after_iteration``.  The supervisor must detect the death, restart
    the gang from the latest coordinated checkpoint, and produce a result
    bitwise-identical to the fault-free run (and, on the reference
    problem, NPB-verified).
    """
    cfg = config or ProcConfig(
        heartbeat_interval=0.02,
        heartbeat_timeout=30.0 if kind == "kill" else 2.0,
        max_restarts=2,
        restart_backoff=0.05,
    )
    base = run_parallel(
        bench, "dhpf", nprocs, shape, niter, functional=True,
        record_trace=False, executor="process", timeout=timeout,
        executor_config=cfg,
    )
    fault = ProcFault(rank=kill_rank, kind=kind, after_iteration=after_iteration)
    out = ProcChaosResult(bench, nprocs, fault, wall_fault_free=base.wall_time)
    if base.executor != "process":
        out.detail = "process backend unavailable (degraded to virtual machine)"
        return out
    store = CheckpointStore()
    try:
        chaotic = run_parallel(
            bench, "dhpf", nprocs, shape, niter, functional=True,
            record_trace=False, executor="process", timeout=timeout,
            executor_config=cfg, proc_fault=fault,
            checkpoint=CheckpointConfig(store=store, interval=checkpoint_interval),
        )
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        out.detail = f"{type(exc).__name__}: {exc}"
        return out
    out.completed = True
    out.restarts = chaotic.restarts
    out.wall_chaotic = chaotic.wall_time
    out.bitwise = bool(np.array_equal(base.u, chaotic.u))
    if chaotic.executor != "process":
        out.detail = "chaotic run degraded to the virtual machine"
    if out.bitwise:
        out.verified = verify_field(bench, chaotic.u, shape, niter)
    return out


def format_proc_chaos(results: Sequence[ProcChaosResult]) -> str:
    """ASCII table of real-process fault-injection outcomes."""
    title = "Chaos: real-process faults (SIGKILL/SIGSTOP live workers)"
    lines = [title, "=" * len(title)]
    hdr = (
        f"{'bench':>5} {'P':>3} {'fault':>6} {'rank':>4} {'after_it':>8} "
        f"{'done':>5} {'restarts':>8} {'bitwise':>7} {'verified':>8} "
        f"{'wall_ok':>8} {'wall_chaos':>10}"
    )
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for r in results:
        verified = "-" if r.verified is None else ("yes" if r.verified else "NO")
        lines.append(
            f"{r.bench:>5} {r.nprocs:>3} {r.fault.kind:>6} {r.fault.rank:>4} "
            f"{str(r.fault.after_iteration):>8} "
            f"{'yes' if r.completed else 'NO':>5} {r.restarts:>8} "
            f"{'yes' if r.bitwise else 'NO':>7} {verified:>8} "
            f"{r.wall_fault_free:>7.2f}s {r.wall_chaotic:>9.2f}s"
        )
        if r.detail:
            lines.append(f"      note: {r.detail}")
    return "\n".join(lines)


def format_chaos(results: Sequence[ChaosResult], title: str = "Chaos sweep") -> str:
    """ASCII table in the style of the repro.eval tables."""
    lines = [title, "=" * len(title)]
    hdr = (
        f"{'bench':>5} {'strat':>8} {'P':>3} {'drop':>6} {'crashes':>8} "
        f"{'tries':>5} {'done':>5} {'verified':>8} {'t_virt':>10} {'overhead':>9}"
    )
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for r in results:
        verified = "-" if r.verified is None else ("yes" if r.verified else "NO")
        lines.append(
            f"{r.bench:>5} {r.strategy:>8} {r.nprocs:>3} {r.drop_rate:>6.2f} "
            f"{len(r.crash_times):>8} {r.attempts:>5} "
            f"{'yes' if r.completed else 'NO':>5} {verified:>8} "
            f"{r.virtual_time:>10.4f} {r.overhead:>8.1%}"
        )
    return "\n".join(lines)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}"
        ) from None


def register(sub) -> None:
    """Add the ``chaos`` subcommand (simulated, real-process and
    compile-service fault injection)."""
    p = sub.add_parser("chaos", help="NAS runs under injected faults")
    p.add_argument("--bench", default="sp", choices=["sp", "bt"],
                   help="benchmark")
    p.add_argument("--strategy", default="dhpf", choices=["dhpf", "handmpi"],
                   help="parallel strategy")
    p.add_argument("--nprocs", type=int, default=4,
                   help="processors (default 4, the class-S grid)")
    p.add_argument("--drop", default=(0.0, 0.05, 0.1, 0.25), type=_float_list,
                   help="comma list of message drop rates")
    p.add_argument("--crash-frac", default=(0.5,), type=_float_list,
                   help="comma list of crash times as fractions of the "
                        "fault-free makespan (empty to skip the crash sweep)")
    p.add_argument("--seed", type=int, default=1, help="fault-plan seed")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock budget per run in host seconds (typed "
                        "ExecutorTimeout on expiry)")
    p.add_argument("--real-process", action="store_true",
                   help="SIGKILL/SIGSTOP live workers of the real-process "
                        "backend instead of simulated faults")
    p.add_argument("--service", action="store_true",
                   help="fault the compile service instead (seeded worker "
                        "kills/stalls, cache corruption, disk faults, "
                        "concurrent writers)")
    p.add_argument("--seeds", type=int, default=25,
                   help="--service: number of seeded fault scenarios")
    p.add_argument("--start-seed", type=int, default=0,
                   help="--service: first seed")
    p.set_defaults(run=run)


def run(args) -> int:
    """Run the selected fault mode and print its table; exit 1 when a
    ``--service`` or ``--real-process`` run does not recover bitwise."""
    if args.service:
        from ..compile.chaos import format_service_chaos, run_service_chaos

        report = run_service_chaos(
            seeds=args.seeds, start_seed=args.start_seed,
            progress=lambda msg: print(f"  [chaos] {msg}", flush=True),
        )
        print(format_service_chaos(report))
        return 0 if report.ok else 1
    if args.real_process:
        results = [
            run_proc_chaos(bench=args.bench, nprocs=args.nprocs, kind=kind,
                           timeout=args.timeout or 300.0)
            for kind in ("kill", "stall")
        ]
        print(format_proc_chaos(results))
        return 0 if all(r.ok for r in results) else 1
    kw = dict(bench=args.bench, strategy=args.strategy, nprocs=args.nprocs,
              functional=args.strategy == "dhpf", timeout=args.timeout)
    print(format_chaos(
        drop_sweep(args.drop, seed=args.seed, **kw),
        f"Chaos: message-drop sweep ({args.bench}/{args.strategy}, "
        f"{args.nprocs} ranks, seed {args.seed})",
    ))
    if args.crash_frac:
        print()
        print(format_chaos(
            crash_sweep(args.crash_frac, seed=args.seed, **kw),
            f"Chaos: single-rank crash + checkpoint/restart "
            f"(crash rank 1 at makespan fractions {list(args.crash_frac)})",
        ))
    return 0
