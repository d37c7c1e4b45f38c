"""The chaos runner: one seed → inject → check-against-reference loop.

Every fault harness in the repository is :func:`chaos_loop` over a
:class:`Subject`: the subject's fault-free *reference* is computed once,
then each seeded trial runs one of the subject's *injectors*, compares
what survived with the reference bitwise, and is probed for what it left
behind (:func:`leak_probe`).  Each trial is one :class:`ChaosRow`;
:func:`format_chaos` is the one table.

===========  ==================================================================
subject      reference → injectors
===========  ==================================================================
``vm``       the serial solver's field (NPB-verified), and the fault-free
             run's virtual-time makespan → message drops at a rate, a
             single-rank crash at a fraction of the makespan
             (:func:`vm_subject`; the reliable transport absorbs drops, a
             crash restarts from the latest coordinated checkpoint; a sweep:
             every seed runs every injector)
``process``  the serial solver's field (NPB-verified) → SIGKILL / SIGSTOP of
             a live worker of the real-process backend, victim rank and
             iteration drawn from the seed (:func:`process_subject`; the
             supervisor restarts the gang from the latest checkpoint)
``service``  the fault-free compile fingerprints → pool worker kills and
             stalls, plan-cache corruption, ENOSPC / EIO, concurrent cache
             writers (:mod:`repro.compile.chaos`)
===========  ==================================================================

The invariants every row of every subject must hold (a broken one is a
line in ``row.problems``, and a row is ok when there is none): the trial
completed — one that raised is a failed row, never an aborted sweep, and
the row says whether the error was a typed
:class:`~repro.supervise.ExecutorError` or an untyped escape; its result
is bitwise the reference; and nothing leaked — no child process,
shared-memory segment or compile-pool supervisor the trial started is
still live, and no stray cache ``*.tmp`` file is left.  A hang is caught
by the subject's own enforced timeouts (``pool.wait``, ``run_parallel``),
whose typed error fails the row like any other.

``python -m repro.eval chaos`` runs the VM subject (``--real-process`` and
``--service`` select the others), seeds ``--seed`` … ``--seed + --seeds
- 1`` (default: one pass over the subject's injectors), prints the table
and exits 1 unless every row is ok.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from ..compile.cache import PlanCache, PlanCacheConfig
from ..nas.verify import VERIFY_GRID, VERIFY_STEPS, serial_reference
from ..parallel import run_parallel
from ..parallel.checkpoint import CheckpointStore
from ..runtime import procexec
from ..runtime.faults import FaultPlan, RankCrashed, RankFault
from ..runtime.model import MachineModel, TEST_MACHINE
from ..runtime.procexec import ProcConfig, ProcFault
from ..supervise import ExecutorError


@dataclass
class ChaosRow:
    """One seeded trial: what was injected, how the subject recovered, and
    every invariant it broke (``problems``; the row is ok without any)."""

    subject: str
    scenario: str
    seed: int
    injected: int = 0  # faults seen to land
    #: vm: attempts - 1; process: gang restarts; service: pool retries
    recoveries: int = 0
    elapsed: float = 0.0  # host seconds, trial and comparison
    problems: list[str] = field(default_factory=list)
    completed: bool = False
    verified: Optional[bool] = None  # serial solver + NPB (None: not numeric)
    virtual_time: Optional[float] = None  # vm: incl. crashed attempts
    baseline_time: Optional[float] = None  # vm: fault-free makespan

    @property
    def attempts(self) -> int:
        return self.recoveries + 1

    @property
    def overhead(self) -> Optional[float]:
        """Resilience overhead: extra virtual time relative to fault-free."""
        if not self.baseline_time or self.virtual_time is None:
            return None
        return self.virtual_time / self.baseline_time - 1.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        """One line: the row's verdict, counts, and problems."""
        extra = f"; {'; '.join(self.problems)}" if self.problems else ""
        return (f"{self.subject} seed {self.seed} {self.scenario}: "
                f"{'ok' if self.ok else 'FAILED'} [{self.injected} faults, "
                f"{self.recoveries} recoveries, {self.elapsed:.1f}s]{extra}")


#: ``inject(reference, seed, row, scratch)``: run the subject through the
#: fault, count ``row.injected`` / ``row.recoveries``, add any
#: scenario-specific problem, and return the result (None: not completed)
Injector = Callable[[Any, int, ChaosRow, str], Any]


@dataclass
class Subject:
    """What :func:`chaos_loop` faults: a fault-free ``reference()``, a
    table of injectors, and ``compare(reference, result, row)``, which
    records a result that is not bitwise the reference as a problem.
    Seeds rotate through the injectors (seed ``s`` runs injector ``s % n``)
    unless the subject is a ``sweep``, where every seed runs each one."""

    name: str
    reference: Callable[[], Any]
    injectors: dict[str, Injector]
    compare: Callable[[Any, Any, ChaosRow], None]
    sweep: bool = False

    @property
    def default_seeds(self) -> int:
        """Seeds for one pass over the injectors."""
        return 1 if self.sweep else len(self.injectors)


def leak_snapshot() -> dict[str, set]:
    """What is live in this process now, by kind: child processes (pids),
    this process's shared-memory segments, and running compile-pool
    supervisor threads (thread idents)."""
    return {
        "orphan processes": {p.pid for p in mp.active_children()},
        "leaked shared-memory segments": set(procexec.leaked_segments()),
        "running compile-pool supervisor threads": {
            t.ident for t in threading.enumerate() if t.name == "compile-pool"
        },
    }


def leak_probe(
    before: dict[str, set], directory: Optional[str] = None,
) -> list[str]:
    """What a trial left behind, one problem line per kind (empty when
    clean): what :func:`leak_snapshot` finds live now that was not in
    *before* (the snapshot taken before the trial), and ``*.tmp`` files
    under the plan-cache *directory*."""
    for p in mp.active_children():
        if p.pid not in before["orphan processes"]:
            p.join(timeout=2.0)
    problems = []
    for kind, live in leak_snapshot().items():
        new = sorted(live - before[kind])
        if new:
            problems.append(f"{kind} {new}")
    if directory is not None:
        stray = PlanCache(PlanCacheConfig(directory=directory)).stray_tmp_files()
        if stray:
            problems.append(f"{len(stray)} stray tmp files: {stray[:2]}")
    return problems


def chaos_loop(
    subject: Subject,
    seeds: Iterable[int],
    progress: Optional[Callable[[str], None]] = None,
) -> list[ChaosRow]:
    """Compute *subject*'s reference, then run one row per seeded trial
    and check it against the invariants (module docstring).  Each trial
    gets a fresh *scratch* directory path (created by the injector if it
    wants one — the leak probe looks in it for temp files) and is charged
    only with what it left live beyond what was live before it."""
    names = list(subject.injectors)
    if subject.sweep:
        cases = [(name, s) for s in seeds for name in names]
    else:
        cases = [(names[s % len(names)], s) for s in seeds]
    ref = subject.reference()
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        for i, (scenario, seed) in enumerate(cases):
            row = ChaosRow(subject.name, scenario, seed)
            scratch = os.path.join(root, f"trial-{i}")
            before = leak_snapshot()
            t0 = time.monotonic()
            try:
                got = subject.injectors[scenario](ref, seed, row, scratch)
                if got is None:
                    row.problems.append("did not complete")
                else:
                    row.completed = True
                    subject.compare(ref, got, row)
            except ExecutorError as exc:
                row.problems.append(
                    f"did not complete: {type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - a row, not an abort
                row.problems.append(f"untyped {type(exc).__name__}: {exc}")
            row.elapsed = time.monotonic() - t0
            row.problems += leak_probe(before, scratch)
            rows.append(row)
            if progress:
                progress(row.describe())
    return rows


def format_chaos(rows: Sequence[ChaosRow], title: str = "Chaos") -> str:
    """The one chaos table: a line per row with its problems beneath, a
    per-scenario summary when scenarios repeat, and the verdict."""
    def yn(flag: Optional[bool]) -> str:
        return "-" if flag is None else ("yes" if flag else "NO")

    lines = [title, "=" * len(title)]
    hdr = (f"{'seed':>4} {'scenario':<20} {'faults':>6} {'recov':>5} "
           f"{'done':>4} {'verified':>8} {'t_virt':>8} {'overhead':>8} "
           f"{'wall':>6} {'ok':>3}")
    lines += [hdr, "-" * len(hdr)]
    for r in rows:
        virt = "-" if r.virtual_time is None else f"{r.virtual_time:.4f}"
        over = "-" if r.overhead is None else f"{r.overhead:.1%}"
        lines.append(
            f"{r.seed:>4} {r.scenario:<20} {r.injected:>6} {r.recoveries:>5} "
            f"{yn(r.completed):>4} {yn(r.verified):>8} {virt:>8} {over:>8} "
            f"{r.elapsed:>5.1f}s {yn(r.ok):>3}"
        )
        lines += [f"     ! {p}" for p in r.problems]
    by_scenario: dict[str, list[ChaosRow]] = {}
    for r in rows:
        by_scenario.setdefault(r.scenario, []).append(r)
    if len(by_scenario) < len(rows):
        lines.append("-" * len(hdr))
        lines += [
            f"{name:<20}: {sum(r.ok for r in runs)}/{len(runs)} ok, "
            f"{sum(r.injected for r in runs)} faults injected"
            for name, runs in by_scenario.items()
        ]
    bad = sum(not r.ok for r in rows)
    lines.append(
        f"CHAOS FAILED: {bad} of {len(rows)} rows" if bad else
        f"CHAOS PASSED: {len(rows)} rows completed, bitwise equal to the "
        "reference, errors typed, nothing leaked"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the subjects
# ---------------------------------------------------------------------------

#: attempts a VM trial gets before it counts as not completed
VM_ATTEMPTS = 8


def _check_serial(serial: tuple[np.ndarray, bool], got, row: ChaosRow) -> None:
    """The recovered field is bitwise the serial solver's *serial* field
    (a :func:`~repro.nas.verify.serial_reference`), which on the reference
    problem is NPB-verified too."""
    u, npb_ok = serial
    same = bool(np.array_equal(got.u, u))
    row.verified = same and npb_ok
    if not same:
        row.problems.append("field differs from the serial solver")
    elif not npb_ok:
        row.problems.append("the serial solver fails NPB verification")


def vm_subject(
    bench: str = "sp",
    strategy: str = "dhpf",
    nprocs: int = 4,
    shape: tuple[int, int, int] = VERIFY_GRID,
    niter: int = VERIFY_STEPS,
    model: MachineModel = TEST_MACHINE,
    functional: bool = True,
    drops: Sequence[float] = (0.0, 0.05, 0.1, 0.25),
    crashes: Sequence[float] = (),
    crash_drop: float = 0.0,
    timeout: Optional[float] = None,
) -> Subject:
    """NAS runs (:func:`repro.parallel.run_parallel`) on the virtual
    machine: one injector per message-drop rate in *drops*, and one per
    crash of rank 1 at each fraction in *crashes* of the fault-free
    makespan (with *crash_drop* drops beside it).  A crash costs the
    virtual time in flight when the rank died and restarts from the
    latest checkpoint (taken every iteration; at most
    :data:`VM_ATTEMPTS` attempts).  ``timeout`` bounds each run's host
    wall-clock time (typed ``ExecutorTimeout``).  The reference is
    ``(fault-free run, serial field)``; work-model runs
    (``functional=False``) have no field, and their serial slot is None."""
    if crashes and nprocs < 2:
        raise ValueError(f"a crash of rank 1 needs 2 ranks, got {nprocs}")

    def run(**kw):
        return run_parallel(bench, strategy, nprocs, shape, niter, model,
                            functional=functional, record_trace=False,
                            timeout=timeout, **kw)

    def reference():
        serial = serial_reference(bench, shape, niter) if functional else None
        return run(), serial

    def injector(drop_rate: float, crash_frac: Optional[float] = None) -> Injector:
        def inject(ref, seed: int, row: ChaosRow, scratch: str):
            fault_free, _serial = ref
            faults = () if crash_frac is None else (
                RankFault(rank=1, time=crash_frac * fault_free.time),
            )
            plan = (FaultPlan(seed=seed, drop_rate=drop_rate, rank_faults=faults)
                    if drop_rate or faults else None)
            ckpt = CheckpointStore()
            row.virtual_time = 0.0
            for attempt in range(VM_ATTEMPTS):
                row.recoveries = attempt
                try:
                    got = run(faults=plan, checkpoint=ckpt)
                except RankCrashed as crash:
                    row.injected += 1
                    row.virtual_time += crash.time
                    continue
                row.virtual_time += got.time
                return got
            return None

        return inject

    def compare(ref, got, row: ChaosRow) -> None:
        fault_free, serial = ref
        row.baseline_time = fault_free.time
        if serial is not None:
            _check_serial(serial, got, row)

    injectors = {f"drop {rate:.2f}": injector(rate) for rate in drops}
    injectors.update(
        (f"crash r1@{frac:.0%}"
         + (f" drop {crash_drop:.2f}" if crash_drop else ""),
         injector(crash_drop, frac))
        for frac in crashes
    )
    return Subject("vm", reference, injectors, compare, sweep=True)


def process_subject(
    bench: str = "sp", nprocs: int = 4, timeout: float = 300.0,
) -> Subject:
    """The dhpf strategy run functionally on the class-S problem on the
    supervised real-process backend (checkpointing every iteration):
    ``kill`` SIGKILLs and ``stall`` SIGSTOPs a live worker once it has
    checkpointed an iteration — rank and iteration drawn from the seed,
    the iteration one with work after it.  The reference is the serial
    solver's field (no fault-free gang runs)."""
    shape, niter = VERIFY_GRID, VERIFY_STEPS

    def injector(kind: str) -> Injector:
        def inject(ref, seed: int, row: ChaosRow, scratch: str):
            rng = random.Random(f"chaos:{seed}:{kind}")
            fault = ProcFault(
                rank=rng.randrange(nprocs), kind=kind,
                after_iteration=rng.randrange(1, niter - 1),
            )
            got = run_parallel(
                bench, "dhpf", nprocs, shape, niter, functional=True,
                record_trace=False, executor="process", timeout=timeout,
                executor_config=ProcConfig(
                    heartbeat_interval=0.02,
                    heartbeat_timeout=30.0 if kind == "kill" else 2.0,
                    max_restarts=2, restart_backoff=0.05,
                ),
                proc_fault=fault,
                checkpoint=CheckpointStore(),
            )
            row.recoveries = got.restarts
            row.injected = int(got.restarts > 0)
            if not got.restarts:
                row.problems.append(
                    f"the {kind} of rank {fault.rank} after iteration "
                    f"{fault.after_iteration} never landed"
                )
            return got

        return inject

    return Subject(
        "process", lambda: serial_reference(bench, shape, niter),
        {kind: injector(kind) for kind in ("kill", "stall")},
        _check_serial,
    )


def service_subject() -> Subject:
    """The compile pool and plan cache (:mod:`repro.compile.chaos`)."""
    from ..compile import chaos as service

    return Subject("service", service.baseline_fingerprints, service.INJECTORS,
                   service.compare)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}"
        ) from None


def register(sub) -> None:
    """Add the ``chaos`` subcommand (virtual-machine, real-process and
    compile-service fault injection)."""
    p = sub.add_parser("chaos", help="NAS runs and compiles under injected faults")
    p.add_argument("--bench", default="sp", choices=["sp", "bt"],
                   help="benchmark")
    p.add_argument("--strategy", default="dhpf", choices=["dhpf", "handmpi"],
                   help="parallel strategy (virtual machine)")
    p.add_argument("--nprocs", type=int, default=4,
                   help="processors (default 4, the class-S grid)")
    p.add_argument("--drop", default=(0.0, 0.05, 0.1, 0.25), type=_float_list,
                   help="comma list of message drop rates")
    p.add_argument("--crash-frac", default=(0.5,), type=_float_list,
                   help="comma list of crash times of rank 1 as fractions of "
                        "the fault-free makespan (empty: no crashes)")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--seeds", type=int, default=None,
                   help="number of seeds (default: one pass over the "
                        "subject's faults)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock budget per run in host seconds (typed "
                        "ExecutorTimeout on expiry; real processes: 300)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--real-process", action="store_true",
                      help="SIGKILL/SIGSTOP live workers of the real-process "
                           "backend instead of simulated faults")
    mode.add_argument("--service", action="store_true",
                      help="fault the compile service instead (seeded worker "
                           "kills/stalls, cache corruption, disk faults, "
                           "concurrent writers)")
    p.set_defaults(run=run)


def run(args) -> int:
    """Run the selected subject over the seeds and print its table; exit 1
    unless every row is ok."""
    if args.service:
        subject = service_subject()
        title = "Chaos: compile service (supervised pool + plan cache)"
    elif args.real_process:
        subject = process_subject(bench=args.bench, nprocs=args.nprocs,
                                  timeout=args.timeout or 300.0)
        title = (f"Chaos: real processes ({args.bench}, {args.nprocs} ranks, "
                 "SIGKILL/SIGSTOP a live worker)")
    else:
        subject = vm_subject(bench=args.bench, strategy=args.strategy,
                             nprocs=args.nprocs, drops=args.drop,
                             crashes=args.crash_frac,
                             functional=args.strategy == "dhpf",
                             timeout=args.timeout)
        title = (f"Chaos: virtual machine ({args.bench}/{args.strategy}, "
                 f"{args.nprocs} ranks, message drops + crash/restart)")
    seeds = range(args.seed, args.seed + (args.seeds or subject.default_seeds))
    rows = chaos_loop(subject, seeds,
                      lambda msg: print(f"  [chaos] {msg}", flush=True))
    print(format_chaos(rows, title))
    return 0 if all(r.ok for r in rows) else 1
