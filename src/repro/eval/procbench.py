"""Process-backend verification harness: ``python -m repro.eval proc``.

Runs every paper kernel (both codegen backends, both targets) and the NAS
SP/BT class-S dhpf solvers on the supervised real-process executor and
asserts the results are bitwise-identical to the virtual machine — which
the tier-1 suite in turn pins bitwise to the serial interpreter/solver, so
one pass here closes the chain serial == virtual == real processes.  The
NAS rows additionally re-check directly against the serial solver and the
pinned NPB residuals.

``--smoke`` is the CI subset (one paper kernel + one class-S kernel,
vector backend).  Wall-clock of the process executor is not measured here:
that is ``bench/``'s ``rhs-W-proc`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..nas.specs import KernelSpec, bitwise_identical, kernel_specs, seed_init
from ..nas.verify import VERIFY_GRID, VERIFY_STEPS, verify_field
from ..parallel import run_parallel
from ..runtime import procexec


@dataclass
class ProcCheck:
    """One (kernel, backend, target) compared across executors."""

    name: str
    backend: str
    target: str  # 'mpi' | 'shmem'
    nprocs: int
    bitwise: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.bitwise and not self.detail


@dataclass
class DhpfProcRow:
    """One NAS class-S solver compared across executors."""

    bench: str
    nprocs: int
    executor: str  # what actually ran ("process", or "virtual" if degraded)
    bitwise: bool
    verified: bool
    restarts: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.executor == "process" and self.bitwise and self.verified


@dataclass
class ProcReport:
    checks: list[ProcCheck] = field(default_factory=list)
    dhpf: list[DhpfProcRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and all(r.ok for r in self.dhpf)


def _check_kernel(
    spec: KernelSpec, backend: str, timeout: float
) -> list[ProcCheck]:
    ck = spec.compile(backend)
    seed = seed_init(ck, spec.seed_bias)

    def shinit(A):
        seed(0, A)

    out: list[ProcCheck] = []
    for target, vm_run, init in (
        ("mpi", ck.run, seed), ("shmem", ck.run_shmem, shinit),
    ):
        vm_result = vm_run(dict(spec.scalars), init=init)
        try:
            proc_result = procexec.run_kernel(
                ck, dict(spec.scalars), init=init, target=target,
                timeout=timeout,
            )
            out.append(ProcCheck(
                spec.name, backend, target, spec.nprocs,
                bitwise_identical(vm_result, proc_result),
            ))
        except procexec.ExecutorError as exc:
            out.append(ProcCheck(
                spec.name, backend, target, spec.nprocs, False,
                detail=f"{type(exc).__name__}: {exc}",
            ))
    return out


def _check_dhpf(bench: str, timeout: float) -> DhpfProcRow:
    base = run_parallel(
        bench, "dhpf", 4, VERIFY_GRID, VERIFY_STEPS, functional=True,
        record_trace=False, timeout=timeout,
    )
    pr = run_parallel(
        bench, "dhpf", 4, VERIFY_GRID, VERIFY_STEPS, functional=True,
        record_trace=False, executor="process", timeout=timeout,
    )
    detail = "; ".join(d.message for d in pr.diagnostics)
    return DhpfProcRow(
        bench, 4, pr.executor, bool(np.array_equal(base.u, pr.u)),
        verify_field(bench, pr.u), pr.restarts, detail,
    )


def run_proc_verify(
    only: Optional[str] = None,
    backends: Sequence[str] = ("vector", "scalar"),
    smoke: bool = False,
    timeout: float = 300.0,
    progress: Optional[Callable[[str], None]] = None,
) -> ProcReport:
    """Verify the process backend against the virtual machine.

    ``smoke`` runs the CI subset: the first paper kernel plus one NAS
    class-S kernel, vector backend only, plus the SP dhpf solver."""
    specs = kernel_specs()
    if smoke:
        specs = [specs[0]] + [s for s in specs if s.class_s][:1]
        backends = ("vector",)
    if only:
        specs = [s for s in specs if only.lower() in s.name.lower()]
    report = ProcReport()
    for spec in specs:
        for backend in backends:
            if progress is not None:
                progress(f"{spec.name} [{backend}]")
            report.checks.extend(_check_kernel(spec, backend, timeout))
    benches = ("sp",) if smoke else ("sp", "bt")
    for bench in benches:
        if progress is not None:
            progress(f"NAS {bench} class S dhpf")
        report.dhpf.append(_check_dhpf(bench, timeout))
    return report


def format_proc(report: ProcReport) -> str:
    """ASCII tables (kernels, then NAS solvers) plus a PASS/FAIL verdict."""
    title = "Process backend vs virtual machine (bitwise)"
    lines = [title, "=" * len(title)]
    hdr = (
        f"{'kernel':<28} {'backend':>7} {'target':>6} {'P':>3} "
        f"{'bitwise':>7}"
    )
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for c in report.checks:
        lines.append(
            f"{c.name:<28} {c.backend:>7} {c.target:>6} {c.nprocs:>3} "
            f"{'yes' if c.bitwise else 'NO':>7}"
        )
        if c.detail:
            lines.append(f"    note: {c.detail}")
    lines.append("")
    hdr2 = (
        f"{'NAS class S (dhpf)':<20} {'P':>3} {'executor':>8} {'bitwise':>7} "
        f"{'verified':>8} {'restarts':>8}"
    )
    lines.append(hdr2)
    lines.append("-" * len(hdr2))
    for r in report.dhpf:
        lines.append(
            f"{r.bench:<20} {r.nprocs:>3} {r.executor:>8} "
            f"{'yes' if r.bitwise else 'NO':>7} "
            f"{'yes' if r.verified else 'NO':>8} {r.restarts:>8}"
        )
        if r.detail:
            lines.append(f"    note: {r.detail}")
    lines.append("")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)


def register(sub) -> None:
    """Add the ``proc`` subcommand."""
    p = sub.add_parser("proc", help="real-process backend vs VM, bitwise")
    p.add_argument("--bench-kernel", default=None, metavar="SUBSTR",
                   help="only kernels whose name contains SUBSTR")
    p.add_argument("--skip-scalar", action="store_true",
                   help="verify the vector backend only")
    p.add_argument("--smoke", action="store_true",
                   help="CI subset (one paper kernel + one NAS class-S "
                        "kernel, vector backend)")
    p.add_argument("--timeout", type=float, default=300.0, metavar="S",
                   help="wall-clock budget per run in host seconds (typed "
                        "ExecutorTimeout on expiry)")
    p.set_defaults(run=run)


def run(args) -> int:
    """Print the process-vs-VM tables; exit 1 unless every row is bitwise."""
    report = run_proc_verify(
        only=args.bench_kernel,
        backends=("vector",) if args.skip_scalar else ("vector", "scalar"),
        smoke=args.smoke,
        timeout=args.timeout,
        progress=lambda msg: print(f"  [proc] {msg}", flush=True),
    )
    print(format_proc(report))
    return 0 if report.ok else 1
