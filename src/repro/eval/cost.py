"""``python -m repro.eval cost`` — static LogGP cost reports.

Three sections:

1. **Per-kernel cost report** — for every paper kernel and the NAS
   class-S pipelines: statically derived message/byte totals, per-rank
   load balance, replicated-work fraction, wavefront depth, and the
   LogGP-predicted ``T(nprocs)``/speedup, plus any advisories.
2. **Predicted-vs-measured table** — each compilable kernel is replayed
   on the fault-free virtual machine with tracing on, and the static
   counts are compared with the observed per-rank counters.  The match
   must be **exact** (the analyzer computes the same sets the code
   generator routes); any difference is a failure (exit 1).
3. **Predicted scaling curve** — one communicating kernel re-analyzed at
   every rank count 2..25 (the paper's experimental range), folded
   through the machine model into a speedup curve, with closed forms in
   P for the message/byte counts when the series is affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..check.cost import (
    CURVE_PROCS,
    CostValidation,
    KernelCost,
    analysis_cost,
    closed_form,
    cost_advisories,
    kernel_cost,
    predicted_curve,
    scale_limit,
    sweep_cost,
    validate_against_trace,
    wildcard_grid,
)
from ..codegen import compile_kernel
from ..compile import scratch_cache
from ..nas.specs import KernelSpec, kernel_spec, seed_init
from ..runtime.model import IBM_SP2, MachineModel


@dataclass
class CostRow:
    """One kernel of the cost report."""

    name: str
    nprocs: int
    cost: KernelCost
    validation: Optional[CostValidation] = None  # None: analysis-only
    advisories: list = None


def _wildcard_spec_kernel(spec: KernelSpec, nprocs: int):
    """Compile *spec* at a rank count its declared PROCESSORS grid does
    not factor, by wildcarding the grid extents first."""
    from ..frontend import parse_source

    if spec.build is not None:
        sub = spec.build()
    else:
        prog = parse_source(spec.source)
        sub = next(iter(prog.units.values()))
    return compile_kernel(
        wildcard_grid(sub), nprocs=nprocs, params=spec.params
    )


#: ``repro.nas.specs`` keys of the exact-match matrix
_MATRIX = ("fig4.1", "fig4.2", "exact-rhs", "fig6.1", "sp-rhs-s", "bt-rhs-s")


def validation_matrix() -> list[tuple[KernelSpec, int, bool]]:
    """(spec, nprocs, needs_wildcard) rows of the exact-match matrix:
    every affine paper kernel at its figure's rank count, and the NAS
    SP/BT class-S pipelines at both 4 and 8 ranks."""
    rows = []
    for spec in map(kernel_spec, _MATRIX):
        rows.append((spec, spec.nprocs, False))
        if spec.class_s:
            rows.append((spec, 8 if spec.nprocs == 4 else 4, True))
    return rows


def cost_rows(
    only: Optional[str] = None,
    validate: bool = True,
    model: MachineModel = IBM_SP2,
    progress=None,
) -> list[CostRow]:
    """Compute (and, with *validate*, trace-check) the cost matrix."""
    from ..runtime.sim import VirtualMachine

    rows: list[CostRow] = []
    for spec, nprocs, wild in validation_matrix():
        name = f"{spec.name} @ {nprocs} ranks"
        if only is not None and only not in name:
            continue
        if progress:
            progress(f"analyzing {name}")
        if wild or spec.source is None:
            ck = _wildcard_spec_kernel(spec, nprocs)
        else:
            ck = compile_kernel(spec.source, nprocs, spec.params)
        cost = kernel_cost(ck)
        validation = None
        if validate:
            vm = VirtualMachine(nprocs, record_trace=True)
            ck.run(spec.scalars, init=seed_init(ck, spec.seed_bias), vm=vm)
            validation = validate_against_trace(cost, vm.trace)
        rows.append(CostRow(
            name=name, nprocs=nprocs, cost=cost, validation=validation,
            advisories=cost_advisories(cost, kernel=ck, model=model),
        ))
    # fig5.1 pipelines its communication (the code generator rejects it),
    # so it appears analysis-only: costed, never trace-validated.
    spec = kernel_spec("fig5.1")
    name = f"{spec.name} @ {spec.nprocs} ranks"
    row_name = f"{name} (pipelined, analysis-only)"
    if only is None or only in row_name:
        if progress:
            progress(f"analyzing {name} (analysis-only)")
        cost = analysis_cost(
            spec.source, spec.nprocs, spec.params, subject="y_solve"
        )
        rows.append(CostRow(
            name=row_name, nprocs=spec.nprocs, cost=cost,
            advisories=cost_advisories(cost, model=model),
        ))
    return rows


def format_cost_report(rows: Sequence[CostRow], model: MachineModel) -> str:
    """Render the per-kernel cost report: grid, message/byte totals,
    balance/replication/wavefront metrics, predicted time, advisories."""
    lines = [f"Static LogGP cost analysis (model: {model.name})", ""]
    for row in rows:
        c = row.cost
        lines.append(row.name)
        lines.append(
            f"  grid {'x'.join(map(str, c.grid_shape))}: "
            f"{c.messages} messages, {c.bytes} bytes"
            + ("" if c.exact else " (pipelined: per-rank lower bounds)")
        )
        lines.append(
            f"  load balance {c.imbalance():.3f} max/mean, "
            f"replicated work {c.replicated_fraction():.1%}, "
            f"wavefront depth {c.wavefront_depth}"
        )
        lines.append(
            f"  predicted T({c.nprocs}) = {c.predicted_time(model) * 1e3:.3f} ms, "
            f"speedup {c.predicted_speedup(model):.2f}"
        )
        for d in row.advisories or []:
            lines.append("  " + d.format())
        lines.append("")
    return "\n".join(lines)


def format_validation_table(rows: Sequence[CostRow]) -> tuple[str, bool]:
    """The predicted-vs-measured table; second return is overall success.
    The kernel column is as wide as the longest name."""
    w = max([len("kernel")] + [len(row.name) for row in rows])
    lines = [
        "Predicted vs measured (fault-free VM trace; exact match required):",
        f"  {'kernel':{w}s} {'pred msg':>8s} {'meas msg':>8s} "
        f"{'pred bytes':>10s} {'meas bytes':>10s}  verdict",
    ]
    ok = True
    for row in rows:
        v = row.validation
        if v is None:
            lines.append(f"  {row.name:{w}s} {'—':>8s} {'—':>8s} {'—':>10s} "
                         f"{'—':>10s}  not validated (analysis-only)")
            continue
        verdict = "exact" if v.ok else "MISMATCH"
        ok &= v.ok
        lines.append(
            f"  {row.name:{w}s} {v.predicted_messages:8d} "
            f"{v.measured_messages:8d} {v.predicted_bytes:10d} "
            f"{v.measured_bytes:10d}  {verdict}"
        )
        for m in v.mismatches:
            lines.append(f"      {m}")
    return "\n".join(lines), ok


def format_curve(
    source,
    params: dict,
    subject: str,
    model: MachineModel,
    procs: Sequence[int] = CURVE_PROCS,
    progress=None,
) -> str:
    """Predicted scaling curve of one kernel over *procs* ranks."""
    if progress:
        progress(f"sweeping {subject} over {len(list(procs))} rank counts")
    costs = sweep_cost(source, params, procs, subject=subject)
    curve = predicted_curve(costs, model)
    lines = [
        f"Predicted scaling of {subject} "
        f"(params {params}, model {model.name}):",
        f"  {'P':>3s} {'grid':>6s} {'msgs':>6s} {'bytes':>8s} "
        f"{'T(P) ms':>9s} {'speedup':>8s}",
    ]
    for c, pt in zip(costs, curve):
        lines.append(
            f"  {pt.nprocs:3d} {'x'.join(map(str, c.grid_shape)):>6s} "
            f"{pt.messages:6d} {pt.bytes:8d} {pt.time * 1e3:9.3f} "
            f"{pt.speedup:8.2f}"
        )
    msg_form = closed_form([(pt.nprocs, pt.messages) for pt in curve])
    byte_form = closed_form([(pt.nprocs, pt.bytes) for pt in curve])
    if msg_form is not None:
        lines.append(f"  closed form: messages(P) = {msg_form}")
    if byte_form is not None:
        lines.append(f"  closed form: bytes(P) = {byte_form}")
    knee = scale_limit(curve)
    if knee is not None:
        lines.append(
            f"  I-SCALE-LIMIT: speedup flattens at ~{knee.nprocs} ranks "
            f"(S={knee.speedup:.2f}) under the {model.name} model"
        )
    return "\n".join(lines)


def run_cost(
    only: Optional[str] = None,
    validate: bool = True,
    curve: bool = True,
    model: MachineModel = IBM_SP2,
    progress=None,
) -> tuple[str, bool]:
    """The whole ``eval cost`` report; returns (text, ok)."""
    with scratch_cache():
        rows = cost_rows(
            only=only, validate=validate, model=model, progress=progress
        )
    sections = [format_cost_report(rows, model)]
    ok = True
    if validate:
        table, ok = format_validation_table(rows)
        sections.append(table)
    if curve:
        spec = kernel_spec("fig4.2")
        sections.append("")
        sections.append(format_curve(
            spec.source, spec.params, "compute_rhs (fig4.2)",
            model, progress=progress,
        ))
    return "\n".join(sections), ok


def register(sub) -> None:
    """Add the ``cost`` subcommand."""
    p = sub.add_parser("cost", help="static LogGP cost reports")
    p.add_argument("--cost-kernel", default=None, metavar="SUBSTR",
                   help="only kernels whose name contains SUBSTR")
    p.add_argument("--no-validate", action="store_true",
                   help="skip the traced VM runs (report static counts only)")
    p.add_argument("--no-curve", action="store_true",
                   help="skip the 2..25-rank predicted scaling sweep")
    p.set_defaults(run=run)


def run(args) -> int:
    """Print the cost report; exit 1 when a static count diverges from the
    fault-free trace."""
    text, ok = run_cost(
        only=args.cost_kernel,
        validate=not args.no_validate,
        curve=not args.no_curve,
        progress=lambda msg: print(f"  [cost] {msg}", flush=True),
    )
    print(text)
    if not ok:
        print("COST VALIDATION FAILED: static counts diverge from the "
              "fault-free trace")
        return 1
    return 0
