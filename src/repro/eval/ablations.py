"""Programmatic ablation report for the design choices (DESIGN.md index).

Produces one table: each optimization toggled off in the dHPF schedule,
with per-timestep virtual time, messages, and volume deltas, plus the
analysis-level message counts from the compiler's own communication plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm import CommAnalyzer
from ..cp import CPGrouper
from ..cp.select import CPSelector
from ..distrib import DistributionContext, PDIM
from ..frontend import parse_source
from ..nas import kernels
from ..parallel import run_parallel
from ..parallel.dhpf import DhpfOptions
from ..runtime.model import IBM_SP2, MachineModel


@dataclass
class AblationRow:
    name: str
    time: float
    messages: int
    volume_bytes: int

    def delta_vs(self, base: "AblationRow") -> str:
        return f"{(self.time / base.time - 1) * 100:+6.1f}%"


def schedule_ablations(
    nprocs: int = 16,
    shape: tuple[int, int, int] = (64, 64, 64),
    model: MachineModel = IBM_SP2,
) -> list[AblationRow]:
    """dHPF SP schedule with each knob toggled (one timestep)."""
    configs = [
        ("baseline (all optimizations)", DhpfOptions()),
        ("§7 availability OFF", DhpfOptions(availability=False)),
        ("spurious inter-pipeline msg removed", DhpfOptions(spurious_between_pipelines=False)),
        ("§4.2 LOCALIZE OFF (fetch boundaries)", DhpfOptions(localize=False)),
        ("granularity 1 (fine)", DhpfOptions(granularity=1)),
        ("granularity 64 (coarse)", DhpfOptions(granularity=64)),
    ]
    rows = []
    for name, opt in configs:
        r = run_parallel("sp", "dhpf", nprocs, shape, 1, model,
                         functional=False, record_trace=True, options=opt)
        msgs = r.trace.messages()
        rows.append(AblationRow(name, r.time, len(msgs), sum(m.nbytes for m in msgs)))
    return rows


def analysis_ablations() -> dict[str, dict]:
    """Compiler-plan level: y_solve message/volume with each analysis off."""
    ev = {"n": 17, "m": 0}
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, nprocs=4, params=ev)
    loop = sub.body[0]
    res = CPGrouper(ctx, CPSelector(ctx, eval_params=ev)).group(loop, params=ev)
    binding = {**ev, PDIM(0): 0, PDIM(1): 0}
    out = {}
    for name, kw in [
        ("baseline", {}),
        ("availability off", {"use_availability": False}),
        ("coalescing off", {"coalesce": False}),
        ("both off", {"use_availability": False, "coalesce": False}),
    ]:
        plan = CommAnalyzer(loop, res.cps, ctx, ev, **kw).analyze()
        out[name] = plan.summary(binding)
    return out


def format_ablations(rows: list[AblationRow], analysis: dict[str, dict]) -> str:
    """Render both ablation tables as text."""
    base = rows[0]
    lines = ["Schedule-level ablations (dHPF SP, Class A grid, 16 procs, 1 timestep):"]
    lines.append(f"{'configuration':40s} {'time':>9s} {'Δ':>8s} {'msgs':>6s} {'MB':>7s}")
    for r in rows:
        lines.append(
            f"{r.name:40s} {r.time:8.3f}s {r.delta_vs(base):>8s} "
            f"{r.messages:6d} {r.volume_bytes / 1e6:7.2f}"
        )
    lines.append("")
    lines.append("Analysis-level (compiler comm plans for y_solve, per nest execution):")
    for name, s in analysis.items():
        lines.append(
            f"  {name:20s}: {s['messages']:5d} messages, {s['volume']:6d} elements, "
            f"{s['eliminated']} reads eliminated, {s['coalesced']} events coalesced"
        )
    return "\n".join(lines)


def register(sub) -> None:
    """Add the ``ablations`` subcommand."""
    p = sub.add_parser("ablations", help="each optimization toggled off")
    p.add_argument("--nprocs", type=int, default=16, help="processors")
    p.set_defaults(run=run)


def run(args) -> int:
    """Print the schedule- and analysis-level ablation tables."""
    print(format_ablations(schedule_ablations(args.nprocs), analysis_ablations()))
    return 0
