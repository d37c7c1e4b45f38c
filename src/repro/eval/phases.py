"""Per-phase time breakdown — quantifying the paper's figure discussion.

§8.1 reads the SP space-time diagram phase by phase ("the largest loss of
efficiency is in the wavefront computations of the y_solve and z_solve
phases"; x_solve "is a totally local computation").  This report measures
each phase's share of a timestep per strategy, from the same traces that
draw Figures 8.1-8.4.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel import run_parallel
from ..runtime.model import IBM_SP2, MachineModel

#: canonical phase order per strategy
PHASES = {
    "handmpi": ["copy_faces", "compute_rhs", "x_solve", "y_solve", "z_solve", "add"],
    "dhpf": ["compute_rhs", "x_solve", "y_solve", "z_solve", "add"],
    "pgi": ["compute_rhs", "x_solve", "y_solve", "z_solve", "add"],
}


@dataclass
class PhaseBreakdown:
    """Phase windows and idle shares for one run."""

    bench: str
    strategy: str
    nprocs: int
    makespan: float
    #: phase -> (wall duration, mean busy fraction inside the phase window)
    phases: dict[str, tuple[float, float]]


def phase_breakdown(
    bench: str,
    strategy: str,
    nprocs: int = 16,
    shape: tuple[int, int, int] = (64, 64, 64),
    model: MachineModel = IBM_SP2,
) -> PhaseBreakdown:
    """Measure one timestep's phase structure on the virtual machine."""
    r = run_parallel(bench, strategy, nprocs, shape, 1, model,
                     functional=False, record_trace=True)
    tr = r.trace
    assert tr is not None
    out: dict[str, tuple[float, float]] = {}
    for phase in PHASES[strategy]:
        t0, t1 = tr.phase_window(phase)
        dur = max(t1 - t0, 0.0)
        if dur <= 0:
            out[phase] = (0.0, 0.0)
            continue
        busy = 0.0
        for ev in tr.events:
            if ev.phase == phase and ev.kind == "compute":
                busy += ev.duration
        out[phase] = (dur, busy / (dur * nprocs))
    return PhaseBreakdown(bench, strategy, nprocs, tr.makespan(), out)


def format_phase_table(breakdowns: list[PhaseBreakdown]) -> str:
    """Render several strategies side by side."""
    lines = []
    for b in breakdowns:
        lines.append(
            f"{b.bench.upper()} / {b.strategy} on {b.nprocs} procs "
            f"(one timestep = {b.makespan:.3f}s):"
        )
        for phase, (dur, eff) in b.phases.items():
            bar = "#" * int(40 * dur / b.makespan) if b.makespan else ""
            lines.append(
                f"  {phase:12s} {dur:7.4f}s ({dur / b.makespan:5.1%})  "
                f"busy {eff:5.1%}  {bar}"
            )
        lines.append("")
    return "\n".join(lines)


def register(sub) -> None:
    """Add the ``phases`` subcommand."""
    p = sub.add_parser("phases", help="per-phase share of an SP timestep")
    p.add_argument("--nprocs", type=int, default=16, help="processors")
    p.set_defaults(run=run)


def run(args) -> int:
    """Print the SP phase table for the three strategies."""
    print(format_phase_table([
        phase_breakdown("sp", strategy, args.nprocs)
        for strategy in ("handmpi", "dhpf", "pgi")
    ]))
    return 0
