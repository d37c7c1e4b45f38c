"""Figures 8.1-8.4: space-time diagrams from virtual machine traces.

The paper's figures show one row per processor: solid bars = computation,
thin bands = messages, white space = idle.  We render the same thing in
ASCII (one character column per time bucket: ``#`` compute, ``.`` idle,
``s``/``r`` communication) and export the raw interval series as JSON for
plotting elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..parallel import RunResult, run_parallel
from ..runtime import Trace
from ..runtime.model import IBM_SP2, MachineModel

FIGURES = {
    # figure id: (bench, strategy)
    "8.1": ("sp", "handmpi"),
    "8.2": ("sp", "dhpf"),
    "8.3": ("bt", "handmpi"),
    "8.4": ("bt", "dhpf"),
}


def render_spacetime(
    trace: Trace,
    width: int = 100,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """ASCII space-time diagram: one row per rank."""
    if t1 is None:
        t1 = trace.makespan()
    if t0 is None:
        t0 = 0.0
    span = max(t1 - t0, 1e-12)
    rows = []
    for rank in range(trace.nprocs):
        cells = ["."] * width
        # paint compute first, then overlay comm markers on idle cells
        for e in trace.for_rank(rank):
            if e.kind == "compute" and e.t1 > t0 and e.t0 < t1:
                i0 = max(int((e.t0 - t0) / span * width), 0)
                i1 = min(max(int((e.t1 - t0) / span * width), i0 + 1), width)
                for i in range(i0, i1):
                    cells[i] = "#"
        for e in trace.for_rank(rank):
            if e.kind in ("send", "recv") and e.t1 > t0 and e.t0 < t1:
                i = min(max(int((e.t0 - t0) / span * width), 0), width - 1)
                if cells[i] != "#":
                    cells[i] = "s" if e.kind == "send" else "r"
        rows.append(f"P{rank:<3d}|{''.join(cells)}|")
    header = f"t = [{t0:.4f}s .. {t1:.4f}s]   '#'=compute  's'/'r'=message  '.'=idle"
    return header + "\n" + "\n".join(rows)


@dataclass
class SpacetimeFigure:
    """One reproduced figure: the run, its trace, and renderings."""

    figure_id: str
    bench: str
    strategy: str
    nprocs: int
    result: RunResult

    @property
    def trace(self) -> Trace:
        assert self.result.trace is not None
        return self.result.trace

    def ascii(self, width: int = 100) -> str:
        title = (
            f"Figure {self.figure_id}: space-time of "
            f"{'hand-coded MPI' if self.strategy == 'handmpi' else 'dHPF-generated'} "
            f"{self.bench.upper()} ({self.nprocs} processors, one timestep)"
        )
        return title + "\n" + render_spacetime(self.trace, width)

    def idle_fractions(self) -> list[float]:
        return [self.trace.idle_fraction(r) for r in range(self.nprocs)]

    def mean_idle(self) -> float:
        f = self.idle_fractions()
        return sum(f) / len(f)

    def to_json(self) -> str:
        return json.dumps(
            {
                "figure": self.figure_id,
                "bench": self.bench,
                "strategy": self.strategy,
                "nprocs": self.nprocs,
                "trace": self.trace.to_series(),
            }
        )


def spacetime_figure(
    figure_id: str,
    nprocs: int = 16,
    shape: tuple[int, int, int] = (64, 64, 64),
    model: MachineModel = IBM_SP2,
) -> SpacetimeFigure:
    """Reproduce one of Figures 8.1-8.4 (16 processors, one timestep)."""
    bench, strategy = FIGURES[figure_id]
    result = run_parallel(
        bench, strategy, nprocs, shape, niter=1, model=model,
        functional=False, record_trace=True,
    )
    return SpacetimeFigure(figure_id, bench, strategy, nprocs, result)


def register(sub) -> None:
    """Add the ``figure-8.1`` .. ``figure-8.4`` subcommands."""
    for fid in FIGURES:
        p = sub.add_parser(f"figure-{fid}", help="space-time diagram")
        p.add_argument("--nprocs", type=int, default=16, help="processors")
        p.add_argument("--width", type=int, default=100,
                       help="ASCII figure width")
        p.add_argument("--json", action="store_true",
                       help="emit figure trace as JSON")
        p.set_defaults(run=run)


def run(args) -> int:
    """Print the figure named by ``args.target`` (ASCII, or JSON with ``--json``)."""
    fig = spacetime_figure(args.target.split("-", 1)[1], nprocs=args.nprocs)
    if args.json:
        print(fig.to_json())
    else:
        print(fig.ascii(args.width))
        print(f"\nmean idle fraction: {fig.mean_idle():.2%}")
    return 0
