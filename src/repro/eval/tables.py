"""Tables 8.1 / 8.2: hand-written MPI vs dHPF vs pghpf.

Execution times come from the virtual machine (a few timesteps are run and
scaled to the benchmark's iteration count — every timestep has an identical
schedule).  Relative speedup follows the paper's definition: speedup is
measured against the hand-written code on the *reference* processor count
(4 for Class A, and for BT Class B the 16-processor hand-written run),
assumed to have perfect speedup.  Relative efficiency divides a compiled
version's speedup by the hand-written version's at the same P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..nas.classes import CLASSES
from ..parallel import run_parallel
from ..runtime.model import IBM_SP2, MachineModel

#: the paper's measured values (seconds), for EXPERIMENTS.md comparison:
#: {bench: {class: {procs: (hand, dhpf, pgi)}}} — None where unavailable
PAPER_TIMES = {
    "sp": {
        "A": {2: (None, None, 1935), 4: (436, 454, 820), 8: (None, 273, 381),
              9: (209, 259, 382), 16: (132, 198, 222), 25: (88, 149, 198),
              32: (None, 127, 136)},
        "B": {2: (None, None, None), 4: (2094, 2312, 2312), 8: (None, 918, 1296),
              9: (1086, 1252, None), 16: (466, 572, 754), 25: (308, 459, 638),
              32: (None, 381, 508)},
    },
    "bt": {
        "A": {4: (650, 609, 590), 8: (None, 322, 318), 9: (304, 334, 315),
              16: (181, 182, 171), 25: (117, 143, 151), 27: (None, 137, 151),
              32: (None, 108, 102)},
        "B": {16: (715, 727, 814), 25: (461, 534, 632), 27: (None, 451, 503),
              32: (None, 401, 508)},
    },
}

#: square processor counts usable by the hand-written (multipartitioned) code
SQUARE = {1, 4, 9, 16, 25, 36}


@dataclass
class TableRow:
    """One row of Table 8.1 / 8.2."""

    nprocs: int
    nas_class: str
    time: dict[str, Optional[float]] = field(default_factory=dict)
    speedup: dict[str, Optional[float]] = field(default_factory=dict)
    efficiency: dict[str, Optional[float]] = field(default_factory=dict)
    paper_time: dict[str, Optional[float]] = field(default_factory=dict)


def _measure(bench: str, strategy: str, nprocs: int, shape, niter_model: int,
             niter_full: int, model: MachineModel) -> float:
    res = run_parallel(
        bench, strategy, nprocs, shape, niter_model, model,
        functional=False, record_trace=False,
    )
    return res.time / niter_model * niter_full


def build_table(
    bench: str,
    nas_class: str,
    procs: list[int],
    model: MachineModel = IBM_SP2,
    niter_model: int = 2,
    reference_procs: int | None = None,
) -> list[TableRow]:
    """Measure one benchmark/class across processor counts."""
    cls = CLASSES[nas_class]
    shape = cls.shape
    niter_full = cls.niter_sp if bench == "sp" else cls.niter_bt
    rows: list[TableRow] = []
    for p in procs:
        row = TableRow(p, nas_class)
        for strat in ("handmpi", "dhpf", "pgi"):
            if strat == "handmpi" and p not in SQUARE:
                row.time[strat] = None
                continue
            row.time[strat] = _measure(
                bench, strat, p, shape, niter_model, niter_full, model
            )
        paper = PAPER_TIMES.get(bench, {}).get(nas_class, {}).get(p)
        if paper:
            row.paper_time = dict(zip(("handmpi", "dhpf", "pgi"), paper))
        rows.append(row)
    # relative speedup vs the hand-written reference run
    ref_p = reference_procs or min(
        (r.nprocs for r in rows if r.time.get("handmpi")), default=None
    )
    ref_row = next((r for r in rows if r.nprocs == ref_p), None)
    if ref_row and ref_row.time.get("handmpi"):
        ref_time = ref_row.time["handmpi"]
        assert ref_time is not None
        for r in rows:
            for strat, t in r.time.items():
                r.speedup[strat] = None if t is None else ref_time * ref_p / t
            hand_s = r.speedup.get("handmpi")
            for strat in ("dhpf", "pgi"):
                s = r.speedup.get(strat)
                r.efficiency[strat] = (
                    None if s is None or not hand_s else s / hand_s
                )
    return rows


def table_8_1(
    classes: tuple[str, ...] = ("A", "B"),
    procs: tuple[int, ...] = (4, 9, 16, 25),
    model: MachineModel = IBM_SP2,
    niter_model: int = 2,
) -> dict[str, list[TableRow]]:
    """Table 8.1: SP."""
    return {
        c: build_table("sp", c, list(procs), model, niter_model) for c in classes
    }


def table_8_2(
    classes: tuple[str, ...] = ("A", "B"),
    procs: tuple[int, ...] = (4, 9, 16, 25),
    model: MachineModel = IBM_SP2,
    niter_model: int = 2,
) -> dict[str, list[TableRow]]:
    """Table 8.2: BT (Class B reference is the 16-processor hand run)."""
    out = {}
    for c in classes:
        ref = 16 if c == "B" else None
        out[c] = build_table("bt", c, list(procs), model, niter_model, reference_procs=ref)
    return out


def format_table(title: str, tables: dict[str, list[TableRow]]) -> str:
    """Render in the paper's layout (times | speedups | efficiencies)."""
    lines = [title, "=" * len(title)]
    for cls, rows in tables.items():
        lines.append(f"\nClass {cls}:")
        lines.append(
            f"{'P':>4} | {'hand':>8} {'dHPF':>8} {'PGI':>8} | "
            f"{'S.hand':>7} {'S.dHPF':>7} {'S.PGI':>7} | {'E.dHPF':>6} {'E.PGI':>6} | paper(hand/dhpf/pgi)"
        )

        def fmt(v, w=8, nd=0):
            return f"{'-':>{w}}" if v is None else f"{v:>{w}.{nd}f}"

        for r in rows:
            paper = "/".join(
                "-" if r.paper_time.get(k) is None else f"{r.paper_time[k]:.0f}"
                for k in ("handmpi", "dhpf", "pgi")
            ) if r.paper_time else ""
            lines.append(
                f"{r.nprocs:>4} | "
                f"{fmt(r.time.get('handmpi'))} {fmt(r.time.get('dhpf'))} {fmt(r.time.get('pgi'))} | "
                f"{fmt(r.speedup.get('handmpi'), 7, 2)} {fmt(r.speedup.get('dhpf'), 7, 2)} "
                f"{fmt(r.speedup.get('pgi'), 7, 2)} | "
                f"{fmt(r.efficiency.get('dhpf'), 6, 2)} {fmt(r.efficiency.get('pgi'), 6, 2)} | {paper}"
            )
    return "\n".join(lines)


_TABLES = {
    "table-8.1": (
        table_8_1,
        "Table 8.1 — SP: hand-written MPI vs dHPF vs pghpf (model: IBM SP2)",
    ),
    "table-8.2": (
        table_8_2,
        "Table 8.2 — BT: hand-written MPI vs dHPF vs pghpf (model: IBM SP2)",
    ),
}


def register(sub) -> None:
    """Add the ``table-8.1`` / ``table-8.2`` subcommands."""
    for target in _TABLES:
        p = sub.add_parser(target, help="regenerate the paper's table")
        p.add_argument("--classes", default="A,B",
                       help="comma list of NAS classes")
        p.add_argument("--procs", default="4,9,16,25",
                       help="comma list of processor counts")
        p.set_defaults(run=run)


def run(args) -> int:
    """Print the table named by ``args.target``."""
    build, title = _TABLES[args.target]
    classes = tuple(args.classes.split(","))
    procs = tuple(int(p) for p in args.procs.split(","))
    print(format_table(title, build(classes, procs)))
    return 0
