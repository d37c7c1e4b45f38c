#!/usr/bin/env python3
"""§7 data availability analysis on SP's pipelined y_solve.

First at the *analysis* level: the compiler's communication plan with and
without availability analysis (message counts, volumes, which reads die).
Then at the *machine* level: the virtual-time cost of the dHPF schedule
with the anti-pipeline reads left in vs eliminated — the paper's
"eliminating this communication proved essential for obtaining an
efficient pipeline".

Run:  python examples/pipeline_availability.py
"""

from repro.comm import CommAnalyzer
from repro.cp import CPGrouper
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext, PDIM
from repro.frontend import parse_source
from repro.nas import kernels
from repro.parallel import run_parallel
from repro.parallel.dhpf import DhpfOptions
from repro.runtime.model import IBM_SP2


def main() -> None:
    ev = {"n": 17, "m": 0}
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, nprocs=4, params=ev)
    loop = sub.body[0]
    res = CPGrouper(ctx, CPSelector(ctx, eval_params=ev)).group(loop, params=ev)
    binding = {**ev, PDIM(0): 0, PDIM(1): 0}

    print("=== analysis level: y_solve (paper Figure 5.1 kernel) ===")
    plan = CommAnalyzer(loop, res.cps, ctx, ev, coalesce=False).analyze()
    reads = [e for e in plan.events if e.kind == "read"]
    for e in reads:
        mark = "ELIMINATED" if e.eliminated_by_availability else "kept"
        print(f"  read {str(e.ref):26s} -> {mark}")
    elim = sum(e.eliminated_by_availability for e in reads)
    print(f"  {elim}/{len(reads)} non-local reads eliminated "
          f"(paper: 'about half')\n")

    for flag in (True, False):
        plan = CommAnalyzer(loop, res.cps, ctx, ev, use_availability=flag).analyze()
        s = plan.summary(binding)
        label = "with   §7" if flag else "without §7"
        print(f"  {label}: {s['messages']:4d} messages, {s['volume']:5d} elements, "
              f"{s['pipelined']} pipelined events")

    print("\n=== machine level: full SP timestep on the simulated SP2 ===")
    for label, opt in [
        ("availability ON  (dHPF as measured)", DhpfOptions()),
        ("availability OFF (reads fight the pipeline)", DhpfOptions(availability=False)),
        ("ON + spurious message also removed (paper's future work)",
         DhpfOptions(spurious_between_pipelines=False)),
    ]:
        r = run_parallel("sp", "dhpf", 16, (64, 64, 64), 1, IBM_SP2,
                         functional=False, record_trace=False, options=opt)
        print(f"  {label:55s}: {r.time:7.3f} s / timestep")


if __name__ == "__main__":
    main()
