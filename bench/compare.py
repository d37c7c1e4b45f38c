#!/usr/bin/env python3
"""Compare two sets of benchmark results:

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a full result written by ``bench/run.py`` (``bench/out/
result-*.json`` or ``--out``).  Per workload and end-to-end metric it
prints median and quartiles of each side and a verdict against the bound
in ``BENCHMARK.json``:

- ``regressed``  B's median is worse than A's by more than the bound;
- ``improved``   B's median is better by more than the bound;
- ``unresolved`` neither side's runs all beat the other's, and a side's
  own spread (quartile distance over median) exceeds the bound, so the
  medians cannot be told apart;
- ``unchanged``  otherwise.

``comm_bytes`` is a count that repeats exactly, so it is held to bound 0:
more bytes on B than on A is ``regressed``, fewer ``improved``, and a side
whose own runs disagree is ``regressed`` (B) or ``unresolved`` (A).  A
result file with failed operations is refused: its timings are those of
another program.

Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """*a* is the base side, *b* the candidate; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse_by = sign * (bm - am) / am if am else 0.0
    separated = (
        min(sign * v for v in b) > max(sign * v for v in a)
        or max(sign * v for v in b) < min(sign * v for v in a)
    )
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    if spread > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def exact_verdict(a: list[int], b: list[int]) -> str:
    """Verdict on a lower-is-better count that must repeat exactly."""
    if len(set(b)) > 1:
        return "regressed"
    if len(set(a)) > 1:
        return "unresolved"
    if b[0] != a[0]:
        return "regressed" if b[0] > a[0] else "improved"
    return "unchanged"


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from result files, with
    ``comm_bytes`` beside the end-to-end metrics."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        if "end_to_end" not in result:
            raise SystemExit(f"{path}: not an untraced result of bench/run.py")
        if result["failed"]:
            raise SystemExit(
                f"{path}: {result['failed']} of {result['attempted']} operations "
                "failed; fix that before comparing timings")
        rows = out.setdefault(result["workload"], {})
        for name, metric in result["end_to_end"].items():
            rows.setdefault(name, []).append(metric["value"])
        rows.setdefault("comm_bytes", []).append(result["comm_bytes"])
        rows.setdefault("spin_excess", []).append(result["env"]["spin_excess"])
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    base, cand = load(argv[:split]), load(argv[split + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    regressed = False
    print(f"{'workload':12s} {'metric':20s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s} {'B vs A':>8s}  verdict")
    for workload in sorted(set(base) & set(cand)):
        for name, m in spec.items():
            a, b = base[workload].get(name), cand[workload].get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            v = verdict(a, b, m["bound"], m["better"])
            regressed |= v == "regressed"
            print(f"{workload:12s} {name:20s} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>32s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>32s} "
                  f"{(qb[1] - qa[1]) / qa[1]:>+8.1%}  {v}  (n={len(a)},{len(b)})")
        a, b = base[workload]["comm_bytes"], cand[workload]["comm_bytes"]
        v = exact_verdict(a, b)
        regressed |= v == "regressed"
        print(f"{workload:12s} {'comm_bytes':20s} "
              f"{'/'.join(str(x) for x in sorted(set(a))):>32s} "
              f"{'/'.join(str(x) for x in sorted(set(b))):>32s} "
              f"{'':>8s}  {v}  (n={len(a)},{len(b)})")
        # no verdict: how busy the host was under each side (1.0 = nominal);
        # normalised times of work that is not CPU-bound read lower on a
        # busier host, so sides measured under unlike load compare less well
        busy_a, busy_b = (statistics.median(side[workload]["spin_excess"])
                          for side in (base, cand))
        print(f"{workload:12s} {'env.spin_excess':20s} {busy_a:>32.3f} {busy_b:>32.3f}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
