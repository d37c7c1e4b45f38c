"""Structured diagnostics of the static SPMD verifier.

Every finding carries the statement, array, processor pair and integer set
it talks about, so a report can be consumed programmatically (the mutation
harness pins exact codes) or pretty-printed for humans.  Severities:

- ``error`` — the compiled program provably (or concretely) drops data it
  needs: uncovered non-local read, cross-processor race without a carrying
  message, unmatched send/recv, halo outside the overlap region.
- ``warn`` — the verifier could not *prove* safety (inexact set algebra,
  e.g. existentially quantified ownership) but found no concrete violation.
- ``info`` — non-blocking analysis notes: unknown trip counts, clean nests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..isets import ISet


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so reports can filter by floor."""

    INFO = 0
    WARN = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


#: diagnostic codes, grouped by the analysis that emits them
E_COVERAGE = "E-COVERAGE"   # uncovered non-local read (comm coverage)
E_LOCAL = "E-LOCAL"         # excluded (NEW/LOCALIZE) read not produced locally
E_RACE = "E-RACE"           # cross-processor dependence without carrying comm
E_MATCH = "E-MATCH"         # send/recv multiset imbalance (static deadlock)
E_OVERLAP = "E-OVERLAP"     # received halo exceeds the overlap region
W_UNPROVEN = "W-UNPROVEN"   # symbolic proof failed; concrete check clean
I_TRIP = "I-TRIP"           # message counts are lower bounds (unknown trips)
I_CLEAN = "I-CLEAN"         # a nest proved communication-free / fully covered
I_FALLBACK = "I-FALLBACK"   # an analyzer took a conservative fallback

#: advisory codes of the static LogGP cost analyzer (repro.check.cost)
W_COMM_HOT = "W-COMM-HOT"            # one statement dominates predicted comm time
W_REPLICATED = "W-REPLICATED"        # a nest runs replicated (fallback CP)
W_SCALAR_WAVEFRONT = "W-SCALAR-WAVEFRONT"  # statements left with no vector level
W_IMBALANCE = "W-IMBALANCE"          # uneven per-rank block ownership
I_SCALE_LIMIT = "I-SCALE-LIMIT"      # predicted speedup knee in T(nprocs)


@dataclass
class Diagnostic:
    """One verifier finding."""

    severity: Severity
    code: str
    message: str
    stmt_sid: Optional[int] = None
    array: Optional[str] = None
    procs: Optional[tuple[int, int]] = None  # (src_rank, dst_rank)
    iset: Optional[ISet] = None
    nest: Optional[int] = None  # index of the loop nest in the program unit

    def format(self) -> str:
        loc = []
        if self.nest is not None:
            loc.append(f"nest {self.nest}")
        if self.stmt_sid is not None:
            loc.append(f"s{self.stmt_sid}")
        if self.array:
            loc.append(self.array)
        if self.procs is not None:
            loc.append(f"p{self.procs[0]}->p{self.procs[1]}")
        where = f" [{', '.join(loc)}]" if loc else ""
        out = f"{self.severity}: {self.code}{where}: {self.message}"
        if self.iset is not None:
            out += f"\n    set: {self.iset.pretty()}"
        return out

    def __repr__(self) -> str:
        return f"<Diag {self.severity} {self.code} s{self.stmt_sid} {self.array}>"


@dataclass
class CheckReport:
    """The verifier's result for one program unit (or one nest)."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARN]

    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.INFO]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos allowed)."""
        return not self.errors()

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            f"== static SPMD verification: {self.subject} "
            f"({len(self.errors())} errors, {len(self.warnings())} warnings, "
            f"{len(self.infos())} infos)"
        ]
        # Deterministic ordering: severity floor first (errors before
        # warnings before infos), then code, then location — so the cost
        # analyzer's W-/I- advisories interleave consistently with the
        # verifier's own codes regardless of emission order.
        def order(d: Diagnostic) -> tuple:
            return (
                -int(d.severity),
                d.code,
                d.nest if d.nest is not None else -1,
                d.stmt_sid if d.stmt_sid is not None else -1,
            )

        for d in sorted(self.diagnostics, key=order):
            if d.severity >= min_severity:
                lines.append("  " + d.format().replace("\n", "\n  "))
        return "\n".join(lines)


class VerificationError(Exception):
    """Raised by ``compile_kernel(..., verify=True)`` when the checker
    finds errors; carries the full report."""

    def __init__(self, report: CheckReport):
        self.report = report
        super().__init__(report.format(min_severity=Severity.ERROR))
