"""The verifier's report: a :class:`~repro.diag.DiagnosticSink` of
:class:`~repro.diag.Diagnostic` records for one subject.

The records, their severities and every code are :mod:`repro.diag`'s; a
report adds only what a sink lacks — the subject it verified, ``ok``, and
a rendering sorted so findings read the same whatever order the analyses
emitted them in.
"""

from __future__ import annotations

from ..diag import Diagnostic, DiagnosticSink, Severity


class CheckReport(DiagnosticSink):
    """The verifier's result for one program unit (or one nest): a
    lenient sink that names its subject and renders its findings sorted."""

    def __init__(self, subject: str):
        super().__init__(strict=False)
        self.subject = subject

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos allowed)."""
        return not self.has_errors

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
