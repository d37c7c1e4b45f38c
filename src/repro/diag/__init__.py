"""One diagnostic record for the whole compiler: every finding of every
pass, of the static SPMD verifier and of the cost advisor.

- :class:`SourceSpan` pins a finding to line/column and renders a
  caret-annotated source excerpt;
- :class:`Diagnostic` is one finding: severity, stable code, message, and
  whatever it is about — span and pass, nest, statement, array, and for
  the verifier the processor pair and the integer set;
- :class:`CompileError` is the raisable form.  It subclasses ``ValueError``
  so long-standing callers (and tests) that catch ``ValueError`` keep
  working, while new callers can match on ``code`` / ``span``;
- :class:`DiagnosticSink` collects diagnostics and threads a
  strict-or-lenient policy through the pipeline: in strict mode ``error()``
  raises immediately; in lenient mode errors are recorded and compilation
  continues, so one pass over the input reports *every* problem and
  conservative fallbacks (``I-FALLBACK``) replace crashes.  The verifier's
  :class:`~repro.check.CheckReport` is a sink with a subject.

Severities: ``error`` — the input is rejected, or the compiled program
provably (or concretely) drops data it needs; ``warn`` — a conservative
path was taken, or safety or performance could not be proved; ``info`` —
a non-blocking note.  Codes are stable strings (the fuzzer, the mutation
harness and CI assert on them):

==================== ========================================================
**compile**
``E-LEX``            unrecognized input at the character level
``E-PARSE``          syntax / directive grammar error
``E-NONAFFINE``      a non-affine expression where an affine one is required
``E-RECURSION``      recursive call graph (forbidden, as in F77)
``E-UNSUPPORTED``    a construct outside the compilable subset
``E-CONFIG``         inconsistent distribution directives / grid configuration
``W-BUDGET``         an iset resource budget tripped; conservative path taken
``I-FALLBACK``       a nest degraded to replicated execution (with the reason)
**service**
``I-RETRY``          a compile succeeded after its worker crashed and the
                     service retried it (carries the crash history)
``E-QUARANTINE``     a compile job killed its worker repeatedly and was
                     quarantined by the service (never retried again)
**verifier** (:mod:`repro.check`)
``E-COVERAGE``       a non-local read is neither received, owned nor
                     produced locally
``E-LOCAL``          a NEW/LOCALIZE read is not produced locally
``E-RACE``           a cross-processor dependence has no carrying message
``E-MATCH``          the static send/recv schedule does not balance
``E-OVERLAP``        a received halo exceeds the overlap region
``E-GUARD``          the ranks' guards miss or exceed a statement's bounds
``W-UNPROVEN``       a set could not be evaluated per rank (non-affine, or
                     it does not bind)
``I-TRIP``           message counts are lower bounds (unknown trip counts)
``I-CLEAN``          a nest is communication-free and every read is local
**cost advisor** (:mod:`repro.check.cost`)
``W-COMM-HOT``       one statement dominates predicted communication time
``W-REPLICATED``     a nest runs replicated (fallback CP)
``W-SCALAR-WAVEFRONT`` statements left with no vector level
``W-IMBALANCE``      uneven per-rank block ownership
``I-SCALE-LIMIT``    the knee of the predicted speedup curve T(nprocs)
==================== ========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from ..isets import ISet


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so reports can filter by floor."""

    INFO = 0
    WARN = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


#: stable diagnostic codes, grouped as in the table above
E_LEX = "E-LEX"
E_PARSE = "E-PARSE"
E_NONAFFINE = "E-NONAFFINE"
E_RECURSION = "E-RECURSION"
E_UNSUPPORTED = "E-UNSUPPORTED"
E_CONFIG = "E-CONFIG"
W_BUDGET = "W-BUDGET"
I_FALLBACK = "I-FALLBACK"
I_RETRY = "I-RETRY"
E_QUARANTINE = "E-QUARANTINE"
E_COVERAGE = "E-COVERAGE"
E_LOCAL = "E-LOCAL"
E_RACE = "E-RACE"
E_MATCH = "E-MATCH"
E_OVERLAP = "E-OVERLAP"
E_GUARD = "E-GUARD"
W_UNPROVEN = "W-UNPROVEN"
I_TRIP = "I-TRIP"
I_CLEAN = "I-CLEAN"
W_COMM_HOT = "W-COMM-HOT"
W_REPLICATED = "W-REPLICATED"
W_SCALAR_WAVEFRONT = "W-SCALAR-WAVEFRONT"
W_IMBALANCE = "W-IMBALANCE"
I_SCALE_LIMIT = "I-SCALE-LIMIT"


@dataclass(frozen=True)
class SourceSpan:
    """A position in the original source: 1-based line, 0-based column.

    ``line_text`` (the logical line's text) enables the caret excerpt;
    ``end_col`` widens the caret to an underline for multi-column tokens.
    """

    lineno: int
    col: Optional[int] = None
    end_col: Optional[int] = None
    line_text: Optional[str] = None

    def location(self) -> str:
        """Human position: ``line 4`` or ``line 4, col 7`` (col 1-based)."""
        if self.col is None:
            return f"line {self.lineno}"
        return f"line {self.lineno}, col {self.col + 1}"

    def excerpt(self) -> Optional[str]:
        """Two-line caret annotation of the source, or None without text."""
        if self.line_text is None:
            return None
        text = self.line_text.rstrip("\n")
        if self.col is None:
            return f"    | {text}"
        width = max((self.end_col or self.col) - self.col + 1, 1)
        pad = " " * self.col
        return f"    | {text}\n    | {pad}{'^' * width}"

    def __str__(self) -> str:
        return self.location()


@dataclass
class Diagnostic:
    """One finding, of any pass, the verifier or the cost advisor."""

    severity: Severity
    code: str
    message: str
    span: Optional[SourceSpan] = None
    pass_name: Optional[str] = None  # frontend | ir | distrib | cp | comm | codegen | isets
    stmt_sid: Optional[int] = None
    nest: Optional[int] = None  # index of the top-level loop nest, if any
    array: Optional[str] = None
    procs: Optional[tuple[int, int]] = None  # (src_rank, dst_rank)
    iset: Optional[ISet] = None

    def format(self) -> str:
        where = [self.pass_name] if self.pass_name else []
        if self.nest is not None:
            where.append(f"nest {self.nest}")
        if self.stmt_sid is not None:
            where.append(f"s{self.stmt_sid}")
        if self.array:
            where.append(self.array)
        if self.procs is not None:
            where.append(f"p{self.procs[0]}->p{self.procs[1]}")
        tag = f" [{', '.join(where)}]" if where else ""
        loc = f" {self.span.location()}:" if self.span else ""
        out = f"{self.severity}: {self.code}{tag}:{loc} {self.message}"
        ex = self.span.excerpt() if self.span is not None else None
        if ex:
            out += "\n" + ex
        if self.iset is not None:
            out += f"\n    set: {self.iset.pretty()}"
        return out

    def __repr__(self) -> str:
        return f"<Diag {self.severity} {self.code} {self.span or ''}>"


class CompileError(ValueError):
    """A raisable compile-time error.

    Subclasses ``ValueError`` for backward compatibility with callers that
    catch the pipeline's historical ad-hoc errors.  The message embeds the
    span's location and caret excerpt so an unstructured ``str(exc)`` stays
    actionable; structured consumers read ``code`` / ``span`` /
    ``diagnostics`` instead.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = E_UNSUPPORTED,
        span: Optional[SourceSpan] = None,
        pass_name: Optional[str] = None,
        diagnostics: Optional[list[Diagnostic]] = None,
    ):
        self.code = code
        self.span = span
        self.pass_name = pass_name
        #: the message without the location prefix / excerpt (re-reporting
        #: into a sink uses this to avoid duplicating the span rendering)
        self.bare_message = message
        #: all findings collected before the raise (lenient frontend runs
        #: report every syntax error in one pass; this carries them)
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])
        full = message
        if span is not None and span.location() not in message:
            full = f"{span.location()}: {message}"
        ex = span.excerpt() if span is not None else None
        if ex:
            full += "\n" + ex
        super().__init__(full)

    @property
    def diagnostic(self) -> Diagnostic:
        return Diagnostic(
            Severity.ERROR, self.code, self.bare_message,
            span=self.span, pass_name=self.pass_name,
        )


@dataclass
class DiagnosticSink:
    """Collects diagnostics; decides whether errors raise or accumulate.

    ``strict=True`` (the default, and the historical behavior) raises a
    :class:`CompileError` at the first error.  ``strict=False`` records the
    error and lets the caller continue — the graceful-degradation mode used
    by ``compile_kernel(strict=False)`` and the frontend's panic-mode
    recovery.
    """

    strict: bool = True
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- reporting ---------------------------------------------------------
    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def error(
        self,
        message: str,
        *,
        code: str = E_UNSUPPORTED,
        span: Optional[SourceSpan] = None,
        pass_name: Optional[str] = None,
        **kw,
    ) -> None:
        """Record an error; raise immediately in strict mode."""
        self.add(Diagnostic(
            Severity.ERROR, code, message, span=span, pass_name=pass_name, **kw
        ))
        if self.strict:
            raise CompileError(
                message, code=code, span=span, pass_name=pass_name,
                diagnostics=self.diagnostics,
            )

    def warn(self, message: str, *, code: str, **kw) -> None:
        self.add(Diagnostic(Severity.WARN, code, message, **kw))

    def info(self, message: str, *, code: str, **kw) -> None:
        self.add(Diagnostic(Severity.INFO, code, message, **kw))

    def fallback(self, message: str, **kw) -> None:
        """Record an ``I-FALLBACK``: a conservative degradation was taken."""
        self.add(Diagnostic(Severity.INFO, I_FALLBACK, message, **kw))

    def extend(self, diags: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    # -- queries -----------------------------------------------------------
    @property
    def has_errors(self) -> bool:
        return bool(self.errors())

    def _at(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    def errors(self) -> list[Diagnostic]:
        return self._at(Severity.ERROR)

    def warnings(self) -> list[Diagnostic]:
        return self._at(Severity.WARN)

    def infos(self) -> list[Diagnostic]:
        return self._at(Severity.INFO)

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def fallbacks(self) -> list[Diagnostic]:
        return self.by_code(I_FALLBACK)

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        shown = [d for d in self.diagnostics if d.severity >= min_severity]
        lines = [
            f"== compile diagnostics ({len(self.errors())} errors, "
            f"{len(shown)} shown)"
        ]
        lines += ["  " + d.format().replace("\n", "\n  ") for d in shown]
        return "\n".join(lines)

    def as_error(self, summary: Optional[str] = None) -> CompileError:
        """Bundle the collected errors into one raisable CompileError."""
        errs = self.errors()
        if not errs:
            raise RuntimeError("as_error() called with no errors recorded")
        head = errs[0]
        msg = summary or (
            head.message if len(errs) == 1
            else f"{len(errs)} errors; first: {head.message}"
        )
        return CompileError(
            msg, code=head.code, span=head.span, pass_name=head.pass_name,
            diagnostics=self.diagnostics,
        )


__all__ = [
    "Severity", "SourceSpan", "Diagnostic", "CompileError", "DiagnosticSink",
    "E_LEX", "E_PARSE", "E_NONAFFINE", "E_RECURSION", "E_UNSUPPORTED",
    "E_CONFIG", "W_BUDGET", "I_FALLBACK", "I_RETRY", "E_QUARANTINE",
    "E_COVERAGE", "E_LOCAL", "E_RACE", "E_MATCH", "E_OVERLAP", "E_GUARD",
    "W_UNPROVEN", "I_TRIP", "I_CLEAN", "W_COMM_HOT", "W_REPLICATED",
    "W_SCALAR_WAVEFRONT", "W_IMBALANCE", "I_SCALE_LIMIT",
]
