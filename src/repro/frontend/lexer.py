"""Line-oriented lexer for the mini-Fortran + HPF subset.

Fortran is line-structured, so the lexer produces a list of *logical lines*
(continuations joined), each a list of tokens.  Directive lines (``CHPF$``,
``!HPF$``, ``C$HPF``, ``*HPF$``) are tagged so the parser can route them to
the directive grammar.  Everything is case-insensitive; identifiers are
lowercased, keywords are recognized by the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from ..diag import E_LEX, CompileError, DiagnosticSink, SourceSpan


class LexError(CompileError):
    """Raised with file position (line:col + caret excerpt) on any
    unrecognized input.  A :class:`~repro.diag.CompileError`, so it carries
    a structured ``span`` and still reads as a ``ValueError`` to old
    callers."""

    def __init__(self, message: str, *, span: Optional[SourceSpan] = None, **kw):
        kw.setdefault("code", E_LEX)
        kw.setdefault("pass_name", "frontend")
        super().__init__(message, span=span, **kw)


class TokenKind(Enum):
    """Token categories produced by the lexer."""

    NAME = "name"
    INT = "int"
    REAL = "real"
    STRING = "string"
    OP = "op"
    EOL = "eol"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object = None
    lineno: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return f"{self.kind.name}({self.text!r})"


@dataclass
class LogicalLine:
    """One logical source line: its tokens and whether it is a directive.

    ``text`` is the joined (continuation-merged, comment-stripped) code the
    tokens index into with their ``col`` fields — diagnostics use it to
    render caret-annotated excerpts."""

    tokens: list[Token]
    lineno: int
    is_directive: bool = False
    text: str = field(default="", compare=False)


_DIRECTIVE_RE = re.compile(r"^\s*(chpf\$|!hpf\$|c\$hpf\$?|\*hpf\$|!dhpf\$|chpf)\s*", re.IGNORECASE)
_COMMENT_LINE_RE = re.compile(r"^[cC*](\s|$)")

_DOT_OPS = {
    ".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
    ".eq.": "==", ".ne.": "/=", ".and.": ".and.", ".or.": ".or.",
    ".not.": ".not.", ".true.": ".true.", ".false.": ".false.",
}

# One pass per logical line: blanks, then the first alternative that
# matches, in priority order.  Dot operators precede numbers (".5" vs
# ".eq."); multi-char operators precede their one-char prefixes.  Dot
# operators are case-blind in ASCII only, while digits are any Unicode
# decimal digit (``int``/``float`` read them).  A mantissa does not take a
# "." that starts a dot operator, so ``1.eq.n`` is ``1 == n``.  ``bad``
# catches every other character, so each match starts where the previous
# one ended.
_DOT_WORD = r"(?ai:lt|le|gt|ge|eq|ne|and|or|not|true|false)"
_MANTISSA = rf"\d+\.(?!{_DOT_WORD}\.)\d*|\.\d+"
_TOKEN_RE = re.compile(
    rf"""[ \t]*(?:
        (?P<string>'[^']*')
      | (?P<unterminated>')
      | (?P<dotop>\.{_DOT_WORD}\.)
      | (?P<real>
            (?:{_MANTISSA}|\d+)(?:[deDE][+-]?\d+)  # exponent required for bare ints
          | (?:{_MANTISSA})(?:[deDE][+-]?\d+)?    # or a decimal point
        )
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>::|\*\*|==|/=|<=|>=|[=<>+\-*/(),:%])
      | (?P<end>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


class Lexer:
    """Tokenize full source text into logical lines.

    With a lenient *sink* (``DiagnosticSink(strict=False)``), lines with
    lexical errors are recorded and skipped instead of aborting the pass —
    one run reports every bad line (panic-mode recovery)."""

    def __init__(self, source: str, sink: Optional[DiagnosticSink] = None):
        self.source = source
        self.sink = sink

    def logical_lines(self) -> list[LogicalLine]:
        # 1. strip comments, detect directives, join continuations
        raw: list[tuple[str, int, bool]] = []  # (text, lineno, is_directive)
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip():
                continue
            m = _DIRECTIVE_RE.match(stripped)
            if m:
                raw.append((stripped[m.end():], lineno, True))
                continue
            # fixed-form comment: 'c', 'C' or '*' in column 1 followed by
            # whitespace or end-of-line ("call foo" is NOT a comment).
            if _COMMENT_LINE_RE.match(stripped):
                continue
            if stripped.lstrip().startswith("!"):
                continue
            # inline ! comment (not inside a string)
            code = _strip_inline_comment(stripped)
            if not code.strip():
                continue
            raw.append((code, lineno, False))
        # 2. join continuations: trailing '&' or next line leading '&'
        joined: list[tuple[str, int, bool]] = []
        for text, lineno, isdir in raw:
            t = text.rstrip()
            lead_cont = t.lstrip().startswith("&")
            if lead_cont:
                t = t.lstrip()[1:]
            if joined and (joined[-1][0].rstrip().endswith("&") or (lead_cont and joined[-1][2] == isdir)):
                prev_text, prev_line, prev_dir = joined[-1]
                prev_text = prev_text.rstrip()
                if prev_text.endswith("&"):
                    prev_text = prev_text[:-1]
                joined[-1] = (prev_text + " " + t.strip(), prev_line, prev_dir)
            else:
                joined.append((t, lineno, isdir))
        # a trailing '&' on the merged line with nothing after is an error we
        # let the parser surface naturally.
        out = []
        for text, lineno, isdir in joined:
            text = text.rstrip()
            if text.endswith("&"):
                text = text[:-1]
            try:
                toks = _tokenize(text, lineno)
            except LexError as exc:
                if self.sink is None:
                    raise
                # panic mode: record, drop the bad line, keep lexing (raises
                # immediately when the sink is strict)
                self.sink.error(
                    exc.bare_message, code=exc.code, span=exc.span,
                    pass_name="frontend",
                )
                continue
            if toks:
                out.append(LogicalLine(toks, lineno, isdir, text))
        return out


_NAME, _OP, _INT, _REAL, _STRING, _EOL = (
    TokenKind.NAME, TokenKind.OP, TokenKind.INT, TokenKind.REAL,
    TokenKind.STRING, TokenKind.EOL,
)
# builds a Token without NamedTuple's Python-level ``__new__``: a third of
# the per-token cost
_new = tuple.__new__


def _tokenize(text: str, lineno: int) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group(kind)
        col = m.start(kind)
        if kind == "name":
            append(_new(Token, (_NAME, s.lower(), None, lineno, col)))
        elif kind == "op":
            append(_new(Token, (_OP, s, None, lineno, col)))
        elif kind == "int":
            append(_new(Token, (_INT, s, int(s), lineno, col)))
        elif kind == "real":
            append(_new(Token, (_REAL, s, float(s.lower().replace("d", "e")), lineno, col)))
        elif kind == "dotop":
            append(_new(Token, (_OP, _DOT_OPS[s.lower()], None, lineno, col)))
        elif kind == "string":
            append(_new(Token, (_STRING, s, s[1:-1], lineno, col)))
        elif kind == "end":
            break
        elif kind == "unterminated":
            raise LexError(
                "unterminated string",
                span=SourceSpan(lineno, col, len(text) - 1, text),
            )
        else:
            raise LexError(
                f"unexpected character {s!r}",
                span=SourceSpan(lineno, col, line_text=text),
            )
    append(_new(Token, (_EOL, "", None, lineno, len(text))))
    return toks


def _strip_inline_comment(line: str) -> str:
    """Remove a trailing ! comment, respecting single-quoted strings."""
    if "!" not in line:
        return line
    out = []
    in_str = False
    for ch in line:
        if ch == "'":
            in_str = not in_str
        if ch == "!" and not in_str:
            break
        out.append(ch)
    return "".join(out)
