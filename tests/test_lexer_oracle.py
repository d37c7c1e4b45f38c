"""The one-pass regex lexer against the character-loop lexer it replaced.

``OracleLexer`` below is the earlier tokenizer, kept verbatim as the
oracle: one character at a time, a lowered-suffix probe for dot
operators, a number regex tried before every token and a ``startswith``
walk over the operators.  On every source the repository ships, on the
fuzzer's corpus (well-formed and mutated) and on seeded random lines, the
lexer must give the same logical lines (line number, directive flag,
text, and per token kind/text/value/line/column), the same ``LexError``
message and span and the same lenient diagnostics, and
``canonicalize_source`` must give the bytes its earlier body
(``oracle_canonicalize``) renders from the oracle's tokens.

The one deliberate difference is a digit before a dot operator
(``n.eq.1.and.m``): the oracle reads ``1.`` as a REAL and strands
``and.``.  The oracle with that one rule fixed (``FIXED_NUM_RE``) must
equal the lexer everywhere, and the oracle as it was may differ from it
only on sources where a digit, ``.`` and a dot-operator word meet.
"""

from __future__ import annotations

import ast
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import pytest

from repro.compile.key import canonicalize_source
from repro.diag import DiagnosticSink, SourceSpan
from repro.frontend.lexer import Lexer, LexError, TokenKind

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# the oracle: the character-loop lexer, as it was
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OToken:
    kind: TokenKind
    text: str
    value: object = None
    lineno: int = 0
    col: int = 0


@dataclass
class OLine:
    tokens: list
    lineno: int
    is_directive: bool = False
    text: str = field(default="", compare=False)


_DIRECTIVE_RE = re.compile(r"^\s*(chpf\$|!hpf\$|c\$hpf\$?|\*hpf\$|!dhpf\$|chpf)\s*", re.IGNORECASE)
_COMMENT_LINE_RE = re.compile(r"^[cC*](\s|$)")

_OPERATORS = [
    "::", "**", "==", "/=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/",
    "(", ")", ",", ":", "%",
]
_DOT_OPS = {
    ".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
    ".eq.": "==", ".ne.": "/=", ".and.": ".and.", ".or.": ".or.",
    ".not.": ".not.", ".true.": ".true.", ".false.": ".false.",
}

_NUM_PATTERN = r"""
    (?P<real>
        (?:\d+\.\d*|\.\d+|\d+)      # mantissa (incl. bare int before d/e exp)
        (?:[deDE][+-]?\d+)          # exponent required for bare-int reals
      | (?:\d+\.\d*|\.\d+)          # or a decimal point with no exponent
        (?:[deDE][+-]?\d+)?
    )
    | (?P<int>\d+)
    """
PARENT_NUM_RE = re.compile(_NUM_PATTERN, re.VERBOSE)
#: the oracle's number rule with the one fix: a mantissa's ``.`` is not
#: taken when a dot-operator word and ``.`` follow it
FIXED_NUM_RE = re.compile(
    _NUM_PATTERN.replace(
        r"\d+\.\d*",
        r"\d+\.(?!(?ai:(?:lt|le|gt|ge|eq|ne|and|or|not|true|false)\.))\d*",
    ),
    re.VERBOSE,
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: where the two number rules may disagree: a digit, ``.``, a dot word, ``.``
FAMILY_RE = re.compile(r"\d\.(?ai:lt|le|gt|ge|eq|ne|and|or|not|true|false)\.")


class OracleLexer:
    num_re = PARENT_NUM_RE

    def __init__(self, source: str, sink: Optional[DiagnosticSink] = None):
        self.source = source
        self.sink = sink

    def logical_lines(self) -> list:
        raw = []
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip():
                continue
            m = _DIRECTIVE_RE.match(stripped)
            if m:
                raw.append((stripped[m.end():], lineno, True))
                continue
            if _COMMENT_LINE_RE.match(stripped):
                continue
            if stripped.lstrip().startswith("!"):
                continue
            code = _strip_inline_comment(stripped)
            if not code.strip():
                continue
            raw.append((code, lineno, False))
        joined = []
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
        out = []
        for text, lineno, isdir in joined:
            text = text.rstrip()
            if text.endswith("&"):
                text = text[:-1]
            try:
                toks = list(self._tokenize_line(text, lineno))
            except LexError as exc:
                if self.sink is None:
                    raise
                self.sink.error(
                    exc.bare_message, code=exc.code, span=exc.span,
                    pass_name="frontend",
                )
                continue
            if toks:
                out.append(OLine(toks, lineno, isdir, text))
        return out

    def _tokenize_line(self, text: str, lineno: int) -> Iterator[OToken]:
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch in " \t":
                i += 1
                continue
            if ch == "'":
                j = text.find("'", i + 1)
                if j < 0:
                    raise LexError(
                        "unterminated string",
                        span=SourceSpan(lineno, i, n - 1, text),
                    )
                yield OToken(TokenKind.STRING, text[i : j + 1], text[i + 1 : j], lineno, i)
                i = j + 1
                continue
            if ch == ".":
                low = text[i:].lower()
                matched = False
                for dop, repl in _DOT_OPS.items():
                    if low.startswith(dop):
                        yield OToken(TokenKind.OP, repl, None, lineno, i)
                        i += len(dop)
                        matched = True
                        break
                if matched:
                    continue
            m = self.num_re.match(text, i)
            if m and (ch.isdigit() or ch == "."):
                s = m.group(0)
                if m.group("int") is not None and m.group("real") is None:
                    yield OToken(TokenKind.INT, s, int(s), lineno, i)
                else:
                    norm = s.lower().replace("d", "e")
                    yield OToken(TokenKind.REAL, s, float(norm), lineno, i)
                i = m.end()
                continue
            m = _NAME_RE.match(text, i)
            if m:
                yield OToken(TokenKind.NAME, m.group(0).lower(), None, lineno, i)
                i = m.end()
                continue
            for op in _OPERATORS:
                if text.startswith(op, i):
                    yield OToken(TokenKind.OP, op, None, lineno, i)
                    i += len(op)
                    break
            else:
                raise LexError(
                    f"unexpected character {ch!r}",
                    span=SourceSpan(lineno, i, line_text=text),
                )
        yield OToken(TokenKind.EOL, "", None, lineno, n)


class FixedOracleLexer(OracleLexer):
    num_re = FIXED_NUM_RE


def _strip_inline_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == "'":
            in_str = not in_str
        if ch == "!" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def oracle_canonicalize(lexer_cls, source: str) -> str:
    """``canonicalize_source`` as it was, over an oracle lexer."""
    try:
        lines = lexer_cls(source).logical_lines()
    except Exception:
        normalized = [ln.rstrip() for ln in source.splitlines()]
        return "\n".join(["<raw>"] + [ln for ln in normalized if ln])
    out: list[str] = []
    for line in lines:
        parts: list[str] = []
        for tok in line.tokens:
            if tok.kind is TokenKind.EOL:
                continue
            if tok.kind in (TokenKind.INT, TokenKind.REAL):
                parts.append(repr(tok.value))
            elif tok.kind is TokenKind.STRING:
                parts.append(repr(tok.value))
            else:
                parts.append(tok.text)
        prefix = "!hpf$ " if line.is_directive else ""
        out.append(prefix + " ".join(parts))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _outcome(lexer_cls, source: str):
    """Everything a lexer's caller can observe of one source: the lines
    (or the error) strict, the lines and diagnostics lenient, and the
    canonical form the plan key hashes."""
    lenient = diags = None  # a source that lexes strict lexes the same lenient
    try:
        strict = [_line(ln) for ln in lexer_cls(source).logical_lines()]
    except LexError as exc:
        strict = ("LexError", str(exc), exc.bare_message, exc.span)
        sink = DiagnosticSink(strict=False)
        lenient = [_line(ln) for ln in lexer_cls(source, sink).logical_lines()]
        diags = [(d.code, d.message, d.span) for d in sink.diagnostics]
    if lexer_cls is Lexer:
        canonical = canonicalize_source(source)
    else:
        canonical = oracle_canonicalize(lexer_cls, source)
    return strict, lenient, diags, canonical


def _line(line):
    return (
        line.lineno, line.is_directive, line.text,
        [(t.kind, t.text, type(t.value), t.value, t.lineno, t.col)
         for t in line.tokens],
    )


def _check(sources) -> int:
    """Assert the lexer equals the fixed oracle on every source and that
    the old oracle differs only on the digit-before-dot-operator family;
    return how many sources were in that family and differed."""
    family = 0
    for source in sources:
        new = _outcome(Lexer, source)
        fixed = _outcome(FixedOracleLexer, source)
        assert new == fixed, f"lexer != oracle on {source!r}"
        if _outcome(OracleLexer, source) != fixed:
            assert FAMILY_RE.search(source), (
                "lexer differs from the old oracle outside the "
                f"digit-before-dot-operator family on {source!r}"
            )
            family += 1
    return family


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def _kernel_sources() -> list[str]:
    from repro.nas import kernels
    from repro.nas.specs import all_specs

    out = [v for k, v in vars(kernels).items()
           if isinstance(v, str) and not k.startswith("_") and "\n" in v]
    out += [kernels.scaled(s) for s in list(out)]
    out += [spec.source for spec in all_specs() if spec.source is not None]
    return out


def _bench_sources() -> list[str]:
    import sys

    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [k.source for w in workloads.WORKLOADS.values() for k in w.kernels]


def _example_sources() -> list[str]:
    out = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        text = path.read_text()
        out.append(text)  # Python text: exercises the error paths
        out += [node.value for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return out


_FRAGMENTS = [
    "x", "A", "Bc", "i_1", "_t", "do", "END", "if", "then", "call",
    "0", "1", "42", "007", "1.", "1.5", ".5", "2.0d0", "1D-3", "3e+2",
    "1.e5", "1.d0", "7E", "1.e", "٣", "١٢", "５", "²", "ſ", "K", "é",
    ".eq.", ".EQ.", ".lt.", ".Le.", ".gt.", ".GE.", ".ne.", ".and.",
    ".or.", ".NOT.", ".true.", ".False.", ".eq", ".e.", ".", "..", ".x.",
    "=", "==", "/=", "<", "<=", ">", ">=", "+", "-", "*", "**", "/", "(",
    ")", ",", ":", "::", "%", "&", "!", "'", "'s'", "''", "'a!b'", "$",
    "#", ";", "?", "\\", " ", " ", "  ", "\t", "chpf$ ", "!hpf$ ",
    "c$hpf ", "*hpf$ ", "C ", "c", "* ",
]


def _random_sources(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        line = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.3:  # a few lines at once: continuations, comments
            extra = ["".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 8)))
                     for _ in range(rng.randint(1, 3))]
            line = "\n".join([line] + extra)
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_kernel_and_bench_sources_match_the_oracle():
    sources = _kernel_sources() + _bench_sources()
    assert len(sources) > 20
    assert _check(sources) == 0


def test_example_sources_match_the_oracle():
    assert _check(_example_sources()) == 0


def test_fuzz_corpus_matches_the_oracle():
    from repro.eval.fuzz import _mutate_source, gen_spec

    sources = []
    for seed in range(300):
        source = gen_spec(seed).render()
        sources.append(source)
        sources.append(_mutate_source(random.Random(seed ^ 0x5FDE_ECA9), source))
    assert _check(sources) == 0


def test_random_lines_match_the_oracle():
    sources = _random_sources(20_261, 20_000)
    family = _check(sources)
    # the random alphabet does reach the one deliberate difference
    assert family > 0


@pytest.mark.parametrize("source", [
    "if (n.eq.1.and.m.eq.2) x = 1",
    "if (1.eq.n) x = 1",
    "x = 2.lt.y",
    "x = 3.OR.y",
])
def test_the_family_is_the_only_difference(source):
    assert FAMILY_RE.search(source)
    assert _check([source]) == 1
