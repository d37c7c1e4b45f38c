"""Recursive-descent parser for the mini-Fortran + HPF subset.

Grammar (per logical line):

    unit      := ('subroutine' name '(' args ')' | 'program' name)
                 decl* stmt* 'end' ['subroutine'|'program']
    decl      := type-stmt | 'dimension' | 'parameter' | 'common'
                 | 'implicit' 'none'
    stmt      := assign | do | if-block | logical-if | 'call' | 'continue'
                 | 'return' | 'print'
    do        := 'do' [label] var '=' e ',' e [',' e]  ... ('enddo'|label continue)

HPF directive lines are parsed by :mod:`directive grammar <._parse_directive>`
and attached: declarative forms to the unit, INDEPENDENT-family to the next
DO loop.  ON_HOME is checked for syntax and not kept.
"""

from __future__ import annotations

from typing import Optional

from ..diag import E_PARSE, CompileError, DiagnosticSink, SourceSpan
from ..ir.directives import (
    AlignDecl,
    DistFormat,
    DistributeDecl,
    LoopDirective,
    ProcessorsDecl,
    TemplateDecl,
)
from ..ir.expr import ArrayRef, BinOp, Expr, FuncCall, Num, StrLit, UnOp, Var
from ..ir.program import Program, Subroutine
from ..ir.stmt import Assign, CallStmt, Continue, DoLoop, IfThen, PrintStmt, Return, Stmt
from ..ir.symbols import FortranType, VarDecl
from .lexer import Lexer, LogicalLine, Token, TokenKind

INTRINSICS = {
    "sqrt", "abs", "min", "max", "mod", "exp", "log", "sin", "cos", "tan",
    "dble", "real", "int", "nint", "float", "sign", "dim", "atan", "dsqrt",
    "dabs", "dmin1", "dmax1", "dexp", "dlog",
}


class ParseError(CompileError):
    """Syntax error with source position (line:col + caret excerpt).

    A :class:`~repro.diag.CompileError`: structured consumers read
    ``span`` / ``code``; string matching on ``line N`` keeps working."""

    def __init__(self, message: str, *, span: Optional[SourceSpan] = None, **kw):
        kw.setdefault("code", E_PARSE)
        kw.setdefault("pass_name", "frontend")
        super().__init__(message, span=span, **kw)


class Cursor:
    """Token cursor over one logical line."""

    def __init__(self, line: LogicalLine):
        self.toks = line.tokens
        self.pos = 0
        self.lineno = line.lineno
        self.text = line.text

    def span(self, tok: Optional[Token] = None) -> SourceSpan:
        """Span of one token (current by default) with the line's text, so
        every parse error renders a caret-annotated excerpt."""
        t = tok if tok is not None else self.peek()
        end = t.col + max(len(t.text), 1) - 1
        return SourceSpan(self.lineno, t.col, end, self.text or None)

    def peek(self, k: int = 0) -> Token:
        j = min(self.pos + k, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind is not TokenKind.EOL:
            self.pos += 1
        return t

    def at_eol(self) -> bool:
        return self.peek().kind is TokenKind.EOL

    def accept(self, text: str, kind: TokenKind | None = None) -> Optional[Token]:
        t = self.peek()
        if (kind is None or t.kind is kind) and t.text == text:
            return self.next()
        return None

    def accept_name(self, *names: str) -> Optional[Token]:
        t = self.peek()
        if t.kind is TokenKind.NAME and t.text in names:
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(
                f"expected {text!r}, got {t.text or '<end of line>'!r}",
                span=self.span(t),
            )
        return t

    def expect_name(self) -> str:
        t = self.next()
        if t.kind is not TokenKind.NAME:
            raise ParseError(
                f"expected identifier, got {t.text or '<end of line>'!r}",
                span=self.span(t),
            )
        return t.text

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, span=self.span())


class _UnitParser:
    """Parses one program unit; knows the symbol table for name resolution."""

    def __init__(
        self,
        lines: list[LogicalLine],
        start: int,
        sink: Optional[DiagnosticSink] = None,
    ):
        self.lines = lines
        self.i = start
        self.sub = Subroutine(name="?")
        self.pending_loop_dir: Optional[LoopDirective] = None
        self.sink = sink

    # ---------------- line plumbing ----------------
    def _eof_span(self) -> Optional[SourceSpan]:
        """Span anchored at the last logical line (for end-of-file errors)."""
        if not self.lines:
            return None
        last = self.lines[-1]
        col = max(len(last.text) - 1, 0)
        return SourceSpan(last.lineno, col, col, last.text or None)

    def _cur_line(self) -> LogicalLine:
        if self.i >= len(self.lines):
            raise ParseError(
                "unexpected end of file (missing END?)", span=self._eof_span()
            )
        return self.lines[self.i]

    def _advance(self) -> None:
        self.i += 1

    def _recover(self, exc: ParseError) -> None:
        """Panic-mode recovery: with a lenient sink, record the error and
        let the caller skip the offending line; otherwise re-raise, which
        preserves the historical fail-fast behavior."""
        if self.sink is None or self.sink.strict:
            raise exc
        self.sink.error(
            exc.bare_message, code=exc.code, span=exc.span,
            pass_name="frontend",
        )

    # ---------------- unit ----------------
    def parse_unit(self) -> Subroutine:
        line = self._cur_line()
        c = Cursor(line)
        if c.accept_name("subroutine"):
            self.sub.name = c.expect_name()
            if c.accept("("):
                while not c.accept(")"):
                    self.sub.args.append(c.expect_name())
                    c.accept(",")
            for a in self.sub.args:
                self.sub.symbols.declare(VarDecl(a, is_dummy_arg=True))
        elif c.accept_name("program"):
            self.sub.name = c.expect_name()
            self.sub.is_main = True
        else:
            raise c.error("expected SUBROUTINE or PROGRAM")
        self._advance()
        self._parse_decls()
        self.sub.body = self._parse_stmts(terminators=("end",))
        # consume END line (absent only after lenient-mode recovery at EOF)
        if self.i < len(self.lines):
            c = Cursor(self._cur_line())
            c.expect("end")
            self._advance()
        return self.sub

    # ---------------- declarations ----------------
    _TYPE_KEYWORDS = {
        "integer": FortranType.INTEGER,
        "real": FortranType.REAL,
        "logical": FortranType.LOGICAL,
        "double": FortranType.DOUBLE,
    }

    def _parse_decls(self) -> None:
        while self.i < len(self.lines):
            line = self._cur_line()
            if line.is_directive:
                try:
                    self._parse_directive(Cursor(line))
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            c = Cursor(line)
            t = c.peek()
            if t.kind is not TokenKind.NAME:
                return
            kw = t.text
            if kw == "implicit":
                self._advance()
                continue
            if kw in self._TYPE_KEYWORDS:
                # lookahead: 'real x' is a decl; 'real = 5' is an assignment
                nxt = c.peek(1)
                if nxt.text == "=" or (nxt.text == "(" and kw not in ("double",)):
                    # could be "integer(...)" kind syntax — not supported; or
                    # an assignment to a variable named like a type. Heuristic:
                    # treat 'name (' as decl only if followed by name/]:: later.
                    if nxt.text == "=":
                        return
                try:
                    self._parse_type_decl(c)
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            if kw == "dimension":
                c.next()
                try:
                    self._parse_entity_list(c, FortranType.DOUBLE, dims_required=True)
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            if kw == "parameter":
                try:
                    self._parse_parameter(c)
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            if kw == "common":
                try:
                    self._parse_common(c)
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            return  # first executable statement

    def _parse_parameter(self, c: Cursor) -> None:
        c.next()
        c.expect("(")
        while True:
            name = c.expect_name()
            c.expect("=")
            val = self._parse_expr(c)
            d = self.sub.symbols.declare(VarDecl(name, FortranType.INTEGER))
            d.is_parameter = True
            d.param_value = val
            if not c.accept(","):
                break
        c.expect(")")

    def _parse_common(self, c: Cursor) -> None:
        c.next()
        blk = None
        if c.accept("/"):
            blk = c.expect_name()
            c.expect("/")
        while not c.at_eol():
            name = c.expect_name()
            dims = self._parse_dims(c) if c.peek().text == "(" else []
            d = self.sub.symbols.declare(VarDecl(name, dims=dims))
            d.common = blk or "_blank"
            c.accept(",")

    def _parse_type_decl(self, c: Cursor) -> None:
        kw = c.expect_name()
        ftype = self._TYPE_KEYWORDS[kw]
        if kw == "double":
            if not c.accept_name("precision"):
                raise c.error("expected PRECISION after DOUBLE")
        elif kw == "real" and c.accept("*"):
            width = c.next()
            if width.value == 8:
                ftype = FortranType.DOUBLE
        elif kw == "integer" and c.accept("*"):
            c.next()
        c.accept("::")
        self._parse_entity_list(c, ftype)

    def _parse_entity_list(self, c: Cursor, ftype: FortranType, dims_required: bool = False) -> None:
        while not c.at_eol():
            name = c.expect_name()
            dims = self._parse_dims(c) if c.peek().text == "(" else []
            if dims_required and not dims:
                raise c.error(f"DIMENSION entity {name} needs bounds")
            existing = self.sub.symbols.lookup(name)
            if existing:
                existing.ftype = ftype
                if dims:
                    existing.dims = dims
            else:
                self.sub.symbols.declare(VarDecl(name, ftype, dims))
            if not c.accept(","):
                break

    def _parse_dims(self, c: Cursor) -> list[tuple[Expr, Expr]]:
        c.expect("(")
        dims: list[tuple[Expr, Expr]] = []
        while True:
            lo: Expr = Num(1)
            e = self._parse_expr(c)
            if c.accept(":"):
                lo = e
                e = self._parse_expr(c)
            dims.append((lo, e))
            if not c.accept(","):
                break
        c.expect(")")
        return dims

    # ---------------- statements ----------------
    def _parse_stmts(self, terminators: tuple[str, ...]) -> list[Stmt]:
        """Parse statements until a line starting with one of *terminators*
        (the terminator line is left unconsumed)."""
        out: list[Stmt] = []
        while self.i < len(self.lines):
            line = self._cur_line()
            if line.is_directive:
                try:
                    self._parse_directive(Cursor(line))
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            c = Cursor(line)
            first = c.peek()
            # numeric statement label (e.g. loop-closing "10 continue")
            label_num: Optional[int] = None
            if first.kind is TokenKind.INT:
                label_num = int(first.value)  # type: ignore[arg-type]
                c.next()
                first = c.peek()
            head = self._effective_head(c)
            if head in terminators and not self._looks_like_assignment(c):
                if label_num is not None:
                    raise c.error("labeled terminator not supported")
                return out
            try:
                stmt = self._parse_one_stmt(c, label_num)
            except ParseError as exc:
                self._recover(exc)
                stmt = None
            if stmt is not None:
                out.append(stmt)
            self._advance()
        if "end" in terminators:
            self._recover(
                ParseError(
                    "unexpected end of file (missing END)", span=self._eof_span()
                )
            )
        else:
            self._recover(
                ParseError(
                    f"unexpected end of file (missing one of {terminators})",
                    span=self._eof_span(),
                )
            )
        return out

    def _looks_like_assignment(self, c: Cursor) -> bool:
        """Distinguish 'end = 5' from the END keyword, etc."""
        return c.peek(1).text == "=" and c.peek(0).kind is TokenKind.NAME

    @staticmethod
    def _effective_head(c: Cursor) -> Optional[str]:
        """Statement head keyword, folding 'end do'→'enddo', 'end if'→'endif',
        'else if'→'elseif'."""
        first = c.peek()
        if first.kind is not TokenKind.NAME:
            return None
        head = first.text
        nxt = c.peek(1)
        if head == "end" and nxt.kind is TokenKind.NAME and nxt.text in ("do", "if"):
            return "end" + nxt.text
        if head == "else" and nxt.kind is TokenKind.NAME and nxt.text == "if":
            return "elseif"
        return head

    def _parse_one_stmt(self, c: Cursor, label_num: Optional[int]) -> Optional[Stmt]:
        t = c.peek()
        if t.kind is TokenKind.NAME and not self._looks_like_assignment(c):
            kw = t.text
            if kw == "do":
                return self._parse_do(c)
            if kw == "if":
                return self._parse_if(c)
            if kw == "call":
                c.next()
                name = c.expect_name()
                args: list[Expr] = []
                if c.accept("("):
                    while not c.accept(")"):
                        args.append(self._parse_expr(c))
                        c.accept(",")
                return CallStmt(name, args, lineno=c.lineno)
            if kw == "continue":
                c.next()
                return Continue(lineno=c.lineno)
            if kw == "return":
                c.next()
                return Return(lineno=c.lineno)
            if kw == "goto" or kw == "go":
                raise c.error("GOTO is not supported by the mini-frontend")
            if kw == "print":
                c.next()
                c.expect("*")
                args = []
                while c.accept(","):
                    args.append(self._parse_expr(c))
                return PrintStmt(args, lineno=c.lineno)
        # assignment
        return self._parse_assign(c)

    def _parse_assign(self, c: Cursor) -> Stmt:
        lhs = self._parse_primary(c)
        if not isinstance(lhs, (ArrayRef, Var)):
            raise c.error(f"invalid assignment target {lhs}")
        if isinstance(lhs, FuncCall):  # pragma: no cover - defensive
            raise c.error("cannot assign to function call")
        c.expect("=")
        rhs = self._parse_expr(c)
        if not c.at_eol():
            raise c.error(f"trailing tokens after assignment: {c.peek().text!r}")
        return Assign(lhs, rhs, lineno=c.lineno)

    def _parse_do(self, c: Cursor) -> DoLoop:
        c.expect("do")
        do_label: Optional[int] = None
        if c.peek().kind is TokenKind.INT:
            do_label = int(c.next().value)  # type: ignore[arg-type]
        var = c.expect_name()
        c.expect("=")
        lo = self._parse_expr(c)
        c.expect(",")
        hi = self._parse_expr(c)
        step = None
        if c.accept(","):
            step = self._parse_expr(c)
        loop = DoLoop(var, lo, hi, step=step, lineno=c.lineno)
        if self.pending_loop_dir is not None:
            loop.directive = self.pending_loop_dir
            self.pending_loop_dir = None
        self._advance()
        if do_label is None:
            loop.body = self._parse_stmts(terminators=("enddo",))
            # current line is the ENDDO / END DO terminator; caller advances
        else:
            loop.body = self._parse_labeled_body(do_label)
        # do NOT advance past terminator here; caller's loop does it
        return loop

    def _parse_labeled_body(self, label: int) -> list[Stmt]:
        """Body of `do 10 i=...` terminated by line '10 continue'."""
        out: list[Stmt] = []
        while self.i < len(self.lines):
            line = self._cur_line()
            if line.is_directive:
                try:
                    self._parse_directive(Cursor(line))
                except ParseError as exc:
                    self._recover(exc)
                self._advance()
                continue
            c = Cursor(line)
            if self._effective_head(c) == "end" and not self._looks_like_assignment(c):
                # leave the END line for the enclosing unit to consume
                self._recover(c.error(f"missing closing label {label} CONTINUE"))
                return out
            if c.peek().kind is TokenKind.INT and int(c.peek().value) == label:  # type: ignore[arg-type]
                c.next()
                if c.accept_name("continue") is None:
                    raise c.error("expected CONTINUE at loop-closing label")
                return out
            lbl = None
            if c.peek().kind is TokenKind.INT:
                lbl = int(c.next().value)  # type: ignore[arg-type]
            try:
                stmt = self._parse_one_stmt(c, lbl)
            except ParseError as exc:
                self._recover(exc)
                stmt = None
            if stmt is not None:
                out.append(stmt)
            self._advance()
        self._recover(
            ParseError(
                f"missing closing label {label} CONTINUE", span=self._eof_span()
            )
        )
        return out

    def _parse_if(self, c: Cursor) -> Stmt:
        c.expect("if")
        c.expect("(")
        cond = self._parse_expr_until_rparen(c)
        if c.accept_name("then"):
            self._advance()
            then_body = self._parse_stmts(terminators=("else", "elseif", "endif", "end"))
            node = IfThen(cond, then_body, lineno=c.lineno)
            cur = node
            while True:
                cc = Cursor(self._cur_line())
                if cc.accept_name("endif"):
                    break
                if cc.peek().text == "end" and cc.peek(1).text == "if":
                    break
                if cc.accept_name("elseif") or (cc.peek().text == "else" and cc.peek(1).text == "if"):
                    if cc.peek().text == "else":
                        cc.next()
                        cc.expect("if")
                    cc.expect("(")
                    cond2 = self._parse_expr_until_rparen(cc)
                    cc.expect("then") if cc.peek().text == "then" else cc.accept_name("then")
                    self._advance()
                    body2 = self._parse_stmts(terminators=("else", "elseif", "endif", "end"))
                    inner = IfThen(cond2, body2, lineno=cc.lineno)
                    cur.else_body = [inner]
                    cur = inner
                    continue
                if cc.accept_name("else"):
                    self._advance()
                    cur.else_body = self._parse_stmts(terminators=("endif", "end"))
                    continue
                raise cc.error("expected ELSE / ELSEIF / ENDIF")
            return node
        # logical IF: if (cond) stmt
        inner_stmt = self._parse_one_stmt(c, None)
        return IfThen(cond, [inner_stmt] if inner_stmt else [], lineno=c.lineno)

    def _parse_expr_until_rparen(self, c: Cursor) -> Expr:
        e = self._parse_expr(c)
        c.expect(")")
        return e

    # ---------------- expressions ----------------
    def _parse_expr(self, c: Cursor) -> Expr:
        return self._parse_or(c)

    def _parse_or(self, c: Cursor) -> Expr:
        e = self._parse_and(c)
        while c.accept(".or."):
            e = BinOp(".or.", e, self._parse_and(c))
        return e

    def _parse_and(self, c: Cursor) -> Expr:
        e = self._parse_not(c)
        while c.accept(".and."):
            e = BinOp(".and.", e, self._parse_not(c))
        return e

    def _parse_not(self, c: Cursor) -> Expr:
        if c.accept(".not."):
            return UnOp(".not.", self._parse_not(c))
        return self._parse_rel(c)

    _REL_OPS = ("==", "/=", "<", "<=", ">", ">=")

    def _parse_rel(self, c: Cursor) -> Expr:
        e = self._parse_addsub(c)
        t = c.peek()
        if t.kind is TokenKind.OP and t.text in self._REL_OPS:
            c.next()
            return BinOp(t.text, e, self._parse_addsub(c))
        return e

    def _parse_addsub(self, c: Cursor) -> Expr:
        e = self._parse_muldiv(c)
        while True:
            if c.accept("+"):
                e = BinOp("+", e, self._parse_muldiv(c))
            elif c.accept("-"):
                e = BinOp("-", e, self._parse_muldiv(c))
            else:
                return e

    def _parse_muldiv(self, c: Cursor) -> Expr:
        e = self._parse_unary(c)
        while True:
            if c.accept("*"):
                e = BinOp("*", e, self._parse_unary(c))
            elif c.accept("/"):
                e = BinOp("/", e, self._parse_unary(c))
            else:
                return e

    def _parse_unary(self, c: Cursor) -> Expr:
        if c.accept("-"):
            return UnOp("-", self._parse_unary(c))
        c.accept("+")
        return self._parse_power(c)

    def _parse_power(self, c: Cursor) -> Expr:
        base = self._parse_primary(c)
        if c.accept("**"):
            return BinOp("**", base, self._parse_unary(c))  # right assoc
        return base

    def _parse_primary(self, c: Cursor) -> Expr:
        t = c.next()
        if t.kind is TokenKind.INT:
            return Num(int(t.value))  # type: ignore[arg-type]
        if t.kind is TokenKind.REAL:
            return Num(float(t.value))  # type: ignore[arg-type]
        if t.kind is TokenKind.STRING:
            return StrLit(str(t.value))
        if t.text == "(":
            e = self._parse_expr(c)
            c.expect(")")
            return e
        if t.text in (".true.", ".false."):
            return Num(1 if t.text == ".true." else 0)
        if t.kind is TokenKind.NAME:
            name = t.text
            if c.peek().text == "(":
                c.next()
                args: list[Expr] = []
                if not c.accept(")"):
                    while True:
                        args.append(self._parse_expr(c))
                        if c.accept(")"):
                            break
                        c.expect(",")
                if self.sub.symbols.is_array(name):
                    return ArrayRef(name, tuple(args))
                return FuncCall(name, tuple(args))
            return Var(name)
        raise ParseError(
            f"unexpected token {t.text or '<end of line>'!r} in expression",
            span=c.span(t),
        )

    # ---------------- HPF directives ----------------
    def _parse_directive(self, c: Cursor) -> None:
        kw = c.expect_name()
        if kw == "processors":
            name = c.expect_name()
            shape: list[Optional[Expr]] = []
            if c.accept("("):
                while not c.accept(")"):
                    if c.accept("*"):
                        shape.append(None)
                    else:
                        shape.append(self._parse_expr(c))
                    c.accept(",")
            self.sub.processors.append(ProcessorsDecl(name, shape))
            return
        if kw == "template":
            name = c.expect_name()
            self.sub.templates.append(TemplateDecl(name, self._parse_dims(c)))
            return
        if kw == "align":
            self._parse_align(c)
            return
        if kw == "distribute":
            self._parse_distribute(c)
            return
        if kw == "independent":
            d = LoopDirective(independent=True)
            while True:
                c.accept(",")
                sub = c.accept_name("new", "localize", "reduction")
                if sub is None:
                    break
                if sub.text == "new":
                    d.new_vars.extend(self._parse_namelist_paren(c))
                elif sub.text == "localize":
                    d.localize_vars.extend(self._parse_namelist_paren(c))
                else:
                    d.reduction_vars.extend(self._parse_namelist_paren(c))
            self.pending_loop_dir = (
                d if self.pending_loop_dir is None else self.pending_loop_dir.merge(d)
            )
            return
        if kw in ("new", "localize"):
            d = LoopDirective()
            names = self._parse_namelist_paren(c)
            (d.new_vars if kw == "new" else d.localize_vars).extend(names)
            self.pending_loop_dir = (
                d if self.pending_loop_dir is None else self.pending_loop_dir.merge(d)
            )
            return
        if kw == "on_home":
            # checked for syntax, then ignored: CP selection picks its own
            # ON_HOME choices and does not read the directive
            while True:
                c.expect_name()
                c.expect("(")
                while not c.accept(")"):
                    self._parse_expr(c)
                    c.accept(",")
                if not (c.accept_name("union") or c.accept(",")):
                    break
            return
        raise c.error(f"unknown HPF directive {kw!r}")

    def _parse_namelist_paren(self, c: Cursor) -> list[str]:
        c.expect("(")
        names = []
        while not c.accept(")"):
            names.append(c.expect_name())
            c.accept(",")
        return names

    def _parse_align(self, c: Cursor) -> None:
        # ALIGN a(i,j) WITH t(i+1,j)  |  ALIGN (i,j) WITH t(i,j) :: a, b
        arrays: list[str] = []
        source_dims: list[str] = []
        if c.peek().text == "(":
            pass  # list form
        else:
            arrays.append(c.expect_name())
        c.expect("(")
        while not c.accept(")"):
            source_dims.append(c.expect_name())
            c.accept(",")
        if not c.accept_name("with"):
            raise c.error("expected WITH in ALIGN")
        template = c.expect_name()
        target: list[Optional[Expr]] = []
        c.expect("(")
        while not c.accept(")"):
            if c.accept("*"):
                target.append(None)
            else:
                target.append(self._parse_expr(c))
            c.accept(",")
        if c.accept("::"):
            while not c.at_eol():
                arrays.append(c.expect_name())
                c.accept(",")
        for a in arrays:
            self.sub.aligns.append(AlignDecl(a, list(source_dims), template, list(target)))

    def _parse_distribute(self, c: Cursor) -> None:
        # DISTRIBUTE (BLOCK, BLOCK) ONTO procs :: a, b
        # DISTRIBUTE a(BLOCK, *) ONTO procs
        arrays: list[str] = []
        if c.peek().text != "(":
            arrays.append(c.expect_name())
        formats: list[DistFormat] = []
        c.expect("(")
        while not c.accept(")"):
            if c.accept("*"):
                formats.append(DistFormat("*"))
            else:
                kind = c.expect_name()
                if kind not in ("block", "cyclic", "multi"):
                    raise c.error(f"unknown distribution format {kind!r}")
                param = None
                if c.accept("("):
                    param = self._parse_expr(c)
                    c.expect(")")
                formats.append(DistFormat(kind, param))
            c.accept(",")
        onto = None
        if c.accept_name("onto"):
            onto = c.expect_name()
        if c.accept("::"):
            while not c.at_eol():
                arrays.append(c.expect_name())
                c.accept(",")
        self.sub.distributes.append(DistributeDecl(arrays, formats, onto))


def parse_source(source: str, sink: Optional[DiagnosticSink] = None) -> Program:
    """Parse a full source string into a Program of units.

    With a lenient *sink* (``DiagnosticSink(strict=False)``) the parser runs
    in panic-mode recovery: each syntax error is recorded with its span and
    the offending line (or unit) is skipped, so one pass reports *all*
    errors.  Without a sink (or with a strict one) the first error raises —
    the historical behavior."""
    lines = Lexer(source, sink).logical_lines()
    prog = Program()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.is_directive:
            exc = ParseError(
                f"line {line.lineno}: directive outside a program unit",
                span=SourceSpan(line.lineno, line_text=line.text or None),
            )
            if sink is None or sink.strict:
                raise exc
            sink.error(
                exc.bare_message, code=exc.code, span=exc.span,
                pass_name="frontend",
            )
            i += 1
            continue
        up = _UnitParser(lines, i, sink)
        try:
            sub = up.parse_unit()
        except ParseError as exc:
            if sink is None or sink.strict:
                raise
            sink.error(
                exc.bare_message, code=exc.code, span=exc.span,
                pass_name="frontend",
            )
            i = max(up.i, i) + 1  # guaranteed progress
            continue
        prog.add(sub)
        i = max(up.i, i + 1)
    return prog


def parse_subroutine(source: str, sink: Optional[DiagnosticSink] = None) -> Subroutine:
    """Parse a single-unit source string and return its unit."""
    prog = parse_source(source, sink)
    if len(prog.units) != 1:
        raise ParseError(f"expected exactly one unit, found {len(prog.units)}")
    return next(iter(prog.units.values()))
