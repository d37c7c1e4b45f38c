"""Fortran expression AST and affine subscript extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..isets.terms import LinExpr


class Expr:
    """Base class of all expressions. Immutable value objects."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        yield self
        for c in self.children():
            yield from c.walk()


@dataclass(frozen=True)
class Num(Expr):
    """Numeric literal. ``value`` is int or float; Fortran d0 suffixes are
    normalized to Python floats by the lexer."""

    value: int | float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class StrLit(Expr):
    """Character literal (only used in PRINT)."""

    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class Var(Expr):
    """Scalar variable reference (or whole-array reference in a CALL)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation. op in {+,-,*,/,**,==,!=,<,<=,>,>=,.and.,.or.}."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation. op in {-, .not.}."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class ArrayRef(Expr):
    """``name(sub1, sub2, ...)`` — an array element reference.

    The same node type also represents what might syntactically be a
    function call; the parser resolves the ambiguity using the symbol table
    (declared arrays become ArrayRef, everything else FuncCall).
    """

    name: str
    subscripts: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.subscripts

    @property
    def rank(self) -> int:
        return len(self.subscripts)

    def affine_subscripts(self) -> "tuple[LinExpr, ...] | None":
        """All subscripts as LinExprs, or None if any is non-affine."""
        out = []
        for s in self.subscripts:
            a = to_affine(s)
            if a is None:
                return None
            out.append(a)
        return tuple(out)

    def __str__(self) -> str:
        return f"{self.name}({','.join(map(str, self.subscripts))})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """Intrinsic or user function call in an expression."""

    name: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({','.join(map(str, self.args))})"


def to_affine(e: Expr) -> LinExpr | None:
    """Convert an integer expression to a LinExpr over variable names.

    Returns None for anything non-affine (products of variables, division,
    function calls, float literals).  Loop induction variables and symbolic
    parameters are both just names at this level.
    """
    if isinstance(e, Num):
        if isinstance(e.value, int):
            return LinExpr.const(e.value)
        return None
    if isinstance(e, Var):
        return LinExpr.var(e.name)
    if isinstance(e, UnOp) and e.op == "-":
        inner = to_affine(e.operand)
        return None if inner is None else -inner
    if isinstance(e, BinOp):
        if e.op == "+":
            l, r = to_affine(e.left), to_affine(e.right)
            return None if l is None or r is None else l + r
        if e.op == "-":
            l, r = to_affine(e.left), to_affine(e.right)
            return None if l is None or r is None else l - r
        if e.op == "*":
            l, r = to_affine(e.left), to_affine(e.right)
            if l is not None and l.is_constant() and r is not None:
                return r * l.constant
            if r is not None and r.is_constant() and l is not None:
                return l * r.constant
            return None
    return None


def from_affine(a: LinExpr) -> Expr:
    """Convert a LinExpr back into an expression tree (for codegen)."""
    e: Expr | None = None

    def add(term: Expr) -> None:
        nonlocal e
        e = term if e is None else BinOp("+", e, term)

    for name, c in a.coeffs.items():
        v: Expr = Var(name)
        if c == 1:
            add(v)
        elif c == -1:
            add(UnOp("-", v))
        else:
            add(BinOp("*", Num(c), v))
    if a.constant != 0 or e is None:
        add(Num(a.constant))
    assert e is not None
    return e


def substitute_expr(e: Expr, binding: dict[str, Expr]) -> Expr:
    """Replace scalar Var nodes by expressions (used for inlining/codegen)."""
    if isinstance(e, Var):
        return binding.get(e.name, e)
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute_expr(e.left, binding), substitute_expr(e.right, binding))
    if isinstance(e, UnOp):
        return UnOp(e.op, substitute_expr(e.operand, binding))
    if isinstance(e, ArrayRef):
        return ArrayRef(e.name, tuple(substitute_expr(s, binding) for s in e.subscripts))
    if isinstance(e, FuncCall):
        return FuncCall(e.name, tuple(substitute_expr(a, binding) for a in e.args))
    return e
