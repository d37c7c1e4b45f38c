"""Tree walkers and loop-nest utilities over the statement IR."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .expr import ArrayRef, Expr, Var
from .stmt import Assign, CallStmt, DoLoop, IfThen, PrintStmt, Stmt


def walk_stmts(body: Iterable[Stmt]) -> Iterator[Stmt]:
    """Pre-order walk over all statements (including nested bodies)."""
    for s in body:
        yield s
        for lst in s.body_lists():
            yield from walk_stmts(lst)


def collect_array_refs(e: Expr) -> list[ArrayRef]:
    """Every ArrayRef in an expression tree, outermost first."""
    return [n for n in e.walk() if isinstance(n, ArrayRef)]


def reads_of(stmt: Stmt) -> list[ArrayRef | Var]:
    """Array/scalar references *read* by a statement (direct exprs only)."""
    out: list[ArrayRef | Var] = []

    def visit(e: Expr) -> None:
        for n in e.walk():
            if isinstance(n, (ArrayRef, Var)):
                out.append(n)

    if isinstance(stmt, Assign):
        visit(stmt.rhs)
        # subscripts of the lhs are reads too
        if isinstance(stmt.lhs, ArrayRef):
            for s in stmt.lhs.subscripts:
                visit(s)
    elif isinstance(stmt, DoLoop):
        visit(stmt.lo)
        visit(stmt.hi)
        visit(stmt.step)
    elif isinstance(stmt, IfThen):
        visit(stmt.cond)
    elif isinstance(stmt, (CallStmt, PrintStmt)):
        for a in stmt.args:
            visit(a)
    return out


def build_parent_map(body: Iterable[Stmt]) -> dict[int, Optional[Stmt]]:
    """Map each statement sid to its enclosing statement (None at top level)."""
    parents: dict[int, Optional[Stmt]] = {}

    def rec(stmts: Iterable[Stmt], parent: Optional[Stmt]) -> None:
        for s in stmts:
            parents[s.sid] = parent
            for lst in s.body_lists():
                rec(lst, s)

    rec(body, None)
    return parents


def enclosing_loops(stmt: Stmt, parents: dict[int, Optional[Stmt]]) -> list[DoLoop]:
    """Loops around a statement, outermost first."""
    out: list[DoLoop] = []
    cur = parents.get(stmt.sid)
    while cur is not None:
        if isinstance(cur, DoLoop):
            out.append(cur)
        cur = parents.get(cur.sid)
    return list(reversed(out))


def map_body(
    body: list[Stmt], fn: Callable[[Stmt], "Stmt | list[Stmt] | None"]
) -> list[Stmt]:
    """Rebuild a body applying fn to each statement.

    fn returns a replacement statement, a list of replacements, or None to
    keep the original.  Recurses into nested bodies first.
    """
    out: list[Stmt] = []
    for s in body:
        for lst in s.body_lists():
            lst[:] = map_body(lst, fn)
        r = fn(s)
        if r is None:
            out.append(s)
        elif isinstance(r, Stmt):
            out.append(r)
        else:
            out.extend(r)
    return out
