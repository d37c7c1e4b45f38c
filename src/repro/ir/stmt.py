"""Statement AST: assignments, DO loops, IF, CALL.

Every statement carries a ``sid``, unique within its compilation, used
as the key for analysis results (dependence edges, CP assignments,
communication events).  Statements are mutable containers (bodies are
lists) because the compiler restructures them (loop distribution), but
expressions are immutable.

Sids are allocated from a *thread-local* counter that the pipeline
resets at the start of every compilation (:func:`reset_sids`).  This
makes compilation deterministic: the sids leak into emitted node
programs (``G.boxes(<sid>, ...)``), so a process-global counter would
make the same source compile to different bytes depending on what the
process compiled before — breaking the plan cache's bitwise warm==cold
contract and the chaos harness's fault-free-identity invariant.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Optional

from .expr import ArrayRef, Expr, Num, Var

_sids = threading.local()


def _next_sid() -> int:
    n = getattr(_sids, "next", 1)
    _sids.next = n + 1
    return n


def reset_sids(start: int = 1) -> None:
    """Restart this thread's sid allocator at *start*.

    The staged pipeline calls this with 1 before a fresh parse, and with
    ``max(sid) + 1`` of a warm artifact's statements before resuming a
    compilation mid-pipeline — so statements created by later transforms
    (loop distribution, inlining, interchange) get the same sids warm as
    they would cold."""
    _sids.next = start


class Stmt:
    """Base statement. ``sid`` is unique within a compilation; ``label``
    is an optional human-readable tag (the paper numbers statements
    1..30)."""

    __slots__ = ("sid", "label", "lineno")

    def __init__(self, label: str | None = None, lineno: int = 0):
        self.sid: int = _next_sid()
        self.label = label
        self.lineno = lineno

    def body_lists(self) -> "list[list[Stmt]]":
        """Lists of child statements (for tree walking/rewriting)."""
        return []

    def __repr__(self) -> str:
        return f"<{type(self).__name__} sid={self.sid}{' ' + self.label if self.label else ''}>"


class Assign(Stmt):
    """``lhs = rhs``. lhs is an ArrayRef (element) or Var (scalar)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: ArrayRef | Var, rhs: Expr, label: str | None = None, lineno: int = 0):
        super().__init__(label, lineno)
        if not isinstance(lhs, (ArrayRef, Var)):
            raise TypeError(f"invalid assignment target {lhs!r}")
        self.lhs = lhs
        self.rhs = rhs

    @property
    def target_name(self) -> str:
        return self.lhs.name

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


class DoLoop(Stmt):
    """``do var = lo, hi [, step] ... enddo``."""

    __slots__ = ("var", "lo", "hi", "step", "body", "directive")

    def __init__(
        self,
        var: str,
        lo: Expr,
        hi: Expr,
        body: Iterable[Stmt] = (),
        step: Expr | None = None,
        label: str | None = None,
        lineno: int = 0,
    ):
        super().__init__(label, lineno)
        self.var = var
        self.lo = lo
        self.hi = hi
        self.step = step or Num(1)
        self.body: list[Stmt] = list(body)
        # LoopDirective attached by the frontend (INDEPENDENT/NEW/LOCALIZE)
        self.directive = None

    def body_lists(self) -> list[list[Stmt]]:
        return [self.body]

    def __str__(self) -> str:
        return f"do {self.var} = {self.lo}, {self.hi}" + (
            f", {self.step}" if not (isinstance(self.step, Num) and self.step.value == 1) else ""
        )


class IfThen(Stmt):
    """``if (cond) then ... [else ...] endif``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: Expr,
        then_body: Iterable[Stmt] = (),
        else_body: Iterable[Stmt] = (),
        label: str | None = None,
        lineno: int = 0,
    ):
        super().__init__(label, lineno)
        self.cond = cond
        self.then_body: list[Stmt] = list(then_body)
        self.else_body: list[Stmt] = list(else_body)

    def body_lists(self) -> list[list[Stmt]]:
        return [self.then_body, self.else_body]

    def __str__(self) -> str:
        return f"if ({self.cond}) then ..."


class CallStmt(Stmt):
    """``call name(args)``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Iterable[Expr] = (), label: str | None = None, lineno: int = 0):
        super().__init__(label, lineno)
        self.name = name
        self.args: tuple[Expr, ...] = tuple(args)

    def __str__(self) -> str:
        return f"call {self.name}({', '.join(map(str, self.args))})"


class Continue(Stmt):
    """``continue`` — a no-op (loop-closing labels in F77)."""

    def __str__(self) -> str:
        return "continue"


class Return(Stmt):
    """``return``."""

    def __str__(self) -> str:
        return "return"


class PrintStmt(Stmt):
    """``print *, args`` — only used by examples/tests of the interpreter."""

    __slots__ = ("args",)

    def __init__(self, args: Iterable[Expr] = (), label: str | None = None, lineno: int = 0):
        super().__init__(label, lineno)
        self.args: tuple[Expr, ...] = tuple(args)

    def __str__(self) -> str:
        return f"print *, {', '.join(map(str, self.args))}"
