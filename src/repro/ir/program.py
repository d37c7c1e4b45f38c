"""Program units: subroutines and whole programs, plus the call graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import networkx as nx

from .directives import AlignDecl, DistributeDecl, ProcessorsDecl, TemplateDecl
from .stmt import CallStmt, Stmt
from .symbols import SymbolTable
from .visit import walk_stmts


@dataclass
class Subroutine:
    """One program unit (SUBROUTINE or main PROGRAM).

    HPF declarative directives are collected here; executable directives
    hang off individual DO loops.
    """

    name: str
    args: list[str] = field(default_factory=list)
    symbols: SymbolTable = field(default_factory=SymbolTable)
    body: list[Stmt] = field(default_factory=list)
    processors: list[ProcessorsDecl] = field(default_factory=list)
    templates: list[TemplateDecl] = field(default_factory=list)
    aligns: list[AlignDecl] = field(default_factory=list)
    distributes: list[DistributeDecl] = field(default_factory=list)
    is_main: bool = False

    def statements(self) -> Iterator[Stmt]:
        yield from walk_stmts(self.body)

    def calls(self) -> list[CallStmt]:
        return [s for s in self.statements() if isinstance(s, CallStmt)]

    def __repr__(self) -> str:
        return f"<Subroutine {self.name} args={self.args}>"


@dataclass
class Program:
    """A whole compilation unit: several subroutines, one optionally main."""

    units: dict[str, Subroutine] = field(default_factory=dict)

    def add(self, sub: Subroutine) -> None:
        self.units[sub.name.lower()] = sub

    def get(self, name: str) -> Subroutine:
        return self.units[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.units

    @property
    def main(self) -> Optional[Subroutine]:
        for u in self.units.values():
            if u.is_main:
                return u
        return None

    def call_graph(self) -> "nx.DiGraph":
        """Caller -> callee digraph over units defined in this program."""
        g = nx.DiGraph()
        for u in self.units.values():
            g.add_node(u.name.lower())
        for u in self.units.values():
            for c in u.calls():
                if c.name.lower() in self.units:
                    g.add_edge(u.name.lower(), c.name.lower())
        return g

    def bottom_up_order(self) -> list[Subroutine]:
        """Units in reverse topological (callee-first) order.

        Raises on recursion — the mini-language (like F77) forbids it.
        """
        g = self.call_graph()
        try:
            order = list(nx.topological_sort(g))
        except nx.NetworkXUnfeasible as exc:
            from ..diag import E_RECURSION, CompileError

            cycle = nx.find_cycle(g)
            names = [u for u, _ in cycle] + [cycle[-1][1]]
            raise CompileError(
                f"recursive call graph is not supported: {' -> '.join(names)}",
                code=E_RECURSION,
                pass_name="ir",
            ) from exc
        return [self.units[name] for name in reversed(order)]
