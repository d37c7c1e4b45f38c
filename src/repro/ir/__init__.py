"""Intermediate representation for the mini-Fortran + HPF frontend.

The IR is a conventional tree of statements over Fortran expressions, with
enough structure for the dHPF analyses: array references with affine
subscript extraction, DO-loop nests with index vectors, per-statement unique
ids, symbol tables with array bounds and COMMON blocks, and attached HPF
directive information (PROCESSORS / TEMPLATE / ALIGN / DISTRIBUTE /
INDEPENDENT / NEW / LOCALIZE / ON_HOME).
"""

from .expr import (
    Expr,
    Num,
    Var,
    BinOp,
    UnOp,
    ArrayRef,
    FuncCall,
    StrLit,
    to_affine,
)
from .stmt import Stmt, Assign, DoLoop, IfThen, CallStmt, Continue, Return, PrintStmt
from .symbols import VarDecl, SymbolTable, FortranType
from .program import Subroutine, Program
from .directives import (
    ProcessorsDecl,
    TemplateDecl,
    AlignDecl,
    DistributeDecl,
    LoopDirective,
    OnHomeDirective,
)
from .visit import (
    walk_stmts,
    collect_array_refs,
    enclosing_loops,
    build_parent_map,
    reads_of,
)

__all__ = [
    "Expr", "Num", "Var", "BinOp", "UnOp", "ArrayRef", "FuncCall", "StrLit",
    "to_affine",
    "Stmt", "Assign", "DoLoop", "IfThen", "CallStmt", "Continue", "Return",
    "PrintStmt",
    "VarDecl", "SymbolTable", "FortranType",
    "Subroutine", "Program",
    "ProcessorsDecl", "TemplateDecl", "AlignDecl", "DistributeDecl",
    "LoopDirective", "OnHomeDirective",
    "walk_stmts", "collect_array_refs", "enclosing_loops",
    "build_parent_map", "reads_of",
]
