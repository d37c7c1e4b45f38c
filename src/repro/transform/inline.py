"""Procedure inlining for the mini-Fortran IR.

Supports the pattern the paper needed: a leaf subroutine whose dummies are
scalars or whole arrays bound to scalar expressions / array-element
actuals, inlined at a call site.  Dummy names are renamed with a unique
suffix; array-element actuals use Fortran sequence association, which we
realize by rewriting the callee's subscripts with the actual's anchor
offsets (supported when the dummy's shape matches a contiguous suffix of
the actual's — the common whole-column/VECTOR case).
"""

from __future__ import annotations

import re

from ..ir.expr import ArrayRef, BinOp, Expr, FuncCall, Num, UnOp, Var
from ..ir.program import Program, Subroutine
from ..ir.stmt import Assign, CallStmt, Continue, DoLoop, IfThen, PrintStmt, Return, Stmt
from ..ir.symbols import VarDecl
from ..ir.visit import map_body, walk_stmts


class InlineError(Exception):
    """The call site does not fit the supported inlining patterns."""


def _clone_stmt(s: Stmt, rename: dict[str, "Expr | str"]) -> Stmt:
    """Deep-copy a statement applying variable renaming/substitution.

    ``rename`` maps callee names either to replacement *names* (str, for
    arrays and loop variables) or replacement *expressions* (for scalar
    actuals).
    """
    def rx(e: Expr) -> Expr:
        return _rewrite_expr(e, rename)

    if isinstance(s, Assign):
        lhs = rx(s.lhs)
        if not isinstance(lhs, (ArrayRef, Var)):
            raise InlineError(f"assignment target became {lhs}")
        return Assign(lhs, rx(s.rhs), s.label, s.lineno)
    if isinstance(s, DoLoop):
        nl = DoLoop(
            _renamed_name(s.var, rename),
            rx(s.lo),
            rx(s.hi),
            [_clone_stmt(c, rename) for c in s.body],
            rx(s.step),
            s.label,
            s.lineno,
        )
        nl.directive = s.directive
        return nl
    if isinstance(s, IfThen):
        return IfThen(
            rx(s.cond),
            [_clone_stmt(c, rename) for c in s.then_body],
            [_clone_stmt(c, rename) for c in s.else_body],
            s.label,
            s.lineno,
        )
    if isinstance(s, Continue):
        return Continue(s.label, s.lineno)
    if isinstance(s, Return):
        # RETURN inside an inlined body only supported as the final stmt;
        # callers strip it. Reaching here means a mid-body return.
        raise InlineError("RETURN in the middle of an inlined body")
    if isinstance(s, CallStmt):
        return CallStmt(s.name, [rx(a) for a in s.args], s.label, s.lineno)
    if isinstance(s, PrintStmt):
        return PrintStmt([rx(a) for a in s.args], s.label, s.lineno)
    raise InlineError(f"cannot inline statement {type(s).__name__}")


def _renamed_name(name: str, rename: dict) -> str:
    r = rename.get(name.lower())
    if r is None:
        return name
    if isinstance(r, str):
        return r
    raise InlineError(f"loop variable {name} bound to an expression")


def _rewrite_expr(e: Expr, rename: dict) -> Expr:
    if isinstance(e, Var):
        r = rename.get(e.name.lower())
        if r is None:
            return e
        return Var(r) if isinstance(r, str) else r
    if isinstance(e, ArrayRef):
        subs = tuple(_rewrite_expr(s, rename) for s in e.subscripts)
        r = rename.get(e.name.lower())
        if r is None:
            return ArrayRef(e.name, subs)
        if isinstance(r, str):
            return ArrayRef(r, subs)
        if isinstance(r, ArrayRef):
            # sequence-association anchor: dummy w(q) bound to actual
            # a(e1,...,ek): dummy dim i maps onto actual dim i with the
            # anchor's offset added in that dim; remaining dims keep the
            # anchor subscripts.
            anchor = r
            new_subs = []
            for d, asub in enumerate(anchor.subscripts):
                if d < len(subs):
                    # dummy lower bound is normalized by the caller binding
                    new_subs.append(BinOp("+", asub, BinOp("-", subs[d], Num(1))))
                else:
                    new_subs.append(asub)
            return ArrayRef(anchor.name, tuple(new_subs))
        raise InlineError(f"array {e.name} bound to {r}")
    if isinstance(e, BinOp):
        return BinOp(e.op, _rewrite_expr(e.left, rename), _rewrite_expr(e.right, rename))
    if isinstance(e, UnOp):
        return UnOp(e.op, _rewrite_expr(e.operand, rename))
    if isinstance(e, FuncCall):
        return FuncCall(e.name, tuple(_rewrite_expr(a, rename) for a in e.args))
    return e


def inline_call(caller: Subroutine, call: CallStmt, callee: Subroutine) -> list[Stmt]:
    """Return the replacement statements for one CALL.

    Scalar dummies bound to expressions are substituted textually (only
    valid when the callee does not assign them — checked).  Array dummies
    bound to whole arrays are renamed; bound to array-element anchors use
    sequence association (see :func:`_rewrite_expr`).  Local variables are
    renamed with a fresh suffix and declared in the caller.
    """
    if len(call.args) != len(callee.args):
        raise InlineError(f"{call.name}: argument count mismatch")
    suffix = _fresh_suffix(caller)
    rename: dict[str, Expr | str] = {}
    assigned = {
        s.target_name.lower() for s in walk_stmts(callee.body) if isinstance(s, Assign)
    }
    for dummy, actual in zip(callee.args, call.args):
        d = dummy.lower()
        decl = callee.symbols.require(d)
        if decl.is_array:
            if isinstance(actual, Var):
                rename[d] = actual.name  # whole-array binding
            elif isinstance(actual, ArrayRef):
                if any(lb != 1 for lb in decl.lower_bounds(callee.symbols.parameter_values())):
                    raise InlineError(f"dummy {d}: non-unit lower bounds unsupported")
                # per-dim sequence association is only valid when the
                # dummy's extents match the actual's leading extents (so
                # subscript arithmetic never spills across a dimension)
                caller_decl = caller.symbols.lookup(actual.name)
                if caller_decl is None or not caller_decl.is_array:
                    raise InlineError(f"anchor {actual.name} not a caller array")
                dshape = decl.shape_ints(callee.symbols.parameter_values())
                ashape = caller_decl.shape_ints(caller.symbols.parameter_values())
                for k_, ext in enumerate(dshape[:-1]):
                    if k_ >= len(ashape) or ashape[k_] != ext:
                        raise InlineError(
                            f"dummy {d}{dshape} does not tile actual "
                            f"{actual.name}{ashape}: sequence association "
                            "would cross dimensions"
                        )
                rename[d] = actual  # anchor
            else:
                raise InlineError(f"array dummy {d} bound to expression")
        else:
            if d in assigned:
                if isinstance(actual, Var):
                    rename[d] = actual.name  # by-reference scalar
                else:
                    raise InlineError(f"assigned scalar dummy {d} needs a variable actual")
            else:
                rename[d] = actual  # read-only: substitute the expression

    # rename callee locals (declared, not dummy, not parameter)
    for decl in callee.symbols.all():
        lname = decl.name.lower()
        if decl.is_dummy_arg or decl.is_parameter or lname in rename:
            continue
        fresh = f"{lname}{suffix}"
        rename[lname] = fresh
        nd = VarDecl(fresh, decl.ftype, list(decl.dims))
        caller.symbols.declare(nd)
    # parameters: substitute their values
    for decl in callee.symbols.parameters():
        pv = callee.symbols.parameter_values().get(decl.name)
        if pv is not None and decl.name.lower() not in rename:
            rename[decl.name.lower()] = Num(pv)

    body = list(callee.body)
    while body and isinstance(body[-1], (Return, Continue)):
        body = body[:-1]
    return [_clone_stmt(s, rename) for s in body]


def _fresh_suffix(caller: Subroutine) -> str:
    """``_inl<N>``, *N* one past the highest such suffix the caller's
    symbols carry: the same names whatever the process inlined before."""
    taken = (re.search(r"_inl(\d+)$", d.name.lower()) for d in caller.symbols.all())
    return f"_inl{max((int(m.group(1)) for m in taken if m), default=0) + 1}"


def inline_calls(program: Program, caller_name: str, callee_name: str) -> int:
    """Inline every call to *callee* inside *caller*; returns the count."""
    caller = program.get(caller_name)
    callee = program.get(callee_name)
    count = 0

    def fn(s: Stmt):
        nonlocal count
        if isinstance(s, CallStmt) and s.name.lower() == callee_name.lower():
            count += 1
            return inline_call(caller, s, callee)
        return None

    caller.body = map_body(caller.body, fn)
    return count
