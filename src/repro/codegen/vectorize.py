"""Vectorizing backend: NumPy slice emission for affine loop nests.

The scalar backend emits one Python statement per loop iteration per
assignment.  This pass proves, per innermost affine loop — or per
rectangular nest of loops — that executing each assignment over a whole
admissible index block at once is observationally identical to the scalar
interleaving, then emits NumPy slice assignments over
:meth:`FortranArray.vget`/``vset`` instead.  In a nest only the loops that
carry a dependence stay Python loops; every other loop is a dimension of
each statement's block.

Safety argument (see DESIGN.md "Vectorizing backend"):

* **Loop distribution.**  Emitting the body statements as separate
  full-range sweeps in textual order is legal iff no carried dependence
  (at any vectorized level) runs from a textually-later statement to an
  earlier one.  Forward carried dependences and all loop-independent
  dependences are preserved by construction (a statement's sweep completes
  before the next statement starts).
* **Same-statement carried dependences** are allowed when the statement is
  emitted as a scalar mini-loop (original iteration order preserved), or —
  for *anti* dependences carried by the innermost vectorized level only —
  when emitted vectorized: the guard cover executes boxes in lexicographic
  iteration order, and NumPy materializes the full right-hand side of each
  box before any element is stored.  An anti dependence carried by an
  *outer* vectorized level can cross cover boxes against iteration order
  (guard holes split rows into blocks), so that level stays sequential.
* **Loop sinking.**  In a rectangular nest, all vector loops move inside
  all sequential ones, relative order kept within each class; the vector
  loops are then distributed over the body items and each statement runs
  over its whole box.  A dependence carried at a sequential level l has
  ``=`` on every loop outside l, so after the move the same loop still
  carries it with only ``=`` in front; and a loop that moves across a
  sequential one carries *nothing*, so distribution meets only level-0
  (textually forward) edges — the loop-distribution argument above.  The
  two tolerated carried edges (forward cross-statement, innermost anti)
  are honoured only on a loop with no sequential loop inside it: a
  forward edge ``(<, *)`` on ``(j, i)`` may have ``i1 > i2``, and with
  ``j`` sunk inside a sequential ``i`` its sink would run first.  A loop
  one statement's subscripts cannot slice (coupled or diagonal, as in
  ``lhs(q,q,2,i,j,k)``) runs sequentially for that statement alone, around
  its cover loop; it carries at most the tolerated edges, so running it in
  order for one statement is distribution again.
* **Scalar expansion.**  A scalar written once per iteration and only read
  afterwards becomes a block-shaped vector temporary.  Under computation-
  partition guards this is bitwise-safe only when every reader's guard is
  subsumed by the writer's (checked via ON_HOME-term subsumption), so no
  reader ever observes a stale value that the scalar backend would have
  kept from an earlier admitted iteration.  Nests expand scalars only when
  no loop is sequential (the temporaries are shaped for one whole block).
* **Guard covers.**  Per-statement CP guards are realized as maximal
  contiguous runs of admissible innermost indices (:meth:`Guards.segments`)
  or, for multi-level blocks, as an exact lexicographically-ordered box
  cover (:meth:`Guards.boxes`) at the vector positions for fixed
  sequential indices, so each guarded statement is a short loop over
  slices, not over points.
* **Statement merging.**  Consecutive vectorized statements whose guards
  have the same canonical data partition (§5 ``cp_key``) and with no
  carried dependence between them share one cover loop: per box they
  execute in textual order, which preserves their loop-independent
  dependences, and carried dependences between group members are excluded
  outright.
* **Orientation.**  Fortran's column-major subscript order means the
  innermost loop index usually indexes the *first* array axis.  Each
  statement's block adopts the axis order of its store (expanded
  temporaries that of the nest's first store); every other reference must
  use a subsequence of that order (NumPy keeps slice axes in array order),
  and lower-dimensional sections are broadcast-lifted with unit axes at
  the orientation positions they do not vary with.

A loop heads a nest plan only if it passes a syntactic screen
(:func:`_nest_tree`: a loop beneath it, every store beneath it sliceable
along it, every scalar write expandable) — the dependence pass over a
whole nest is the expensive step, and a loop that fails the screen could
only ever be sequential.  Everything unprovable falls back level-by-level
(a loop that cannot head a plan, or would be sequential in it, is emitted
as a Python loop and planning restarts in its body), then
statement-by-statement (scalar mini-loops inside the vectorized innermost
loop), then loop-wise to the scalar backend; the decision log is kept on
the kernel as ``vector_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from ..analysis.dependence import DependenceAnalyzer
from ..cp.model import cp_key
from ..ir.expr import ArrayRef, BinOp, Expr, FuncCall, Num, UnOp, Var, from_affine, to_affine
from ..ir.stmt import Assign, Continue, DoLoop
from ..isets import LinExpr
from .pyemit import emit_expr

if TYPE_CHECKING:
    from .spmd import CompiledKernel


class VectorUnsupported(Exception):
    """A statement (or loop) cannot be proven safe to vectorize; the caller
    falls back to scalar emission.  The message is the fallback reason.

    ``var`` names the one loop index the access rules cannot slice (a
    coupled or diagonal subscript, a non-positive stride, a store that does
    not vary with it, an orientation clash): the nest planner then runs
    that loop sequentially *for this statement* and retries.  ``None``
    means no choice of vector levels helps."""

    def __init__(self, message: str, var: Optional[str] = None):
        super().__init__(message)
        self.var = var


#: intrinsics with an elementwise numpy equivalent that matches the scalar
#: backend's helper bit-for-bit (same ufunc / same formula)
_VECFUNC = {
    "sqrt": "K.np.sqrt", "dsqrt": "K.np.sqrt",
    "abs": "K.np.abs", "dabs": "K.np.abs",
    "exp": "K.np.exp", "dexp": "K.np.exp",
    "log": "K.np.log", "dlog": "K.np.log",
    "sin": "K.np.sin", "cos": "K.np.cos", "tan": "K.np.tan", "atan": "K.np.arctan",
    "mod": "K.vmod", "nint": "K.vnint", "int": "K.vint",
    "dble": "K.vdbl", "real": "K.vdbl", "float": "K.vdbl",
    "sign": "K.vsign",
}

_VEC_BINOP = {
    "+": "+", "-": "-", "*": "*", "**": "**",
    "==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}


@dataclass
class _Ctx:
    """Emission context for one vector block.

    ``lo``/``hi`` are Python source fragments for the inclusive innermost
    index range being emitted (a guard segment/box edge, or the whole loop
    range for expanded temporaries); ``base`` is the loop's lower bound,
    the origin of every expanded temporary.

    ``outer`` lists additionally-vectorized enclosing loop levels as
    ``(var, lo, hi, base)`` tuples, outermost first: expressions then
    evaluate over an N-d block, with partial-axes subexpressions broadcast-
    lifted per ``orient`` (the loop indices in array-axis order, adopted
    from the nest's first store)."""

    var: str
    locals_: set
    expanded: Mapping[str, str]
    written: frozenset
    lo: str
    hi: str
    base: str
    outer: tuple = ()
    orient: Optional[tuple] = None

    def vec_vars(self) -> tuple:
        """The vectorized loop indices, outermost first."""
        return tuple(o[0] for o in self.outer) + (self.var,)

    def range_of(self, v: str) -> tuple[str, str]:
        if v == self.var:
            return self.lo, self.hi
        for name, lo, hi, _base in self.outer:
            if name == v:
                return lo, hi
        raise KeyError(v)

    def base_of(self, v: str) -> str:
        if v == self.var:
            return self.base
        for name, _lo, _hi, base in self.outer:
            if name == v:
                return base
        raise KeyError(v)


@dataclass
class _StmtPlan:
    stmt: Assign
    vector: bool
    reason: str = ""
    #: ('array', name, subs_src) | ('expand', name, temp) — plus rhs_src
    payload: tuple | None = None
    rhs_src: str = ""
    #: nest plans only — the statement's vector levels as ``(depth, loop)``
    #: pairs, outermost first; the loops that run sequentially for this
    #: statement alone (emitted around its cover loop); and its block's
    #: orientation (vector loop indices in array-axis order)
    vec: tuple = ()
    own: tuple = ()
    orient: tuple = ()


@dataclass
class LoopReport:
    """One loop's (or loop chain's) vectorization outcome (perf diagnostics)."""

    loop_var: str
    sid: int
    status: str  # 'vector' | 'scalar' | 'mixed'
    reason: str = ""
    vector_sids: tuple = ()
    scalar_sids: tuple = ()
    expanded: tuple = ()
    #: nest plans: the loops kept as Python loops around the blocks
    sequential: tuple = ()

    def __repr__(self) -> str:
        extra = f" ({self.reason})" if self.reason else ""
        return f"<do {self.loop_var}: {self.status}{extra}>"


@dataclass
class LoopPlan:
    fallback: Optional[str]
    stmts: list = field(default_factory=list)
    expanded: dict = field(default_factory=dict)
    report: LoopReport = None  # type: ignore[assignment]
    #: carried (src_sid, dst_sid) pairs between distinct statements — these
    #: must not share a merged cover loop
    carried_pairs: frozenset = frozenset()

    @property
    def any_vector(self) -> bool:
        return any(s.vector for s in self.stmts)


@dataclass
class NestPlan:
    """A rectangular loop nest emitted as N-d blocks: the loops in ``seq``
    stay Python loops (outermost, relative order kept), every other loop is
    a vector dimension of each statement's guard boxes."""

    top: DoLoop
    seq: frozenset           # sids of the loops sequential for the whole nest
    stmts: dict              # sid -> _StmtPlan
    #: carried (src_sid, dst_sid) pairs between distinct statements — these
    #: must not share a merged cover loop
    carried_pairs: frozenset = frozenset()
    report: LoopReport = None  # type: ignore[assignment]


def _var_names(e: Expr) -> set[str]:
    return {n.name.lower() for n in e.walk() if isinstance(n, Var)}


def _scalar_reads(stmt: Assign) -> set[str]:
    """Scalar names read anywhere in a statement (rhs + lhs subscripts)."""
    names = _var_names(stmt.rhs)
    if isinstance(stmt.lhs, ArrayRef):
        for s in stmt.lhs.subscripts:
            names |= _var_names(s)
    return names


def _is_subseq(sub, seq) -> bool:
    it = iter(seq)
    return all(v in it for v in sub)


def _guard_key(kernel: "CompiledKernel", sid: int):
    """Canonical identity of a statement's guard iteration set.

    Statements in the same loop body whose keys compare equal are admitted
    on identical iteration sets on every rank: their guards are built from
    the same nest bounds intersected with the union of their ON_HOME term
    sets, and ``cp_key`` (§5) identifies terms that induce the same data
    partition.  ``None`` means unguarded/replicated (full range)."""
    scp = kernel.cps.get(sid)
    if scp is None or scp.cp.is_replicated:
        return None
    keys = set()
    for t in scp.cp.terms:
        k = cp_key(t, kernel.ctx)
        if k is None:
            return None  # undistributed term replicates the statement
        keys.add(k)
    return frozenset(keys)


def _merge_groups(kernel: "CompiledKernel", plans, carried_pairs):
    """Partition consecutive vector statements into merge groups: equal
    guard keys and no carried dependence between group members."""
    groups: list[list] = []
    for p in plans:
        if groups:
            g = groups[-1]
            if (
                _guard_key(kernel, p.stmt.sid) == _guard_key(kernel, g[0].stmt.sid)
                and not any(
                    (a.stmt.sid, p.stmt.sid) in carried_pairs
                    or (p.stmt.sid, a.stmt.sid) in carried_pairs
                    for a in g
                )
            ):
                g.append(p)
                continue
        groups.append([p])
    return groups


# ---------------------------------------------------------------------------
# vector expression emission
# ---------------------------------------------------------------------------

def _check_plain(names: set[str], ctx: _Ctx, where: str) -> None:
    bad = names & ctx.written
    if bad:
        raise VectorUnsupported(f"{where} reads loop-written scalar {sorted(bad)[0]!r}")
    bad = names & set(ctx.expanded)
    if bad:
        raise VectorUnsupported(f"{where} uses expanded scalar {sorted(bad)[0]!r}")


def _slice_src(s: Expr, ref_name: str, var: str, lo: str, hi: str, ctx: _Ctx) -> str:
    """``K.fsl`` source for one subscript affine in *var* over [lo, hi]."""
    a = to_affine(s)
    if a is None:
        raise VectorUnsupported(
            f"non-affine subscript {s} of {ref_name} uses {var}", var
        )
    c = a.coeff(var)
    rest = a - LinExpr({var: c})
    if c <= 0:
        raise VectorUnsupported(
            f"subscript {s} of {ref_name}: non-positive stride {c} in {var}", var
        )
    _check_plain({v.lower() for v in rest.vars()}, ctx, f"subscript {s}")
    rest_src = emit_expr(from_affine(rest), ctx.locals_)
    if c == 1:
        return f"K.fsl({lo} + ({rest_src}), {hi} + ({rest_src}))"
    return f"K.fsl({c}*{lo} + ({rest_src}), {c}*{hi} + ({rest_src}), {c})"


def _emit_array_access(ref: ArrayRef, ctx: _Ctx, write: bool) -> tuple[str, tuple]:
    """Subscript-tuple source for an array section; returns ``(subs, used)``
    where *used* lists the vectorized loop indices in axis order."""
    vecs = ctx.vec_vars()
    subs_src = []
    used: list[str] = []
    for s in ref.subscripts:
        names = _var_names(s)
        vec_here = [v for v in vecs if v in names]
        if len(vec_here) > 1:
            raise VectorUnsupported(
                f"subscript {s} of {ref.name} couples loop indices "
                f"{'/'.join(vec_here)}", vec_here[-1]
            )
        if vec_here:
            v = vec_here[0]
            if v in used:
                raise VectorUnsupported(
                    f"{ref.name}: multiple subscripts use the loop index {v}", v
                )
            lo, hi = ctx.range_of(v)
            subs_src.append(_slice_src(s, ref.name, v, lo, hi, ctx))
            used.append(v)
        else:
            _check_plain(names, ctx, f"subscript {s}")
            subs_src.append(emit_expr(s, ctx.locals_))
    if ctx.orient is not None and not _is_subseq(used, ctx.orient):
        # numpy keeps slice axes in array order; a reference transposed
        # against the nest's orientation would need an axis swap — fall back
        raise VectorUnsupported(
            f"{ref.name}: loop indices appear in {tuple(used)} order but "
            f"the nest's store orientation is {ctx.orient}",
            next(v for v in reversed(vecs) if v in used),
        )
    if write:
        missing = [v for v in vecs if v not in used]
        if missing:
            raise VectorUnsupported(
                f"store to {ref.name} does not vary with "
                f"{'/'.join(sorted(missing))}", missing[-1]
            )
    return ", ".join(subs_src), tuple(used)


def _lift(src: str, used, ctx: _Ctx) -> str:
    """Broadcast-lift a partial-axes section to the block's shape: insert
    unit axes at the orientation positions the value does not vary with."""
    if ctx.orient is None or len(ctx.orient) <= 1 or tuple(used) == ctx.orient:
        return src
    idx = ", ".join(":" if v in used else "None" for v in ctx.orient)
    return f"{src}[{idx}]"


def emit_vexpr(e: Expr, ctx: _Ctx) -> str:
    """Python source evaluating *e* elementwise over the block defined by
    *ctx* (a numpy array, or a scalar to broadcast)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        n = e.name.lower()
        if n in ctx.vec_vars():
            lo, hi = ctx.range_of(n)
            return _lift(f"K.arange({lo}, {hi})", (n,), ctx)
        if n in ctx.expanded:
            if not ctx.outer:
                return f"{ctx.expanded[n]}[{ctx.lo} - {ctx.base}:{ctx.hi} + 1 - {ctx.base}]"
            slc = ", ".join(
                f"{ctx.range_of(v)[0]} - {ctx.base_of(v)}:"
                f"{ctx.range_of(v)[1]} + 1 - {ctx.base_of(v)}"
                for v in ctx.orient
            )
            return f"{ctx.expanded[n]}[{slc}]"
        if n in ctx.written:
            raise VectorUnsupported(f"reads scalar {n!r} assigned in the loop")
        if n in ctx.locals_:
            return n
        return f"S[{n!r}]"
    if isinstance(e, UnOp):
        if e.op == "-":
            return f"(-{emit_vexpr(e.operand, ctx)})"
        raise VectorUnsupported(f"operator {e.op!r} has no vector form")
    if isinstance(e, BinOp):
        if e.op == "/":
            return f"K.vdiv({emit_vexpr(e.left, ctx)}, {emit_vexpr(e.right, ctx)})"
        op = _VEC_BINOP.get(e.op)
        if op is None:
            raise VectorUnsupported(f"operator {e.op!r} has no vector form")
        return f"({emit_vexpr(e.left, ctx)} {op} {emit_vexpr(e.right, ctx)})"
    if isinstance(e, ArrayRef):
        subs, used = _emit_array_access(e, ctx, write=False)
        if not used:  # loop-invariant element: broadcast
            return f"A[{e.name.lower()!r}].get(({subs},))"
        return _lift(f"A[{e.name.lower()!r}].vget(({subs},))", used, ctx)
    if isinstance(e, FuncCall):
        name = e.name.lower()
        args = [emit_vexpr(a, ctx) for a in e.args]
        if name in ("min", "dmin1", "max", "dmax1"):
            fn = "K.np.minimum" if name in ("min", "dmin1") else "K.np.maximum"
            acc = args[0]
            for a in args[1:]:
                acc = f"{fn}({acc}, {a})"
            return acc
        fn = _VECFUNC.get(name)
        if fn is None:
            raise VectorUnsupported(f"call to {e.name!r} has no vector form")
        return f"{fn}({', '.join(args)})"
    raise VectorUnsupported(f"cannot vectorize {type(e).__name__}")


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def _expansion_candidates(
    kernel: "CompiledKernel", assigns: list[Assign]
) -> dict[str, str]:
    """Scalars assigned exactly once per iteration, only read after the
    write, whose readers' guards are subsumed by the writer's guard."""
    writes: dict[str, list[int]] = {}
    for i, s in enumerate(assigns):
        if isinstance(s.lhs, Var):
            writes.setdefault(s.lhs.name.lower(), []).append(i)
    out: dict[str, str] = {}
    for name, idxs in writes.items():
        if len(idxs) != 1:
            continue
        wi = idxs[0]
        # a read at or before the write sees the previous iteration's value
        if any(name in _scalar_reads(assigns[j]) for j in range(wi + 1)):
            continue
        wscp = kernel.cps.get(assigns[wi].sid)
        w_unguarded = wscp is None or wscp.cp.is_replicated
        safe = True
        for j in range(wi + 1, len(assigns)):
            if name not in _scalar_reads(assigns[j]):
                continue
            if w_unguarded:
                continue
            rscp = kernel.cps.get(assigns[j].sid)
            if (
                rscp is not None
                and not rscp.cp.is_replicated
                and set(rscp.cp.terms) <= set(wscp.cp.terms)
            ):
                continue  # reader executes only where the writer did
            safe = False
            break
        if safe:
            out[name] = f"_vx_{name}"
    return out


def _classify(
    kernel: "CompiledKernel",
    assigns: list[Assign],
    expanded: dict[str, str],
    written: set[str],
    locals_: set,
    var: str,
    forced_scalar: dict[int, str],
) -> list[_StmtPlan]:
    seg = _Ctx(var, set(locals_), expanded, frozenset(written - set(expanded)),
               "_sa", "_sb", "_v0")
    plans: list[_StmtPlan] = []
    for s in assigns:
        if s.sid in forced_scalar:
            plans.append(_StmtPlan(s, False, forced_scalar[s.sid]))
            continue
        try:
            if isinstance(s.lhs, ArrayRef) and s.lhs.rank > 0:
                subs, _ = _emit_array_access(s.lhs, seg, write=True)
                rhs = emit_vexpr(s.rhs, seg)
                plans.append(_StmtPlan(
                    s, True, payload=("array", s.lhs.name.lower(), subs), rhs_src=rhs))
            else:
                name = s.lhs.name.lower()
                if name not in expanded:
                    raise VectorUnsupported(
                        f"scalar {name!r} assigned in the loop is not expandable"
                    )
                rhs = emit_vexpr(s.rhs, seg)
                plans.append(_StmtPlan(
                    s, True, payload=("expand", name, expanded[name]), rhs_src=rhs))
        except VectorUnsupported as exc:
            plans.append(_StmtPlan(s, False, str(exc)))
    return plans


def _unit_step(loop: DoLoop) -> bool:
    step = to_affine(loop.step)
    return step is not None and step.is_constant() and step.constant == 1


def plan_loop(kernel: "CompiledKernel", loop: DoLoop, locals_: set) -> LoopPlan:
    """Decide, statement by statement, how to emit one innermost loop."""

    def bail(reason: str) -> LoopPlan:
        plan = LoopPlan(fallback=reason)
        plan.report = LoopReport(loop.var, loop.sid, "scalar", reason)
        return plan

    for c in loop.body:
        if not isinstance(c, (Assign, Continue)):
            return bail(f"{type(c).__name__} in loop body")
    if not _unit_step(loop):
        return bail("non-unit loop step")
    assigns = [s for s in loop.body if isinstance(s, Assign)]
    if not assigns:
        return bail("empty body")
    written = {s.lhs.name.lower() for s in assigns if isinstance(s.lhs, Var)}

    expanded = _expansion_candidates(kernel, assigns)
    forced_scalar: dict[int, str] = {}
    while True:
        plans = _classify(kernel, assigns, expanded, written, locals_, loop.var,
                          forced_scalar)
        # expansion is only valid if every statement touching the scalar is
        # vectorized; otherwise un-expand and reclassify
        kill = set()
        for p in plans:
            if p.vector:
                continue
            touched = _scalar_reads(p.stmt)
            if isinstance(p.stmt.lhs, Var):
                touched |= {p.stmt.lhs.name.lower()}
            kill |= touched & set(expanded)
        if not kill:
            # distribution legality: no backward level-1 dependence
            order = {s.sid: i for i, s in enumerate(assigns)}
            vec = {p.stmt.sid for p in plans if p.vector}
            deps = DependenceAnalyzer(
                loop, kernel.params, ignore_vars=expanded
            ).dependences()
            bad = None
            demote: dict[int, str] = {}
            fwd_pairs: set = set()
            for d in deps:
                if d.level != 1:
                    continue
                if d.src is d.dst:
                    if d.src.sid not in vec:
                        continue  # scalar mini-loop keeps iteration order
                    if d.kind == "anti":
                        continue  # numpy reads the full rhs before storing
                    demote[d.src.sid] = (
                        f"carried {d.kind} dependence on {d.var!r}")
                    continue
                if order[d.src.sid] < order[d.dst.sid]:
                    # forward carried: preserved by distribution, but the
                    # two statements must not share a merged cover loop
                    fwd_pairs.add((d.src.sid, d.dst.sid))
                    continue
                bad = d
                break
            if bad is not None:
                return bail(
                    f"backward loop-carried {bad.kind} dependence on {bad.var!r} "
                    f"(s{bad.src.sid} -> s{bad.dst.sid})"
                )
            if demote:
                forced_scalar.update(demote)
                continue
            carried_pairs = frozenset(fwd_pairs)
            break
        expanded = {k: v for k, v in expanded.items() if k not in kill}

    plan = LoopPlan(fallback=None, stmts=plans, expanded=expanded,
                    carried_pairs=carried_pairs)
    vec_sids = tuple(p.stmt.sid for p in plans if p.vector)
    sc_sids = tuple(p.stmt.sid for p in plans if not p.vector)
    if not vec_sids:
        reason = "; ".join(sorted({p.reason for p in plans if p.reason}))
        plan.fallback = f"no vectorizable statements ({reason})"
        plan.report = LoopReport(loop.var, loop.sid, "scalar", plan.fallback)
        return plan
    status = "vector" if not sc_sids else "mixed"
    reason = "; ".join(sorted({p.reason for p in plans if p.reason}))
    plan.report = LoopReport(
        loop.var, loop.sid, status, reason, vec_sids, sc_sids,
        tuple(sorted(expanded)),
    )
    return plan


def _store_slices(ref: ArrayRef, var: str) -> bool:
    """Exactly one subscript of the store mentions *var*, affinely and with
    a positive coefficient — what ``_emit_array_access(write=True)`` will
    demand of every vector level."""
    hits = [s for s in ref.subscripts if var in _var_names(s)]
    if len(hits) != 1:
        return False
    a = to_affine(hits[0])
    return a is not None and a.coeff(var) > 0


def _nest_tree(kernel: "CompiledKernel", top: DoLoop):
    """The syntactic screen (no iset operation) that decides whether *top*
    may head a nest plan, and the nest's shape if it may.

    Returns ``(assigns, loops_of, expanded)`` — the assignments in textual
    order, each one's enclosing nest loops (outermost first) by sid, and
    the scalar expansion — or None when *top* can only ever be a Python
    loop: the nest is not rectangular (unit steps, bounds free of the
    nest's indices, bodies of assignments and loops only), a store beneath
    it does not vary with it, or a scalar is written that today's
    expansion rule (one flat body, every reader guarded under the writer)
    does not cover."""
    assigns: list[Assign] = []
    loops_of: dict[int, tuple] = {}
    loop_vars: set[str] = set()
    bound_vars: set[str] = set()

    def walk(loop: DoLoop, chain: tuple) -> bool:
        if not _unit_step(loop):
            return False
        chain += (loop,)
        loop_vars.add(loop.var)
        bound_vars.update(_var_names(loop.lo) | _var_names(loop.hi))
        before = len(assigns)
        for c in loop.body:
            if isinstance(c, Assign):
                assigns.append(c)
                loops_of[c.sid] = chain
            elif isinstance(c, DoLoop):
                if not walk(c, chain):
                    return False
            elif not isinstance(c, Continue):
                return False
        return len(assigns) > before  # an empty loop has nothing to emit

    if not walk(top, ()) or loop_vars & bound_vars:
        return None
    if all(len(chain) == 1 for chain in loops_of.values()):
        return None  # no loop beneath: the 1-d planner's case
    for s in assigns:
        if isinstance(s.lhs, ArrayRef) and not _store_slices(s.lhs, top.var):
            return None
    expanded: dict[str, str] = {}
    written = {s.lhs.name.lower() for s in assigns if isinstance(s.lhs, Var)}
    if written:
        if len(set(loops_of.values())) > 1:
            return None
        expanded = _expansion_candidates(kernel, assigns)
        if written - set(expanded):
            return None
    return assigns, loops_of, expanded


def _block_ctx(loops: tuple, vec: tuple, locals_: set, expanded: dict) -> _Ctx:
    """Emission context for one statement's block: *vec* are its vector
    levels as ``(depth, loop)`` pairs, every other loop of *loops* is a
    Python loop variable around it."""
    d, inner = vec[-1]
    vec_vars = {lp.var for _l, lp in vec}
    return _Ctx(
        inner.var, set(locals_) | ({lp.var for lp in loops} - vec_vars),
        expanded, frozenset(), f"_x{d}a", f"_x{d}b", f"_b{d}0",
        outer=tuple(
            (lp.var, f"_x{l}a", f"_x{l}b", f"_b{l}0") for l, lp in vec[:-1]
        ),
    )


def _plan_block(
    kernel: "CompiledKernel",
    s: Assign,
    loops: tuple,
    seq: set,
    locals_: set,
    expanded: dict,
    xorient: tuple,
) -> _StmtPlan:
    """Plan one statement of a nest as an N-d block over every enclosing
    nest loop not in *seq*.  A loop its access rules cannot slice becomes
    sequential for this statement alone and the attempt repeats; a
    statement left without any vector level fails the nest."""
    own: list[DoLoop] = []
    why: list[str] = []
    while True:
        vec = tuple(
            (l, lp) for l, lp in enumerate(loops)
            if lp.sid not in seq and lp not in own
        )
        if not vec:
            raise VectorUnsupported(
                f"s{s.sid} has no vector level ({'; '.join(why)})")
        ctx = _block_ctx(loops, vec, locals_, expanded)
        try:
            if isinstance(s.lhs, ArrayRef):
                # the store defines the block's orientation (which loop
                # index runs along which array axis)
                subs, ctx.orient = _emit_array_access(s.lhs, ctx, write=True)
                payload = ("array", s.lhs.name.lower(), subs)
            else:
                name = s.lhs.name.lower()
                ctx.orient = xorient
                payload = ("expand", name, expanded[name])
            rhs = emit_vexpr(s.rhs, ctx)
        except VectorUnsupported as exc:
            if exc.var is None:
                raise
            own.append(next(lp for lp in loops if lp.var == exc.var))
            why.append(str(exc))
            continue
        return _StmtPlan(
            s, True, "; ".join(why), payload, rhs, vec,
            tuple(lp for lp in loops if lp in own), ctx.orient,
        )


def _carried_loops(kernel, top, assigns, loops_of, expanded):
    """One dependence pass over the nest, each carried edge charged to the
    loop that carries it.  Returns ``(seq, pinned, pairs)``: the loops that
    must stay sequential; the loops whose edges are all of the two kinds a
    vector level tolerates *in place* — a textually forward cross-statement
    edge (the *pairs*; distribution keeps it) and an anti dependence of a
    statement on itself carried by its innermost loop (box order plus
    NumPy's full-RHS materialization keep it); and those forward pairs,
    which must not share a cover loop."""
    order = {s.sid: i for i, s in enumerate(assigns)}
    seq: set[int] = set()
    pinned: set[int] = set()
    pairs: set = set()
    for d in DependenceAnalyzer(
        top, kernel.params, ignore_vars=expanded
    ).dependences():
        if d.level == 0:
            continue  # loop-independent: forward textual, preserved
        chain = loops_of[d.src.sid]
        loop = chain[d.level - 1]
        if d.src is d.dst:
            ok = d.kind == "anti" and loop is chain[-1]
        else:
            ok = order[d.src.sid] < order[d.dst.sid]
            if ok:
                pairs.add((d.src.sid, d.dst.sid))
        (pinned if ok else seq).add(loop.sid)
    return seq, pinned - seq, frozenset(pairs)


def _sunk_across(plans, loops_of, pinned: set, seq: set) -> set:
    """The *pinned* loops that a plan would sink across a sequential loop:
    some statement beneath them runs a loop inside them sequentially (for
    the whole nest, or for itself alone)."""
    out: set[int] = set()
    for p in plans:
        loops = loops_of[p.stmt.sid]
        inner_seq = False
        for lp in reversed(loops):
            if inner_seq and lp.sid in pinned:
                out.add(lp.sid)
            inner_seq = inner_seq or lp.sid in seq or lp.sid in out or lp in p.own
    return out


def plan_nest(kernel: "CompiledKernel", top: DoLoop, locals_: set):
    """Plan the rectangular loop nest headed by *top*; returns a
    :class:`NestPlan` or None (the caller emits *top* as a Python loop and
    retries in its body, bottoming out at the 1-d per-statement planner).

    The nest is a tree: loops over bodies of assignments and further
    loops.  A loop that carries a dependence stays a Python loop; every
    other loop — whether it sat outside or inside a carried one — becomes
    a vector dimension of each statement beneath it, i.e. it is
    distributed over the body items and sunk into each statement's guard
    boxes.  A vector level may itself carry the two tolerated kinds of
    edge (:func:`_carried_loops`), but only if no sequential loop lies
    inside it: sinking it across one would let a ``(<, *)`` edge run
    backward.  With no sequential loop at all this is plain N-d
    distribution of a perfect chain.

    *top* must pass the syntactic screen of :func:`_nest_tree` before the
    dependence pass is paid for; a nest whose *top* turns out sequential
    is left to the retry (nothing would sink across it)."""
    tree = _nest_tree(kernel, top)
    if tree is None:
        return None
    assigns, loops_of, expanded = tree
    xorient: tuple = ()
    if expanded:
        # expanded temporaries take the first store's orientation
        first = next((s for s in assigns if isinstance(s.lhs, ArrayRef)), None)
        if first is None:
            return None
        loops = loops_of[first.sid]
        try:
            _, xorient = _emit_array_access(
                first.lhs,
                _block_ctx(loops, tuple(enumerate(loops)), locals_, expanded),
                write=True,
            )
        except VectorUnsupported:
            return None
    seq: set[int] = set()
    carried = None
    while True:
        try:
            plans = [
                _plan_block(kernel, s, loops_of[s.sid], seq, locals_,
                            expanded, xorient)
                for s in assigns
            ]
        except VectorUnsupported:
            return None
        if carried is None:
            # syntax alone has kept a vector level for every statement:
            # now pay for the dependence pass
            carried, pinned, pairs = _carried_loops(
                kernel, top, assigns, loops_of, expanded)
        grown = carried | _sunk_across(plans, loops_of, pinned, carried | seq)
        grown -= seq
        if not grown:
            break
        seq |= grown
        if top.sid in seq:
            return None
    if expanded and (
        seq or any(p.own or p.orient != xorient for p in plans)
    ):
        return None  # temporaries are shaped for one whole-nest block
    nest_loops = list(dict.fromkeys(lp for s in assigns for lp in loops_of[s.sid]))
    notes = []
    sequential = tuple(lp.var for lp in nest_loops if lp.sid in seq)
    if sequential:
        notes.append(f"wavefront: {', '.join(sequential)} sequential")
    notes += [
        f"{', '.join(lp.var for lp in p.own)} sequential for "
        f"s{p.stmt.sid} ({p.reason})"
        for p in plans if p.own
    ]
    dims = sorted({len(p.vec) for p in plans})
    notes.append(
        "/".join(f"{d}-d" for d in dims) + (" blocks" if len(dims) > 1 else " block"))
    plan = NestPlan(top, frozenset(seq), {p.stmt.sid: p for p in plans}, pairs)
    plan.report = LoopReport(
        ",".join(lp.var for lp in nest_loops), top.sid, "vector",
        "; ".join(notes), tuple(p.stmt.sid for p in plans),
        expanded=tuple(sorted(expanded)), sequential=sequential,
    )
    return plan


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def try_emit_vector_loop(
    kernel: "CompiledKernel",
    loop: DoLoop,
    lines: list[str],
    indent: int,
    locals_: set,
) -> bool:
    """Emit *loop* as NumPy slice code if it is a provably-safe innermost
    affine loop (or heads a rectangular nest, emitted as N-d blocks under
    its dependence-carrying loops); returns False (caller emits scalar and
    descends) otherwise."""
    if any(isinstance(c, DoLoop) for c in loop.body):
        key = ("nest", loop.sid)
        res = kernel._vector_plans.get(key)
        if res is None:
            res = plan_nest(kernel, loop, locals_) or False
            kernel._vector_plans[key] = res
        if res is False:
            return False  # not a plannable nest: descend
        kernel.vector_report[loop.sid] = res.report
        _emit_plan_nest(kernel, res, lines, indent, locals_)
        return True
    plan = kernel._vector_plans.get(loop.sid)
    if plan is None:
        plan = plan_loop(kernel, loop, locals_)
        kernel._vector_plans[loop.sid] = plan
    kernel.vector_report[loop.sid] = plan.report
    if plan.fallback is not None:
        return False
    _emit_plan(kernel, loop, plan, lines, indent, locals_)
    return True


def _emit_plan_nest(
    kernel: "CompiledKernel",
    plan: NestPlan,
    lines: list[str],
    indent: int,
    locals_: set,
) -> None:
    """Walk the nest: a sequential loop becomes a Python loop around its
    body, a vector loop emits nothing here (it is distributed over its
    body items and reappears as a box dimension of each statement), and
    each run of consecutive assignments that share their vector levels is
    emitted as cover loops."""

    def walk(loop: DoLoop, indent: int, locals_: set) -> None:
        if loop.sid in plan.seq:
            lines.append(_for_src(loop, indent, locals_))
            indent += 1
            locals_ = locals_ | {loop.var}
        run: list[_StmtPlan] = []
        for c in loop.body + [None]:
            if isinstance(c, Assign):
                p = plan.stmts[c.sid]
                if run and (p.vec, p.own) != (run[0].vec, run[0].own):
                    _emit_blocks(kernel, plan, run, lines, indent, locals_)
                    run = []
                run.append(p)
                continue
            if run:
                _emit_blocks(kernel, plan, run, lines, indent, locals_)
                run = []
            if isinstance(c, DoLoop):
                walk(c, indent, locals_)

    walk(plan.top, indent, set(locals_))


def _for_src(loop: DoLoop, indent: int, locals_: set) -> str:
    return (
        f"{'    ' * indent}for {loop.var} in K.do_range("
        f"{emit_expr(loop.lo, locals_)}, {emit_expr(loop.hi, locals_)}, "
        f"{emit_expr(loop.step, locals_)}):"
    )


def _emit_blocks(
    kernel: "CompiledKernel",
    plan: NestPlan,
    run: list,
    lines: list[str],
    indent: int,
    locals_: set,
) -> None:
    """Emit consecutive statements with the same vector levels ``vec`` and
    the same statement-local sequential loops ``own``: the block bounds,
    the ``own`` loops, then one ``G.boxes`` cover loop per merge group."""
    from .spmd import sorted_locals

    vec, own = run[0].vec, run[0].own
    pad = "    " * indent
    for l, lp in vec:
        lines.append(
            f"{pad}_b{l}0, _b{l}1 = int({emit_expr(lp.lo, locals_)}), "
            f"int({emit_expr(lp.hi, locals_)})"
        )
    cond = " and ".join(f"_b{l}0 <= _b{l}1" for l, _lp in vec)
    lines.append(f"{pad}if {cond}:")
    indent += 1
    bp = pad + "    "
    level = {lp.var: l for l, lp in vec}
    for p in run:
        if p.payload[0] == "expand":
            shape = ", ".join(
                f"_b{level[v]}1 - _b{level[v]}0 + 1" for v in p.orient)
            lines.append(f"{bp}{p.payload[2]} = K.np.empty(({shape}))")
    for lp in own:
        lines.append(_for_src(lp, indent, locals_))
        indent += 1
        bp += "    "
        locals_ = locals_ | {lp.var}
    names = sorted_locals(set(locals_) | set(level), kernel._loop_order)
    tpl = "(" + ", ".join("None" if n in level else n for n in names) + ",)"
    bounds = ", ".join(f"_b{l}0, _b{l}1" for l, _lp in vec)
    coords = ", ".join(f"_x{l}a, _x{l}b" for l, _lp in vec)
    for group in _merge_groups(kernel, run, plan.carried_pairs):
        sid = group[0].stmt.sid
        lines.append(
            f"{bp}for {coords} in G.boxes({sid}, {tpl}, {bounds}):")
        for p in group:
            if p.payload[0] == "expand":
                _, name, temp = p.payload
                slc = ", ".join(
                    f"_x{level[v]}a - _b{level[v]}0:"
                    f"_x{level[v]}b + 1 - _b{level[v]}0"
                    for v in p.orient)
                lines.append(f"{bp}    {temp}[{slc}] = {p.rhs_src}")
                corner = ", ".join(
                    f"_x{level[v]}b - _b{level[v]}0" for v in p.orient)
                lines.append(f"{bp}    S[{name!r}] = {temp}[{corner}]")
            else:
                _, aname, subs = p.payload
                lines.append(f"{bp}    A[{aname!r}].vset(({subs},), {p.rhs_src})")


def _emit_plan(
    kernel: "CompiledKernel",
    loop: DoLoop,
    plan: LoopPlan,
    lines: list[str],
    indent: int,
    locals_: set,
) -> None:
    from .spmd import sorted_locals

    pad = "    " * indent
    lo_src = emit_expr(loop.lo, locals_)
    hi_src = emit_expr(loop.hi, locals_)
    lines.append(f"{pad}_v0, _v1 = int({lo_src}), int({hi_src})")
    lines.append(f"{pad}if _v0 <= _v1:")
    bp = pad + "    "
    names = sorted_locals(set(locals_) | {loop.var}, kernel._loop_order)
    tpl = "(" + ", ".join("None" if n == loop.var else n for n in names) + ",)"
    for temp in plan.expanded.values():
        lines.append(f"{bp}{temp} = K.np.empty(_v1 - _v0 + 1)")
    stmts = plan.stmts
    i = 0
    while i < len(stmts):
        if not stmts[i].vector:
            # consecutive scalar-fallback statements share one mini-loop,
            # preserving their original relative iteration order
            j = i
            while j < len(stmts) and not stmts[j].vector:
                j += 1
            lines.append(f"{bp}for {loop.var} in K.do_range(_v0, _v1, 1):")
            inner = set(locals_) | {loop.var}
            for k in range(i, j):
                kernel._emit_stmt(stmts[k].stmt, lines, indent + 2, inner)
            i = j
            continue
        j = i
        while j < len(stmts) and stmts[j].vector:
            j += 1
        for group in _merge_groups(kernel, stmts[i:j], plan.carried_pairs):
            lines.append(
                f"{bp}for _sa, _sb in "
                f"G.segments({group[0].stmt.sid}, {tpl}, _v0, _v1):")
            for p in group:
                if p.payload[0] == "expand":
                    # evaluate only over the writer's admitted runs; readers'
                    # guards are subsumed, so unfilled positions are never
                    # observed
                    _, name, temp = p.payload
                    lines.append(
                        f"{bp}    {temp}[_sa - _v0:_sb + 1 - _v0] = {p.rhs_src}")
                    lines.append(f"{bp}    S[{name!r}] = {temp}[_sb - _v0]")
                else:
                    _, aname, subs = p.payload
                    lines.append(
                        f"{bp}    A[{aname!r}].vset(({subs},), {p.rhs_src})")
        i = j
