"""Vectorizing backend: NumPy slice emission for affine loop nests.

The scalar backend emits one Python statement per loop iteration per
assignment.  This pass proves, per rectangular nest of loops —
a lone innermost loop being a nest of one level — that executing each
assignment over a whole admissible index block at once is observationally
identical to the scalar interleaving, then emits NumPy slice assignments
that subscript each array's ndarray directly, its declared lower bounds
folded into the subscripts, instead.  In a nest only the loops
that carry a dependence stay Python loops; every other loop is a
dimension of each statement's block.

Safety argument (see DESIGN.md "Vectorizing backend"):

* **Loop distribution.**  Emitting the body statements as separate
  full-range sweeps in textual order is legal iff no carried dependence
  (at any vectorized level) runs from a textually-later statement to an
  earlier one.  Forward carried dependences and all loop-independent
  dependences are preserved by construction (a statement's sweep completes
  before the next statement starts).
* **Same-statement carried dependences** are allowed when the statement
  runs its loops in order, in place (a scalar mini-loop), or —
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
* **Expansion.**  A scalar written once per iteration and only read
  afterwards, within one chain of loops, becomes a block-shaped vector
  temporary.  Under computation-partition guards this is bitwise-safe only
  when every reader's guard is subsumed by the writer's (checked via
  ON_HOME-term subsumption), so no reader ever observes a stale value that
  the scalar backend would have kept from an earlier admitted iteration.
  A NEW (privatizable, §4.1) array stored without varying with the loops
  around it is expanded the same way along the loops the nest sinks: its
  temporary is indexed by those loop indices plus its own subscripts, so
  each sunk iteration has its own copy and the array's edges carried by a
  sunk loop disappear.  The coverage condition makes that bitwise-safe:
  every read, at each iteration its statement is admitted on, finds its
  element written textually earlier at the same sunk-loop iteration by
  one writer under that writer's guard — the reader's iteration set,
  carried by the subscript offsets, is proved a subset of the writer's
  on the symbolic iteration sets, so it holds on every rank; otherwise
  the nest keeps its unexpanded plan.  The array must end as the scalar
  backend leaves it (the ``mpi`` target returns it): after each writer
  box the temporary's slice at the box's last sunk-loop point is copied
  back, and since the canonical cover runs boxes in lexicographic order,
  the last box holding an element holds its last admitted sunk iteration
  — the array analogue of the scalar's ``S[name] = temp[corner]``.
  Expansion is limited to NEW arrays because they have no communication
  events: nothing outside the nest reads the array mid-nest, so the
  temporary may stand in for it until the write-back.  Both kinds of
  temporary are shaped for one whole-nest block, so a nest that expands
  anything has no sequential loop.
* **Guard covers.**  Per-statement CP guards are realized as an exact
  lexicographically-ordered box cover (:meth:`Guards.boxes`) at the vector
  positions for fixed sequential indices — for one vector level, the
  maximal runs of admissible indices — so each guarded statement is a
  short loop over slices, not over points.
* **Statement merging.**  Consecutive vectorized statements of one guard
  share group (:func:`~repro.codegen.guards.plan_guards`: same innermost
  loop, CPs of the same canonical data partition, §5 ``cp_key``) and with
  no carried dependence between them share one cover loop: per box they
  execute in textual order, which preserves their loop-independent
  dependences, and carried dependences between group members are excluded
  outright.
* **Orientation.**  Fortran's column-major subscript order means the
  innermost loop index usually indexes the *first* array axis.  Each
  statement's block adopts the axis order of its store (expanded
  temporaries that of the nest's first store to an array that is not
  expanded: a NEW array's temporary puts each sunk loop's axis before the
  first of its own axes whose loop comes later in that order); every
  other reference must use a subsequence of that order (NumPy keeps slice
  axes in array order), and lower-dimensional sections are broadcast-
  lifted with unit axes at the orientation positions they do not vary
  with.

A loop heads a nest plan only if it passes a syntactic screen
(:func:`_nest_tree`: a rectangular tree of loops and assignments; beneath
an inner loop, every store sliceable along the top loop or to a NEW
array and every scalar write expandable) — the dependences of a whole
nest are the expensive input, and a loop that fails the screen could
only ever be sequential.  Everything unprovable falls back level by
level (a loop that cannot head a plan, or would be sequential in it, is
emitted as a Python loop and planning restarts in its body) down to a
lone innermost loop, a one-level nest: there a statement the planner
cannot block runs in place (a scalar mini-loop between the blocks) as
long as distribution stays legal, and otherwise the whole loop goes to
the scalar backend; the decision log is kept on the kernel as
``vector_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional

from ..cp.nest import NestInfo
from ..diag import CompileError
from ..ir.expr import ArrayRef, BinOp, Expr, FuncCall, Num, UnOp, Var, from_affine, to_affine
from ..ir.stmt import Assign, Continue, DoLoop
from ..ir.visit import walk_stmts
from ..isets import AffineMap, LinExpr
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

    ``levels`` maps each vectorized loop index, outermost first, to its
    depth d in the nest: ``_x{d}a``/``_x{d}b`` hold the inclusive range
    being emitted (a guard box edge) and ``_b{d}0`` the loop's lower
    bound, the origin of every expanded temporary.  Expressions evaluate
    over the N-d block, partial-axes subexpressions broadcast-lifted per
    ``orient`` (the loop indices in array-axis order, adopted from the
    nest's first store).  ``folded`` records the declared lower bounds
    of every array the block's subscripts fold (:meth:`lower`)."""

    levels: Mapping[str, int]
    locals_: set
    expanded: Mapping[str, str]
    kernel: "CompiledKernel"
    orient: Optional[tuple] = None
    #: NEW arrays expanded along the nest's sunk loops: name -> _XArray
    xarrays: Mapping[str, "_XArray"] = field(default_factory=dict)
    folded: dict = field(default_factory=dict)

    def range_of(self, v: str) -> tuple[str, str]:
        return f"_x{self.levels[v]}a", f"_x{self.levels[v]}b"

    def lower(self, name: str) -> tuple:
        if name not in self.folded:
            self.folded[name] = _declared_lower(self.kernel, name)
        return self.folded[name]


def _temp_slice(levels: Mapping[str, int], orient) -> str:
    """Subscripts of a scalar's block temporary (laid out as *orient*)
    selecting the box being emitted."""
    return ", ".join(
        f"_x{d}a - _b{d}0:_x{d}b + 1 - _b{d}0" for d in map(levels.get, orient))


@dataclass(frozen=True)
class _XArray:
    """A NEW array expanded along the loops a nest sinks: ``temp`` names
    its block temporary, whose axes are the array's own with one more per
    sunk loop, inserted as ``(position, depth, loop)`` (ascending
    positions; *depth* is the loop's level in the nest)."""

    temp: str
    axes: tuple


@dataclass
class _StmtPlan:
    """One statement of a nest plan: a block (``vector``), or a statement
    run in place by the scalar backend inside its ``own`` loops."""

    stmt: Assign
    vector: bool
    reason: str = ""
    #: ('array', array_src, subs_src) | ('expand', name, temp) — plus rhs_src
    payload: tuple | None = None
    rhs_src: str = ""
    #: the statement's vector levels as ``(depth, loop)`` pairs, outermost
    #: first; the loops that run sequentially for this statement alone
    #: (emitted around its cover loop); and its block's orientation
    #: (vector loop indices in array-axis order)
    vec: tuple = ()
    own: tuple = ()
    orient: tuple = ()
    #: a store to an expanded array: the statement copying the box's last
    #: sunk-loop point of the temporary back into the array
    writeback: str = ""
    #: array name -> the declared lower bounds its sources fold
    folded: dict = field(default_factory=dict)


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
    #: the loops kept as Python loops around the blocks
    sequential: tuple = ()

    def __repr__(self) -> str:
        extra = f" ({self.reason})" if self.reason else ""
        return f"<do {self.loop_var}: {self.status}{extra}>"


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
    #: NEW arrays expanded along the sunk loops: name -> _XArray
    xarrays: dict = field(default_factory=dict)


def _var_names(e: Expr) -> set[str]:
    return {n.name.lower() for n in e.walk() if isinstance(n, Var)}


def _scalar_reads(stmt: Assign) -> set[str]:
    """Scalar names read anywhere in a statement (rhs + lhs subscripts)."""
    names = _var_names(stmt.rhs)
    if isinstance(stmt.lhs, ArrayRef):
        for s in stmt.lhs.subscripts:
            names |= _var_names(s)
    return names


def _names(*exprs: Expr) -> set[str]:
    """Every scalar and array name in *exprs*."""
    return {
        n.name.lower() for e in exprs for n in e.walk()
        if isinstance(n, (Var, ArrayRef))
    }


def _is_subseq(sub, seq) -> bool:
    it = iter(seq)
    return all(v in it for v in sub)


def _merge_groups(kernel: "CompiledKernel", plans, carried_pairs):
    """Partition consecutive vector statements into merge groups: one
    guard-plan share group and no carried dependence between group
    members."""
    share = kernel.guard_plan[0]
    groups: list[list] = []
    for p in plans:
        if groups:
            g = groups[-1]
            if (
                share[p.stmt.sid] == share[g[0].stmt.sid]
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
    bad = names & set(ctx.expanded)
    if bad:
        raise VectorUnsupported(f"{where} uses expanded scalar {sorted(bad)[0]!r}")


def _declared_lower(kernel: "CompiledKernel", name: str) -> tuple:
    """Array *name*'s declared lower bounds at the compile-time params
    (what ``make_arrays`` allocates)."""
    try:
        return kernel.sub.symbols.require(name).lower_bounds(kernel.params)
    except (KeyError, CompileError) as exc:
        raise VectorUnsupported(f"no declared bounds for {name}: {exc}") from exc


def _numpy_index(lead: str, rest, origin, ctx: _Ctx, plus: int = 0) -> str:
    """Source of the numpy index of Fortran index ``lead + rest`` (then
    *plus*) on an axis starting at *origin*: a declared lower bound, folded
    into the constant, or an expanded array's sunk-loop base (source).
    *lead* is a source fragment or empty; *rest* is a LinExpr or a
    non-affine Expr.  One reading more than loop indices keeps the
    ``int()`` applied before bounds were folded."""
    k = plus - origin if isinstance(origin, int) else plus
    if isinstance(rest, LinExpr) and all(
            v.lower() in ctx.locals_ for v in rest.vars()):
        off = emit_expr(from_affine(rest + k), ctx.locals_)
        src = off if not lead else lead if off == "0" else f"{lead} + ({off})"
    else:
        inner = emit_expr(
            from_affine(rest) if isinstance(rest, LinExpr) else rest, ctx.locals_)
        src = f"int({lead} + ({inner}))" if lead else f"int({inner})"
        src = f"{src} + ({k})" if k else src
    return src if isinstance(origin, int) else f"{src} - {origin}"


def _slice_src(s: Expr, ref_name: str, var: str, lo: str, hi: str, origin,
               ctx: _Ctx) -> str:
    """numpy slice source for one subscript affine in *var* over [lo, hi]
    on an axis whose first element is *origin*."""
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
    scale, step = ("", "") if c == 1 else (f"{c}*", f":{c}")
    return (f"{_numpy_index(scale + lo, rest, origin, ctx)}:"
            f"{_numpy_index(scale + hi, rest, origin, ctx, plus=1)}{step}")


def _emit_array_access(
    ref: ArrayRef, ctx: _Ctx, write: bool, at: Optional[Mapping[str, str]] = None,
) -> tuple[str, tuple]:
    """numpy subscript source for an array section, each index shifted
    by its axis's first element; returns ``(subs, used)`` where *used*
    lists the vectorized loop indices in axis order.  A reference to an
    expanded array addresses its temporary: the sunk loop indices (or the
    names *at* maps them to) join its subscripts, counted from the loops'
    block bases."""
    name = ref.name.lower()
    origins = list(ctx.lower(name))
    x = ctx.xarrays.get(name)
    if x is not None:
        subs = list(ref.subscripts)
        for pos, depth, lp in x.axes:
            subs.insert(pos, Var((at or {}).get(lp.var, lp.var)))
            origins.insert(pos, f"_b{depth}0")
        ref = ArrayRef(ref.name, tuple(subs))
    if len(ref.subscripts) != len(origins):
        raise VectorUnsupported(
            f"{ref.name}: {len(ref.subscripts)} subscripts for rank "
            f"{len(origins)}")
    vecs = tuple(ctx.levels)
    subs_src = []
    used: list[str] = []
    for s, origin in zip(ref.subscripts, origins):
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
            subs_src.append(_slice_src(s, ref.name, v, lo, hi, origin, ctx))
            used.append(v)
        else:
            _check_plain(names, ctx, f"subscript {s}")
            a = to_affine(s)
            subs_src.append(
                _numpy_index("", s if a is None else a, origin, ctx))
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


def _array_src(name: str, ctx: _Ctx) -> str:
    """The ndarray a reference to *name* subscripts."""
    x = ctx.xarrays.get(name)
    return x.temp if x is not None else f"A[{name!r}].data"


def _lift(src: str, used, ctx: _Ctx) -> str:
    """Broadcast-lift a partial-axes section to the block's shape: insert
    unit axes at the orientation positions the value does not vary with.
    A loop-invariant element (*used* empty) broadcasts as it is."""
    if (not used or ctx.orient is None or len(ctx.orient) <= 1
            or tuple(used) == ctx.orient):
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
        if n in ctx.levels:
            lo, hi = ctx.range_of(n)
            return _lift(f"K.arange({lo}, {hi})", (n,), ctx)
        if n in ctx.expanded:
            return f"{ctx.expanded[n]}[{_temp_slice(ctx.levels, ctx.orient)}]"
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
        return _lift(f"{_array_src(e.name.lower(), ctx)}[{subs}]", used, ctx)
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


def _unit_step(loop: DoLoop) -> bool:
    step = to_affine(loop.step)
    return step is not None and step.is_constant() and step.constant == 1


def _store_slices(ref: ArrayRef, var: str) -> bool:
    """Exactly one subscript of the store mentions *var*, affinely and with
    a positive coefficient — what ``_emit_array_access(write=True)`` will
    demand of every vector level."""
    hits = [s for s in ref.subscripts if var in _var_names(s)]
    if len(hits) != 1:
        return False
    a = to_affine(hits[0])
    return a is not None and a.coeff(var) > 0


def _nest_tree(kernel: "CompiledKernel", top: DoLoop, flat: bool):
    """The syntactic screen (no iset operation) that decides whether *top*
    may head a nest plan, and the nest's shape if it may.

    Returns ``(assigns, loops_of, expanded, xnames)`` — the assignments in
    textual order, each one's enclosing nest loops (outermost first) by
    sid, the scalar expansion, and the NEW arrays stored without varying
    with *top* (candidates for expansion along the sunk loops) — or the
    reason *top* can only ever be a Python loop: the nest is not
    rectangular (unit steps, bounds free of the nest's indices and of
    what it stores, bodies of assignments and loops only); or, when a loop
    lies beneath *top* (not *flat*), a store to an array that is not NEW
    does not vary with *top*, or a scalar is written that the expansion
    rule (one chain of loops touches it, every reader guarded under the
    writer) does not cover.  In a *flat* nest such a statement runs in
    place instead (:func:`_plan_block`)."""
    assigns: list[Assign] = []
    loops_of: dict[int, tuple] = {}
    loop_vars: set[str] = set()
    bound_vars: set[str] = set()

    def walk(loop: DoLoop, chain: tuple) -> Optional[str]:
        if not _unit_step(loop):
            return "non-unit loop step"
        chain += (loop,)
        loop_vars.add(loop.var)
        bound_vars.update(_names(loop.lo, loop.hi))
        before = len(assigns)
        for c in loop.body:
            if isinstance(c, Assign):
                assigns.append(c)
                loops_of[c.sid] = chain
            elif isinstance(c, DoLoop):
                why = walk(c, chain)
                if why:
                    return why
            elif not isinstance(c, Continue):
                return f"{type(c).__name__} in loop body"
        # an empty loop has nothing to emit
        return None if len(assigns) > before else "empty body"

    why = walk(top, ())
    if why:
        return why
    if (loop_vars | {s.lhs.name.lower() for s in assigns}) & bound_vars:
        return "loop bounds vary inside the nest"
    xnames: set[str] = set()
    for s in assigns:
        if isinstance(s.lhs, ArrayRef) and not _store_slices(s.lhs, top.var):
            if s.lhs.name.lower() in kernel.private_arrays:
                xnames.add(s.lhs.name.lower())
            elif not flat:
                return f"store to {s.lhs.name} does not vary with {top.var}"
    expanded: dict[str, str] = {}
    written = {s.lhs.name.lower() for s in assigns if isinstance(s.lhs, Var)}
    if written:
        chains: dict[tuple, list] = {}
        for s in assigns:
            chains.setdefault(loops_of[s.sid], []).append(s)
        seen: set[str] = set()
        for body in chains.values():
            touched = written & set().union(
                *(_scalar_reads(s) | _var_names(s.lhs) for s in body))
            if touched & seen:
                return "one scalar, two chains of loops"
            seen |= touched
            expanded.update(_expansion_candidates(kernel, body))
        if written - set(expanded) and not flat:
            return "a scalar write is not expandable"
    return assigns, loops_of, expanded, xnames


def _stores_to(assigns, name: str) -> list:
    return [s for s in assigns
            if isinstance(s.lhs, ArrayRef) and s.lhs.name.lower() == name]


def _refs_to(s: Assign, name: str) -> list:
    """The references to array *name* that statement *s* reads."""
    exprs = [s.rhs]
    if isinstance(s.lhs, ArrayRef):
        exprs += s.lhs.subscripts
    return [
        n for e in exprs for n in e.walk()
        if isinstance(n, ArrayRef) and n.name.lower() == name
    ]


def _expansions(assigns, loops_of, xnames, rank) -> Optional[dict]:
    """The block temporaries of the NEW arrays *xnames* (a syntactic step;
    :func:`_covered` proves them).  An array's sunk loops are the common
    prefix of the loops around every statement touching it, and its
    subscripts must be free of their indices.  Each sunk loop's axis goes
    before the first array axis whose loop comes after it in *rank* (the
    orientation of the nest's first store that stays), so its readers'
    blocks keep their axis order.  None when an array does not fit."""
    out: dict[str, _XArray] = {}
    for name in sorted(xnames):
        stores = _stores_to(assigns, name)
        readers = [s for s in assigns if _refs_to(s, name)]
        refs = [s.lhs for s in stores] + [
            r for s in readers for r in _refs_to(s, name)]
        chains = [loops_of[s.sid] for s in stores + readers]
        prefix: list[DoLoop] = []
        for level in zip(*chains):
            if any(lp is not level[0] for lp in level):
                break
            prefix.append(level[0])
        sunk = {lp.var for lp in prefix}
        if any(_var_names(sub) & sunk for r in refs for sub in r.subscripts):
            return None
        own = {lp.var for lp in loops_of[stores[0].sid]}
        axes: list = []
        for sub in stores[0].lhs.subscripts:
            hit = _var_names(sub) & own
            if len(hit) > 1 or not hit <= rank.keys():
                return None
            axes.append(next(iter(hit), None))
        if not sunk <= rank.keys():
            return None
        for lp in sorted(prefix, key=lambda lp: rank[lp.var]):
            at = next((i for i, v in enumerate(axes)
                       if v is not None and rank[v] > rank[lp.var]), len(axes))
            axes.insert(at, lp.var)
        out[name] = _XArray(f"_xt_{name}", tuple(sorted(
            ((axes.index(lp.var), depth, lp) for depth, lp in enumerate(prefix)),
            key=lambda a: a[0],
        )))
    return out


def _element_of(read: ArrayRef, store: ArrayRef, own: set):
    """Where *read* meets the elements *store* writes: a binding of the
    store's loop indices in *own* to affine expressions in the reader's
    names (unit-coefficient stores only), False when the two never touch
    the same element (a constant subscript differs by a nonzero
    constant), None when that cannot be told."""
    binding: dict[str, LinExpr] = {}
    unknown = False
    for rs, ws in zip(read.subscripts, store.subscripts):
        ra, wa = to_affine(rs), to_affine(ws)
        if ra is None or wa is None:
            unknown = True
            continue
        hit = [v for v in wa.vars() if v in own]
        if hit:
            if len(hit) > 1 or wa.coeff(hit[0]) != 1:
                unknown = True
            else:
                binding[hit[0]] = ra - (wa - LinExpr.var(hit[0]))
            continue
        gap = ra - wa
        if gap.is_constant() and gap.constant != 0:
            return False
        unknown = unknown or not gap.is_constant()
    return None if unknown else binding


def _admitted(kernel: "CompiledKernel", nest: NestInfo, stmt: Assign):
    """A statement's symbolic iteration set on a rank (``PDIM``s free):
    its bound guard's set, or its loop bounds when unguarded."""
    group, sets = kernel._symbolic_guards
    g = group.get(stmt.sid)
    if g is not None:
        return sets[g]
    scp = kernel.cps.get(stmt.sid)
    if scp is not None and not scp.cp.is_replicated:
        return None
    bounds = nest.bounds_of(stmt)
    return None if bounds is None else bounds.bind(kernel.params)


def _covered(kernel: "CompiledKernel", nest: NestInfo, top: DoLoop, assigns,
             xarrays) -> bool:
    """The coverage condition that makes expansion bitwise-safe: every read
    of an expanded array, at each iteration its statement is admitted on,
    finds its element written textually earlier at the same sunk-loop
    iteration by exactly one writer, under the writer's guard.  The stores
    to one array must touch disjoint elements; a reader sharing a loop
    below the sunk ones with its writer must read at offset 0 along it;
    and the reader's iteration set, carried to the writer's iterations by
    the subscript offsets, must be a subset of the writer's — proved on
    the symbolic sets, so it holds on every rank."""
    order = {s.sid: i for i, s in enumerate(assigns)}
    below = {lp.sid for lp in walk_stmts([top]) if isinstance(lp, DoLoop)}
    proved: dict = {}  # one subset test per distinct (sets, map) query
    for name, x in xarrays.items():
        sunk = {lp.sid for _p, _d, lp in x.axes}
        stores = _stores_to(assigns, name)
        own = {s.sid: {lp.var for lp in nest.loops_of(s) if lp.sid not in sunk}
               for s in stores}
        for i, a in enumerate(stores):
            for b in stores[i + 1:]:
                if _element_of(b.lhs, a.lhs, own[a.sid]) is not False:
                    return False
        for s in assigns:
            for ref in _refs_to(s, name):
                src = [(w, _element_of(ref, w.lhs, own[w.sid])) for w in stores]
                src = [(w, m) for w, m in src if m is not False]
                if len(src) != 1 or src[0][1] is None:
                    return False
                w, binding = src[0]
                if order[w.sid] >= order[s.sid]:
                    return False
                if not _read_covered(kernel, nest, s, w, binding,
                                     sunk, below, proved):
                    return False
    return True


def _read_covered(kernel, nest: NestInfo, reader, writer, binding, sunk,
                  below, proved: dict) -> bool:
    """One read of the coverage condition: the image of the reader's
    iteration set under the map to the iterations whose store it reads is
    a subset of the writer's iteration set.  A loop around both runs the
    same iteration for the two (the sunk ones, loops outside the nest
    *below* holds, and inner loops the store varies with, read at offset
    0)."""
    rset, wset = _admitted(kernel, nest, reader), _admitted(kernel, nest, writer)
    if rset is None or wset is None:
        return False
    rloops = nest.loops_of(reader)
    shared = {lp.sid for lp in rloops}
    ren = {lp.var: f"{lp.var}$r" for lp in rloops}
    exprs = []
    for lp in nest.loops_of(writer):
        e = binding.get(lp.var)
        if lp.sid in shared:
            same = LinExpr.var(ren[lp.var])
            if e is None and lp.sid in below and lp.sid not in sunk:
                return False  # the store does not vary with an inner loop
            if e is not None and e.rename(ren) != same:
                return False  # a shared loop read at an offset
            exprs.append(same)
        elif e is None:
            return False
        else:
            exprs.append(e.rename(ren))
    dims = tuple(ren[lp.var] for lp in rloops)
    if rset is wset and exprs == [LinExpr.var(d) for d in dims]:
        return True  # one share group, read where it is written
    # keyed by the sets themselves (an ISet hashes by value): an unguarded
    # statement's set is built afresh per call, so its id() can recur
    key = (rset, wset, dims, tuple(map(str, exprs)))
    if key not in proved:
        image = AffineMap(dims, exprs).image(
            rset.with_dims(dims), out_dims=wset.dims)
        proved[key] = image.is_subset(wset)
    return proved[key]


def _block_ctx(kernel: "CompiledKernel", loops: tuple, vec: tuple,
               locals_: set, expanded: dict,
               xarrays: Optional[Mapping] = None) -> _Ctx:
    """Emission context for one statement's block: *vec* are its vector
    levels as ``(depth, loop)`` pairs, every other loop of *loops* is a
    Python loop variable around it."""
    levels = {lp.var: d for d, lp in vec}
    return _Ctx(
        levels, set(locals_) | ({lp.var for lp in loops} - levels.keys()),
        expanded, kernel, xarrays=xarrays or {},
    )


def _writeback(ref: "ArrayRef | Var", ctx: _Ctx) -> str:
    """For a store to an expanded array: the copy of the temporary's slice
    at the box's last sunk-loop point back into the array, so the array
    ends as the scalar backend leaves it (the box cover runs in canonical
    order: a later box never holds an earlier sunk iteration of the same
    element)."""
    x = ctx.xarrays.get(ref.name.lower())
    if x is None:
        return ""
    subs, _ = _emit_array_access(ref, replace(ctx, xarrays={}), write=False)
    last = {lp.var: f"_x{d}b" for _p, d, lp in x.axes}
    at = replace(ctx, locals_=ctx.locals_ | set(last.values()))
    corner, _ = _emit_array_access(ref, at, write=False, at=last)
    return f"A[{ref.name.lower()!r}].data[{subs}] = {x.temp}[{corner}]"


def _plan_block(
    kernel: "CompiledKernel",
    s: Assign,
    loops: tuple,
    seq: set,
    locals_: set,
    expanded: dict,
    xorient: tuple,
    xarrays: dict,
) -> _StmtPlan:
    """Plan one statement of a nest as an N-d block over every enclosing
    nest loop not in *seq*.  A loop its access rules cannot slice becomes
    sequential for this statement alone and the attempt repeats; a
    statement left without any vector level (or one no choice of levels
    helps) runs its loops in order, in place — a scalar plan."""
    own: list[DoLoop] = []
    why: list[str] = []
    while True:
        vec = tuple(
            (l, lp) for l, lp in enumerate(loops)
            if lp.sid not in seq and lp not in own
        )
        if not vec:
            break
        ctx = _block_ctx(kernel, loops, vec, locals_, expanded, xarrays)
        try:
            if isinstance(s.lhs, ArrayRef):
                # the store defines the block's orientation (which loop
                # index runs along which array axis)
                subs, ctx.orient = _emit_array_access(s.lhs, ctx, write=True)
                payload = ("array", _array_src(s.lhs.name.lower(), ctx), subs)
            else:
                name = s.lhs.name.lower()
                if name not in expanded:
                    raise VectorUnsupported(
                        f"scalar {name!r} assigned in the loop is not expandable")
                ctx.orient = xorient
                payload = ("expand", name, expanded[name])
            rhs = emit_vexpr(s.rhs, ctx)
        except VectorUnsupported as exc:
            why.append(str(exc))
            if exc.var is None:
                break
            own.append(next(lp for lp in loops if lp.var == exc.var))
            continue
        return _StmtPlan(
            s, True, "; ".join(why), payload, rhs, vec,
            tuple(lp for lp in loops if lp in own), ctx.orient,
            _writeback(s.lhs, ctx), ctx.folded,
        )
    return _StmtPlan(s, False, "; ".join(why),
                     own=tuple(lp for lp in loops if lp.sid not in seq))


def _carried_loops(nest: NestInfo, top, assigns, loops_of, expanded, xarrays,
                   inplace):
    """The nest's dependences — those of *nest* (:func:`_nest_of`) between
    statements under *top* carried inside it, minus the expanded
    scalars' — each carried edge charged to the loop that carries it.
    Returns ``(seq, pinned, pairs)``: the loops that must stay sequential,
    each with the edges that make it so; the loops whose edges are all of
    the two kinds a vector level tolerates *in place* — a textually
    forward cross-statement edge (the *pairs*; distribution keeps it) and
    an anti dependence of a statement on itself carried by its innermost
    loop (box order plus NumPy's full-RHS materialization keep it); and
    those forward pairs, which must not share a cover loop.  An expanded
    array's edges carried by one of its sunk loops are gone: each
    iteration of those loops has its own copy.  So are the edges of a
    statement in *inplace* on itself: it runs its loops in order."""
    order = {s.sid: i for i, s in enumerate(assigns)}
    sunk = {
        name: {lp.sid for _p, _d, lp in x.axes} for name, x in xarrays.items()
    }
    seq: dict[int, list] = {}
    pinned: set[int] = set()
    pairs: set = set()
    outer = len(nest.loops_of(top))
    for d in nest.deps:
        if (d.level <= outer or d.var in expanded
                or d.src.sid not in order or d.dst.sid not in order):
            # loop-independent (forward textual, preserved), carried
            # outside the nest, or not in it
            continue
        chain = loops_of[d.src.sid]
        loop = chain[d.level - outer - 1]
        if loop.sid in sunk.get(d.var, ()):
            continue
        if d.src is d.dst:
            if d.src.sid in inplace:
                continue  # it runs its loops in order
            ok = d.kind == "anti" and loop is chain[-1]
        else:
            ok = order[d.src.sid] < order[d.dst.sid]
            if ok:
                pairs.add((d.src.sid, d.dst.sid))
        if ok:
            pinned.add(loop.sid)
        else:
            seq.setdefault(loop.sid, []).append(d)
    return seq, pinned - seq.keys(), frozenset(pairs)


def _nest_of(kernel: "CompiledKernel", top: DoLoop) -> NestInfo:
    """Where *top*'s dependences come from: the analysis of the top-level
    nest holding it (:meth:`CompiledKernel.nest_info`, its dependences
    already computed), or *top*'s own for a loop outside every analyzed
    nest (under a top-level IF)."""
    try:
        return kernel.nest_info(top)
    except KeyError:
        return NestInfo(top, kernel.params)


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
    :class:`NestPlan`, or the reason it declines (the caller emits *top*
    as a Python loop and retries in its body).

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

    A NEW array stored without varying with the sunk loops is expanded
    along them (:func:`_expansions`, proved by :func:`_covered`), and
    scalars are expanded per chain of loops; both kinds of temporary are
    shaped for one whole-nest block, so such a nest has no sequential
    loop at all.

    *top* must pass the syntactic screen of :func:`_nest_tree` before the
    coverage proof and the dependences are paid for; a nest whose *top*
    turns out sequential is left to the retry (nothing would sink across
    it).  A statement left without a vector level declines the nest too —
    the retry may find it one inside — unless no loop lies beneath *top*
    (a *flat* nest: nothing to retry in).  There the statement runs in
    place, as does one with a dependence on itself carried by *top* (its
    own loop order keeps it), and the temporaries such a statement
    touches are given up; only a backward edge between two statements
    then leaves *top* sequential, which declines the nest, as does a nest
    left with no block at all."""
    flat = not any(isinstance(c, DoLoop) for c in top.body)
    tree = _nest_tree(kernel, top, flat)
    if isinstance(tree, str):
        return tree
    assigns, loops_of, expanded, xnames = tree
    orients: dict = {}  # chain of loops -> its scalar temporaries' orientation
    xarrays: dict = {}
    if expanded or xnames:
        # temporaries take the orientation of the first store that stays
        # (a flat nest has only one)
        vorder = (top.var,)
        if not flat:
            first = next((s for s in assigns if isinstance(s.lhs, ArrayRef)
                          and s.lhs.name.lower() not in xnames), None)
            if first is None:
                return "no store orients the temporaries"
            loops = loops_of[first.sid]
            try:
                _, vorder = _emit_array_access(
                    first.lhs,
                    _block_ctx(kernel, loops, tuple(enumerate(loops)),
                               locals_, expanded),
                    write=True,
                )
            except VectorUnsupported as exc:
                return str(exc)
        rank = {v: r for r, v in enumerate(vorder)}
        for s in assigns:
            chain = loops_of[s.sid]
            if isinstance(s.lhs, Var):
                if any(lp.var not in rank for lp in chain):
                    return "no store orients the temporaries"
                orients[chain] = tuple(
                    sorted((lp.var for lp in chain), key=rank.get))
        if xnames:
            xarrays = _expansions(assigns, loops_of, xnames, rank)
            if xarrays is None:
                return "a NEW array does not fit one block temporary"
    nest = _nest_of(kernel, top)
    seq: set[int] = set()
    inplace: dict[int, str] = {}  # sid -> the self edge that runs it in place
    proved = False
    while True:
        try:
            plans = [
                _StmtPlan(s, False, inplace[s.sid], own=loops_of[s.sid])
                if s.sid in inplace else
                _plan_block(kernel, s, loops_of[s.sid], seq, locals_,
                            expanded, orients.get(loops_of[s.sid], ()), xarrays)
                for s in assigns
            ]
        except VectorUnsupported as exc:
            return str(exc)
        late = [p for p in plans if not p.vector]
        if late and not flat:
            return late[0].reason  # the retry further in may block it
        # a statement run in place reads and writes the real variables: no
        # temporary it touches may stand in for them
        kill = (set(expanded) | set(xarrays)) & set().union(
            *(_names(p.stmt.lhs, p.stmt.rhs) for p in late))
        if kill:
            expanded = {k: v for k, v in expanded.items() if k not in kill}
            xarrays = {k: v for k, v in xarrays.items() if k not in kill}
            continue
        if (expanded or xarrays) and any(
            p.own or p.orient != orients.get(loops_of[p.stmt.sid], p.orient)
            for p in plans if p.vector
        ):
            return "temporaries are shaped for one whole-nest block"
        if xarrays and not proved:
            if not _covered(kernel, nest, top, assigns, xarrays):
                return "a NEW array read is not covered by its writer"
            proved = True
        # syntax has settled every statement's levels: now pay for the
        # dependences
        carried, pinned, pairs = _carried_loops(
            nest, top, assigns, loops_of, expanded, xarrays,
            {p.stmt.sid for p in late})
        if flat and top.sid in carried:
            # an edge of a statement on itself runs that statement in
            # place; one between two statements breaks distribution
            edges = carried[top.sid]
            bad = next((d for d in edges if d.src is not d.dst), None)
            if bad is not None:
                return (
                    f"backward loop-carried {bad.kind} dependence on "
                    f"{bad.var!r} (s{bad.src.sid} -> s{bad.dst.sid})")
            for d in edges:
                inplace.setdefault(
                    d.src.sid, f"carried {d.kind} dependence on {d.var!r}")
            continue
        grown = carried.keys() | _sunk_across(
            plans, loops_of, pinned, carried.keys() | seq)
        grown -= seq
        if not grown:
            break
        if expanded or xarrays:
            return "temporaries are shaped for one whole-nest block"
        seq |= grown
        if top.sid in seq:
            return f"{top.var} carries a dependence"
    vector = [p for p in plans if p.vector]
    if not vector:
        reasons = "; ".join(sorted({p.reason for p in late}))
        return f"no vectorizable statements ({reasons})"
    nest_loops = list(dict.fromkeys(lp for s in assigns for lp in loops_of[s.sid]))
    notes = []
    sequential = tuple(lp.var for lp in nest_loops if lp.sid in seq)
    if sequential:
        notes.append(f"wavefront: {', '.join(sequential)} sequential")
    notes += [
        f"{', '.join(lp.var for lp in p.own)} sequential for "
        f"s{p.stmt.sid} ({p.reason})"
        for p in vector if p.own
    ]
    notes += sorted({p.reason for p in late})
    dims = sorted({len(p.vec) for p in vector})
    notes.append(
        "/".join(f"{d}-d" for d in dims) + (" blocks" if len(dims) > 1 else " block"))
    plan = NestPlan(top, frozenset(seq), {p.stmt.sid: p for p in plans}, pairs,
                    xarrays=xarrays)
    plan.report = LoopReport(
        ",".join(lp.var for lp in nest_loops), top.sid,
        "mixed" if late else "vector", "; ".join(notes),
        tuple(p.stmt.sid for p in vector), tuple(p.stmt.sid for p in late),
        expanded=tuple(sorted(set(expanded) | set(xarrays))),
        sequential=sequential,
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
    """Emit *loop* as NumPy slice code if it heads a rectangular nest the
    planner can prove safe (N-d blocks under its dependence-carrying
    loops); returns False (caller emits scalar and descends) otherwise.  A
    declined loop with no loop beneath it keeps its reason as a ``scalar``
    report."""
    plan = kernel._vector_plans.get(loop.sid)
    if plan is None:
        plan = kernel._vector_plans[loop.sid] = plan_nest(kernel, loop, locals_)
    if isinstance(plan, str):
        if not any(isinstance(c, DoLoop) for c in loop.body):
            kernel.vector_report[loop.sid] = LoopReport(
                loop.var, loop.sid, "scalar", plan)
        return False
    kernel.vector_report[loop.sid] = plan.report
    for p in plan.stmts.values():
        kernel.folded_lower.update(p.folded)
    _emit_plan_nest(kernel, plan, lines, indent, locals_)
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
    emitted as cover loops (with no vector level: run in place).  Expanded NEW arrays get their temporaries
    first, one axis per sunk loop spanning its bounds."""
    pad = "    " * indent
    for name, x in sorted(plan.xarrays.items()):
        axes = ", ".join(
            f"{pos}, {emit_expr(lp.lo, locals_)}, {emit_expr(lp.hi, locals_)}"
            for pos, _d, lp in x.axes)
        lines.append(f"{pad}{x.temp} = K.xtemp(A[{name!r}], {axes})")

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
    the ``own`` loops, then one ``G.boxes`` cover loop per merge group.
    Statements with no vector level run in place: the ``own`` loops around
    the scalar statements, each under its guard."""
    vec, own = run[0].vec, run[0].own
    if not vec:
        for lp in own:
            lines.append(_for_src(lp, indent, locals_))
            indent += 1
            locals_ = locals_ | {lp.var}
        for p in run:
            kernel._emit_stmt(p.stmt, lines, indent, locals_)
        return
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
    bounds = ", ".join(f"_b{l}0, _b{l}1" for l, _lp in vec)
    coords = ", ".join(f"_x{l}a, _x{l}b" for l, _lp in vec)
    for group in _merge_groups(kernel, run, plan.carried_pairs):
        sid = group[0].stmt.sid
        names = kernel.guard_vars(group[0].stmt)
        tpl = "(" + ", ".join("None" if n in level else n for n in names) + ",)"
        lines.append(
            f"{bp}for {coords} in G.boxes({sid}, {tpl}, {bounds}):")
        for p in group:
            if p.payload[0] == "expand":
                _, name, temp = p.payload
                lines.append(
                    f"{bp}    {temp}[{_temp_slice(level, p.orient)}] = {p.rhs_src}")
                corner = ", ".join(
                    f"_x{level[v]}b - _b{level[v]}0" for v in p.orient)
                lines.append(f"{bp}    S[{name!r}] = {temp}[{corner}]")
            else:
                _, arr, subs = p.payload
                lines.append(f"{bp}    {arr}[{subs}] = {p.rhs_src}")
                if p.writeback:
                    lines.append(f"{bp}    {p.writeback}")

