"""Constraints and basic (conjunctive) integer sets.

A :class:`BasicSet` is ``{ [d1,...,dn] : exists e1..ek . /\\ constraints }``
where constraints are affine equalities/inequalities over the tuple dims,
the existential variables, and any remaining free names, which are treated
as symbolic integer *parameters* (grid size N, processor id ``myid``,
block size, ...).

Projection uses Fourier-Motzkin elimination with Omega-style *dark shadow*
reasoning: elimination is exact whenever one of the combined coefficients is
1 (true for nearly all sets arising in HPF analysis); otherwise the result is
flagged approximate and downstream queries answer conservatively.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Sequence

from .box import Interval, read_bounds
from .terms import LinExpr, E

# Cap on constraints kept per basic set during elimination; beyond this we
# drop obviously-redundant constraints aggressively.  FM blowup is quadratic
# per step; HPF sets are small (tens of constraints) so this is a backstop.
_MAX_CONSTRAINTS = 400


class CacheStats:
    """Hit/miss counters for the hash-consed set caches (perf telemetry,
    surfaced by ``python -m repro.eval diffstats``, ``profile`` and the
    bench harness).

    ``empty_fast`` counts emptiness decisions taken by the single-variable
    interval fast path (no Fourier-Motzkin run); ``enum_fast``/``enum_scan``
    split point enumerations between the product fast path and the
    recursive lattice scan.  The counters run for the process; readers take
    deltas (:meth:`snapshot`, :meth:`delta`).
    """

    __slots__ = (
        "constraint_hits",
        "constraint_misses",
        "empty_hits",
        "empty_misses",
        "empty_fast",
        "subsume_hits",
        "subsume_misses",
        "enum_fast",
        "enum_scan",
    )

    def __init__(self) -> None:
        for field in self.__slots__:
            setattr(self, field, 0)

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Raw counter values (for per-phase delta attribution)."""
        return {field: getattr(self, field) for field in self.__slots__}

    @staticmethod
    def delta(after: Mapping[str, int], before: Mapping[str, int]) -> dict:
        return {k: after[k] - before.get(k, 0) for k in after}

    def as_dict(self) -> dict:
        return {
            "constraint_hits": self.constraint_hits,
            "constraint_misses": self.constraint_misses,
            "constraint_hit_rate": self._rate(self.constraint_hits, self.constraint_misses),
            "empty_hits": self.empty_hits,
            "empty_misses": self.empty_misses,
            "empty_hit_rate": self._rate(self.empty_hits, self.empty_misses),
            "empty_fast": self.empty_fast,
            "subsume_hits": self.subsume_hits,
            "subsume_misses": self.subsume_misses,
            "subsume_hit_rate": self._rate(self.subsume_hits, self.subsume_misses),
            "enum_fast": self.enum_fast,
            "enum_scan": self.enum_scan,
        }


CACHE_STATS = CacheStats()

# ---------------------------------------------------------------------------
# Per-compile memo tables
#
# The tables below memoize within one compilation: the same subscript
# patterns recur across a kernel's statements and nests, so structurally
# equal constraints are interned once and structurally equal basic sets
# share one emptiness proof.  All keys are *structural* (LinExpr value
# tuples, BasicSet value-hashes over dims/exists/constraints), never object
# identity.  ``new_epoch()`` empties them at every compile's start, so what
# a compile charges its :class:`IsetBudget` (memo misses) depends on that
# compile alone, never on what the process compiled before.
# ---------------------------------------------------------------------------

# Hash-consing table: raw (LinExpr, is_eq) -> normalized Constraint.  Two
# different raw expressions may normalize to equal constraints; the table is
# a cache keyed by input, not a canonical-instance registry, so `==` (not
# `is`) remains the identity notion.
_CONSTRAINT_INTERN: "dict[tuple[LinExpr, bool], Constraint]" = {}

# Value cache for BasicSet.is_empty keyed by set value (dims/exists/
# constraints hash equality), so structurally identical sets built at
# different times share one Fourier-Motzkin run.
_EMPTY_CACHE: "dict[BasicSet, bool]" = {}

# Memoized disjunct-subsumption verdicts: (smaller, larger) -> bool
# ("every point of `smaller` is in `larger`").  Populated by the union /
# difference normalization in :mod:`repro.isets.iset`.
_SUBSUME_CACHE: "dict[tuple[BasicSet, BasicSet], bool]" = {}


def new_epoch() -> None:
    """Start a compilation: empty the memo tables (the counters keep
    running; readers take deltas)."""
    _CONSTRAINT_INTERN.clear()
    _EMPTY_CACHE.clear()
    _SUBSUME_CACHE.clear()


def cache_stats() -> CacheStats:
    """The process-wide iset cache counters."""
    return CACHE_STATS


# ---------------------------------------------------------------------------
# Per-compilation resource budgets
# ---------------------------------------------------------------------------

class BudgetExceeded(RuntimeError):
    """An iset resource budget tripped (see :func:`iset_budget`)."""

    def __init__(self, kind: str, spent: int, limit: int):
        self.kind = kind
        self.spent = spent
        self.limit = limit
        super().__init__(f"iset budget exceeded: {kind} {spent} > limit {limit}")


class IsetBudget:
    """Per-compilation budget over symbolic-set work.

    Charges land on the *expensive* events — constraint-normalization misses
    (weight 1) and emptiness-proof Fourier-Motzkin misses (weight
    ``EMPTY_WEIGHT``) — plus the disjunct count of every union built.  When a
    limit is crossed while enforcement is armed, the charge raises
    :class:`BudgetExceeded`; the lenient compiler driver converts that into
    a conservative replicated fallback with a ``W-BUDGET`` diagnostic
    instead of letting the analysis explode combinatorially.  The memo tables
    are emptied at each compile's start (:func:`new_epoch`), so the charges
    — and whether a nest trips — are a function of the compile alone, not
    of what the process compiled before.

    ``tripped``/``trips`` persist after the first trip for telemetry
    (``python -m repro.eval diffstats``).  ``suspend()`` disables enforcement
    (while still counting) so the driver's own fallback construction cannot
    re-trip the budget.  ``reset_ops()`` restarts the op window — the driver
    grants each loop nest a fresh window after a trip, so one pathological
    nest cannot starve the rest of the compilation.
    """

    EMPTY_WEIGHT = 20  # one FM emptiness run ~ this many constraint interns

    def __init__(self, max_ops: int = 200_000, max_disjuncts: int = 48):
        self.max_ops = max_ops
        self.max_disjuncts = max_disjuncts
        self.ops = 0
        self.peak_disjuncts = 0
        self.tripped: str | None = None
        self.trips = 0
        self._suspended = 0

    # -- charging (called from the cache-miss paths) -----------------------
    def charge_op(self, weight: int = 1) -> None:
        self.ops += weight
        if not self._suspended and self.ops > self.max_ops:
            self._trip("ops", self.ops, self.max_ops)

    def charge_disjuncts(self, n: int) -> None:
        if n > self.peak_disjuncts:
            self.peak_disjuncts = n
        if not self._suspended and n > self.max_disjuncts:
            self._trip("disjuncts", n, self.max_disjuncts)

    def _trip(self, kind: str, spent: int, limit: int) -> None:
        self.trips += 1
        if self.tripped is None:
            self.tripped = kind
        raise BudgetExceeded(kind, spent, limit)

    # -- driver controls ---------------------------------------------------
    def reset_ops(self) -> None:
        self.ops = 0

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """Count but do not enforce (used while building the fallback)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def as_dict(self) -> dict:
        return {
            "budget_ops": self.ops,
            "budget_max_ops": self.max_ops,
            "budget_peak_disjuncts": self.peak_disjuncts,
            "budget_max_disjuncts": self.max_disjuncts,
            "budget_trips": self.trips,
            "budget_tripped": self.tripped,
        }


_ACTIVE_BUDGET: IsetBudget | None = None


def active_budget() -> IsetBudget | None:
    """The budget installed by the innermost :func:`iset_budget`, if any."""
    return _ACTIVE_BUDGET


@contextmanager
def iset_budget(budget: IsetBudget) -> "Iterator[IsetBudget]":
    """Install *budget* as the active per-compilation iset budget."""
    global _ACTIVE_BUDGET
    prev = _ACTIVE_BUDGET
    _ACTIVE_BUDGET = budget
    try:
        yield budget
    finally:
        _ACTIVE_BUDGET = prev


class Constraint:
    """``expr == 0`` (is_eq) or ``expr >= 0`` — normalized over the integers.

    Instances are hash-consed: constructing the same (expr, is_eq) twice
    returns the cached normalized object, skipping content/sign
    normalization.  This is purely a cache — equality stays structural.
    """

    __slots__ = ("expr", "is_eq", "_hash")

    def __new__(cls, expr: LinExpr, is_eq: bool):
        expr = LinExpr.of(expr)
        key = (expr, is_eq)
        cached = _CONSTRAINT_INTERN.get(key)
        if cached is not None:
            CACHE_STATS.constraint_hits += 1
            return cached
        CACHE_STATS.constraint_misses += 1
        if _ACTIVE_BUDGET is not None:
            _ACTIVE_BUDGET.charge_op()
        self = super().__new__(cls)
        self._normalize(expr, is_eq)
        _CONSTRAINT_INTERN[key] = self
        return self

    def _normalize(self, expr: LinExpr, is_eq: bool) -> None:
        g = expr.content()
        if g > 1:
            const = expr.constant
            if is_eq and const % g != 0:
                # g | const is required for integer solutions; if not, the
                # constraint is unsatisfiable — keep it as an impossible
                # constant equality so emptiness detection sees it.
                expr = LinExpr.const(1)  # 1 == 0 : impossible
            else:
                # sum(a_i x_i) + c >= 0, g | a_i  =>  sum(a_i/g x_i) + floor(c/g) >= 0
                # (an equality divides exactly); ints throughout, no float
                expr = LinExpr._trusted(
                    {k: v // g for k, v in expr.coeffs.items()}, const // g
                )
        if is_eq and expr.coeffs:
            # canonical sign: first (lexicographically smallest) coeff positive
            first = next(iter(expr.coeffs.values()))
            if first < 0:
                expr = -expr
        self.expr = expr
        self.is_eq = is_eq
        self._hash = hash((expr, is_eq))

    def __init__(self, expr: LinExpr, is_eq: bool):
        # all state is set in __new__ (possibly served from the intern
        # table); nothing to do here
        pass

    def __reduce__(self):
        # route unpickling through __new__ so deserialized constraints
        # re-enter the intern table (plan-cache loads stay hash-consed);
        # _normalize is idempotent on an already-normalized expr
        return (Constraint, (self.expr, self.is_eq))

    # -- constructors --------------------------------------------------
    @staticmethod
    def eq(lhs: LinExpr | int | str, rhs: LinExpr | int | str = 0) -> "Constraint":
        """``lhs == rhs``"""
        return Constraint(E(lhs) - E(rhs), True)

    @staticmethod
    def ge(lhs: LinExpr | int | str, rhs: LinExpr | int | str = 0) -> "Constraint":
        """``lhs >= rhs``"""
        return Constraint(E(lhs) - E(rhs), False)

    @staticmethod
    def le(lhs: LinExpr | int | str, rhs: LinExpr | int | str = 0) -> "Constraint":
        """``lhs <= rhs``"""
        return Constraint(E(rhs) - E(lhs), False)

    # -- queries ---------------------------------------------------------
    def is_trivially_true(self) -> bool:
        e = self.expr
        if not e.is_constant():
            return False
        return e.constant == 0 if self.is_eq else e.constant >= 0

    def is_trivially_false(self) -> bool:
        e = self.expr
        if not e.is_constant():
            return False
        return e.constant != 0 if self.is_eq else e.constant < 0

    def vars(self) -> frozenset[str]:
        return self.expr.vars()

    def substitute(self, binding: Mapping[str, LinExpr | int]) -> "Constraint":
        return Constraint(self.expr.substitute(binding), self.is_eq)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.is_eq)

    def satisfied_by(self, binding: Mapping[str, int]) -> bool:
        v = self.expr.evaluate(binding)
        return v == 0 if self.is_eq else v >= 0

    def negated(self) -> "list[Constraint]":
        """Integer negation. ``e == 0`` negates to two disjuncts (callers get
        a list and build a union); ``e >= 0`` negates to ``-e - 1 >= 0``."""
        if self.is_eq:
            return [Constraint(self.expr - 1, False), Constraint(-self.expr - 1, False)]
        return [Constraint(-self.expr - 1, False)]

    def pretty(self, prefer: Sequence[str] = ()) -> str:
        """Human-oriented relational form: solve for one unit-coefficient
        variable (preferring *prefer* names, then lexicographic) and render
        ``v <= rest`` / ``v >= rest`` / ``v = rest`` instead of ``expr >= 0``.
        Falls back to the raw form when no variable has coefficient ±1."""
        cands = [v for v in self.expr.vars() if abs(self.expr.coeff(v)) == 1]
        if not cands:
            return str(self)
        ordered = [v for v in prefer if v in cands] + sorted(
            v for v in cands if v not in prefer
        )
        v = ordered[0]
        a = self.expr.coeff(v)
        # expr == a*v + r  with r = expr - a*v;  then  a*v (op) -r
        rest = (self.expr - LinExpr({v: a})) * (-a)
        if self.is_eq:
            op = "="
        else:
            # a*v + r >= 0  =>  v >= -r (a=1)  |  v <= r (a=-1)
            op = ">=" if a > 0 else "<="
        return f"{v} {op} {rest}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constraint)
            and self.is_eq == other.is_eq
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        op = "=" if self.is_eq else ">="
        return f"{self.expr} {op} 0"

    __repr__ = __str__


def _dedup(constraints: Iterable[Constraint]) -> list[Constraint]:
    """Remove duplicates and pairwise-dominated inequalities: equalities
    first, then per coefficient vector the *tightest* inequality (``expr +
    c >= 0`` with the smallest ``c``), each in first-seen order.  The
    survivors are the very objects passed in, never rebuilt copies."""
    eqs: dict[Constraint, None] = {}
    best: dict[tuple, Constraint] = {}
    for c in constraints:
        coeffs = c.expr.coeffs
        if not coeffs and c.is_trivially_true():
            continue
        if c.is_eq:
            eqs.setdefault(c)
            continue
        key = tuple(coeffs.items())
        kept = best.get(key)
        if kept is None or c.expr.constant < kept.expr.constant:
            best[key] = c
    return [*eqs, *best.values()]


class BasicSet:
    """A conjunctive affine integer set with existential variables.

    ``dims`` is the ordered tuple of set dimensions; ``exists`` are
    existentially quantified auxiliary variables; every other name appearing
    in a constraint is a free symbolic parameter.
    """

    __slots__ = ("dims", "exists", "constraints", "exact")

    def __init__(
        self,
        dims: Sequence[str],
        constraints: Iterable[Constraint] = (),
        exists: Iterable[str] = (),
        exact: bool = True,
    ):
        self.dims: tuple[str, ...] = tuple(dims)
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dims in {self.dims}")
        self.exists: frozenset[str] = frozenset(exists)
        if self.exists & set(self.dims):
            raise ValueError("existential variable collides with a dim")
        self.constraints: tuple[Constraint, ...] = tuple(_dedup(constraints))
        self.exact = exact

    # -- basic structure -------------------------------------------------
    def params(self) -> frozenset[str]:
        """Free symbolic parameters: variables that are neither dims nor exists."""
        used: set[str] = set()
        for c in self.constraints:
            used |= c.vars()
        return frozenset(used - set(self.dims) - self.exists)

    def with_constraints(self, extra: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.dims, list(self.constraints) + list(extra), self.exists, self.exact)

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        new_dims = tuple(mapping.get(d, d) for d in self.dims)
        return BasicSet(
            new_dims,
            [c.rename(mapping) for c in self.constraints],
            {mapping.get(e, e) for e in self.exists},
            self.exact,
        )

    def _fresh(self, base: str, taken: set[str]) -> str:
        i = 0
        while f"{base}'{i}" in taken:
            i += 1
        return f"{base}'{i}"

    def align_exists(self, avoid: set[str]) -> "BasicSet":
        """Rename existential variables so they avoid the given names."""
        clash = self.exists & avoid
        if not clash:
            return self
        taken = set(avoid) | self.exists | set(self.dims) | set(self.params())
        mapping = {}
        for e in clash:
            fresh = self._fresh(e, taken)
            mapping[e] = fresh
            taken.add(fresh)
        return BasicSet(
            self.dims,
            [c.rename(mapping) for c in self.constraints],
            {mapping.get(e, e) for e in self.exists},
            self.exact,
        )

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "BasicSet") -> "BasicSet":
        if self.dims != other.dims:
            raise ValueError(f"space mismatch: {self.dims} vs {other.dims}")
        o = other.align_exists(self.exists | set(self.dims) | self.params())
        return BasicSet(
            self.dims,
            list(self.constraints) + list(o.constraints),
            self.exists | o.exists,
            self.exact and o.exact,
        )

    def substitute(self, binding: Mapping[str, LinExpr | int]) -> "BasicSet":
        """Substitute *parameters* (or dims being fixed) by expressions.

        Any substituted dim is removed from the dim tuple.
        """
        new_dims = tuple(d for d in self.dims if d not in binding)
        return BasicSet(
            new_dims,
            [c.substitute(binding) for c in self.constraints],
            self.exists - set(binding),
            self.exact,
        )

    # -- Fourier-Motzkin ---------------------------------------------------
    def _eliminate_var(
        self, constraints: list[Constraint], var: str
    ) -> tuple[list[Constraint], bool]:
        """Eliminate *var* from a constraint list. Returns (result, exact)."""
        exact = True
        # 1. use an equality with unit coefficient if available (exact)
        for c in constraints:
            if c.is_eq:
                a = c.expr.coeff(var)
                if a in (1, -1):
                    # var = -(rest)/a
                    _, rest = c.expr.as_fraction_of(var)
                    repl = rest * (-1 if a == 1 else 1)
                    out = [k.substitute({var: repl}) for k in constraints if k is not c]
                    return _dedup(out), True
        # 2. equality with non-unit coefficient: scale-substitute (approximate:
        #    loses the divisibility condition a | rest)
        for c in constraints:
            if c.is_eq and c.expr.coeff(var) != 0:
                a = c.expr.coeff(var)
                _, rest = c.expr.as_fraction_of(var)
                # a*var + rest == 0  =>  var = -rest/a ; multiply others by |a|
                out = []
                for k in constraints:
                    if k is c:
                        continue
                    b = k.expr.coeff(var)
                    if b == 0:
                        out.append(k)
                    else:
                        _, krest = k.expr.as_fraction_of(var)
                        # |a| * k :  b*(-rest/a)*|a| + krest*|a|
                        sign = 1 if a > 0 else -1
                        newe = krest * abs(a) + rest * (-b * sign)
                        out.append(Constraint(newe, k.is_eq))
                return _dedup(out), False
        # 3. inequalities: FM with dark-shadow exactness check
        lowers: list[tuple[int, LinExpr]] = []  # a*var >= -rest  (a>0)
        uppers: list[tuple[int, LinExpr]] = []  # b*var <= rest   (b>0)
        rest_cons: list[Constraint] = []
        for c in constraints:
            a = c.expr.coeff(var)
            if a == 0:
                rest_cons.append(c)
            elif a > 0:
                _, rest = c.expr.as_fraction_of(var)
                lowers.append((a, rest))
            else:
                _, rest = c.expr.as_fraction_of(var)
                uppers.append((-a, rest))
        out = list(rest_cons)
        for (a, rl), (b, ru) in itertools.product(lowers, uppers):
            # a*var + rl >= 0  and  -b*var + ru >= 0
            # real shadow: a*ru + b*rl >= 0 ; exact iff a==1 or b==1
            out.append(Constraint(ru * a + rl * b, False))
            if a != 1 and b != 1:
                exact = False
        out = _dedup(out)
        if len(out) > _MAX_CONSTRAINTS:
            # keep equalities + the syntactically smallest inequalities
            eqs = [c for c in out if c.is_eq]
            iq = sorted(
                (c for c in out if not c.is_eq),
                key=lambda c: (len(c.expr.coeffs), sum(abs(v) for v in c.expr.coeffs.values())),
            )
            out = eqs + iq[:_MAX_CONSTRAINTS]
            exact = False
        return out, exact

    def project_out(self, names: Iterable[str]) -> "BasicSet":
        """Existentially project away the given dims / exists vars."""
        names = [n for n in names if n in self.dims or n in self.exists]
        cons = list(self.constraints)
        exact = self.exact
        for n in names:
            cons, ok = self._eliminate_var(cons, n)
            exact = exact and ok
        new_dims = tuple(d for d in self.dims if d not in names)
        return BasicSet(new_dims, cons, self.exists - set(names), exact)

    def eliminate_exists(self) -> "BasicSet":
        """Project away all existential variables (possibly approximate)."""
        if not self.exists:
            return self
        return self.project_out(list(self.exists))

    # -- emptiness / membership --------------------------------------------
    def is_empty(self) -> bool:
        """True iff the set is *provably* empty (rationally infeasible, which
        is sound over the integers).  "False" means "could not prove empty".

        Elimination order matters for integer precision: variables with a
        unit-coefficient equality are substituted first (exact), so that
        divisibility contradictions like ``{j = 0, 2i + j + 1 = 0}`` are
        found regardless of name order.

        Results are memoized by set value: structurally equal sets (same
        dims, exists, constraint set) share one Fourier-Motzkin run.
        """
        cached = _EMPTY_CACHE.get(self)
        if cached is not None:
            CACHE_STATS.empty_hits += 1
            return cached
        CACHE_STATS.empty_misses += 1
        quick = self._interval_empty()
        if quick is not None:
            # decided by per-variable rational intervals: charge like one
            # constraint op, not a full Fourier-Motzkin run
            CACHE_STATS.empty_fast += 1
            if _ACTIVE_BUDGET is not None:
                _ACTIVE_BUDGET.charge_op()
            result = quick
        else:
            if _ACTIVE_BUDGET is not None:
                _ACTIVE_BUDGET.charge_op(IsetBudget.EMPTY_WEIGHT)
            result = self._is_empty_uncached()
        _EMPTY_CACHE[self] = result
        return result

    def _interval_empty(self) -> bool | None:
        """Emptiness by per-variable rational intervals, for sets whose
        constraints each involve at most one variable.

        On such systems Fourier-Motzkin (real shadow) reduces exactly to
        intersecting each variable's rational bounds, so this returns the
        same verdict as :meth:`_is_empty_uncached` without running
        elimination.  Returns ``None`` (undecided) as soon as a constraint
        couples two variables."""
        bounds = read_bounds(self.constraints)
        if bounds is None:
            return None
        if bounds is False:
            return True
        return any(iv.rationally_empty() for iv in bounds.values())

    def _is_empty_uncached(self) -> bool:
        cons = list(self.constraints)
        for c in cons:
            if c.is_trivially_false():
                return True
        all_vars: set[str] = set(self.dims) | set(self.exists)
        for c in cons:
            all_vars |= c.vars()
        remaining = set(all_vars)
        while remaining:
            # prefer a variable with a unit-coefficient equality (exact sub)
            pick = None
            for c in cons:
                if c.is_eq:
                    for v in sorted(remaining):
                        if c.expr.coeff(v) in (1, -1):
                            pick = v
                            break
                if pick:
                    break
            if pick is None:
                pick = sorted(remaining)[0]
            remaining.discard(pick)
            cons, _ = self._eliminate_var(cons, pick)
            for c in cons:
                if c.is_trivially_false():
                    return True
        return any(c.is_trivially_false() for c in cons)

    def contains(self, point: Sequence[int], params: Mapping[str, int] | None = None) -> bool:
        """Membership test for a concrete point under concrete parameters.

        If the set has existential variables, feasibility of the residual
        system in the existentials is checked by bounded search.
        """
        if len(point) != len(self.dims):
            raise ValueError(f"point arity {len(point)} != set arity {len(self.dims)}")
        binding: dict[str, int] = dict(zip(self.dims, point))
        if params:
            binding.update(params)
        residual: list[Constraint] = []
        for c in self.constraints:
            e = c.expr.evaluate_partial(binding)
            cc = Constraint(e, c.is_eq)
            if cc.is_trivially_false():
                return False
            if not cc.is_trivially_true():
                residual.append(cc)
        if not residual:
            return True
        free = set()
        for c in residual:
            free |= c.vars()
        missing = free - self.exists
        if missing:
            raise KeyError(f"unbound parameters in contains(): {sorted(missing)}")
        return _exists_feasible(residual, sorted(free))

    # -- enumeration --------------------------------------------------------
    def bounds_of(
        self, var: str, binding: Mapping[str, int]
    ) -> tuple[int, int] | None:
        """Concrete [lb, ub] of one variable after substituting *binding* and
        projecting away every other dim/exists var.  None if unbounded."""
        sub = self.substitute({k: LinExpr.const(v) for k, v in binding.items()})
        others = [d for d in sub.dims if d != var] + list(sub.exists)
        proj = sub.project_out(others)
        only = {var}
        bounds = read_bounds(
            c for c in proj.constraints if c.expr.coeffs.keys() <= only
        )
        if bounds is False:
            return (1, 0)  # empty range
        iv = bounds.get(var)
        if iv is not None and iv.gap:
            return (1, 0)
        if iv is None or iv.lo is None or iv.hi is None:
            return None
        return (iv.lo, iv.hi)

    def enumerate_points(
        self, params: Mapping[str, int] | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Yield every integer point (requires all parameters bound)."""
        params = dict(params or {})
        sub = self.substitute({k: LinExpr.const(v) for k, v in params.items()})
        leftover = sub.params()
        if leftover:
            raise KeyError(f"unbound parameters in enumerate_points(): {sorted(leftover)}")
        ranges = _product_ranges(sub, self.dims)
        if ranges == "empty":
            CACHE_STATS.enum_fast += 1
            return
        if ranges is not None:
            CACHE_STATS.enum_fast += 1
            yield from itertools.product(*ranges)
            return
        CACHE_STATS.enum_scan += 1
        yield from _scan(sub, self.dims, {})

    def sample(self, params: Mapping[str, int] | None = None) -> tuple[int, ...] | None:
        """Return one point of the set under the binding, or None if empty."""
        for p in self.enumerate_points(params):
            return p
        return None

    def count(self, params: Mapping[str, int] | None = None) -> int:
        return sum(1 for _ in self.enumerate_points(params))

    def pretty(self) -> str:
        """Readable set-builder form with per-variable relational
        constraints (``{[a$0,a$1] : a$0 >= 1 and a$0 <= 16 ...}``)."""
        body = " and ".join(
            c.pretty(prefer=self.dims) for c in self.constraints
        ) or "true"
        ex = f"exists {','.join(sorted(self.exists))} : " if self.exists else ""
        mark = "" if self.exact else " (approx)"
        return f"{{[{','.join(self.dims)}] : {ex}{body}}}{mark}"

    # -- dunder ----------------------------------------------------------
    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        ex = f" exists {','.join(sorted(self.exists))} :" if self.exists else ""
        mark = "" if self.exact else " (approx)"
        return f"{{[{','.join(self.dims)}] :{ex} {body}}}{mark}"

    __repr__ = __str__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BasicSet)
            and self.dims == other.dims
            and self.exists == other.exists
            and set(self.constraints) == set(other.constraints)
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.exists, frozenset(self.constraints)))


def _product_ranges(
    bs: BasicSet, dims: Sequence[str]
) -> "list[range] | str | None":
    """Per-dim iteration ranges when *bs* decomposes into independent
    single-variable constraints (the common case for bound communication /
    iteration sets), letting :meth:`BasicSet.enumerate_points` emit the
    cross product directly instead of running one Fourier-Motzkin
    projection per lattice prefix in :func:`_scan`.

    Returns ``None`` when any constraint couples two variables (caller
    falls back to the scan), the string ``"empty"`` when the set provably
    has no points, or the list of ``range`` objects in *dims* order.
    Faithful to the scan's observable behavior, including failure order:
    a rational contradiction in *any* variable silences the enumeration
    (the scan's very first ``bounds_of`` sees the projected contradiction
    as a false constant), while an unbounded dim raises ``ValueError``
    unless an earlier dim in tuple order already had an empty range.
    """
    bounds = read_bounds(bs.constraints)
    if bounds is None:
        return None
    if bounds is False:
        return "empty"
    if any(v not in dims and v not in bs.exists for v in bounds):
        return None
    if any(iv.rationally_empty() for iv in bounds.values()):
        return "empty"
    out: list[range] = []
    for d in dims:
        iv = bounds.get(d) or Interval()
        if iv.empty():
            return "empty"
        if iv.lo is None or iv.hi is None:
            raise ValueError(
                f"dimension {d!r} is unbounded; cannot enumerate; set: {bs.pretty()}"
            )
        out.append(range(iv.lo, iv.hi + 1))
    # existential variables: the scan's leaf check runs _exists_feasible on
    # the residual system, which for independent single-variable constraints
    # reduces to each existential having a satisfiable interval (with the
    # same conservative accepts for unbounded / very wide ranges).
    for e in bs.exists:
        iv = bounds.get(e) or Interval()
        if iv.gap:
            return "empty"  # non-divisible equality: bounded search finds nothing
        if iv.lo is None or iv.hi is None:
            continue  # unbounded existential: conservative accept
        if iv.hi - iv.lo > 10000:
            continue  # too wide to search: conservative accept
        if iv.hi < iv.lo:
            return "empty"
    return out


def _scan(bs: BasicSet, dims: Sequence[str], fixed: dict[str, int]) -> Iterator[tuple[int, ...]]:
    """Recursive lattice scan of a fully-parametrized basic set."""
    remaining = [d for d in dims if d not in fixed]
    if not remaining:
        pt = tuple(fixed[d] for d in dims)
        residual = []
        ok = True
        for c in bs.constraints:
            e = c.expr.evaluate_partial(fixed)
            cc = Constraint(e, c.is_eq)
            if cc.is_trivially_false():
                ok = False
                break
            if not cc.is_trivially_true():
                residual.append(cc)
        if ok and residual:
            free = set()
            for c in residual:
                free |= c.vars()
            ok = _exists_feasible(residual, sorted(free))
        if ok:
            yield pt
        return
    var = remaining[0]
    rng = bs.bounds_of(var, fixed)
    if rng is None:
        raise ValueError(
            f"dimension {var!r} is unbounded; cannot enumerate; set: {bs.pretty()}"
        )
    lo, hi = rng
    for v in range(lo, hi + 1):
        yield from _scan(bs, dims, {**fixed, var: v})


def _exists_feasible(constraints: list[Constraint], free: list[str]) -> bool:
    """Bounded search for an integer assignment of existential variables."""
    if not free:
        return all(c.is_trivially_true() for c in constraints)
    helper = BasicSet(tuple(free), constraints)
    if helper.is_empty():
        return False
    var = free[0]
    rng = helper.bounds_of(var, {})
    if rng is None:
        # unbounded existential: fall back to rational feasibility, which
        # `is_empty` already failed to refute — accept (sound for the cyclic
        # stride sets this is used for, where strides have unit coefficient).
        return True
    lo, hi = rng
    if hi - lo > 10000:
        return True  # too wide to search; conservative accept
    for v in range(lo, hi + 1):
        residual = []
        ok = True
        for c in constraints:
            e = c.expr.evaluate_partial({var: v})
            cc = Constraint(e, c.is_eq)
            if cc.is_trivially_false():
                ok = False
                break
            if not cc.is_trivially_true():
                residual.append(cc)
        if ok and _exists_feasible(residual, free[1:]):
            return True
    return False
