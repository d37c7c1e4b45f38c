"""§5 — Communication-sensitive loop distribution.

Two statements joined by a loop-independent dependence that land on
different processors induce communication *inside* the loop — ruinously
expensive.  The algorithm first tries to *localize* every such dependence by
restricting the endpoint statements to a common CP choice (union-find over
the dependence edges, intersecting per-group choice sets).  Only the edges
that cannot be localized force a loop distribution, and then only a
*selective* one: SCCs of the dependence graph are separated just enough to
break the marked pairs and greedily re-fused otherwise, so cache-friendly
loop structure survives (the paper's Figure 5.1 example distributes into 2
loops where maximal distribution would produce 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..analysis.dependence import Dependence, DependenceAnalyzer
from ..distrib.layout import DistributionContext
from ..ir.graph import add_edge, strongly_connected_components, topological_order
from ..ir.stmt import Assign, DoLoop, Stmt
from ..ir.visit import walk_stmts
from .model import CP, cp_key
from .select import CPSelector, StatementCP


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


@dataclass
class GroupResult:
    """Outcome of the CP-grouping phase."""

    #: statement sid -> group representative sid
    group_of: dict[int, int]
    #: group representative sid -> surviving common choice keys
    group_choices: dict[int, set]
    #: loop-independent edges that could not be localized
    marked_pairs: list[tuple[Stmt, Stmt]]
    #: final per-statement CPs (localized choices applied)
    cps: dict[int, StatementCP]

    def all_localized(self) -> bool:
        return not self.marked_pairs


class CPGrouper:
    """Union-find CP-choice grouping over loop-independent dependences."""

    def __init__(self, ctx: DistributionContext, selector: CPSelector | None = None):
        self.ctx = ctx
        self.selector = selector or CPSelector(ctx)

    def group(
        self,
        loop: DoLoop,
        cps: dict[int, StatementCP] | None = None,
        deps: list[Dependence] | None = None,
        params: Mapping[str, int] | None = None,
    ) -> GroupResult:
        if cps is None:
            cps = self.selector.select(loop, params)
        if deps is None:
            deps = DependenceAnalyzer(loop, params).dependences()

        stmts = {s.sid: s for s in walk_stmts([loop]) if isinstance(s, Assign)}
        # per-statement candidate keys; statements with a propagated CP
        # (NEW/LOCALIZE/interproc) are pinned to their assigned choice.
        choice_keys: dict[int, set] = {}
        key_to_term: dict[int, dict] = {}
        for sid, scp in cps.items():
            if sid not in stmts:
                continue
            if scp.source != "local" or not scp.choices:
                terms = list(scp.cp.terms)
            else:
                terms = scp.choices
            keys = {}
            for t in terms:
                k = cp_key(t, self.ctx)
                if k is not None:
                    keys[k] = t
            choice_keys[sid] = set(keys)
            key_to_term[sid] = keys

        uf = _UnionFind()
        group_keys: dict[int, set] = {}

        def keys_of(sid: int) -> set:
            root = uf.find(sid)
            if root not in group_keys:
                group_keys[root] = set(choice_keys.get(sid, set()))
            return group_keys[root]

        marked: list[tuple[Stmt, Stmt]] = []
        for d in deps:
            if not d.loop_independent:
                continue
            if d.src.sid not in stmts or d.dst.sid not in stmts:
                continue
            if d.src.sid == d.dst.sid:
                continue
            # statements with propagated CPs (NEW/LOCALIZE/interprocedural)
            # already have zero-communication partitions by construction —
            # they neither join nor constrain §5's groups
            if (
                cps[d.src.sid].source != "local"
                or cps[d.dst.sid].source != "local"
            ):
                continue
            ra, rb = uf.find(d.src.sid), uf.find(d.dst.sid)
            if ra == rb:
                continue
            ka, kb = keys_of(d.src.sid), keys_of(d.dst.sid)
            # statements with no distributed refs are replicated: they never
            # force communication, so grouping is unnecessary.
            if not choice_keys.get(d.src.sid) or not choice_keys.get(d.dst.sid):
                continue
            common = ka & kb
            if common:
                root = uf.union(ra, rb)
                dead = rb if root == ra else ra
                group_keys[root] = common
                group_keys.pop(dead, None)
            else:
                marked.append((d.src, d.dst))

        group_of = {sid: uf.find(sid) for sid in stmts}
        # One winner per group, chosen in an order that does not depend on
        # hashing (the surviving keys are a set of tuples): the first
        # surviving candidate of the group's lowest-sid member, whose
        # candidates run lhs — owner-computes — first.
        winner: dict[int, tuple] = {}
        for sid in sorted(stmts):
            root = group_of[sid]
            keys = group_keys.get(root)
            if keys and root not in winner:
                winner[root] = next(k for k in key_to_term[sid] if k in keys)
        # apply the localized choices
        for sid, stmt in stmts.items():
            k = winner.get(group_of[sid])
            if k is None:
                continue
            scp = cps[sid]
            if scp.source != "local":
                continue  # propagated CPs are not overridden
            avail = key_to_term.get(sid, {})
            if k in avail:
                cps[sid] = StatementCP(stmt, CP((avail[k],)), scp.choices, scp.cost, "grouped")
        return GroupResult(group_of, group_keys, marked, cps)


# ---------------------------------------------------------------------------
# selective loop distribution
# ---------------------------------------------------------------------------

def _top_level_ancestor(loop: DoLoop, stmt: Stmt) -> Optional[Stmt]:
    """The direct child of *loop* containing (or equal to) *stmt*."""
    for child in loop.body:
        if child is stmt:
            return child
        if any(s is stmt for s in walk_stmts([child])):
            return child
    return None


def distribute_loop(
    loop: DoLoop,
    marked_pairs: Sequence[tuple[Stmt, Stmt]],
    deps: Sequence[Dependence],
) -> list[DoLoop]:
    """Selectively distribute *loop* to separate the marked statement pairs.

    Returns the replacement loops (just ``[loop]`` when nothing must be
    split, or when every marked pair sits inside one SCC — the illegal case
    the caller escalates outward).  Statement objects are preserved, so CP
    and dependence maps keyed by sid remain valid.
    """
    if not marked_pairs:
        return [loop]
    children = list(loop.body)
    index = {id(c): i for i, c in enumerate(children)}

    g: dict[int, list[int]] = {n: [] for n in range(len(children))}
    for d in deps:
        a = _top_level_ancestor(loop, d.src)
        b = _top_level_ancestor(loop, d.dst)
        if a is None or b is None or a is b:
            continue
        add_edge(g, index[id(a)], index[id(b)])

    sccs = strongly_connected_components(g)
    scc_of = {n: si for si, comp in enumerate(sccs) for n in comp}

    # marked pairs at child granularity
    must_separate: set[tuple[int, int]] = set()
    for sa, sb in marked_pairs:
        a = _top_level_ancestor(loop, sa)
        b = _top_level_ancestor(loop, sb)
        if a is None or b is None or a is b:
            continue  # same child: cannot separate at this level
        ca, cb = scc_of[index[id(a)]], scc_of[index[id(b)]]
        if ca == cb:
            continue  # same SCC: illegal to split here, escalate outward
        must_separate.add((ca, cb))
        must_separate.add((cb, ca))
    if not must_separate:
        return [loop]

    # topological order of the SCC condensation
    cond: dict[int, list[int]] = {si: [] for si in range(len(sccs))}
    for n, succ in g.items():
        for m in succ:
            if scc_of[n] != scc_of[m]:
                add_edge(cond, scc_of[n], scc_of[m])
    topo = topological_order(cond)

    # greedy fusion in topo order: start a new output loop only when the SCC
    # must be separated from one already in the current fusion group.
    fused_groups: list[list[int]] = []
    for scc in topo:
        if fused_groups and all(
            (scc, other) not in must_separate for other in fused_groups[-1]
        ):
            fused_groups[-1].append(scc)
        else:
            fused_groups.append([scc])

    if len(fused_groups) <= 1:
        return [loop]

    out: list[DoLoop] = []
    for grp in fused_groups:
        members = sorted(
            (n for scc in grp for n in sccs[scc]),
        )
        body = [children[n] for n in members]
        nl = DoLoop(loop.var, loop.lo, loop.hi, body, loop.step, loop.label, loop.lineno)
        nl.directive = loop.directive
        out.append(nl)
    return out


def communication_sensitive_distribution(
    root: DoLoop,
    ctx: DistributionContext,
    selector: CPSelector | None = None,
    params: Mapping[str, int] | None = None,
    cps: dict[int, StatementCP] | None = None,
) -> tuple[list[DoLoop], GroupResult]:
    """The full §5 driver for one loop nest: group (localize what we can),
    then selectively distribute what we cannot.

    Processes the nest deepest-loop-outward: inner loops whose marked pairs
    cannot be separated locally escalate to the enclosing level, where the
    communication lands at the outermost legal position.
    """
    grouper = CPGrouper(ctx, selector)

    def rec(loop: DoLoop) -> list[DoLoop]:
        # deepest-first: distribute inner nests, then this level
        new_body: list[Stmt] = []
        for s in loop.body:
            if isinstance(s, DoLoop):
                new_body.extend(rec(s))
            else:
                new_body.append(s)
        loop.body = new_body
        deps = DependenceAnalyzer(loop, params).dependences()
        res = grouper.group(
            loop, cps=dict(cps) if cps is not None else None, deps=deps, params=params
        )
        return distribute_loop(loop, res.marked_pairs, deps)

    loops = rec(root)
    # final grouping pass over the (possibly distributed) top-level loops,
    # accumulating the statement CP assignments across them
    all_cps: dict[int, StatementCP] = dict(cps or {})
    marked: list[tuple[Stmt, Stmt]] = []
    group_of: dict[int, int] = {}
    group_choices: dict[int, set] = {}
    for l in loops:
        res = grouper.group(l, cps=dict(cps) if cps is not None else None, params=params)
        all_cps.update(res.cps)
        marked.extend(res.marked_pairs)
        group_of.update(res.group_of)
        group_choices.update(res.group_choices)
    return loops, GroupResult(group_of, group_choices, marked, all_cps)
