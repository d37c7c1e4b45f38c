"""The compiler's digraphs: a dict from every node to its successor list.

The call graph (§6, bottom-up interprocedural CP) and a loop body's
dependence graph (§5, selective distribution) have a dozen nodes each.
Their walks break ties by dict order and then successor order, and those
ties decide inlining order and, through it, names and sids.  So a graph
lists each node once as a key and each successor once, in first-insertion
order (:func:`add_edge`), and every walk below visits them in that order.
"""

from __future__ import annotations

from typing import Hashable, Optional

Digraph = dict[Hashable, list]


def add_edge(graph: Digraph, a: Hashable, b: Hashable) -> None:
    """Add ``a -> b`` once; both nodes must already be keys."""
    if b not in graph[a]:
        graph[a].append(b)


def topological_order(graph: Digraph) -> Optional[list]:
    """Kahn's algorithm: sources in node order, then each node as its last
    predecessor is taken (generation by generation).  None on a cycle."""
    indegree = dict.fromkeys(graph, 0)
    for succ in graph.values():
        for w in succ:
            indegree[w] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for v in order:  # grows while walked: a FIFO of ready nodes
        for w in graph[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                order.append(w)
    return order if len(order) == len(graph) else None


def find_cycle(graph: Digraph) -> Optional[list]:
    """The first cycle a depth-first walk meets, as ``[a, b, ..., a]``."""
    done: set = set()
    for root in graph:
        if root in done:
            continue
        path, todo = [root], [iter(graph[root])]
        while todo:
            for w in todo[-1]:
                if w in path:
                    return path[path.index(w):] + [w]
                if w not in done:
                    path.append(w)
                    todo.append(iter(graph[w]))
                    break
            else:
                todo.pop()
                done.add(path.pop())
    return None


def strongly_connected_components(graph: Digraph) -> list[set]:
    """SCCs in the order an iterative Tarjan walk (Nuutila's variant)
    completes them: every SCC after all the SCCs it reaches."""
    preorder: dict = {}
    lowlink: dict = {}
    found: set = set()
    pending: list = []
    comps: list[set] = []
    succ = {v: iter(ws) for v, ws in graph.items()}
    for source in graph:
        if source in found:
            continue
        stack = [source]
        while stack:
            v = stack[-1]
            if v not in preorder:
                preorder[v] = len(preorder) + 1
            for w in succ[v]:
                if w not in preorder:
                    stack.append(w)
                    break
            else:
                low = preorder[v]
                for w in graph[v]:
                    if w not in found:
                        low = min(low, lowlink[w] if preorder[w] > preorder[v]
                                  else preorder[w])
                lowlink[v] = low
                stack.pop()
                if low == preorder[v]:
                    comp = {v}
                    while pending and preorder[pending[-1]] > preorder[v]:
                        comp.add(pending.pop())
                    found |= comp
                    comps.append(comp)
                else:
                    pending.append(v)
    return comps
