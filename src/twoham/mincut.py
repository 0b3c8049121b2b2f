"""Connectivity and global minimum cut over small weighted graphs.

Graphs are adjacency maps: vertex -> {neighbor: positive integer weight}.
The entry point is stability_cut_ok, which answers "is the graph connected
with min cut >= tau".  It first contracts every edge of weight >= tau
(Nagamochi & Ibaraki 1992) and runs Stoer-Wagner (JACM 1997) only on the
quotient, which in assemblies is usually far smaller than the graph.
"""

from __future__ import annotations


def stoer_wagner(adj: dict) -> int:
    """Weight of a global minimum cut (0 when disconnected).

    Deterministic: vertices are merged in maximum-adjacency order with ties
    broken by original sort position.  The algorithm is exact for any
    non-negative weights, so a disconnected graph comes out as 0 with no
    special case.
    """
    if len(adj) < 2:
        raise ValueError("a cut needs at least two vertices")
    names = sorted(adj)
    index = {v: i for i, v in enumerate(names)}
    graph = {i: {} for i in range(len(names))}
    for v, nbrs in adj.items():
        for u, w in nbrs.items():
            graph[index[v]][index[u]] = w
    nodes = list(range(len(names)))
    best = None
    while len(nodes) > 1:
        a0 = nodes[0]
        grown = [a0]
        conn = {v: graph[a0].get(v, 0) for v in nodes if v != a0}
        while conn:
            v = min(conn, key=lambda u: (-conn[u], u))
            phase_cut = conn[v]
            grown.append(v)
            del conn[v]
            for u, w in graph[v].items():
                if u in conn:
                    conn[u] += w
        if best is None or phase_cut < best:
            best = phase_cut
        t = grown[-1]
        s = grown[-2]
        for u, w in graph[t].items():
            if u == s:
                continue
            graph[s][u] = graph[s].get(u, 0) + w
            graph[u][s] = graph[s][u]
            del graph[u][t]
        graph[s].pop(t, None)
        del graph[t]
        nodes.remove(t)
    return best


def stability_cut_ok(adj: dict, tau: int) -> bool:
    """Connected and every cut weighs at least tau.

    An edge of weight >= tau never crosses a cut lighter than tau, so the
    components joined by such edges are merged first; the graph passes
    iff the quotient is one vertex or its minimum cut is positive and at
    least tau.
    """
    comp = {}
    for root in adj:
        if root in comp:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for u, w in adj[stack.pop()].items():
                if w >= tau and u not in comp:
                    comp[u] = root
                    stack.append(u)
    quotient = {c: {} for c in set(comp.values())}
    if len(quotient) <= 1:
        return True
    for v, nbrs in adj.items():
        cv = comp[v]
        edges = quotient[cv]
        for u, w in nbrs.items():
            cu = comp[u]
            if cu != cv:
                edges[cu] = edges.get(cu, 0) + w
    return stoer_wagner(quotient) >= max(tau, 1)
