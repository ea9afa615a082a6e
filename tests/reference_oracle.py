"""Branch and bound for β, the independent reference for the parity oracle.

Depth-first over a fixed candidate order (heaviest corner-incidence sum
first), including a candidate before excluding it.  Each node is pruned
by two upper bounds on what its subtree can still add:

* the rank bound: every accepted triangle merges three components of
  the candidate vertices into one, so with ``comps`` components open no
  more than ``(comps - 1) // 2`` further triangles fit;
* the compatibility bound: the number of remaining candidates whose
  edges do not clash with the partial solution.

It shares no code with ``cactus_forge.oracle`` beyond the union-find.
It is exponential, so keep it to a few dozen candidates.
"""

from __future__ import annotations

from collections import Counter

from cactus_forge.unionfind import DisjointSet


def _edges_of(triple):
    u, v, w = triple
    return ((u, v), (u, w), (v, w))


def reference_beta(candidates) -> int:
    """The largest number of candidate triangles that form a cactus."""
    incidence = Counter(v for t in candidates for v in t)
    triples = sorted(candidates, key=lambda t: (-sum(incidence[v] for v in t), t))
    edge_lists = [_edges_of(t) for t in triples]
    total = len(triples)

    index = {v: i for i, v in enumerate(sorted(incidence))}
    local = [tuple(index[v] for v in t) for t in triples]
    uf = DisjointSet(len(index))

    used_edges: set[tuple[int, int]] = set()
    chosen = 0
    comps = len(index)
    best = 0

    # i >= 0 visits node i; ~i undoes the inclusion of candidate i.  It
    # sits under the include branch's visit, so the exclude branch pushed
    # beneath it starts from the state before the inclusion.
    stack = [0]
    while stack:
        i = stack.pop()
        if i < 0:
            i = ~i
            chosen -= 1
            used_edges.difference_update(edge_lists[i])
            uf.undo()  # an inclusion made exactly two unions
            uf.undo()
            comps += 2
            continue
        if chosen + (comps - 1) // 2 <= best:
            continue
        compatible = sum(
            1
            for j in range(i, total)
            if not any(e in used_edges for e in edge_lists[j])
        )
        if chosen + compatible <= best or i == total:
            continue
        stack.append(i + 1)
        ru, rv, rw = (uf.find(x) for x in local[i])
        if ru != rv and rv != rw and ru != rw:
            uf.union(ru, rv)
            uf.union(ru, rw)
            comps -= 2
            used_edges.update(edge_lists[i])
            chosen += 1
            best = max(best, chosen)
            stack.append(~i)
            stack.append(i + 1)
    return best

