"""Exact maximum-cactus solvers for small instances.

Depth-first branch and bound over a fixed candidate order (heaviest
degree sum first), including a candidate before excluding it.  Each node
is pruned by two upper bounds on what its subtree can still add:

* the rank bound: every accepted triangle merges three components of
  the candidate vertices into one, so with ``comps`` components open no
  more than ``(comps - 1) // 2`` further triangles fit.  It costs O(1)
  and is tested first;
* the compatibility bound: the number of remaining candidates whose
  edges do not clash with the partial solution.  It costs O(remaining)
  and only runs when the rank bound did not prune.

A bound only cuts subtrees that cannot beat the best solution found so
far, so the optimum and the witness do not depend on which bounds are
used.  The search keeps its own stack rather than recursing, so its
Python call depth stays constant however many candidates it is given.

Results from these solvers are the ground truth every approximation
column is compared against, so the node budget is enforced loudly:
running out raises, and the partial result rides along on the exception
marked non-exhaustive.

Two candidate universes are offered: the triangular faces of a plane
graph (matching the local search's move set) and all 3-cliques of an
arbitrary graph, which needs no embedding at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cactus import triples_form_cactus
from .errors import BudgetExceededError, CandidateGuardError, IdentityViolationError
from .plane_graph import PlaneGraph
from .unionfind import DisjointSet

__all__ = [
    "OracleResult",
    "exact_beta_faces",
    "exact_beta_all_triangles",
    "CANDIDATE_GUARD",
    "DEFAULT_BUDGET",
]

CANDIDATE_GUARD = 40
DEFAULT_BUDGET = 10_000_000

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: tuple[Triple, ...]
    nodes_explored: int
    exhausted: bool


def _edges_of(triple: Triple) -> tuple[tuple[int, int], ...]:
    u, v, w = triple
    return ((u, v), (u, w), (v, w))


def _search(
    candidates: Sequence[Triple],
    degree_sum: Sequence[int],
    budget: int,
) -> OracleResult:
    order = sorted(
        range(len(candidates)), key=lambda i: (-degree_sum[i], candidates[i])
    )
    triples = [candidates[i] for i in order]
    edge_lists = [_edges_of(t) for t in triples]
    total = len(triples)

    # The union-find runs over the vertices relabeled 0..k-1; the
    # witness keeps the original triples.
    index = {v: i for i, v in enumerate(sorted({v for t in triples for v in t}))}
    local = [tuple(index[v] for v in t) for t in triples]
    uf = DisjointSet(len(index))
    find, union, undo = uf.find, uf.union, uf.undo

    used_edges: set[tuple[int, int]] = set()
    chosen: list[Triple] = []
    comps = len(index)
    best = 0
    best_witness: tuple[Triple, ...] = ()
    nodes = 0

    # i >= 0 visits node i; ~i undoes the inclusion of candidate i.  It
    # sits under the include branch's visit, so the exclude branch pushed
    # beneath it starts from the state before the inclusion.
    stack = [0]
    while stack:
        i = stack.pop()
        if i < 0:
            i = ~i
            chosen.pop()
            used_edges.difference_update(edge_lists[i])
            undo()  # an inclusion made exactly two unions
            undo()
            comps += 2
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                OracleResult(best, best_witness, nodes, exhausted=False)
            )
        if len(chosen) + (comps - 1) // 2 <= best:
            continue
        compatible = sum(
            1
            for j in range(i, total)
            if not any(e in used_edges for e in edge_lists[j])
        )
        if len(chosen) + compatible <= best or i == total:
            continue
        stack.append(i + 1)
        u, v, w = local[i]
        ru, rv, rw = find(u), find(v), find(w)
        if ru != rv and rv != rw and ru != rw:
            union(ru, rv)
            union(ru, rw)
            comps -= 2
            used_edges.update(edge_lists[i])
            chosen.append(triples[i])
            if len(chosen) > best:
                best = len(chosen)
                best_witness = tuple(sorted(chosen))
            stack.append(~i)
            stack.append(i + 1)

    result = OracleResult(best, best_witness, nodes, exhausted=True)
    if len(result.witness) != result.optimum or not triples_form_cactus(result.witness):
        raise IdentityViolationError("oracle produced a witness that is not a cactus")
    return result


def _guard(count: int, allow_large: bool) -> None:
    if count > CANDIDATE_GUARD and not allow_large:
        raise CandidateGuardError(count, CANDIDATE_GUARD)


def exact_beta_faces(
    g: PlaneGraph,
    budget: int = DEFAULT_BUDGET,
    *,
    allow_large: bool = False,
) -> OracleResult:
    """Maximum cactus drawn from the triangular faces of g."""
    cands = [t.vertices for t in g.triangles]
    _guard(len(cands), allow_large)
    degs = [sum(g.degree(v) for v in t) for t in cands]
    return _search(cands, degs, budget)


def _adjacency_of(
    graph: PlaneGraph | Mapping[int, Iterable[int]] | Iterable[tuple[int, int]],
) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    if isinstance(graph, PlaneGraph):
        pairs: Iterable[tuple[int, int]] = graph.edges
    elif isinstance(graph, Mapping):
        pairs = [(u, v) for u, nbrs in graph.items() for v in nbrs]
    else:
        pairs = graph
    for u, v in pairs:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def exact_beta_all_triangles(
    graph: PlaneGraph | Mapping[int, Iterable[int]] | Iterable[tuple[int, int]],
    budget: int = DEFAULT_BUDGET,
    *,
    allow_large: bool = False,
) -> OracleResult:
    """Maximum cactus over all 3-cliques of an arbitrary graph.

    Accepts a PlaneGraph, an adjacency mapping, or a bare edge list; no
    embedding is used, so non-planar graphs are fine.
    """
    adj = _adjacency_of(graph)
    cands: list[Triple] = []
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if v <= u:
                continue
            for w in sorted(adj[u] & adj[v]):
                if w > v:
                    cands.append((u, v, w))
    _guard(len(cands), allow_large)
    degs = [sum(len(adj[v]) for v in t) for t in cands]
    return _search(cands, degs, budget)
