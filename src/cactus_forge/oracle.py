"""β, the largest cactus among candidate triangles, by matroid parity.

Lovász (1980, *Matroid matching and some applications*) reduced β to
graphic matroid parity: a candidate uvw is the pair of vectors
b = e_u − e_v and c = e_u − e_w, and a set of candidates is a cactus
exactly when the edges uv and uw of all of them form a forest, that is,
when the union of their pairs is linearly independent.  The largest
such set has β members, and the skew-symmetric matrix

    M = Σ x_t (b_t c_tᵀ − c_t b_tᵀ)

has rank 2β when the weights x_t are independent indeterminates.  Here
x_t is the t-th draw over GF(2⁶¹−1) of a ``random.Random`` with a fixed
seed, drawn once per process, so every result is deterministic.

Certainty.  The elimination is exact in GF(2⁶¹−1), and substituting
numbers for the x_t can only lose rank, so rank/2 never exceeds β.  No
cactus exceeds the ceiling either, the sum of ⌊(s−1)/2⌋ over the
components of the candidates' edges with s vertices each
(``cactus_ceiling``, cached per host as ``g.ceiling``).  When rank/2
reaches it, the value is certain (``exhausted``).  Below it, the value
is short only if the weights are a root of a nonzero Pfaffian minor of
M, a polynomial of degree β in the x_t; for random weights that
happens with probability at most β/p (Schwartz–Zippel).

Size.  M has a row per vertex id and a nonzero pair per candidate edge;
dropping a coordinate per component, a map injective on the span of the
e_u − e_v, would change no rank.  ``_skew_rank`` pivots on 2 × 2 blocks
(Bunch 1982), sparsest rows first, so a step costs the product of two
row lengths, not s², components never mix, and the order changes no rank.

The value takes one rank evaluation.  A witness, a maximum cactus
itself, comes from self-reduction (``max_cactus``): drop a candidate
whenever the rest, with the same weights, keeps rank 2β.  That is one
evaluation per candidate at most, capped by a budget checked before
the search starts.  The candidates are the triangular faces of a plane
graph (the local search's move set) or all 3-cliques of any graph.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cactus import triples_form_cactus
from .errors import (BudgetExceededError, CactusForgeError, IdentityViolationError,
                     InvalidCactusError)
from .plane_graph import PlaneGraph, cactus_ceiling

__all__ = [
    "OracleResult",
    "exact_beta_faces",
    "exact_beta_all_triangles",
    "face_candidates",
    "clique_candidates",
    "max_cactus",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 41  # the value and 40 candidates
PRIME = (1 << 61) - 1
WEIGHT_SEED = 2018

Triple = tuple[int, int, int]
Graph = PlaneGraph | Mapping[int, Iterable[int]] | Iterable[tuple[int, int]]


class OracleResult(NamedTuple):
    optimum: int  # rank / 2: never above beta
    ceiling: int  # cactus_ceiling of the candidates
    exhausted: bool  # optimum reached the ceiling, so it is certainly beta
    nodes_explored: int  # rank evaluations


_WEIGHTS: tuple[int, ...] = ()  # the weight stream's first draws


def _weights(m: int) -> tuple[int, ...]:
    """At least m draws, x_t being draw t, drawn on first use, not at import."""
    global _WEIGHTS
    weights = _WEIGHTS  # read once: another thread may rebind it meanwhile
    if len(weights) < m:  # redrawn whole and bound at once: threads never interleave
        rng = random.Random(WEIGHT_SEED)
        weights = _WEIGHTS = tuple(rng.randrange(1, PRIME) for _ in range(m))
    return weights


def _skew_rank(adj: dict[int, dict[int, int]]) -> int:
    """Rank over GF(PRIME) of M, ``adj[v][k] = M[v][k]`` for the nonzeros.

    A pivot on i and j, a = M[i][j], adds 2 to the rank and leaves
    S[k][l] = M[k][l] + (M[k][j]M[l][i] − M[k][i]M[l][j]) / a: each (k, l)
    of N(j) × N(i) adds its term to S[k][l] and takes it from S[l][k].
    Consumes ``adj``; zeros are deleted.
    """
    rank = 0
    while adj:
        i = min(adj, key=lambda v: len(adj[v]))
        row_i = adj.pop(i)
        if not row_i:
            continue
        j = min(row_i, key=lambda v: len(adj[v]))
        row_j = adj.pop(j)
        inv = pow(row_i.pop(j), -1, PRIME)
        del row_j[i]
        for k in row_i:
            del adj[k][i]
        for k in row_j:
            del adj[k][j]
        rank += 2
        for k, mjk in row_j.items():  # M[k][j]M[l][i] = M[j][k]M[i][l]
            f = mjk * inv % PRIME
            row_k = adj[k]
            for l, mil in row_i.items():
                if l != k:
                    s = (row_k.get(l, 0) + f * mil) % PRIME
                    if s:
                        row_k[l] = s
                        adj[l][k] = PRIME - s
                    else:
                        del row_k[l], adj[l][k]
    return rank


class _Parity:
    """The candidates, their ceiling and their weights."""

    def __init__(self, candidates: Sequence[Triple], ceiling: int):
        self.candidates = candidates
        self.ceiling = ceiling
        self.weights = _weights(len(candidates))

    def rank(self, keep: Iterable[int]) -> int:
        """Rank of M over the candidates numbered in ``keep``."""
        adj: dict[int, dict[int, int]] = {}
        for t in keep:
            u, v, w = self.candidates[t]
            x = self.weights[t]
            # b cᵀ − c bᵀ for b = e_u − e_v, c = e_u − e_w is +1 at (u, v),
            # (v, w) and (w, u), and -1 at their transposes.
            for i, j in ((u, v), (v, w), (w, u)):
                row_i = adj.setdefault(i, {})
                s = (row_i.get(j, 0) + x) % PRIME
                if s:
                    row_i[j] = s
                    adj.setdefault(j, {})[i] = PRIME - s
                else:
                    del row_i[j], adj[j][i]
        return _skew_rank(adj)

    def result(self, rank: int, evaluations: int) -> OracleResult:
        optimum = rank // 2
        return OracleResult(optimum, self.ceiling, optimum == self.ceiling, evaluations)


def face_candidates(g: PlaneGraph) -> list[Triple]:
    """The triangular faces of g, as sorted vertex triples."""
    return [t.vertices for t in g.triangles]


def clique_candidates(graph: Graph) -> list[Triple]:
    """All 3-cliques of a graph, as sorted vertex triples, in sorted order.

    Accepts a PlaneGraph, an adjacency mapping, or a bare edge list; no
    embedding is used, so non-planar graphs are fine.
    """
    if isinstance(graph, PlaneGraph):
        pairs: Iterable[tuple[int, int]] = graph.edges
    elif isinstance(graph, Mapping):
        pairs = [(u, v) for u, nbrs in graph.items() for v in nbrs]
    else:
        pairs = graph
    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return sorted((u, v, w) for u in adj for v in adj[u] if u < v
                  for w in adj[u] & adj[v] if v < w)


def _value(candidates: Sequence[Triple], ceiling: int) -> OracleResult:
    parity = _Parity(candidates, ceiling)
    return parity.result(parity.rank(range(len(candidates))), 1)


def exact_beta_faces(g: PlaneGraph) -> OracleResult:
    """β over the triangular faces of g, from one rank evaluation."""
    return _value(face_candidates(g), g.ceiling)


def exact_beta_all_triangles(graph: Graph) -> OracleResult:
    """β over all 3-cliques of an arbitrary graph (see clique_candidates)."""
    candidates = clique_candidates(graph)
    return _value(candidates, cactus_ceiling(candidates))


def max_cactus(
    candidates: Sequence[Triple], budget: int = DEFAULT_BUDGET
) -> tuple[OracleResult, tuple[Triple, ...]]:
    """β and a cactus of β candidates, by self-reduction.

    Candidates are visited in order, and one is dropped whenever the
    rank of the rest stays 2β.  Once exactly β are left, all of them
    are needed.  So m candidates take at most m + 1 rank evaluations,
    the value's own included, and ``budget`` caps that count: it must
    be an int of at least 1, and when m + 1 exceeds it,
    BudgetExceededError is raised after the value's evaluation, with the
    value, before any other.  A candidate that is not three distinct int
    vertices raises InvalidCactusError.  A result that is not a cactus
    of β triangles raises IdentityViolationError.
    """
    if type(budget) is not int:
        raise CactusForgeError(f"--budget must be an int, got {budget!r}")
    if budget < 1:  # the value's own evaluation would overrun the cap
        raise CactusForgeError(f"--budget must be at least 1, got {budget}")
    for t in candidates:  # the caller's, so checked before anything reads them
        if not (isinstance(t, (tuple, list)) and len(t) == 3
                and all(type(v) is int for v in t) and len(set(t)) == 3):
            raise InvalidCactusError(f"candidate {t!r} is not three distinct int vertices")
    parity = _Parity(candidates, cactus_ceiling(candidates))
    full = parity.rank(range(len(candidates)))
    if len(candidates) + 1 > budget:
        raise BudgetExceededError(parity.result(full, 1), len(candidates) + 1, budget)
    beta = full // 2
    evaluations = 1
    keep = list(range(len(candidates)))
    for t in range(len(candidates)):
        if len(keep) == beta:
            break
        evaluations += 1
        rest = [s for s in keep if s != t]
        if parity.rank(rest) == full:
            keep = rest
    witness = tuple(sorted(tuple(candidates[t]) for t in keep))
    if len(witness) != beta or not triples_form_cactus(witness):
        raise IdentityViolationError(
            f"self-reduction left {len(witness)} candidates for beta {beta}, "
            "or they are not a cactus"
        )
    return parity.result(full, evaluations), witness
