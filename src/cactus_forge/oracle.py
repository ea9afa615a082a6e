"""β, the largest cactus among candidate triangles, by matroid parity.

Lovász (1980, *Matroid matching and some applications*) reduced β to
graphic matroid parity: a candidate uvw is the pair of vectors
b = e_u − e_v and c = e_u − e_w, and a set of candidates is a cactus
exactly when the edges uv and uw of all of them form a forest, that is,
when the union of their pairs is linearly independent.  The largest
such set has β members, and the skew-symmetric matrix

    M = Σ x_t (b_t c_tᵀ − c_t b_tᵀ)

has rank 2β when the weights x_t are independent indeterminates.  Here
the x_t are drawn over GF(2⁶¹−1) from a ``random.Random`` with a fixed
seed, so every result is deterministic.

Certainty.  Substituting numbers for the x_t can only lose rank, so
rank/2 never exceeds β.  No cactus exceeds the ceiling either, the sum
of ⌊(s−1)/2⌋ over the components of the candidates' edges with s
vertices each (``cactus_ceiling``, cached per host as ``g.ceiling``).
When rank/2 reaches it, the value is certain (``exhausted``).  Below
it, the value is short only if the weights are a root of a nonzero
Pfaffian minor of M, a polynomial of degree β in the x_t; for random
weights that happens with probability at most β/p (Schwartz–Zippel).

M is block diagonal over the components of the candidate vertices, and
within a component the vectors e_u − e_v span a space one dimension
smaller than its vertex count.  So each component gets its own matrix,
with one vertex's coordinate dropped, of size s − 1.

The value takes one rank evaluation.  A witness, a maximum cactus
itself, comes from self-reduction (``max_cactus``): drop a candidate
whenever the rest still has rank 2β, with the same weights throughout.
It costs at most one rank evaluation per candidate besides the
value's, and a budget of rank evaluations, checked against that count
before the search starts, caps it.

Two candidate universes are offered: the triangular faces of a plane
graph (matching the local search's move set) and all 3-cliques of an
arbitrary graph, which needs no embedding at all.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cactus import triples_form_cactus
from .errors import BudgetExceededError, CactusForgeError, IdentityViolationError
from .plane_graph import PlaneGraph, cactus_ceiling
from .unionfind import DisjointSet

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


class OracleResult(NamedTuple):
    optimum: int  # rank / 2: never above beta
    ceiling: int  # cactus_ceiling of the candidates
    exhausted: bool  # optimum reached the ceiling, so it is certainly beta
    nodes_explored: int  # rank evaluations


def _rank(rows: list[list[int]]) -> int:
    """Rank over GF(PRIME) by Gaussian elimination; consumes ``rows``.

    Rows still waiting for a pivot are zero in every column before the
    current one, so each update only rewrites the columns after it.
    """
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        for k, row in enumerate(rows):
            if row[col]:
                break
        else:
            continue
        pivot = rows.pop(k)
        rank += 1
        inv = pow(pivot[col], -1, PRIME)
        tail = [b * inv % PRIME for b in pivot[col + 1:]]
        for row in rows:
            f = row[col]
            if f:
                row[col + 1:] = [(a - f * b) % PRIME for a, b in zip(row[col + 1:], tail)]
    return rank


class _Parity:
    """The candidates' components, ceiling and weights, fixed once."""

    def __init__(self, candidates: Sequence[Triple], ceiling: int):
        verts = sorted({v for t in candidates for v in t})
        index = {v: i for i, v in enumerate(verts)}
        uf = DisjointSet(len(verts))
        for u, v, w in candidates:
            uf.union(index[u], index[v])
            uf.union(index[u], index[w])
        label = uf.labels()
        # Each vertex's row within its component's matrix; the root's
        # coordinate is the one dropped, marked -1, so a component of s
        # vertices has a matrix of size s - 1.
        row = [-1] * len(verts)
        self.dims: dict[int, int] = {}
        for i, root in enumerate(label):
            if i != root:
                row[i] = self.dims.get(root, 0)
                self.dims[root] = row[i] + 1
        self.ceiling = ceiling
        self.local = [
            (label[index[u]], row[index[u]], row[index[v]], row[index[w]])
            for u, v, w in candidates
        ]
        rng = random.Random(WEIGHT_SEED)
        self.weights = [rng.randrange(1, PRIME) for _ in candidates]

    def rank(self, keep: Iterable[int]) -> int:
        """Rank of M over the candidates numbered in ``keep``."""
        mats = {root: [[0] * d for _ in range(d)] for root, d in self.dims.items()}
        for t in keep:
            comp, u, v, w = self.local[t]
            m, x = mats[comp], self.weights[t]
            # b cᵀ − c bᵀ for b = e_u − e_v, c = e_u − e_w is +1 at (u, v),
            # (v, w) and (w, u), and -1 at their transposes.
            for i, j in ((u, v), (v, w), (w, u)):
                if i >= 0 and j >= 0:
                    m[i][j] = (m[i][j] + x) % PRIME
                    m[j][i] = (m[j][i] - x) % PRIME
        return sum(_rank(m) for m in mats.values())

    def result(self, rank: int, evaluations: int) -> OracleResult:
        optimum = rank // 2
        return OracleResult(optimum, self.ceiling, optimum == self.ceiling, evaluations)


def face_candidates(g: PlaneGraph) -> list[Triple]:
    """The triangular faces of g, as sorted vertex triples."""
    return [t.vertices for t in g.triangles]


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


def clique_candidates(
    graph: PlaneGraph | Mapping[int, Iterable[int]] | Iterable[tuple[int, int]],
) -> list[Triple]:
    """All 3-cliques of a graph, as sorted vertex triples.

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
    return cands


def _value(candidates: Sequence[Triple], ceiling: int) -> OracleResult:
    parity = _Parity(candidates, ceiling)
    return parity.result(parity.rank(range(len(candidates))), 1)


def exact_beta_faces(g: PlaneGraph) -> OracleResult:
    """β over the triangular faces of g, from one rank evaluation."""
    return _value(face_candidates(g), g.ceiling)


def exact_beta_all_triangles(
    graph: PlaneGraph | Mapping[int, Iterable[int]] | Iterable[tuple[int, int]],
) -> OracleResult:
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
    be at least 1, and when m + 1 exceeds it, BudgetExceededError is
    raised after the value's evaluation, with the value, before any
    other.  A result that is not a cactus of β triangles raises
    IdentityViolationError.
    """
    # Below 1 the value's own evaluation would already overrun the cap.
    if budget < 1:
        raise CactusForgeError(f"--budget must be at least 1, got {budget}")
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
    witness = tuple(sorted(candidates[t] for t in keep))
    if len(witness) != beta or not triples_form_cactus(witness):
        raise IdentityViolationError(
            f"self-reduction left {len(witness)} candidates for beta {beta}, "
            "or they are not a cactus"
        )
    return parity.result(full, evaluations), witness
