"""Independent references for the parity oracle: dense rank and branch and bound.

``reference_rank`` is plain Gaussian elimination over GF(2⁶¹−1) on a
dense matrix, and ``reference_parity_rank`` builds the oracle's
matrix M densely, one row and column per candidate vertex, with weights
drawn afresh from the same seeded stream.  The tests hold the oracle's
sparse elimination and its weights to them.

``reference_beta`` is branch and bound for β itself.

Depth-first over a fixed candidate order (heaviest corner-incidence sum
first), including a candidate before excluding it.  Each node is pruned
by two upper bounds on what its subtree can still add:

* the rank bound: every accepted triangle merges three components of
  the candidate vertices into one, so with ``comps`` components open no
  more than ``(comps - 1) // 2`` further triangles fit;
* the compatibility bound: the number of remaining candidates whose
  edges do not clash with the partial solution.

Components are a plain label per vertex, relabelled on each inclusion;
the labels before it are kept and restored when the search backs out.
It shares no code with ``cactus_forge``.  It is exponential, so keep it
to a few dozen candidates.
"""

from __future__ import annotations

import random
from collections import Counter

PRIME = (1 << 61) - 1
WEIGHT_SEED = 2018


def reference_rank(rows: list[list[int]]) -> int:
    """Rank over GF(PRIME) by dense Gaussian elimination; consumes ``rows``.

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


def reference_parity_rank(candidates, keep) -> int:
    """Rank of M = Σ x_t (b_t c_tᵀ − c_t b_tᵀ) over the candidates in keep.

    Candidate t's weight is the t-th draw of ``random.Random(WEIGHT_SEED)``.
    """
    rng = random.Random(WEIGHT_SEED)
    weights = [rng.randrange(1, PRIME) for _ in candidates]
    index = {v: i for i, v in enumerate(sorted({v for t in candidates for v in t}))}
    m = [[0] * len(index) for _ in index]
    for t in keep:
        u, v, w = (index[x] for x in candidates[t])
        # b cᵀ − c bᵀ for b = e_u − e_v, c = e_u − e_w, written out entry
        # by entry: +1 at (u, v), (v, w) and (w, u), -1 at their transposes.
        for i, j in ((u, v), (v, w), (w, u)):
            m[i][j] = (m[i][j] + weights[t]) % PRIME
            m[j][i] = (m[j][i] - weights[t]) % PRIME
    return reference_rank(m)


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
    label = list(range(len(index)))
    saved: list[list[int]] = []  # the labels before each inclusion on the path

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
            label = saved.pop()
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
        a, b, c = (label[x] for x in local[i])
        if a != b and b != c and a != c:
            saved.append(label)
            label = [a if x == b or x == c else x for x in label]
            comps -= 2
            used_edges.update(edge_lists[i])
            chosen += 1
            best = max(best, chosen)
            stack.append(~i)
            stack.append(i + 1)
    return best

