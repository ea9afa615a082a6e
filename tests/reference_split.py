"""Deleting one cactus triangle's edges, as vertex sets: the reference for
the analyzer's spanning chords.

The analyzer never builds a triangle's split parts.  It reads which part
holds a vertex off the triangle's slices of the cactus's Euler tour and
tests a chord's two ends by position.  This reference builds the three
parts as frozensets from the same slices, and a chord spans an edge of
the triangle when its ends lie in the parts of that edge's two corners.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

from cactus_forge import TriangularCactus
from cactus_forge.errors import TriangleNotInCactusError


@dataclass(frozen=True)
class SplitComponents:
    """Vertex sets left after deleting one triangle's edges from its cactus.

    parts maps each corner of the split triangle to the vertex set that
    stays attached to it."""

    triangle: int
    parts: Mapping[int, frozenset[int]]


def split_at(c: TriangularCactus, tid: int) -> SplitComponents:
    """Delete triangle tid's edges (keeping its corners) and report the
    three vertex sets hanging off its corners."""
    if tid not in c:
        raise TriangleNotInCactusError(f"triangle {tid} is not in the cactus")
    cand = c.host.triangles[tid]
    order, _, base, slices = c.tour()
    (s, m), (_, e) = slices[tid]
    # The component is the run of positions sharing tid's root.
    r = base[s]
    end = bisect_right(base, r, s)
    parts: dict[int, frozenset[int]] = {}
    for corner in cand.vertices:
        if corner == order[s]:
            parts[corner] = frozenset(order[s:m])
        elif corner == order[m]:
            parts[corner] = frozenset(order[m:e])
        else:
            parts[corner] = frozenset(order[r:s] + order[e:end])
    assert sum(len(p) for p in parts.values()) == end - r, "parts miss a vertex"
    return SplitComponents(triangle=tid, parts=parts)


def spanning_chords(c: TriangularCactus, tid: int, chords) -> dict:
    """Per edge of cactus triangle tid, the chords (in the given order)
    whose ends lie in the split parts of that edge's two corners."""
    parts = split_at(c, tid).parts
    out = {}
    for a, b in c.host.triangles[tid].edges:
        pa, pb = parts[a], parts[b]
        out[(a, b)] = tuple(
            (x, y) for x, y in chords if (x in pa and y in pb) or (x in pb and y in pa)
        )
    return out
