"""Triangular-cactus subgraphs over a fixed host plane graph.

A cactus here is a set of candidate triangles (triangular faces of the
host) whose edge sets are pairwise disjoint and in which every cycle is
one of the chosen triangles.  Equivalently, over the spanned vertices the
rank identity holds: spanned_vertices - spanned_components = 2k for k
triangles.  The mutable structure accepts triangles only when their three
corners sit in three distinct components, which preserves the identity by
construction; ``is_valid_cactus`` re-checks any triangle set from scratch
and serves as the independent oracle for the incremental bookkeeping.

The components live in the package's one union-find,
``unionfind.DisjointSet``; callers read them through ``labels()``.

``tour()`` walks the cactus's vertex-triangle forest once in preorder
(Tarjan & Vishkin's Euler-tour technique).  Every tree of that forest,
and every subtree hanging off a triangle's child corner, is then one
contiguous slice of the tour.  Deleting triangles splits off exactly
those slices, so the move scan labels a stage and ``split_at`` reports a
triangle's three parts with slice copies instead of a walk per call.

Removal does a full rebuild of the disjoint-set state.  Swaps remove at
most two triangles on host graphs of desk scale, so simplicity wins over
a decremental connectivity structure.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    InvalidCactusError,
    TriangleNotInCactusError,
    UnknownTriangleError,
)
from .plane_graph import PlaneGraph, Triangle
from .unionfind import DisjointSet

__all__ = [
    "TriangularCactus",
    "SplitComponents",
    "EulerTour",
    "is_valid_cactus",
    "triples_form_cactus",
    "cactus_to_triples",
    "cactus_from_triples",
]


@dataclass(frozen=True)
class SplitComponents:
    """Vertex sets left after deleting one triangle's edges from its cactus.

    parts maps each corner of the split triangle to the vertex set that
    stays attached to it."""

    triangle: int
    parts: Mapping[int, frozenset[int]]


class EulerTour(NamedTuple):
    """Preorder of a cactus's vertex-triangle forest; read-only.

    Each tree is rooted at its smallest vertex, and a triangle's two
    corners other than the one it is reached from are its child corners.
    order lists the vertices in preorder and pos inverts it.  base[i] is
    the position of the root of the tree holding position i, so it labels
    components, and one tree spans the positions where base equals its
    root's position.  slices maps each cactus triangle to the [start,
    end) position ranges of its two child corners' subtrees, the second
    starting where the first ends.  Trees follow one another, so base is
    non-decreasing and a child-corner slice never holds a root.
    """

    order: list[int]
    pos: list[int]
    base: list[int]
    slices: dict[int, tuple[tuple[int, int], tuple[int, int]]]

    def labels_without(self, removal: Iterable[int]) -> list[int]:
        """One component label per tour position for the cactus minus the
        triangles in `removal`.

        Each removed triangle splits off its two child slices.  The slices
        are nested or disjoint, so assigning them in ascending start order
        lets an inner slice overwrite the outer one it sits in.  A slice
        is labelled by its start, which no other slice or tree shares.
        """
        label = self.base[:]
        cuts = [cut for x in removal for cut in self.slices[x]]
        cuts.sort()
        for s, e in cuts:
            label[s:e] = [s] * (e - s)
        return label


def _as_triangle(host: PlaneGraph, t: int | Triangle) -> Triangle:
    if isinstance(t, Triangle):
        tid = t.id
    else:
        tid = t
    # bool is an int subclass, so True would otherwise name triangle 1.
    if (
        not isinstance(tid, int)
        or isinstance(tid, bool)
        or not 0 <= tid < len(host.triangles)
    ):
        raise UnknownTriangleError(
            f"{t!r} is not a candidate triangle of the host graph"
        )
    cand = host.triangles[tid]
    if isinstance(t, Triangle) and cand != t:
        raise UnknownTriangleError(
            f"triangle {t.vertices} does not match host candidate {tid}"
        )
    return cand


class TriangularCactus:
    """Mutable cactus state: chosen triangles plus vertex components.

    Components partition all of V(host); vertices untouched by any
    triangle are singletons.
    """

    def __init__(self, host: PlaneGraph, triangles: Iterable[int | Triangle] = ()):
        self.host = host
        self._triangles: set[int] = set()
        self._uf = DisjointSet(host.n)
        self.edge_owner: dict[tuple[int, int], int] = {}
        self._tour: EulerTour | None = None
        for t in triangles:
            if not self.try_add_triangle(t):
                cand = _as_triangle(host, t)
                raise InvalidCactusError(
                    f"triangle {cand.vertices} does not extend the cactus; "
                    "the triangle set is not a valid cactus"
                )

    # -- views ------------------------------------------------------------

    @property
    def triangle_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._triangles))

    @property
    def delta(self) -> int:
        """Number of triangles in the cactus."""
        return len(self._triangles)

    @property
    def at_ceiling(self) -> bool:
        """True when the cactus reaches the ceiling no cactus of the host exceeds.

        A triangle lies inside one host component and merges three vertex
        components into one, so a host component of s vertices holds at
        most (s - 1) // 2 triangles; the ceiling is the sum over the host's
        components.  At the ceiling no swap can improve the cactus, which
        certifies local optimality without a search.  Below it the cactus
        may still be a maximum one: the bound is not always reached.
        """
        sizes = Counter(self.host.comp_of_vertex)
        return len(self._triangles) == sum((s - 1) // 2 for s in sizes.values())

    def __contains__(self, t: int | Triangle) -> bool:
        tid = t.id if isinstance(t, Triangle) else t
        return tid in self._triangles

    def __len__(self) -> int:
        return len(self._triangles)

    def spanned_vertices(self) -> frozenset[int]:
        return frozenset(v for edge in self.edge_owner for v in edge)

    def labels(self) -> list[int]:
        """One component label per vertex; labels are equal exactly within
        a component."""
        return self._uf.labels()

    def same_component(self, u: int, v: int) -> bool:
        return self._uf.find(u) == self._uf.find(v)

    def component_of(self, v: int) -> frozenset[int]:
        labels = self.labels()
        return frozenset(u for u, r in enumerate(labels) if r == labels[v])

    def components(self) -> tuple[tuple[int, ...], ...]:
        """All components, singletons included, ordered by smallest member."""
        buckets: dict[int, list[int]] = {}
        for v, r in enumerate(self.labels()):
            buckets.setdefault(r, []).append(v)
        return tuple(tuple(b) for b in sorted(buckets.values()))

    def copy(self) -> "TriangularCactus":
        dup = TriangularCactus.__new__(TriangularCactus)
        dup.host = self.host
        dup._triangles = set(self._triangles)
        dup._uf = self._uf.copy()
        dup.edge_owner = dict(self.edge_owner)
        dup._tour = None
        return dup

    def tour(self) -> EulerTour:
        """The preorder of the vertex-triangle forest, built once per state."""
        if self._tour is None:
            self._tour = self._build_tour()
        return self._tour

    def _build_tour(self) -> EulerTour:
        n = self.host.n
        tris = self.host.triangles
        incident: list[list[int]] = [[] for _ in range(n)]
        for tid in sorted(self._triangles):
            a, b, w = tris[tid].vertices
            incident[a].append(tid)
            incident[b].append(tid)
            incident[w].append(tid)
        order: list[int] = []
        pos = [-1] * n
        base = [0] * n
        via = [-1] * n  # the triangle each vertex is reached through
        # Per triangle: its id and child corners in push order; the stack
        # holds ~index as the marker that both subtrees are laid out.
        pending: list[tuple[int, int, int]] = []
        slices: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
        for root in range(n):
            if pos[root] >= 0:
                continue
            r = len(order)
            stack = [root]
            while stack:
                v = stack.pop()
                if v < 0:
                    t, c1, c2 = pending[~v]
                    # c2 was pushed last, so its subtree came first.
                    s, m = pos[c2], pos[c1]
                    slices[t] = ((s, m), (m, len(order)))
                    continue
                pos[v] = len(order)
                order.append(v)
                for t in incident[v]:
                    if t != via[v]:
                        a, b, w = tris[t].vertices
                        c1, c2 = (b, w) if v == a else (a, w) if v == b else (a, b)
                        via[c1] = via[c2] = t
                        stack.append(~len(pending))
                        pending.append((t, c1, c2))
                        stack.append(c1)
                        stack.append(c2)
            base[r:len(order)] = [r] * (len(order) - r)
        return EulerTour(order, pos, base, slices)

    # -- mutation -----------------------------------------------------------

    def try_add_triangle(self, t: int | Triangle) -> bool:
        """Add t if its corners lie in three distinct components."""
        cand = _as_triangle(self.host, t)
        u, v, w = cand.vertices
        uf = self._uf
        ru, rv, rw = uf.find(u), uf.find(v), uf.find(w)
        if ru == rv or rv == rw or ru == rw:
            return False
        self._triangles.add(cand.id)
        self._tour = None
        uf.union(ru, rv)
        uf.union(ru, rw)
        for a, b in cand.edges:
            self.edge_owner[(a, b)] = cand.id
        return True

    def remove_triangle(self, t: int | Triangle) -> None:
        """Drop t and rebuild the component structure from scratch."""
        cand = _as_triangle(self.host, t)
        if cand.id not in self._triangles:
            raise TriangleNotInCactusError(
                f"triangle {cand.vertices} is not in the cactus"
            )
        remaining = self._triangles - {cand.id}
        self._triangles = set()
        self._uf = DisjointSet(self.host.n)
        self.edge_owner = {}
        self._tour = None
        for tid in sorted(remaining):
            if not self.try_add_triangle(tid):
                raise AssertionError(
                    "subset of a valid cactus failed to rebuild"
                )

    # -- splitting ---------------------------------------------------------

    def split_at(self, t: int | Triangle) -> SplitComponents:
        """Delete t's edges (keeping its corners) and report the three
        vertex sets hanging off its corners."""
        cand = _as_triangle(self.host, t)
        if cand.id not in self._triangles:
            raise TriangleNotInCactusError(
                f"triangle {cand.vertices} is not in the cactus"
            )
        order, _, base, slices = self.tour()
        (s, m), (_, e) = slices[cand.id]
        # The component is the run of positions sharing t's root.
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
        if sum(len(p) for p in parts.values()) != end - r:
            raise AssertionError("split parts do not partition the component")
        return SplitComponents(triangle=cand.id, parts=parts)

    def __repr__(self) -> str:
        return f"TriangularCactus(delta={self.delta}, host={self.host!r})"


def triples_form_cactus(triples: Iterable[Sequence[int]]) -> bool:
    """Rank-identity check on bare vertex triples, no host graph needed.

    True iff the implied edge sets are pairwise disjoint and
    spanned_vertices - spanned_components = 2k.  Host-independent so the
    oracle's witness check can reuse it for non-face (even non-planar)
    triangles.
    """
    triples = [tuple(sorted(t)) for t in triples]
    edges: set[tuple[int, int]] = set()
    for u, v, w in triples:
        for e in ((u, v), (u, w), (v, w)):
            if e in edges:
                return False
            edges.add(e)
    # spanned - components is the number of unions that merge two sets.
    index: dict[int, int] = {}
    for t in triples:
        for x in t:
            index.setdefault(x, len(index))
    uf = DisjointSet(len(index))
    merges = sum(uf.union(index[a], index[b]) for a, b in edges)
    return merges == 2 * len(triples)


def is_valid_cactus(g: PlaneGraph, tris: Iterable[int | Triangle]) -> bool:
    """Order-independent validity check straight from the definition.

    True iff the triangles' edge sets are pairwise disjoint and the rank
    identity spanned_vertices - spanned_components = 2k holds.
    """
    cands = [_as_triangle(g, t) for t in tris]
    if len({c.id for c in cands}) != len(cands):
        return False
    return triples_form_cactus([c.vertices for c in cands])


# -- serialization -------------------------------------------------------


def cactus_to_triples(c: TriangularCactus) -> list[list[int]]:
    """JSON-ready list of sorted vertex triples, sorted lexicographically."""
    return [list(c.host.triangles[tid].vertices) for tid in c.triangle_ids]


def cactus_from_triples(
    g: PlaneGraph, triples: Sequence[Sequence[int]]
) -> TriangularCactus:
    """Rebuild a cactus from vertex triples, re-validating against g."""
    by_vertices = {cand.vertices: cand.id for cand in g.triangles}
    ids = []
    for triple in triples:
        key = tuple(sorted(triple))
        if len(key) != 3 or key not in by_vertices:
            raise UnknownTriangleError(
                f"{list(triple)} is not a candidate triangle of the instance"
            )
        ids.append(by_vertices[key])
    if len(set(ids)) != len(ids):
        raise InvalidCactusError("cactus file repeats a triangle")
    return TriangularCactus(g, ids)
