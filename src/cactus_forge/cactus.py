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
``unionfind.DisjointSet``; callers read them through ``labels()``.  It
keeps nothing per edge: edge owners come from ``triangle_ids``.

``tour()`` walks the cactus's vertex-triangle forest once in preorder
(Tarjan & Vishkin's Euler-tour technique).  Every tree of that forest,
and every subtree hanging off a triangle's child corner, is then one
contiguous slice of the tour.  Deleting triangles splits off exactly
those slices, so the move scan labels a stage with slice copies instead
of a walk per call, and the analyzer tells which of a triangle's three
split parts holds a vertex by comparing its tour position with the
triangle's slices.

Removal does a full rebuild of the disjoint-set state.  Swaps remove at
most two triangles on host graphs of desk scale, so simplicity wins over
a decremental connectivity structure.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InvalidCactusError,
    TriangleNotInCactusError,
    UnknownTriangleError,
)
from .plane_graph import PlaneGraph
from .unionfind import DisjointSet

__all__ = [
    "TriangularCactus",
    "EulerTour",
    "is_valid_cactus",
    "triples_form_cactus",
    "cactus_to_triples",
    "cactus_from_triples",
]


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


def _check_id(host: PlaneGraph, tid: int) -> int:
    """tid itself when it numbers a candidate triangle of host."""
    # bool is an int subclass, so True would otherwise name triangle 1.
    if (
        not isinstance(tid, int)
        or isinstance(tid, bool)
        or not 0 <= tid < len(host.triangles)
    ):
        raise UnknownTriangleError(
            f"{tid!r} is not a candidate triangle id of the host graph"
        )
    return tid


class TriangularCactus:
    """Mutable cactus state: chosen triangles plus vertex components.

    Components partition all of V(host); vertices untouched by any
    triangle are singletons.  Triangles are named by their ids in
    ``host.triangles``.
    """

    def __init__(self, host: PlaneGraph, triangles: Iterable[int] = ()):
        self.host = host
        self._triangles: set[int] = set()
        self._uf = DisjointSet(host.n)
        self._tour: EulerTour | None = None
        for tid in triangles:
            if not self.try_add_triangle(tid):
                raise InvalidCactusError(
                    f"triangle {host.triangles[tid].vertices} does not extend "
                    "the cactus; the triangle set is not a valid cactus"
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
        """True when the cactus reaches ``host.ceiling``, which no cactus of
        the host exceeds (``plane_graph.cactus_ceiling``).

        At the ceiling the cactus is a maximum one, so no swap can improve
        it, which certifies local optimality without a search.
        """
        return len(self._triangles) == self.host.ceiling

    def __contains__(self, tid: int) -> bool:
        return _check_id(self.host, tid) in self._triangles

    def __len__(self) -> int:
        return len(self._triangles)

    def labels(self) -> list[int]:
        """One component label per vertex; labels are equal exactly within
        a component."""
        return self._uf.labels()

    def copy(self) -> "TriangularCactus":
        dup = TriangularCactus.__new__(TriangularCactus)
        dup.host = self.host
        dup._triangles = set(self._triangles)
        dup._uf = self._uf.copy()
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

    def try_add_triangle(self, tid: int) -> bool:
        """Add triangle tid if its corners lie in three distinct components."""
        u, v, w = self.host.triangles[_check_id(self.host, tid)].vertices
        uf = self._uf
        ru, rv, rw = uf.find(u), uf.find(v), uf.find(w)
        if ru == rv or rv == rw or ru == rw:
            return False
        self._triangles.add(tid)
        self._tour = None
        uf.union(ru, rv)
        uf.union(ru, rw)
        return True

    def remove_triangle(self, tid: int) -> None:
        """Drop triangle tid and rebuild the component structure from scratch."""
        if tid not in self:
            raise TriangleNotInCactusError(
                f"triangle {self.host.triangles[tid].vertices} is not in the cactus"
            )
        remaining = self._triangles - {tid}
        self._triangles = set()
        self._uf = DisjointSet(self.host.n)
        self._tour = None
        for tid in sorted(remaining):
            if not self.try_add_triangle(tid):
                raise AssertionError(
                    "subset of a valid cactus failed to rebuild"
                )

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


def is_valid_cactus(g: PlaneGraph, ids: Iterable[int]) -> bool:
    """Order-independent validity check straight from the definition.

    True iff the triangles with these ids have pairwise disjoint edge sets
    and the rank identity spanned_vertices - spanned_components = 2k holds.
    """
    ids = [_check_id(g, tid) for tid in ids]
    if len(set(ids)) != len(ids):
        return False
    return triples_form_cactus([g.triangles[tid].vertices for tid in ids])


# -- serialization -------------------------------------------------------


def cactus_to_triples(c: TriangularCactus) -> list[list[int]]:
    """JSON-ready list of sorted vertex triples, sorted lexicographically."""
    return [list(c.host.triangles[tid].vertices) for tid in c.triangle_ids]


def cactus_from_triples(
    g: PlaneGraph, triples: Sequence[Sequence[int]]
) -> TriangularCactus:
    """Rebuild a cactus from vertex triples, re-validating against g.

    An entry that is not a list or tuple of three ints naming a candidate
    of g raises ``UnknownTriangleError`` naming it."""
    by_vertices = {cand.vertices: cand.id for cand in g.triangles}
    ids = []
    for triple in triples:
        # bool is an int subclass, so True would otherwise name vertex 1.
        seq = isinstance(triple, (list, tuple))
        key = tuple(sorted(triple)) if seq and all(type(v) is int for v in triple) else ()
        if key not in by_vertices:
            raise UnknownTriangleError(
                f"{list(triple) if seq else triple!r} is not a candidate "
                "triangle of the instance"
            )
        ids.append(by_vertices[key])
    if len(set(ids)) != len(ids):
        raise InvalidCactusError("cactus file repeats a triangle")
    return TriangularCactus(g, ids)
