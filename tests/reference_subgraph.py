"""A re-embedding of a plane subgraph, the reference for code that reads
a subgraph's faces off the host drawing.

The package never rebuilds a subgraph: it merges the two host faces on
the sides of every deleted edge and reads regions off the host.  This
reference does it the long way.  It filters the host's rotations to the
kept edges, builds a plain ``PlaneGraph`` on the same vertex labels and
walks its faces.  A plain ``PlaneGraph`` draws its components side by
side, but in the host drawing one component can sit inside a face of
another, so the face walks are grouped into regions by the host face
each walk borders, with a union-find of its own over the host's faces.
"""

from __future__ import annotations

from dataclasses import dataclass

from cactus_forge import PlaneGraph
from cactus_forge.unionfind import DisjointSet


@dataclass(frozen=True)
class Region:
    """One face of the subgraph as a region of the host drawing.

    walks holds the re-embedding's face walks that bound it, each as host
    dart ids; host_faces holds the host faces it absorbed.
    """

    walks: tuple[tuple[int, ...], ...]
    host_faces: frozenset[int]

    @property
    def darts(self) -> tuple[int, ...]:
        return tuple(sorted(d for walk in self.walks for d in walk))


def reembed(
    g: PlaneGraph, kept: set[tuple[int, int]]
) -> tuple[PlaneGraph, tuple[Region, ...], tuple[int, ...]]:
    """Re-embed the subgraph of g made of the edges in kept (pairs u < v).

    Returns the plain PlaneGraph, its faces as regions of g numbered by
    their smallest host dart, and the region of each host face.  The
    plain graph's outer dart is the smallest kept dart on the region of
    g's outer face.
    """
    rotations = [
        [v for v in nbrs if (min(u, v), max(u, v)) in kept]
        for u, nbrs in enumerate(g.rotations)
    ]
    merges = DisjointSet(len(g.faces))
    for d in range(g.dart_count):
        u, v = g.tail[d], g.head[d]
        if (min(u, v), max(u, v)) not in kept:
            merges.union(g.face_of_dart[d], g.face_of_dart[g.twin[d]])
    root = [merges.find(f) for f in range(len(g.faces))]

    outer = next(
        (
            (u, v)
            for u, nbrs in enumerate(rotations)
            for v in nbrs
            if root[g.face_of_dart[g.dart_id(u, v)]] == root[g.outer_face_id]
        ),
        None,
    )
    sub = PlaneGraph(g.n, rotations, outer)

    walks_of: dict[int, list[tuple[int, ...]]] = {}
    for face in sub.faces:
        for walk in face.walks:
            darts = tuple(g.dart_id(sub.tail[d], sub.head[d]) for d in walk)
            roots = {root[g.face_of_dart[d]] for d in darts}
            assert len(roots) == 1, "a face walk borders two host regions"
            walks_of.setdefault(roots.pop(), []).append(darts)
    if not walks_of:  # an edgeless subgraph is one region
        walks_of[root[g.outer_face_id]] = []
    assert set(root) <= set(walks_of), "a host region has no boundary walk"

    order = sorted(walks_of, key=lambda r: min(map(min, walks_of[r]), default=0))
    regions = tuple(
        Region(
            walks=tuple(walks_of[r]),
            host_faces=frozenset(f for f, fr in enumerate(root) if fr == r),
        )
        for r in order
    )
    index = {r: i for i, r in enumerate(order)}
    return sub, regions, tuple(index[r] for r in root)
