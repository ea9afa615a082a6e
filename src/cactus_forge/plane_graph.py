"""Plane graphs stored as rotation systems.

Every edge {u, v} is split into two darts u->v and v->u.  Each vertex
carries the counterclockwise cyclic order of its neighbors, and a single
dart designates the outer face.  Faces fall out of the orbit rule: the
successor of dart u->v along its face is the dart from v to the rotation
predecessor of u at v.  With counterclockwise rotations this walks every
bounded face counterclockwise, keeping the face interior on the left of
each dart.

A disconnected rotation system is read as components drawn side by side:
one face walk from every component joins the shared unbounded region, so
the face count obeys n - |E| + |F| = 1 + c.  Which walk joins the outer
region is a convention (the walk holding the component's smallest dart),
chosen so instances round-trip deterministically.  Code that needs the
regions a subgraph inherits from its host drawing reads them off the
host: deleting an edge merges the two host faces on its sides.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from operator import eq, lt
from typing import NamedTuple, Sequence

from .errors import (
    AsymmetricAdjacencyError,
    BadOuterDesignatorError,
    IdentityViolationError,
    InstanceFormatError,
    LoopEdgeError,
    NonPlanarEmbeddingError,
    ParallelEdgeError,
)
from .unionfind import DisjointSet

__all__ = [
    "Face",
    "Triangle",
    "PlaneGraph",
    "cactus_ceiling",
    "relabeled",
    "parse_instance",
    "read_json",
    "load_instance",
    "instance_to_dict",
    "dump_instance",
]


class Face(NamedTuple):
    """A face of the embedding.

    boundary lists dart ids walk after walk; for ordinary faces there is a
    single walk, while the outer face of a disconnected drawing collects
    one walk per component.
    """

    id: int
    boundary: tuple[int, ...]
    walks: tuple[tuple[int, ...], ...]
    is_outer: bool
    is_triangle: bool
    vertices: tuple[int, ...]


class Triangle(NamedTuple):
    """A candidate triangle: an edge triple bounding at least one triangular face.

    A standalone 3-cycle bounds two triangular faces with the same edges;
    they collapse into one candidate.  face_id is the representative face
    (the unique bounded one when there is a choice, else the smallest id).
    """

    id: int
    vertices: tuple[int, int, int]
    edges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    face_ids: tuple[int, ...]
    face_id: int


def _check_entries(rotations: Sequence[Sequence[object]]) -> None:
    """Raise on the first rotation entry that is not an int (bool included),
    vertex by vertex and entry by entry."""
    for u, nbrs in enumerate(rotations):
        for v in nbrs:
            if type(v) is not int:
                raise InstanceFormatError(
                    f"rotation of vertex {u} holds a non-integer entry {v!r}"
                )


def _check_rotations(n: int, rotations: tuple[tuple[int, ...], ...]) -> None:
    """Raise on the first loop, out-of-range entry or repeated neighbor,
    vertex by vertex and entry by entry."""
    for u, nbrs in enumerate(rotations):
        seen: set[int] = set()
        for v in nbrs:
            if v == u:
                raise LoopEdgeError(u)
            if not 0 <= v < n:
                raise InstanceFormatError(
                    f"vertex {u} lists neighbor {v}, outside 0..{n - 1}"
                )
            if v in seen:
                raise ParallelEdgeError(u, v)
            seen.add(v)


def _face_walks(face_next: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The orbits of face_next from each smallest unvisited dart:
    (walks, walk_of_dart)."""
    walk_of_dart = [-1] * len(face_next)
    walks: list[tuple[int, ...]] = []
    for d0 in range(len(face_next)):
        if walk_of_dart[d0] >= 0:
            continue
        w = len(walks)
        d1 = face_next[d0]
        d2 = face_next[d1]
        if face_next[d2] == d0:
            # Most faces are triangles: take them without a loop.
            walk_of_dart[d0] = walk_of_dart[d1] = walk_of_dart[d2] = w
            walks.append((d0, d1, d2))
            continue
        walk = [d0]
        walk_of_dart[d0] = w
        d = d1
        while walk_of_dart[d] < 0:
            walk_of_dart[d] = w
            walk.append(d)
            d = face_next[d]
        if d != d0:
            raise IdentityViolationError("face walk did not close at its start")
        walks.append(tuple(walk))
    return walks, walk_of_dart


def _components(rotations: tuple[tuple[int, ...], ...]) -> tuple[list[int], int]:
    """Each vertex's component number, and the number of components."""
    comp_of_vertex = [-1] * len(rotations)
    comp_count = 0
    for start in range(len(rotations)):
        if comp_of_vertex[start] >= 0:
            continue
        comp_of_vertex[start] = comp_count
        stack = [start]
        while stack:
            u = stack.pop()
            for v in rotations[u]:
                if comp_of_vertex[v] < 0:
                    comp_of_vertex[v] = comp_count
                    stack.append(v)
        comp_count += 1
    return comp_of_vertex, comp_count


def _outer_walks(walk_comp: list[int], outer_walk: int) -> list[int]:
    """The walks of the outer region, sorted, given each walk's component:
    the outer walk plus the first-discovered walk of every other
    component.  Every other walk is a face of its own."""
    merged = {outer_walk}
    seen = {walk_comp[outer_walk]}
    for w, comp in enumerate(walk_comp):
        if comp not in seen:
            merged.add(w)
            seen.add(comp)
    return sorted(merged)


def _face(
    fid: int, group: tuple[tuple[int, ...], ...], is_outer: bool, tail: tuple[int, ...]
) -> Face:
    """Face fid, bounded by the walks in group."""
    if len(group) == 1 and len(group[0]) == 3:
        walk = group[0]
        a, b, c = sorted((tail[walk[0]], tail[walk[1]], tail[walk[2]]))
        if a == b or b == c:
            raise IdentityViolationError(
                "length-3 face walk without 3 distinct vertices"
            )
        return Face(fid, walk, group, is_outer, True, (a, b, c))
    # A single walk is its own boundary.
    boundary = group[0] if len(group) == 1 else tuple(chain.from_iterable(group))
    verts = tuple(sorted(set(map(tail.__getitem__, boundary))))
    return Face(fid, boundary, group, is_outer, False, verts)


class PlaneGraph:
    """An immutable plane graph: simple graph plus combinatorial embedding.

    Construct with ``PlaneGraph(n, rotations, outer)`` where rotations are
    counterclockwise neighbor lists and ``outer`` is an ``(u, v)`` pair
    naming a dart on the outer face (``None`` only for edgeless graphs).
    The vertex count, rotation entries and the ends of ``outer`` must be
    ints; a bool is not one.  The dart, face and edge tables are built by the constructor;
    the triangle candidates and their ceiling are built on first read,
    once per graph.  None of them changes after, so instances are safe to
    share.
    """

    __slots__ = (
        "n",
        "rotations",
        "dart_count",
        "edge_count",
        "tail",
        "head",
        "twin",
        "face_next",
        "faces",
        "face_of_dart",
        "outer_dart",
        "outer_face_id",
        "edges",
        "edge_set",
        "comp_of_vertex",
        "comp_count",
        "_dart_of",
        "_triangles",
        "_ceiling",
    )

    def __init__(
        self,
        n: int,
        rotations: Sequence[Sequence[int]],
        outer: tuple[int, int] | None = None,
    ):
        # bool is an int subclass, so True would otherwise mean n = 1.
        if type(n) is not int:
            raise InstanceFormatError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise InstanceFormatError(f"vertex count must be nonnegative, got {n}")
        rotations = tuple(map(tuple, rotations))
        # Faults are reported in the instance format's order: entry types,
        # the outer dart's types, the list count, then entry by entry.
        # Each check runs on whole tables and falls back to the ordered
        # per-entry check only when it flags something.
        head = tuple(chain.from_iterable(rotations))
        if not set(map(type, head)) <= {int}:
            _check_entries(rotations)
        if (
            isinstance(outer, (tuple, list))
            and len(outer) == 2
            and set(map(type, outer)) != {int}
        ):
            raise InstanceFormatError(f'"outer" must be [u, v] or null, got {outer!r}')
        if len(rotations) != n:
            raise InstanceFormatError(
                f"expected {n} rotation lists, got {len(rotations)}"
            )
        if head and not (0 <= min(head) and max(head) < n):
            _check_rotations(n, rotations)

        # Darts are numbered by tail, then in the tail's rotation order, so
        # the darts of u hold the ids start..start + deg(u) - 1.
        degree = list(map(len, rotations))
        tail = tuple(chain.from_iterable(map(repeat, range(len(degree)), degree)))
        dart_count = len(tail)
        dart_of = dict(zip(zip(tail, head), range(dart_count)))
        if len(dart_of) != dart_count or any(map(eq, tail, head)):
            _check_rotations(n, rotations)
        twin = tuple(map(dart_of.get, zip(head, tail)))
        if None in twin:
            d = twin.index(None)
            raise AsymmetricAdjacencyError(tail[d], head[d])

        # Successor along the face: at the head of d, turn to the rotation
        # predecessor of the reverse dart.  Keeps the face on the left.
        prv: list[int] = []
        start = 0
        for k in degree:
            if k:
                prv.append(start + k - 1)
                prv.extend(range(start, start + k - 1))
            start += k
        face_next = tuple(map(prv.__getitem__, twin))
        walks, walk_of_dart = _face_walks(face_next)
        comp_of_vertex, comp_count = _components(rotations)

        # Genus-0 check in counting form: each of the c components drawn in
        # the plane satisfies Euler's formula, and merging them side by side
        # into one drawing leaves n - |E| + W + isolated = 2c.
        edge_count = dart_count // 2
        isolated_count = degree.count(0)
        if n - edge_count + len(walks) + isolated_count != 2 * comp_count:
            raise NonPlanarEmbeddingError(
                f"n={n}, |E|={edge_count}, walks={len(walks)}, "
                f"isolated={isolated_count}, components={comp_count}"
            )

        self.n = n
        self.rotations = rotations
        self.tail = tail
        self.head = head
        self.twin = twin
        self.face_next = face_next
        self._dart_of = dart_of
        self.dart_count = dart_count
        self.edge_count = edge_count
        self.comp_of_vertex = tuple(comp_of_vertex)
        self.comp_count = comp_count

        if dart_count == 0:
            if outer is not None:
                raise BadOuterDesignatorError(
                    "graph has no edges, so no dart can designate the outer face"
                )
            self.outer_dart = None
            self.outer_face_id = 0
            self.faces = (Face(0, (), (), True, False, ()),)
            self.face_of_dart = ()
        else:
            if outer is None:
                raise BadOuterDesignatorError(
                    "an outer dart [u, v] is required when the graph has edges"
                )
            try:
                ou, ov = outer
            except (TypeError, ValueError):
                raise BadOuterDesignatorError(
                    f"expected a [u, v] pair, got {outer!r}"
                ) from None
            od = dart_of.get((ou, ov))
            if od is None:
                raise BadOuterDesignatorError(f"{ou}->{ov} is not a dart of the graph")
            self.outer_dart = od

            # One walk is one face, except that the outer face of a drawing
            # with several components holds one walk of each.  Faces are
            # numbered by their smallest walk.
            outer_walk = walk_of_dart[od]
            if comp_count - isolated_count > 1:
                outer_walks = _outer_walks(
                    [comp_of_vertex[tail[w[0]]] for w in walks], outer_walk
                )
            else:
                outer_walks = [outer_walk]
            first, joined = outer_walks[0], set(outer_walks[1:])
            faces: list[Face] = []
            face_of_walk: list[int] = []
            for w, walk in enumerate(walks):
                if w in joined:
                    face_of_walk.append(self.outer_face_id)
                    continue
                fid = len(faces)
                face_of_walk.append(fid)
                if w == first:
                    self.outer_face_id = fid
                    group = tuple(map(walks.__getitem__, outer_walks))
                    faces.append(_face(fid, group, True, tail))
                else:
                    faces.append(_face(fid, (walk,), False, tail))
            self.faces = tuple(faces)
            self.face_of_dart = tuple(
                map(face_of_walk.__getitem__, walk_of_dart) if joined else walk_of_dart
            )

        # The dart u->v with u < v has the smaller id of its pair.
        self.edges = tuple(compress(dart_of, map(lt, tail, head)))
        self.edge_set = frozenset(self.edges)
        self._triangles: tuple[Triangle, ...] | None = None
        self._ceiling: int | None = None

    # ------------------------------------------------------------------
    # plain accessors

    def dart_id(self, u: int, v: int) -> int:
        """Dart id of u->v; KeyError if {u, v} is not an edge."""
        return self._dart_of[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._dart_of

    @property
    def connected(self) -> bool:
        return self.comp_count <= 1

    @property
    def f3_all(self) -> int:
        """Number of triangular faces, the outer face included."""
        return sum(1 for f in self.faces if f.is_triangle)

    @property
    def f3_internal(self) -> int:
        """Number of triangular faces other than the outer face."""
        return sum(1 for f in self.faces if f.is_triangle and not f.is_outer)

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        if self._triangles is None:
            self._triangles = _collect_triangles(self)
        return self._triangles

    @property
    def ceiling(self) -> int:
        """``cactus_ceiling`` of the candidate triangles, computed once."""
        if self._ceiling is None:
            self._ceiling = cactus_ceiling([t.vertices for t in self.triangles])
        return self._ceiling

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(n={self.n}, edges={self.edge_count}, "
            f"faces={len(self.faces)})"
        )


def _collect_triangles(g: PlaneGraph) -> tuple[Triangle, ...]:
    # In a simple graph three vertices fix the three edges, so the sorted
    # vertex triple keys a candidate; faces come in id order, so each
    # list of face ids is already sorted.
    by_vertices: dict[tuple[int, ...], list[int]] = {}
    for f in g.faces:
        if f.is_triangle:
            by_vertices.setdefault(f.vertices, []).append(f.id)

    records = []
    for tid, key in enumerate(sorted(by_vertices)):
        face_ids = by_vertices[key]
        face_id = face_ids[0]
        if len(face_ids) > 1:
            bounded = [fid for fid in face_ids if fid != g.outer_face_id]
            if len(bounded) == 1:
                face_id = bounded[0]
        a, b, c = key
        records.append(Triangle(tid, key, ((a, b), (a, c), (b, c)), tuple(face_ids), face_id))
    return tuple(records)


def cactus_ceiling(triples: Sequence[Sequence[int]]) -> int:
    """No cactus of these triangles holds more of them.

    Each triangle of a cactus merges three components of the graph the
    triangles' edges form, so a component of s vertices holds at most
    (s - 1) // 2 of them; the ceiling is the sum over the components.
    """
    index: dict[int, int] = {}
    for t in triples:
        for x in t:
            index.setdefault(x, len(index))
    uf = DisjointSet(len(index))
    for u, v, w in triples:
        uf.union(index[u], index[v])
        uf.union(index[u], index[w])
    size = uf.size
    return sum((size[r] - 1) // 2 for r, p in enumerate(uf.parent) if r == p)


def relabeled(g: PlaneGraph, perm: Sequence[int]) -> PlaneGraph:
    """Apply a vertex permutation (perm[old] = new) to the whole embedding."""
    # 1.0 and True both sort as 1, so the entries' types are checked first.
    if not all(type(p) is int for p in perm) or sorted(perm) != list(range(g.n)):
        raise InstanceFormatError("relabeling must be a permutation of the vertices")
    rotations: list[tuple[int, ...]] = [()] * g.n
    for u in range(g.n):
        rotations[perm[u]] = tuple(perm[v] for v in g.rotations[u])
    outer = None
    if g.outer_dart is not None:
        outer = (perm[g.tail[g.outer_dart]], perm[g.head[g.outer_dart]])
    return PlaneGraph(g.n, rotations, outer)


# ----------------------------------------------------------------------
# JSON instance format


def parse_instance(data: object) -> PlaneGraph:
    """Build a PlaneGraph from the JSON instance shape.

    Expected: {"n": int, "rotations": [[int, ...], ...], "outer": [u, v]}
    with counterclockwise rotations and "outer" naming the dart u->v on
    the outer face ("outer": null is accepted for edgeless graphs).
    """
    if not isinstance(data, dict):
        raise InstanceFormatError(f"instance must be a JSON object, got {type(data).__name__}")
    missing = [k for k in ("n", "rotations", "outer") if k not in data]
    if missing:
        raise InstanceFormatError(f"instance is missing keys: {', '.join(missing)}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InstanceFormatError(f'"n" must be a nonnegative integer, got {n!r}')
    rotations = data["rotations"]
    if not isinstance(rotations, list):
        raise InstanceFormatError('"rotations" must be a list of neighbor lists')
    # PlaneGraph checks the entries and the outer dart's ends; a fault in
    # the entries before a shape fault here is still reported first.
    for u, nbrs in enumerate(rotations):
        if not isinstance(nbrs, list):
            _check_entries(rotations[:u])
            raise InstanceFormatError(f"rotation of vertex {u} must be a list")
    outer = data["outer"]
    if outer is not None and (not isinstance(outer, (list, tuple)) or len(outer) != 2):
        _check_entries(rotations)
        raise InstanceFormatError(f'"outer" must be [u, v] or null, got {outer!r}')
    return PlaneGraph(n, rotations, outer)


def read_json(path) -> object:
    """Load a JSON file; undecodable or over-nested content, or an integer
    past Python's digit limit, is an InstanceFormatError that names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InstanceFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_instance(path) -> PlaneGraph:
    """Read and validate a JSON instance file."""
    return parse_instance(read_json(path))


def instance_to_dict(g: PlaneGraph) -> dict:
    outer = None
    if g.outer_dart is not None:
        outer = [g.tail[g.outer_dart], g.head[g.outer_dart]]
    return {
        "n": g.n,
        "rotations": [list(nbrs) for nbrs in g.rotations],
        "outer": outer,
    }


def dump_instance(g: PlaneGraph, path) -> None:
    # json.dumps takes the C encoder; json.dump never does.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(instance_to_dict(g)) + "\n")
