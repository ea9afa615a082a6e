"""The host tables built the long way, with a dict lookup per dart.

The package builds a PlaneGraph's darts, face walks and faces in a few
flat passes.  This reference builds them dart by dart: a dict lookup for
every twin and every rotation predecessor, a set of vertices for every
face, and each rotation entry checked on its own.  It reads a JSON-shaped
instance and checks it in the order the instance format reports faults:
the shape of each rotation list and its entry types, then the outer
dart's shape and types, then each entry's loop, range and repeat, then
the twins, planarity and the outer dart.  So it pins the class and the
message of the first error as well as every table.
"""

from __future__ import annotations

from types import SimpleNamespace

from cactus_forge.errors import (
    AsymmetricAdjacencyError,
    BadOuterDesignatorError,
    IdentityViolationError,
    InstanceFormatError,
    LoopEdgeError,
    NonPlanarEmbeddingError,
    ParallelEdgeError,
)
from cactus_forge.plane_graph import Face
from reference_triangles import collect_triangles

TABLES = (
    "tail",
    "head",
    "twin",
    "face_next",
    "faces",
    "face_of_dart",
    "outer_face_id",
    "edges",
    "comp_of_vertex",
    "triangles",
    "ceiling",
)


def tables_of(g) -> dict:
    """The tables a PlaneGraph exposes, by the names in TABLES."""
    return {name: getattr(g, name) for name in TABLES}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_shape(data) -> None:
    """The instance format's checks, vertex by vertex and entry by entry."""
    n, rotations, outer = data["n"], data["rotations"], data["outer"]
    if not _is_int(n) or n < 0:
        raise InstanceFormatError(f'"n" must be a nonnegative integer, got {n!r}')
    if not isinstance(rotations, list):
        raise InstanceFormatError('"rotations" must be a list of neighbor lists')
    for u, nbrs in enumerate(rotations):
        if not isinstance(nbrs, list):
            raise InstanceFormatError(f"rotation of vertex {u} must be a list")
        for v in nbrs:
            if not _is_int(v):
                raise InstanceFormatError(
                    f"rotation of vertex {u} holds a non-integer entry {v!r}"
                )
    if outer is not None and (
        not isinstance(outer, (list, tuple))
        or len(outer) != 2
        or not all(_is_int(x) for x in outer)
    ):
        raise InstanceFormatError(f'"outer" must be [u, v] or null, got {outer!r}')


def _darts(n, rotations):
    """Dart ids of a rotation system: (dart_of, tail, head, twin).

    Darts are numbered by tail, then in the tail's rotation order.
    """
    dart_of: dict[tuple[int, int], int] = {}
    tail: list[int] = []
    head: list[int] = []
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
            dart_of[(u, v)] = len(tail)
            tail.append(u)
            head.append(v)

    twin = [0] * len(tail)
    for d in range(len(tail)):
        t = dart_of.get((head[d], tail[d]))
        if t is None:
            raise AsymmetricAdjacencyError(tail[d], head[d])
        twin[d] = t
    return dart_of, tail, head, twin


def _face_walks(rotations, dart_of, twin):
    """Face successors and the face walks: (face_next, walks, walk_of_dart)."""
    prv = [0] * len(twin)
    for u, nbrs in enumerate(rotations):
        for i, v in enumerate(nbrs):
            prv[dart_of[(u, v)]] = dart_of[(u, nbrs[i - 1])]
    face_next = [prv[t] for t in twin]

    walk_of_dart = [-1] * len(twin)
    walks: list[tuple[int, ...]] = []
    for d0 in range(len(twin)):
        if walk_of_dart[d0] >= 0:
            continue
        walk: list[int] = []
        d = d0
        while walk_of_dart[d] < 0:
            walk_of_dart[d] = len(walks)
            walk.append(d)
            d = face_next[d]
        if d != d0:
            raise IdentityViolationError("face walk did not close at its start")
        walks.append(tuple(walk))
    return face_next, walks, walk_of_dart


def _components(rotations):
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


def _side_by_side_groups(walk_comp, outer_walk):
    """The outer walk plus the first-discovered walk of every other
    component form the outer region; all remaining walks stand alone."""
    merged = {outer_walk}
    seen = {walk_comp[outer_walk]}
    for w, comp in enumerate(walk_comp):
        if comp not in seen:
            merged.add(w)
            seen.add(comp)
    groups = [sorted(merged)]
    groups.extend([w] for w in range(len(walk_comp)) if w not in merged)
    return groups


def _ceiling(triangles) -> int:
    """Sum of (s - 1) // 2 over the components, of s vertices each, of the
    graph the triangles' edges form; found by search, not union-find."""
    adj: dict[int, set[int]] = {}
    for t in triangles:
        for x in t.vertices:
            adj.setdefault(x, set()).update(t.vertices)
    seen: set[int] = set()
    total = 0
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            x = stack.pop()
            size += 1
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        total += (size - 1) // 2
    return total


def host_tables(data) -> dict:
    """The tables of the instance ``{"n", "rotations", "outer"}``, or the
    first error the instance format reports for it."""
    _check_shape(data)
    n = data["n"]
    rotations = tuple(tuple(nbrs) for nbrs in data["rotations"])
    if len(rotations) != n:
        raise InstanceFormatError(f"expected {n} rotation lists, got {len(rotations)}")
    outer = data["outer"]
    dart_of, tail, head, twin = _darts(n, rotations)
    face_next, walks, walk_of_dart = _face_walks(rotations, dart_of, twin)
    comp_of_vertex, comp_count = _components(rotations)
    edge_count = len(tail) // 2
    isolated_count = sum(1 for nbrs in rotations if not nbrs)
    if n - edge_count + len(walks) + isolated_count != 2 * comp_count:
        raise NonPlanarEmbeddingError(
            f"n={n}, |E|={edge_count}, walks={len(walks)}, "
            f"isolated={isolated_count}, components={comp_count}"
        )

    if not tail:
        if outer is not None:
            raise BadOuterDesignatorError(
                "graph has no edges, so no dart can designate the outer face"
            )
        faces = [Face(id=0, boundary=(), walks=(), is_outer=True, is_triangle=False, vertices=())]
        face_of_dart: list[int] = []
        outer_face_id = 0
    else:
        if outer is None:
            raise BadOuterDesignatorError(
                "an outer dart [u, v] is required when the graph has edges"
            )
        ou, ov = outer
        od = dart_of.get((ou, ov))
        if od is None:
            raise BadOuterDesignatorError(f"{ou}->{ov} is not a dart of the graph")
        outer_walk = walk_of_dart[od]
        groups = _side_by_side_groups(
            [comp_of_vertex[tail[w[0]]] for w in walks], outer_walk
        )
        groups.sort(key=lambda g: g[0])
        faces = []
        face_of_dart = [-1] * len(tail)
        outer_face_id = -1
        for fid, walk_ids in enumerate(groups):
            boundary: list[int] = []
            for w in walk_ids:
                boundary.extend(walks[w])
            for d in boundary:
                face_of_dart[d] = fid
            verts = sorted({tail[d] for d in boundary})
            is_outer = outer_walk in walk_ids
            if is_outer:
                outer_face_id = fid
            is_triangle = len(walk_ids) == 1 and len(boundary) == 3
            if is_triangle and len(verts) != 3:
                raise IdentityViolationError(
                    "length-3 face walk without 3 distinct vertices"
                )
            faces.append(
                Face(
                    id=fid,
                    boundary=tuple(boundary),
                    walks=tuple(walks[w] for w in walk_ids),
                    is_outer=is_outer,
                    is_triangle=is_triangle,
                    vertices=tuple(verts),
                )
            )

    edges = []
    for d in range(len(tail)):
        if d < twin[d]:
            u, v = tail[d], head[d]
            edges.append((u, v) if u < v else (v, u))

    host = SimpleNamespace(
        tail=tuple(tail),
        head=tuple(head),
        twin=tuple(twin),
        face_next=tuple(face_next),
        faces=tuple(faces),
        face_of_dart=tuple(face_of_dart),
        outer_face_id=outer_face_id,
        edges=tuple(edges),
        comp_of_vertex=tuple(comp_of_vertex),
    )
    host.triangles = collect_triangles(host)
    host.ceiling = _ceiling(host.triangles)
    return tables_of(host)
