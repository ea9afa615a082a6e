"""Seeded instance generators.

Every family returns a validated PlaneGraph and is a pure function of its
parameters, so corpus runs are reproducible byte for byte.  Triangulations
are grown by Apollonian stacking (insert a vertex into a random bounded
face) and then optionally stirred with random diagonal flips; stacking
alone produces a very special class of triangulations, and the flips are
what make the random family worth testing against.

Rotation convention matches plane_graph: counterclockwise neighbor lists,
bounded triangular faces written as counterclockwise vertex triples
(a, b, c), which makes sigma_a(b) = c at every corner.
"""

from __future__ import annotations

import random
import sys
from typing import NamedTuple

from .errors import InvalidSpecError, TooSmallError, UnknownFamilyError
from .plane_graph import PlaneGraph

__all__ = [
    "GeneratorSpec",
    "FAMILIES",
    "build",
    "random_maximal_planar",
    "wheel",
    "fan",
    "platonic",
    "grid_triangulation",
]


class GeneratorSpec(NamedTuple):
    """Parameters naming one corpus instance.

    n is the vertex count for sized families, the rim-plus-hub count for
    wheel/fan, and the side length for square grids unless width/height
    are given.  name selects the platonic solid.  flips defaults to 2n for
    random_maximal_planar and is ignored elsewhere.
    """

    family: str
    n: int = 0
    seed: int = 0
    flips: int | None = None
    name: str = ""
    width: int = 0
    height: int = 0

    def label(self) -> str:
        # Labels key rows, sidecars and callers' per-instance records, and a
        # benchmark rebuilds its specs on every pass; interning keeps one
        # string per distinct label however often that happens.
        if self.family == "platonic":
            return sys.intern(f"platonic:{self.name}")
        if self.family == "grid_triangulation":
            w = self.width or self.n
            h = self.height or self.n
            return sys.intern(f"grid:{w}x{h}")
        bits = f"{self.family}:n{self.n}"
        if self.family == "random_maximal_planar":
            bits += f":s{self.seed}"
            if self.flips is not None:
                bits += f":f{self.flips}"
        elif self.family == "apollonian":
            bits += f":s{self.seed}"
        return sys.intern(bits)


def build(spec: GeneratorSpec) -> PlaneGraph:
    """The graph spec names.  n, seed, width, height and flips (unless None)
    must be ints; a bool is refused, as seed=True would build seed 1."""
    fn = FAMILIES.get(spec.family) if type(spec.family) is str else None
    if fn is None:
        raise UnknownFamilyError(
            f"unknown generator family {spec.family!r}; "
            f"known: {', '.join(sorted(FAMILIES))}"
        )
    for field in ("n", "seed", "width", "height", "flips"):
        value = getattr(spec, field)
        if type(value) is not int and not (field == "flips" and value is None):
            raise InvalidSpecError(f"{field} must be an int, got {value!r}")
    return fn(spec)


# ----------------------------------------------------------------------
# triangulations by stacking plus diagonal flips


class _Triangulation:
    """Mutable rotation system of a triangulation under construction.

    Bounded faces are oriented triples; the outer face stays the original
    triangle's far side throughout (insertions go into bounded faces only
    and flips never touch outer edges).
    """

    def __init__(self):
        self.rot: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
        self.faces: list[tuple[int, int, int]] = []
        # Each dart of a bounded face, mapped to that face's index in faces.
        self.face_of_dart: dict[tuple[int, int], int] = {}
        self._set_face(0, (0, 1, 2))
        self.edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
        self.edge_pos: dict[tuple[int, int], int] = {
            e: i for i, e in enumerate(self.edges)
        }

    def _set_face(self, i: int, tri: tuple[int, int, int]) -> None:
        """Make tri face i, appended when i == len(faces), and index its darts."""
        self.faces[i:i + 1] = [tri]
        a, b, c = tri
        self.face_of_dart[(a, b)] = self.face_of_dart[(b, c)] = self.face_of_dart[(c, a)] = i

    def _add_edge(self, u: int, v: int) -> None:
        e = (u, v) if u < v else (v, u)
        self.edge_pos[e] = len(self.edges)
        self.edges.append(e)

    def _drop_edge(self, u: int, v: int) -> None:
        e = (u, v) if u < v else (v, u)
        pos = self.edge_pos.pop(e)
        last = self.edges.pop()
        if last != e:
            self.edges[pos] = last
            self.edge_pos[last] = pos

    def _insert_after(self, vertex: int, anchor: int, new: int, expect_next: int) -> None:
        nbrs = self.rot[vertex]
        i = nbrs.index(anchor)
        if nbrs[(i + 1) % len(nbrs)] != expect_next:
            raise AssertionError("rotation out of sync with face table")
        nbrs.insert(i + 1, new)

    def stack(self, face_index: int, k: int) -> None:
        """Insert new vertex k into bounded face (a, b, c), splitting it
        into (a, b, k), (b, c, k), (c, a, k)."""
        a, b, c = self.faces[face_index]
        self.rot.append([a, b, c])
        self._insert_after(a, b, k, c)
        self._insert_after(b, c, k, a)
        self._insert_after(c, a, k, b)
        self._set_face(face_index, (a, b, k))
        self._set_face(len(self.faces), (b, c, k))
        self._set_face(len(self.faces), (c, a, k))
        self._add_edge(a, k)
        self._add_edge(b, k)
        self._add_edge(c, k)

    def flip(self, u: int, v: int) -> bool:
        """Replace diagonal u-v by x-y when both sides are bounded faces
        and the result stays simple.  Returns False when not flippable."""
        fu = self.face_of_dart.get((u, v))
        fv = self.face_of_dart.get((v, u))
        if fu is None or fv is None:
            return False
        x = next(z for z in self.faces[fu] if z not in (u, v))
        y = next(z for z in self.faces[fv] if z not in (u, v))
        if x == y:
            return False
        e = (x, y) if x < y else (y, x)
        if e in self.edge_pos:
            return False
        if len(self.rot[u]) <= 3 or len(self.rot[v]) <= 3:
            # Dropping u-v would leave a degree-2 corner of two triangles,
            # collapsing the drawing onto a multi-edge.
            return False
        self._insert_after(x, u, y, v)
        self._insert_after(y, v, x, u)
        self.rot[u].remove(v)
        self.rot[v].remove(u)
        del self.face_of_dart[(u, v)]
        del self.face_of_dart[(v, u)]
        self._set_face(fu, (u, y, x))
        self._set_face(fv, (y, v, x))
        self._drop_edge(u, v)
        self._add_edge(x, y)
        return True

    def graph(self) -> PlaneGraph:
        return PlaneGraph(len(self.rot), self.rot, (1, 0))


def random_maximal_planar(n: int, seed: int = 0, flips: int | None = None) -> PlaneGraph:
    """Random triangulation: Apollonian stacking into uniformly random
    bounded faces, then `flips` random diagonal flips (default 2n)."""
    if n < 3:
        raise TooSmallError(f"a triangulation needs n >= 3, got {n}")
    if flips is not None and flips < 0:
        raise TooSmallError(f"flips must be at least 0, got {flips}")
    rng = random.Random(seed)
    tri = _Triangulation()
    for k in range(3, n):
        tri.stack(rng.randrange(len(tri.faces)), k)
    rounds = 2 * n if flips is None else flips
    for _ in range(rounds):
        for _attempt in range(30):
            u, v = tri.edges[rng.randrange(len(tri.edges))]
            if tri.flip(u, v):
                break
    return tri.graph()


# ----------------------------------------------------------------------
# fixed families


def wheel(k: int) -> PlaneGraph:
    """Hub 0 joined to a (k-1)-cycle, n = k vertices."""
    if k < 4:
        raise TooSmallError(f"a wheel needs at least 4 vertices, got {k}")
    m = k - 1

    def rim(j: int) -> int:
        return 1 + (j - 1) % m

    rot: list[list[int]] = [list(range(1, k))]
    for j in range(1, k):
        rot.append([rim(j + 1), 0, rim(j - 1)])
    return PlaneGraph(k, rot, (1, k - 1))


def fan(k: int) -> PlaneGraph:
    """Apex 0 joined to the path 1..k-1, n = k vertices."""
    if k < 3:
        raise TooSmallError(f"a fan needs at least 3 vertices, got {k}")
    rot: list[list[int]] = [list(range(k - 1, 0, -1))]
    for j in range(1, k):
        if j == 1:
            rot.append([2, 0])
        elif j == k - 1:
            rot.append([j - 1, 0])
        else:
            rot.append([j - 1, 0, j + 1])
    return PlaneGraph(k, rot, (0, 1))


def _rotations_from_faces(n: int, faces: list[tuple[int, int, int]]) -> list[list[int]]:
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    for x, y, z in faces:
        for v, a, b in ((x, y, z), (y, z, x), (z, x, y)):
            if a in succ[v]:
                raise AssertionError(f"face list not consistently oriented at {v}")
            succ[v][a] = b
    rot: list[list[int]] = []
    for v in range(n):
        start = min(succ[v])
        cyc = [start]
        cur = succ[v][start]
        while cur != start:
            cyc.append(cur)
            cur = succ[v][cur]
        if len(cyc) != len(succ[v]):
            raise AssertionError(f"rotation at {v} is not a single cycle")
        rot.append(cyc)
    return rot


_TETRA = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]

_OCTA = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
    (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
]


def _icosa_faces() -> list[tuple[int, int, int]]:
    def up(i: int) -> int:
        return 1 + (i - 1) % 5

    def lo(i: int) -> int:
        return 6 + (i - 1) % 5

    faces = []
    for i in range(1, 6):
        faces.append((0, up(i), up(i + 1)))
        faces.append((up(i), lo(i - 1), lo(i)))
        faces.append((up(i), lo(i), up(i + 1)))
        faces.append((11, lo(i + 1), lo(i)))
    return faces


_PLATONIC_FACES = {
    "tetrahedron": (4, _TETRA),
    "octahedron": (6, _OCTA),
    "icosahedron": (12, _icosa_faces()),
}


def platonic(name: str) -> PlaneGraph:
    """Triangulated platonic solid by name, first listed face as outer."""
    entry = _PLATONIC_FACES.get(name) if type(name) is str else None
    if entry is None:
        raise UnknownFamilyError(
            f"unknown platonic solid {name!r}; "
            f"known: {', '.join(sorted(_PLATONIC_FACES))}"
        )
    n, faces = entry
    rot = _rotations_from_faces(n, faces)
    a, b, _ = faces[0]
    return PlaneGraph(n, rot, (a, b))


def grid_triangulation(w: int, h: int) -> PlaneGraph:
    """w-by-h grid with each cell split by its NW-SE diagonal."""
    if w < 2 or h < 2:
        raise TooSmallError(f"grid needs both sides >= 2, got {w}x{h}")

    def vid(i: int, j: int) -> int:
        return j * w + i

    rot: list[list[int]] = []
    for j in range(h):
        for i in range(w):
            nbrs = []
            if i + 1 < w:
                nbrs.append(vid(i + 1, j))       # east
            if j + 1 < h:
                nbrs.append(vid(i, j + 1))       # north
            if i - 1 >= 0 and j + 1 < h:
                nbrs.append(vid(i - 1, j + 1))   # northwest diagonal
            if i - 1 >= 0:
                nbrs.append(vid(i - 1, j))       # west
            if j - 1 >= 0:
                nbrs.append(vid(i, j - 1))       # south
            if i + 1 < w and j - 1 >= 0:
                nbrs.append(vid(i + 1, j - 1))   # southeast diagonal
            rot.append(nbrs)
    return PlaneGraph(w * h, rot, (vid(1, 0), vid(0, 0)))


def _build_rmp(spec: GeneratorSpec) -> PlaneGraph:
    return random_maximal_planar(spec.n, spec.seed, spec.flips)


def _build_apollonian(spec: GeneratorSpec) -> PlaneGraph:
    # A pure stacked triangulation: no flips.
    return random_maximal_planar(spec.n, spec.seed, flips=0)


def _build_wheel(spec: GeneratorSpec) -> PlaneGraph:
    return wheel(spec.n)


def _build_fan(spec: GeneratorSpec) -> PlaneGraph:
    return fan(spec.n)


def _build_platonic(spec: GeneratorSpec) -> PlaneGraph:
    return platonic(spec.name)


def _build_grid(spec: GeneratorSpec) -> PlaneGraph:
    w = spec.width or spec.n
    h = spec.height or spec.n
    return grid_triangulation(w, h)


FAMILIES = {
    "random_maximal_planar": _build_rmp,
    "apollonian": _build_apollonian,
    "wheel": _build_wheel,
    "fan": _build_fan,
    "platonic": _build_platonic,
    "grid_triangulation": _build_grid,
}
