"""Shared hand-built instances.

Every graph here is a rotation system written out by hand: CCW neighbor
lists plus one dart naming the outer face.  The structural facts the
tests rely on (face counts, triangle lists, optimal sizes) were checked
against the exact oracle once and are asserted as frozen constants.
"""

from typing import NamedTuple

import pytest

from cactus_forge import PlaneGraph, TriangularCactus, cactus_from_triples


class SolvedCase(NamedTuple):
    """A graph together with a known cactus on it (as vertex triples)."""

    g: PlaneGraph
    triples: tuple[tuple[int, int, int], ...]

    @property
    def cactus(self) -> TriangularCactus:
        return cactus_from_triples(self.g, self.triples)


@pytest.fixture
def triangle():
    return PlaneGraph(3, [[1, 2], [2, 0], [0, 1]], (1, 0))


@pytest.fixture
def k4():
    # Outer triangle 0-1-2 with vertex 3 inside.
    return PlaneGraph(4, [[1, 3, 2], [2, 3, 0], [0, 3, 1], [2, 0, 1]], (1, 0))


@pytest.fixture
def two_k4():
    # Two copies of k4 side by side, on vertices 0..3 and 4..7.
    return PlaneGraph(
        8,
        [[1, 3, 2], [2, 3, 0], [0, 3, 1], [2, 0, 1],
         [5, 7, 6], [6, 7, 4], [4, 7, 5], [6, 4, 5]],
        (1, 0),
    )


@pytest.fixture
def double_ear():
    # Triangle 0-1-2 with ear 3 over edge 0-1 and ear 4 over edge 0-2.
    return PlaneGraph(
        5, [[1, 2, 4, 3], [2, 0, 3], [4, 0, 1], [1, 0], [2, 0]], (3, 1)
    )


@pytest.fixture
def triangle_with_tail():
    # Triangle 0-1-2 with the path 2-3-4 hanging off corner 2.  Its one
    # host component has 5 vertices, but only the triangle's 3 corners
    # lie on a candidate, so no cactus holds more than 1 triangle.
    return PlaneGraph(5, [[1, 2], [2, 0], [0, 1, 3], [2, 4], [3]], (1, 0))


@pytest.fixture
def bowtie():
    # Two triangles sharing vertex 3; vertex 0 is deliberately isolated.
    return PlaneGraph(
        6, [[], [2, 3], [3, 1], [4, 1, 2, 5], [3, 5], [4, 3]], (3, 4)
    )


@pytest.fixture
def necklace():
    # Four triangular faces around the shared edge structure on 1..6,
    # again with an isolated vertex 0 to keep component handling honest.
    return PlaneGraph(
        7,
        [[], [2, 4, 5, 3], [6, 4, 1, 3], [2, 1], [5, 1, 2, 6], [4, 1], [4, 2]],
        (3, 1),
    )


@pytest.fixture
def prism9():
    # Triangular prism with all three quad faces subdivided by a degree-2
    # vertex, so only the two triangle faces remain 3-sided.
    return PlaneGraph(
        9,
        [
            [1, 6, 2],
            [2, 7, 0],
            [0, 8, 1],
            [4, 5, 6],
            [5, 3, 7],
            [8, 3, 4],
            [0, 3],
            [1, 4],
            [2, 5],
        ],
        (1, 0),
    )


@pytest.fixture
def heavy_pair():
    """Smallest 2-swap optimum whose triangles are all heavy.

    Two cactus triangles (0,1,3) and (1,2,4) sit inside a triangulated
    core on {0,1,2} with an interior hub 5 and an outside hub 6; each
    base edge carries three crossing triangles and nothing else does.
    """
    g = PlaneGraph(
        7,
        [
            [6, 2, 5, 1, 3],
            [3, 0, 5, 2, 4],
            [4, 1, 5, 0, 6],
            [1, 0],
            [1, 2],
            [1, 0, 2],
            [2, 0],
        ],
        (0, 3),
    )
    return SolvedCase(g, ((0, 1, 3), (1, 2, 4)))


@pytest.fixture
def heavy_path():
    """Three-triangle all-heavy optimum with every load of the plainest kind.

    The cactus is a path of triangles on the spine 0-1-2-3; each spine
    edge is crossed only by ear and chord triangles that all land in
    split parts of the same triangle, so no 2-swap can cash them in.
    """
    g = PlaneGraph(
        13,
        [
            [1, 4, 7, 2, 8, 10, 3, 9],
            [2, 5, 4, 0, 12, 3, 11],
            [3, 6, 8, 0, 7, 5, 1],
            [6, 2, 11, 1, 12, 9, 0, 10],
            [0, 1],
            [1, 2],
            [2, 3],
            [0, 2],
            [0, 2],
            [3, 0],
            [3, 0],
            [3, 1],
            [3, 1],
        ],
        (0, 8),
    )
    return SolvedCase(g, ((0, 1, 4), (1, 2, 5), (2, 3, 6)))


@pytest.fixture
def heavy_shape_bad():
    """A cactus that is NOT 2-swap optimal and whose triangle 1 spreads
    its cross load over two edges.  Removing (0,3,4) frees both loaded
    edges at once, so the verifier finds a 1-for-2 trade immediately.
    """
    g = PlaneGraph(
        9,
        [
            [2, 1, 3, 4],
            [3, 5, 0, 2, 8, 4, 7, 6],
            [0, 1],
            [0, 5, 1, 6, 4],
            [0, 3, 7, 1, 8],
            [3, 1],
            [3, 1],
            [4, 1],
            [4, 1],
        ],
        (2, 0),
    )
    return SolvedCase(g, ((0, 1, 2), (0, 3, 4)))
