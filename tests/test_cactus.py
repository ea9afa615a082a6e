"""Incremental triangular-cactus container and the triple helpers."""

import random
import re
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cactus_forge import (
    GeneratorSpec,
    InvalidCactusError,
    SearchConfig,
    TriangularCactus,
    build_instance,
    cactus_from_triples,
    cactus_to_triples,
    is_valid_cactus,
    local_search,
)
from cactus_forge.analyzer import _split_part
from cactus_forge.cactus import triples_form_cactus
from cactus_forge.errors import TriangleNotInCactusError, UnknownTriangleError
from cactus_forge.unionfind import DisjointSet
from reference_split import split_at


def _members(c, v):
    """The vertices of v's component, read off the cactus labels."""
    label = c.labels()
    return {u for u, r in enumerate(label) if r == label[v]}


def test_empty_cactus(k4):
    c = TriangularCactus(k4)
    assert c.delta == 0
    assert len(c) == 0
    assert c.triangle_ids == ()
    assert len(set(c.labels())) == 4


def test_ceiling_counts_candidate_components(necklace):
    # The isolated vertex 0 holds no triangle and the six others at most
    # (6 - 1) // 2 = 2, so the ceiling is 2 triangles, not (7 - 1) // 2 = 3.
    assert necklace.ceiling == 2
    c = TriangularCactus(necklace, [0])
    assert not c.at_ceiling
    assert c.try_add_triangle(2)
    assert c.at_ceiling


def test_ceiling_is_summed_over_components(two_k4):
    # Each K4 holds one triangle: the ceiling is 1 + 1, below (8 - 2) // 2 = 3.
    c = TriangularCactus(two_k4, [0])
    assert not c.at_ceiling
    other = next(t.id for t in two_k4.triangles if min(t.vertices) >= 4)
    assert c.try_add_triangle(other)
    assert c.at_ceiling


def test_add_by_id_and_membership(k4):
    c = TriangularCactus(k4)
    assert c.try_add_triangle(0)
    assert 0 in c and 1 not in c
    assert c.delta == 1
    assert _members(c, 0) == {0, 1, 2}
    # Triangles are named by id only.
    with pytest.raises(UnknownTriangleError):
        k4.triangles[0] in c
    with pytest.raises(UnknownTriangleError):
        TriangularCactus(k4, [k4.triangles[0]])


def test_k4_admits_only_one_triangle(k4):
    c = TriangularCactus(k4)
    assert c.try_add_triangle(0)
    for tid in (1, 2, 3):
        assert not c.try_add_triangle(tid)
    assert c.delta == 1


def test_components_merge_on_add(necklace):
    c = TriangularCactus(necklace)
    tris = {t.vertices: t.id for t in necklace.triangles}
    assert c.try_add_triangle(tris[(1, 2, 3)])
    assert _members(c, 1) == {1, 2, 3}
    assert c.try_add_triangle(tris[(1, 4, 5)])
    assert _members(c, 2) == {1, 2, 3, 4, 5}
    assert 5 in _members(c, 3)
    # 2 and 4 already touch, so the last face can't join
    assert not c.try_add_triangle(tris[(2, 4, 6)])
    assert _members(c, 1) == {1, 2, 3, 4, 5}


def test_copy_is_independent(necklace):
    c = TriangularCactus(necklace, [0])
    d = c.copy()
    assert d.try_add_triangle(2) or d.try_add_triangle(1)
    assert c.delta == 1
    assert d.delta == 2


def test_remove_triangle(heavy_path):
    c = heavy_path.cactus
    assert c.delta == 3
    middle = [t.id for t in heavy_path.g.triangles if t.vertices == (1, 2, 5)][0]
    c.remove_triangle(middle)
    assert c.delta == 2
    assert 3 not in _members(c, 0)
    with pytest.raises(TriangleNotInCactusError) as exc:
        c.remove_triangle(middle)
    # a KeyError, but its message prints without quotes
    assert str(exc.value) == "triangle (1, 2, 5) is not in the cactus"


def test_split_at_parts(heavy_path):
    c = heavy_path.cactus
    middle = [t.id for t in heavy_path.g.triangles if t.vertices == (1, 2, 5)][0]
    sp = split_at(c, middle)
    assert sp.triangle == middle
    assert sp.parts[1] == {0, 1, 4}
    assert sp.parts[2] == {2, 3, 6}
    assert sp.parts[5] == {5}
    # splitting reports without mutating
    assert c.delta == 3


def test_split_requires_membership(heavy_path):
    c = heavy_path.cactus
    outsider = [t.id for t in heavy_path.g.triangles if t.vertices not in
                {(0, 1, 4), (1, 2, 5), (2, 3, 6)}][0]
    with pytest.raises(TriangleNotInCactusError):
        split_at(c, outsider)


def test_triples_roundtrip(heavy_pair):
    c = heavy_pair.cactus
    triples = cactus_to_triples(c)
    assert triples == [[0, 1, 3], [1, 2, 4]]
    again = cactus_from_triples(heavy_pair.g, triples)
    assert again.triangle_ids == c.triangle_ids


def test_from_triples_rejects_unknown(k4):
    with pytest.raises(UnknownTriangleError):
        cactus_from_triples(k4, [(0, 1, 9)])
    with pytest.raises(UnknownTriangleError):
        # a 3-clique that is not a face of this embedding is no candidate
        cactus_from_triples(k4, [(9, 10, 11)])


def test_boolean_triangle_ids_are_rejected():
    octa = build_instance(GeneratorSpec("platonic", name="octahedron"))
    assert len(octa.triangles) > 1  # True would alias a real triangle id
    with pytest.raises(UnknownTriangleError):
        TriangularCactus(octa, [True])
    with pytest.raises(UnknownTriangleError):
        is_valid_cactus(octa, [True, 1])
    c = TriangularCactus(octa)
    with pytest.raises(UnknownTriangleError):
        c.try_add_triangle(False)
    with pytest.raises(UnknownTriangleError):
        c.try_add_triangle(len(octa.triangles))
    assert c.try_add_triangle(1)
    with pytest.raises(UnknownTriangleError):
        True in c
    with pytest.raises(UnknownTriangleError):
        c.remove_triangle(True)


def test_from_triples_rejects_bool_vertices(k4):
    # True == 1, so (0, True, 2) would name triangle (0, 1, 2).
    assert k4.triangles[0].vertices == (0, 1, 2)
    with pytest.raises(UnknownTriangleError):
        cactus_from_triples(k4, [(0, True, 2)])


@pytest.mark.parametrize("entry", [5, None, (0, 1), (0, True, 2), "abc", [0, 1, 2, 3]])
def test_from_triples_names_a_malformed_entry(k4, entry):
    # Only a list or tuple of three ints names a triangle; anything else
    # is an unknown triangle, not a TypeError.
    shown = list(entry) if isinstance(entry, tuple) else entry
    with pytest.raises(UnknownTriangleError, match=re.escape(f"{shown!r} is not")):
        cactus_from_triples(k4, [(0, 1, 2), entry])


def test_from_triples_rejects_repeat_and_conflict(k4, necklace):
    with pytest.raises(InvalidCactusError):
        cactus_from_triples(k4, [(0, 1, 2), (0, 1, 2)])
    with pytest.raises(InvalidCactusError):
        cactus_from_triples(necklace, [(1, 2, 3), (1, 2, 4)])


def test_is_valid_cactus_flags_without_raising(necklace):
    assert is_valid_cactus(necklace, [0, 2])
    assert not is_valid_cactus(necklace, [0, 1])


def test_triples_form_cactus_pure_check():
    assert triples_form_cactus([(0, 1, 2), (2, 3, 4)])
    # shares two vertices
    assert not triples_form_cactus([(0, 1, 2), (1, 2, 3)])
    # closes a cycle of components
    assert not triples_form_cactus([(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    assert triples_form_cactus([])


def _same_partition(x, y):
    return len(set(x)) == len(set(y)) == len(set(zip(x, y)))


def _union_find_labels(g, triangle_ids):
    uf = DisjointSet(g.n)
    for t in triangle_ids:
        a, b, w = g.triangles[t].vertices
        uf.union(a, b)
        uf.union(a, w)
    return uf.labels()


def _bfs_split(c, tid):
    """Corner -> vertices reachable over cactus edges other than tid's."""
    tri = c.host.triangles[tid]
    adj = {}
    for other in c.triangle_ids:
        if other == tid:
            continue
        for u, v in c.host.triangles[other].edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    parts = {}
    for corner in tri.vertices:
        seen, frontier = {corner}, [corner]
        while frontier:
            frontier = [y for x in frontier for y in adj.get(x, ()) if y not in seen]
            seen.update(frontier)
        parts[corner] = frozenset(seen)
    return parts


def _assert_tour_matches_bfs(c):
    g, tour = c.host, c.tour()
    assert sorted(tour.order) == list(range(g.n))
    assert all(tour.order[tour.pos[v]] == v for v in range(g.n))
    ids = c.triangle_ids
    for k in (0, 1, 2):
        for removal in combinations(ids, k):
            by_pos = tour.labels_without(removal)
            by_vertex = [by_pos[tour.pos[v]] for v in range(g.n)]
            kept = [t for t in ids if t not in removal]
            assert _same_partition(by_vertex, _union_find_labels(g, kept)), removal
    for tid in ids:
        expected = _bfs_split(c, tid)
        assert split_at(c, tid).parts == expected
        # The analyzer's parts: positions of the triangle's component,
        # grouped by the part _split_part assigns them.
        cut = tour.slices[tid]
        root = tour.base[cut[0][0]]
        by_part = {}
        for v in range(g.n):
            if tour.base[tour.pos[v]] == root:
                by_part.setdefault(_split_part(cut, tour.pos[v]), set()).add(v)
        assert {
            corner: by_part[_split_part(cut, tour.pos[corner])] for corner in expected
        } == expected


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_tour_slices_match_a_union_find_and_bfs(two_k4, bowtie, data):
    # Random cacti with several components and isolated vertices: a 2-swap
    # optimum minus up to two triangles, or a shuffled greedy cactus on a
    # disconnected host.
    host = data.draw(st.sampled_from(["rmp", "two_k4", "bowtie"]))
    seed = data.draw(st.integers(0, 10_000))
    if host == "rmp":
        g = build_instance(
            GeneratorSpec("random_maximal_planar", n=data.draw(st.integers(4, 22)), seed=seed)
        )
        c, _ = local_search(g, SearchConfig(t=2))
    else:
        g = two_k4 if host == "two_k4" else bowtie
        order = [t.id for t in g.triangles]
        random.Random(seed).shuffle(order)
        c = TriangularCactus(g)
        for tid in order:
            c.try_add_triangle(tid)
    for _ in range(data.draw(st.integers(0, min(2, len(c))))):
        c.remove_triangle(c.triangle_ids[data.draw(st.integers(0, len(c) - 1))])
    _assert_tour_matches_bfs(c)


def test_tour_follows_the_cactus_through_edits_and_copies(necklace):
    c = TriangularCactus(necklace, [0])
    first = c.tour()
    assert c.tour() is first
    d = c.copy()
    assert d.try_add_triangle(2)
    assert c.tour() is first
    _assert_tour_matches_bfs(d)
    d.remove_triangle(0)
    _assert_tour_matches_bfs(d)
    _assert_tour_matches_bfs(c)
