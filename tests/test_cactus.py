"""Incremental triangular-cactus container and the triple helpers."""

import pytest

from cactus_forge import (
    InvalidCactusError,
    TriangularCactus,
    cactus_from_triples,
    cactus_to_triples,
    is_valid_cactus,
)
from cactus_forge.cactus import triples_form_cactus
from cactus_forge.errors import TriangleNotInCactusError, UnknownTriangleError


def test_empty_cactus(k4):
    c = TriangularCactus(k4)
    assert c.delta == 0
    assert len(c) == 0
    assert c.triangle_ids == ()
    assert c.spanned_vertices() == frozenset()


def test_ceiling_counts_host_components(necklace):
    # The isolated vertex 0 holds no triangle and the six others at most
    # (6 - 1) // 2 = 2, so the ceiling is 2 triangles, not (7 - 1) // 2 = 3.
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
    assert 0 in c
    assert k4.triangles[0] in c
    assert c.delta == 1
    assert c.spanned_vertices() == {0, 1, 2}


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
    assert c.component_of(1) == {1, 2, 3}
    assert c.try_add_triangle(tris[(1, 4, 5)])
    assert c.component_of(2) == {1, 2, 3, 4, 5}
    assert c.same_component(3, 5)
    # 2 and 4 already touch, so the last face can't join
    assert not c.try_add_triangle(tris[(2, 4, 6)])
    comps = c.components()
    assert {1, 2, 3, 4, 5} in [set(x) for x in comps]


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
    assert not c.same_component(0, 3)
    with pytest.raises(TriangleNotInCactusError):
        c.remove_triangle(middle)


def test_split_at_parts(heavy_path):
    c = heavy_path.cactus
    middle = [t.id for t in heavy_path.g.triangles if t.vertices == (1, 2, 5)][0]
    sp = c.split_at(middle)
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
        c.split_at(outsider)


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
