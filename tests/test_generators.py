"""Instance families: triangulations, wheels, fans, solids, grids."""

import pytest

from cactus_forge import GeneratorSpec, build_instance
from cactus_forge.errors import TooSmallError, UnknownFamilyError
from cactus_forge.generators import FAMILIES


def test_family_registry():
    assert set(FAMILIES) == {
        "random_maximal_planar",
        "apollonian",
        "wheel",
        "fan",
        "platonic",
        "grid_triangulation",
    }
    with pytest.raises(UnknownFamilyError):
        build_instance(GeneratorSpec("moebius_kantor", n=8))


class TestRandomMaximalPlanar:
    @pytest.mark.parametrize("n,seed", [(4, 0), (9, 2), (16, 5), (33, 11), (64, 60)])
    def test_is_a_triangulation(self, n, seed):
        g = build_instance(GeneratorSpec("random_maximal_planar", n=n, seed=seed))
        assert g.n == n
        assert g.connected
        assert g.edge_count == 3 * n - 6
        assert g.f3_internal == 2 * n - 5
        assert g.f3_all == 2 * n - 4  # the outer face is a triangle too

    def test_deterministic_per_spec(self):
        spec = GeneratorSpec("random_maximal_planar", n=20, seed=3)
        assert build_instance(spec).rotations == build_instance(spec).rotations

    def test_seed_changes_the_instance(self):
        a = build_instance(GeneratorSpec("random_maximal_planar", n=20, seed=0))
        b = build_instance(GeneratorSpec("random_maximal_planar", n=20, seed=1))
        assert a.rotations != b.rotations

    def test_flip_walk_length_is_settable(self):
        base = build_instance(
            GeneratorSpec("random_maximal_planar", n=14, seed=4, flips=0)
        )
        walked = build_instance(
            GeneratorSpec("random_maximal_planar", n=14, seed=4, flips=50)
        )
        assert base.edge_count == walked.edge_count == 3 * 14 - 6
        assert base.rotations != walked.rotations

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            build_instance(GeneratorSpec("random_maximal_planar", n=2, seed=0))


def test_apollonian_stays_maximal():
    g = build_instance(GeneratorSpec("apollonian", n=10, seed=3))
    assert g.n == 10
    assert g.edge_count == 24
    assert g.f3_internal == 15


def test_wheels():
    w4 = build_instance(GeneratorSpec("wheel", n=4))
    assert (w4.n, w4.edge_count, w4.f3_internal) == (4, 6, 3)
    w6 = build_instance(GeneratorSpec("wheel", n=6))
    assert (w6.n, w6.edge_count) == (6, 10)
    assert w6.f3_internal == 5
    assert w6.f3_all == 5  # the rim pentagon is not a triangle
    assert len(w6.outer_face.vertices) == 5
    assert w6.degree(0) == 5  # hub
    with pytest.raises(TooSmallError):
        build_instance(GeneratorSpec("wheel", n=3))


def test_fans():
    f6 = build_instance(GeneratorSpec("fan", n=6))
    assert (f6.n, f6.edge_count, f6.f3_internal, f6.f3_all) == (6, 9, 4, 4)
    assert len(f6.outer_face.vertices) == 6
    with pytest.raises(TooSmallError):
        build_instance(GeneratorSpec("fan", n=2))


def test_platonics():
    sizes = {"tetrahedron": (4, 6, 4), "octahedron": (6, 12, 8), "icosahedron": (12, 30, 20)}
    for name, (n, e, f3) in sizes.items():
        g = build_instance(GeneratorSpec("platonic", name=name))
        assert (g.n, g.edge_count, g.f3_all) == (n, e, f3)
    with pytest.raises(UnknownFamilyError):
        build_instance(GeneratorSpec("platonic", name="dodecahedron_typo"))


def test_grids():
    g33 = build_instance(GeneratorSpec("grid_triangulation", width=3, height=3))
    assert (g33.n, g33.edge_count, g33.f3_internal) == (9, 16, 8)
    g44 = build_instance(GeneratorSpec("grid_triangulation", width=4, height=4))
    assert (g44.n, g44.edge_count, g44.f3_internal) == (16, 33, 18)
    with pytest.raises(TooSmallError):
        build_instance(GeneratorSpec("grid_triangulation", width=1, height=5))


def test_labels():
    assert GeneratorSpec("random_maximal_planar", n=16, seed=5).label() == (
        "random_maximal_planar:n16:s5"
    )
    assert GeneratorSpec("platonic", name="octahedron").label() == "platonic:octahedron"
    assert GeneratorSpec("grid_triangulation", width=3, height=3).label() == "grid:3x3"
    assert GeneratorSpec("wheel", n=6).label() == "wheel:n6"
    assert GeneratorSpec("apollonian", n=10, seed=3).label() == "apollonian:n10:s3"
    # Rebuilt specs share one label string, so records kept per pass do not
    # each hold a copy.
    for spec in (GeneratorSpec("random_maximal_planar", n=16, seed=5),
                 GeneratorSpec("platonic", name="octahedron"),
                 GeneratorSpec("grid_triangulation", width=3, height=3)):
        assert spec.label() is GeneratorSpec(**vars(spec)).label()
