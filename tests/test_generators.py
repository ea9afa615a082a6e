"""Instance families: triangulations, wheels, fans, solids, grids."""

import hashlib
import json

import pytest

from cactus_forge import GeneratorSpec, build_instance
from cactus_forge.cli import main
from cactus_forge.errors import (
    CactusForgeError,
    InvalidSpecError,
    TooSmallError,
    UnknownFamilyError,
)
from cactus_forge.generators import FAMILIES
from cactus_forge.pipeline import verify_corpus


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
    # A non-str family is no family name either, not a bare TypeError.
    with pytest.raises(UnknownFamilyError, match=r"\['x'\]"):
        build_instance(GeneratorSpec(["x"], n=8))


@pytest.mark.parametrize(
    "field, value",
    [("n", 6.0), ("n", True), ("seed", True), ("seed", 1.0), ("width", 3.0),
     ("height", False), ("flips", 4.0), ("flips", True)],
)
def test_spec_counts_must_be_ints(field, value):
    # seed=True used to build seed 1's graph under the label ...:sTrue.
    fields = {"n": 6, "seed": 1, field: value}
    for family in ("random_maximal_planar", "grid_triangulation"):
        with pytest.raises(InvalidSpecError, match=f"^{field} must be an int, got {value!r}$"):
            build_instance(GeneratorSpec(family, **fields))


def test_spec_errors_are_bad_input():
    # A library error and a ValueError, so the CLI exits 4 on it, and the
    # sweep records it on the row under the label the spec gives.
    assert issubclass(InvalidSpecError, CactusForgeError)
    assert issubclass(InvalidSpecError, ValueError)
    res = verify_corpus([GeneratorSpec("random_maximal_planar", n=6, seed=True)])
    assert res.rows[0].instance == "random_maximal_planar:n6:sTrue"
    assert res.rows[0].failures == ("generate: seed must be an int, got True",)


# sha256 of json.dumps(rotations), pinned when the generator's face
# table was rebuilt: the drawings it makes must not move.
ROTATIONS_SHA256 = {
    ("random_maximal_planar", 16, 1): "2fb07b23119cfa5678c295c6364318e5799ee2c1086381c008f3013a2e715f7a",
    ("random_maximal_planar", 40, 2): "6d5e9c36f875956c9d8dafd04d6b56051cf93cca62ef9b26d3f3ddfc379c4bf3",
    ("random_maximal_planar", 128, 3): "6e84d61acdb0d667ff856ae38980f1cfeb95512366d867eaf0c35c129a86e5d8",
    ("apollonian", 16, 1): "1d56a9cb2ba2bd33b3fa58da9bf1acb08349d7ea191197da4420e25859f5e5bb",
    ("apollonian", 40, 2): "6f12a4e2a0c02d7d27996fde31a5d07a3ad2e3858ca80231c14cf2addd8e7f2c",
    ("apollonian", 128, 3): "14eb8d2a129c542c55d1eab6cfe4d2eb8e67fae34a58d732ded9f4194a851517",
}


@pytest.mark.parametrize("family,n,seed", sorted(ROTATIONS_SHA256))
def test_rotations_are_pinned(family, n, seed):
    g = build_instance(GeneratorSpec(family, n=n, seed=seed))
    digest = hashlib.sha256(json.dumps(g.rotations).encode()).hexdigest()
    assert digest == ROTATIONS_SHA256[family, n, seed]


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

    def test_negative_flips_are_rejected(self, capsys):
        # Not zero flips under another label: the count is bad input.
        spec = GeneratorSpec("random_maximal_planar", n=10, seed=3, flips=-4)
        with pytest.raises(TooSmallError, match="-4"):
            build_instance(spec)
        argv = ["generate", "--family", "random_maximal_planar", "--n", "8"]
        assert main(argv + ["--flips", "-2"]) == 4
        assert "flips must be at least 0, got -2" in capsys.readouterr().err


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
    assert len(w6.faces[w6.outer_face_id].vertices) == 5
    assert len(w6.rotations[0]) == 5  # hub
    with pytest.raises(TooSmallError):
        build_instance(GeneratorSpec("wheel", n=3))


def test_fans():
    f6 = build_instance(GeneratorSpec("fan", n=6))
    assert (f6.n, f6.edge_count, f6.f3_internal, f6.f3_all) == (6, 9, 4, 4)
    assert len(f6.faces[f6.outer_face_id].vertices) == 6
    with pytest.raises(TooSmallError):
        build_instance(GeneratorSpec("fan", n=2))


def test_platonics():
    sizes = {"tetrahedron": (4, 6, 4), "octahedron": (6, 12, 8), "icosahedron": (12, 30, 20)}
    for name, (n, e, f3) in sizes.items():
        g = build_instance(GeneratorSpec("platonic", name=name))
        assert (g.n, g.edge_count, g.f3_all) == (n, e, f3)
    with pytest.raises(UnknownFamilyError):
        build_instance(GeneratorSpec("platonic", name="dodecahedron_typo"))


@pytest.mark.parametrize("name", [["x"], None, 3, b"octahedron"])
def test_platonic_name_must_be_a_known_str(name):
    # An unhashable name used to escape as a bare TypeError.
    with pytest.raises(UnknownFamilyError, match="unknown platonic solid"):
        build_instance(GeneratorSpec("platonic", name=name))


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
        assert spec.label() is GeneratorSpec(**spec._asdict()).label()
